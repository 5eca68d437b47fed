"""``parallel.ordered_texts``: where it may fork, and its worker records."""

from __future__ import annotations

import os
import threading

import pytest

from hgpoly.parallel import _receive, ordered_texts


def test_builds_in_the_caller_alone_without_os_fork(monkeypatch):
    monkeypatch.delattr(os, "fork")
    assert list(ordered_texts(str, [1, 2, 3], 3)) == ["1", "2", "3"]


def test_builds_in_the_caller_alone_while_another_thread_runs(monkeypatch):
    # a forked child would hold only this thread, and whatever locks the other held
    def fork():
        raise AssertionError("forked")

    monkeypatch.setattr(os, "fork", fork)
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        assert list(ordered_texts(str, [1, 2, 3], 3)) == ["1", "2", "3"]
    finally:
        stop.set()
        thread.join()


@pytest.mark.parametrize(
    "sent, received",
    [
        # a head cut short: whole, these 7 zero bytes would start an empty text
        (b"\x00" * 7, [None]),
        # a whole head and a payload cut short
        ((10).to_bytes(8, "big") + b"abc", [None]),
        ((3).to_bytes(8, "big") + b"abc" + (0).to_bytes(8, "big"), ["abc", "", None]),
    ],
    ids=["short head", "short payload", "whole records"],
)
def test_receive_takes_only_whole_records(sent, received):
    read_fd, write_fd = os.pipe()
    with os.fdopen(write_fd, "wb") as out:
        out.write(sent)
    with os.fdopen(read_fd, "rb") as reader:
        assert [_receive(reader) for _ in received] == received
