"""``parallel.ordered_texts``: how many workers it forks, where it may fork, and its worker records."""

from __future__ import annotations

import os
import threading

import pytest

from hgpoly import parallel
from hgpoly.parallel import _receive, ordered_texts


def test_usable_cores_reads_the_affinity_else_the_core_count(monkeypatch):
    if hasattr(os, "sched_getaffinity"):
        assert parallel._usable_cores() == len(os.sched_getaffinity(0))
        monkeypatch.delattr(os, "sched_getaffinity")
    assert parallel._usable_cores() == (os.cpu_count() or 1)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="no os.fork")
@pytest.mark.parametrize("cores, items, forks", [(1, 4, 0), (3, 2, 1), (3, 5, 2), (4, 0, 0)])
def test_forks_one_worker_per_core_and_item_beside_the_caller(monkeypatch, cores, items, forks):
    forked = []
    fork = os.fork

    def counted():
        pid = fork()
        forked.append(pid)
        return pid

    monkeypatch.setattr(parallel, "_usable_cores", lambda: cores)
    monkeypatch.setattr(os, "fork", counted)
    assert list(ordered_texts(str, list(range(items)))) == [str(k) for k in range(items)]
    assert len(forked) == forks


def test_builds_in_the_caller_alone_without_os_fork(monkeypatch):
    monkeypatch.setattr(parallel, "_usable_cores", lambda: 3)
    monkeypatch.delattr(os, "fork")
    assert list(ordered_texts(str, [1, 2, 3])) == ["1", "2", "3"]


def test_builds_in_the_caller_alone_while_another_thread_runs(monkeypatch):
    # a forked child would hold only this thread, and whatever locks the other held
    def fork():
        raise AssertionError("forked")

    monkeypatch.setattr(parallel, "_usable_cores", lambda: 3)
    monkeypatch.setattr(os, "fork", fork)
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        assert list(ordered_texts(str, [1, 2, 3])) == ["1", "2", "3"]
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
