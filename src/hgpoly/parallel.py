"""An ordered map over forked workers; the only module that forks.

``ordered_texts(build, items)`` yields ``build(item)`` for each item, in
order, and alone decides how many processes build them: w is one per
usable core (``os.sched_getaffinity``, else ``os.cpu_count``) and at
most one per item, or 1 where the caller cannot fork safely (no
``os.fork``, or another thread is running). Item k is built by worker k
mod w: worker 0 is the calling process, and the w - 1 others are forked
on the first draw. Each sends its texts through its own pipe, as the
length in 8 bytes and then the UTF-8 bytes, and a text is read only
when its turn comes. An item no worker sent (its worker could not be
forked, or it failed on that item or an earlier one) is built by the
caller, so it fails as with one worker. A worker writes nothing else
and leaves by ``os._exit``; every worker is killed and reaped when the
map ends, early or not.

``_executor`` is always None: there is no process pool, and perfbench's
tracer reads it.
"""

from __future__ import annotations

import os
import sys
from collections.abc import Callable, Iterator

_executor = None


def ordered_texts(build: Callable[[object], str], items: list) -> Iterator[str]:
    """build(item) for each item, in order, shared among w processes (see
    above). items is emptied as it is drawn, so each item is freed once
    the next one is drawn."""
    threading = sys.modules.get("threading")
    safe = hasattr(os, "fork") and (threading is None or threading.active_count() == 1)
    workers = min(_usable_cores(), len(items)) if safe else 1
    children: list = []  # (pid, the read end of its pipe)
    try:
        try:
            for worker in range(1, workers):
                children.append(_fork(build, items, worker, workers, children))
        except OSError:  # no process or pipe to be had: the workers not forked send nothing
            pass
        for k, item in enumerate(_drawn(items)):
            worker = k % workers
            text = _receive(children[worker - 1][1]) if 0 < worker <= len(children) else None
            yield build(item) if text is None else text
    finally:
        _stop(children)


def _usable_cores() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def _drawn(items: list) -> Iterator:
    items.reverse()
    while items:  # popped, so an item is freed as soon as the next one is drawn
        yield items.pop()


def _fork(build, items: list, worker: int, workers: int, children: list) -> tuple:
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_fd)
        os.close(write_fd)
        raise
    if pid == 0:
        _work(build, items, worker, workers, write_fd, [read_fd] + [reader.fileno() for _, reader in children])
    os.close(write_fd)
    return pid, os.fdopen(read_fd, "rb")


def _stop(children: list) -> None:
    """Kill and reap every worker in children, emptying it."""
    if not children:
        return
    from signal import SIGKILL  # signal costs every CLI process a millisecond to import

    while children:
        pid, reader = children.pop()
        os.kill(pid, SIGKILL)
        os.waitpid(pid, 0)
        reader.close()


def _work(build, items: list, worker: int, workers: int, write_fd: int, inherited: list[int]) -> None:
    """A forked worker's whole life: send the text of each item k with
    k mod workers == worker until the items end or one raises. It never
    returns: it leaves by ``os._exit`` whatever happens."""
    try:
        for fd in inherited:  # the read ends of this and earlier pipes
            os.close(fd)
        with os.fdopen(write_fd, "wb") as out:
            for k, item in enumerate(_drawn(items)):
                if k % workers == worker:
                    data = build(item).encode()
                    out.write(len(data).to_bytes(8, "big") + data)
                    out.flush()
    finally:
        os._exit(0)  # never read: the calling process kills and reaps every worker


def _receive(reader) -> str | None:
    """The next text a worker sent, or None once it has ended without sending it whole."""
    head = reader.read(8)
    if len(head) == 8:
        size = int.from_bytes(head, "big")
        data = reader.read(size)
        if len(data) == size:
            return data.decode()
    return None
