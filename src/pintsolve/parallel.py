"""Shared-memory thread pool for the time-parallel block loops.

A single process-wide pool is configured once (typically by the CLI).  Block
maps write to disjoint output slots, and the batched solvers treat each
column of a chunk exactly as they would in any other chunk, so results are
deterministic and independent of the thread count.

On n threads the pool holds n - 1 workers, and the thread that calls a
block map takes its tasks in turn with them: each thread takes the next
task until none is left.  A worker that is slow to start therefore delays
a map by at most the one task it holds, and one that has not started when
the tasks run out is cancelled.  A block map called from a task runs its
tasks inline: the other threads are busy with the outer map.  A stage
clocked in a task adds its share of the wall time (``add_seconds``), so the
clocks stay within the wall time on any thread count.  Work arrays that a
task writes are kept per thread (``WorkBlocks``).
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Hashable

_lock = threading.Lock()
_clock_lock = threading.Lock()
_pool: ThreadPoolExecutor | None = None
_num_threads = 1
_task = threading.local()


def _mark_worker() -> None:
    _task.active = True


def set_num_threads(n: int) -> None:
    global _pool, _num_threads
    if n < 1:
        raise ValueError("thread count must be >= 1")
    with _lock:
        if _pool is not None:
            _pool.shutdown(wait=True)
            _pool = None
        _num_threads = n
        if n > 1:
            # the calling thread is the n-th
            _pool = ThreadPoolExecutor(max_workers=n - 1, initializer=_mark_worker)


def get_num_threads() -> int:
    return _num_threads


def in_task() -> bool:
    """True on a pool worker, and on the calling thread while it takes the
    tasks of a block map spread over the pool."""
    return getattr(_task, "active", False)


def block_map(fn: Callable[[int], None], count: int) -> None:
    """Run fn(k) for k in range(count); fn must write only to its own slot.

    The calling thread and up to get_num_threads() - 1 pool workers take
    the tasks in turn.  In a task, or with fewer than two tasks, the tasks
    run inline.
    """
    pool = _pool
    if pool is None or count < 2 or in_task():
        for k in range(count):
            fn(k)
        return
    lock = threading.Lock()
    next_k = 0

    def take() -> None:
        nonlocal next_k
        while True:
            with lock:
                k, next_k = next_k, next_k + 1
            if k >= count:
                return
            try:
                fn(k)
            except BaseException:
                with lock:
                    next_k = count  # hand out no more tasks
                raise

    helpers = [pool.submit(take) for _ in range(min(_num_threads, count) - 1)]
    _task.active = True
    try:
        take()
    finally:
        _task.active = False
        for helper in helpers:
            if not helper.cancel():  # started: wait for its last task
                helper.result()


def chunks(count: int, width: int | None = None) -> list[slice]:
    """Split range(count) into contiguous slices of near-equal length.

    Without width there are at most get_num_threads() slices; with it, as
    many more as keep each slice at most width long.
    """
    parts = _num_threads if width is None else max(_num_threads, -(-count // width))
    parts = max(1, min(parts, count))
    bounds = [count * i // parts for i in range(parts + 1)]
    return [slice(lo, hi) for lo, hi in zip(bounds, bounds[1:])]


def chunk_map(fn: Callable[[slice], None], count: int,
              width: int | None = None) -> None:
    """Run fn(cols) over chunks(count, width); fn must write only to its own columns."""
    parts = chunks(count, width)
    block_map(lambda i: fn(parts[i]), len(parts))


def add_seconds(owner: object, name: str, seconds: float) -> None:
    """Add a stage's duration to the clock ``owner.name``, under a lock.

    Outside a task the clock takes all of it; in a task (``in_task``) it
    takes seconds / get_num_threads().  The stages of the n threads within
    one region of wall time R sum to at most n * R, so the clock grows by
    at most R, and the clocks of disjoint stages never add up to more than
    the wall time.
    """
    if in_task():
        seconds /= _num_threads
    with _clock_lock:
        setattr(owner, name, getattr(owner, name) + seconds)


class WorkBlocks:
    """Work arrays that each thread makes once and then reuses.

    ``get(key, make)`` returns make(key) from the calling thread's first
    call with that key, and the same object on every later call there.  No
    two threads share an entry, so tasks running at once each write to
    their own arrays; a pool worker's entries go with the worker.
    """

    def __init__(self):
        self._local = threading.local()

    def get(self, key: Hashable, make: Callable[[Hashable], object]):
        try:
            cache = self._local.cache
        except AttributeError:
            cache = self._local.cache = {}
        found = cache.get(key)
        if found is None:
            found = cache[key] = make(key)
        return found
