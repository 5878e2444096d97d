"""Shared-memory thread pool for the time-parallel block loops.

A single process-wide pool is configured once (typically by the CLI).  Block
maps write to disjoint output slots, and the batched solvers treat each
column of a chunk exactly as they would in any other chunk, so results are
deterministic and independent of the thread count.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Callable

_lock = threading.Lock()
_pool: ThreadPoolExecutor | None = None
_num_threads = 1


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
            _pool = ThreadPoolExecutor(max_workers=n)


def get_num_threads() -> int:
    return _num_threads


def block_map(fn: Callable[[int], None], count: int) -> None:
    """Run fn(k) for k in range(count); fn must write only to its own slot."""
    pool = _pool
    if pool is None or count < 2:
        for k in range(count):
            fn(k)
        return
    list(pool.map(fn, range(count)))


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
