import sys
import threading
import time

import numpy as np
import pytest

import pintsolve as ps
from pintsolve import parallel


@pytest.fixture
def two_threads():
    ps.set_num_threads(2)
    try:
        yield
    finally:
        ps.set_num_threads(1)


def run_with_timeout(fn, seconds=20.0):
    """fn(caller ident) in a daemon thread; a deadlock fails instead of
    hanging: the pool's queued tasks are cancelled, which frees the workers
    that wait on them."""
    outcome = {}

    def target():
        try:
            outcome["value"] = fn(threading.get_ident())
        except BaseException as exc:  # re-raised on the test's thread
            outcome["error"] = exc

    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    thread.join(seconds)
    if thread.is_alive():
        parallel._pool.shutdown(wait=False, cancel_futures=True)
        thread.join(seconds)
        pytest.fail("block map deadlocked")
    if "error" in outcome:
        raise outcome["error"]
    return outcome.get("value")


class TestNestedMaps:
    def test_nested_maps_run_inline(self, two_threads):
        out = np.zeros((2, 10))
        threads = {}
        both_busy = threading.Barrier(2, timeout=10.0)

        def outer(k):
            # the calling thread and the worker each hold one outer task, so
            # the inner map has no free thread to wait for
            both_busy.wait()

            def inner(cols):
                threads.setdefault(k, set()).add(threading.get_ident())
                out[k, cols] = k + 1.0

            parallel.chunk_map(inner, out.shape[1])
            threads.setdefault(k, set()).add(threading.get_ident())
            still_in_task[k] = parallel.in_task()

        def call(caller):
            parallel.block_map(outer, 2)
            return caller

        still_in_task = [None, None]
        caller = run_with_timeout(call)
        assert np.array_equal(out, [[1.0] * 10, [2.0] * 10])
        assert still_in_task == [True, True]
        # each outer task ran its inner chunks on its own thread
        assert all(len(idents) == 1 for idents in threads.values())
        assert caller in set.union(*threads.values())
        assert len(set.union(*threads.values())) == 2

    def test_single_task_on_calling_thread_keeps_the_pool(self, two_threads):
        idents = set()
        together = threading.Barrier(2, timeout=10.0)

        def inner(cols):
            idents.add(threading.get_ident())
            together.wait()  # passes only if the two chunks run at once

        def outer(k):
            assert not parallel.in_task()
            parallel.chunk_map(inner, 8)

        def call(caller):
            parallel.block_map(outer, 1)
            return caller

        caller = run_with_timeout(call)
        # a one-task map is no task: its nested map takes a worker as well
        assert len(idents) == 2 and caller in idents

    def test_in_task(self, two_threads):
        flags = [None, None]

        def task(k):
            flags[k] = parallel.in_task()

        parallel.block_map(task, 2)
        assert flags == [True, True]
        assert not parallel.in_task()


class TestSharedTasks:
    def test_busy_worker_does_not_hold_the_map(self, two_threads):
        release = threading.Event()
        blocker = parallel._pool.submit(release.wait, 20.0)
        ran = []

        def call(caller):
            parallel.block_map(lambda k: ran.append((k, threading.get_ident())), 4)
            return caller

        try:
            caller = run_with_timeout(call, seconds=10.0)
        finally:
            release.set()
            blocker.result()
        # the calling thread took every task and did not wait for the worker
        assert sorted(k for k, _ in ran) == [0, 1, 2, 3]
        assert {ident for _, ident in ran} == {caller}

    def test_failed_task_raises_and_pool_stays_usable(self, two_threads):
        def task(k):
            if k == 1:
                raise ValueError("task 1")

        with pytest.raises(ValueError, match="task 1"):
            parallel.block_map(task, 6)
        out = np.zeros(6)
        parallel.block_map(lambda k: out.__setitem__(k, k), 6)
        assert np.array_equal(out, np.arange(6.0))

    def test_every_task_runs_once(self):
        # more threads than cores and a short switch interval: a task handed
        # out twice or skipped shows in its count
        runs = np.zeros(500, dtype=int)

        def task(k):
            runs[k] += 1

        interval = sys.getswitchinterval()
        ps.set_num_threads(4)
        try:
            sys.setswitchinterval(1e-6)
            for _ in range(20):
                run_with_timeout(lambda caller: parallel.block_map(task, len(runs)))
        finally:
            sys.setswitchinterval(interval)
            ps.set_num_threads(1)
        assert np.all(runs == 20)


class TestAddSeconds:
    class Clock:
        seconds = 0.0

    def test_calling_thread_adds_all(self, two_threads):
        clock = self.Clock()
        parallel.add_seconds(clock, "seconds", 0.5)
        assert clock.seconds == 0.5

    def test_workers_add_their_share(self, two_threads):
        clock = self.Clock()

        def task(k):
            parallel.add_seconds(clock, "seconds", 0.5)

        parallel.block_map(task, 4)
        assert clock.seconds == pytest.approx(4 * 0.5 / 2)

    def test_share_stays_within_the_region(self, two_threads):
        # two workers, each timing its sleeping tasks in full, fully overlap:
        # their shares add up to at most the region's wall time
        clock = self.Clock()

        def task(k):
            start = time.perf_counter()
            time.sleep(0.02)
            parallel.add_seconds(clock, "seconds", time.perf_counter() - start)

        start = time.perf_counter()
        parallel.block_map(task, 4)
        assert clock.seconds <= time.perf_counter() - start

    def test_no_lost_updates(self):
        # more workers than cores and a short switch interval: an unlocked
        # read-modify-write would lose some of these exact additions
        clock = self.Clock()

        def task(k):
            for _ in range(2000):
                parallel.add_seconds(clock, "seconds", 1.0)

        interval = sys.getswitchinterval()
        ps.set_num_threads(4)
        try:
            sys.setswitchinterval(1e-6)
            run_with_timeout(lambda caller: parallel.block_map(task, 8))
        finally:
            sys.setswitchinterval(interval)
            ps.set_num_threads(1)
        assert clock.seconds == 8 * 2000 * 1.0 / 4
