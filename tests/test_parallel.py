import multiprocessing
import os
from concurrent.futures import Future

import pytest

from ctwalk import parallel
from ctwalk.parallel import WorkerDied, ordered_map, usable_cpus


def square_where(x):
    return x * x, os.getpid()


def use_cpus(monkeypatch, cpus):
    monkeypatch.setattr(parallel, "usable_cpus", lambda: cpus)


def forbid_pool(monkeypatch):
    def no_pool(workers, fn):
        raise AssertionError("a process pool was started")

    monkeypatch.setattr(parallel, "_make_pool", no_pool)


@pytest.mark.parametrize("cpus", [1, 2, 3])
@pytest.mark.parametrize("count", [0, 1, 2, 7, 20])
def test_results_come_in_input_order(monkeypatch, cpus, count):
    use_cpus(monkeypatch, cpus)
    got = list(ordered_map(square_where, range(count)))
    assert [value for value, _ in got] == [i * i for i in range(count)]
    busy = min(cpus, count)
    here = [i for i, (_, pid) in enumerate(got) if pid == os.getpid()]
    # the caller computes every busy-th item, the workers the rest
    assert here == (list(range(count)) if busy <= 1 else list(range(0, count, busy)))
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("cpus,max_workers,count", [(1, None, 5), (4, 1, 5), (4, None, 1)])
def test_in_process_cases_start_no_pool(monkeypatch, cpus, max_workers, count):
    use_cpus(monkeypatch, cpus)
    forbid_pool(monkeypatch)
    got = list(ordered_map(square_where, range(count), max_workers=max_workers))
    assert got == [(i * i, os.getpid()) for i in range(count)]


@pytest.mark.parametrize("cpus,max_workers,workers", [(2, None, 1), (3, None, 2), (8, 3, 2)])
def test_at_most_two_items_per_worker_are_submitted(monkeypatch, cpus, max_workers, workers):
    submitted, sizes = [], []

    class SerialPool:
        def __init__(self, max_workers, fn):
            sizes.append(max_workers)
            self.fn = fn

        def submit(self, call, item):
            submitted.append(item)
            future = Future()
            future.set_result(self.fn(item))
            return future

        def shutdown(self, wait, cancel_futures):
            pass

    use_cpus(monkeypatch, cpus)
    monkeypatch.setattr(parallel, "_make_pool", SerialPool)
    outstanding = []
    for item in ordered_map(lambda x: x, range(40), max_workers=max_workers):
        outstanding.append(sum(i > item for i in submitted))
    assert sizes == [workers]
    assert len(submitted) == 40 - len(range(0, 40, workers + 1))
    assert max(outstanding) == 2 * workers


def test_nested_call_in_a_worker_runs_in_process(monkeypatch):
    use_cpus(monkeypatch, 2)

    def inner(x):
        return os.getpid(), [pid for _, pid in ordered_map(square_where, range(4))]

    got = list(ordered_map(inner, range(4)))
    in_workers = [(pid, nested) for pid, nested in got if pid != os.getpid()]
    assert in_workers
    for pid, nested in in_workers:
        assert nested == [pid] * 4
    assert multiprocessing.active_children() == []


def boom(x):
    if x == 5:
        raise KeyError(x)
    return x


@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_an_item_error_propagates_and_the_pool_goes(monkeypatch, cpus):
    use_cpus(monkeypatch, cpus)
    with pytest.raises(KeyError):
        list(ordered_map(boom, range(12)))
    assert multiprocessing.active_children() == []


def test_a_dead_worker_raises_worker_died(monkeypatch):
    use_cpus(monkeypatch, 2)
    parent = os.getpid()

    def dies_in_worker(x):
        if os.getpid() != parent:
            os._exit(3)
        return x

    with pytest.raises(WorkerDied):
        list(ordered_map(dies_in_worker, range(6)))
    assert multiprocessing.active_children() == []


def test_closing_early_shuts_the_pool_down(monkeypatch):
    use_cpus(monkeypatch, 2)
    results = ordered_map(square_where, range(50))
    assert next(results)[0] == 0
    results.close()
    assert multiprocessing.active_children() == []


def test_usable_cpus_reads_the_affinity_mask(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {3}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    assert usable_cpus() == 1


@pytest.mark.parametrize("count,cpus", [(8, 8), (None, 1)])
def test_usable_cpus_falls_back_to_the_cpu_count(monkeypatch, count, cpus):
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: count)
    assert usable_cpus() == cpus
