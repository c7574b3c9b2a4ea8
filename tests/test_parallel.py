import multiprocessing
import os
import signal
from concurrent.futures import Future

import pytest

from ctwalk import parallel
from ctwalk.parallel import WorkerDied, in_turns, ordered_map, usable_cpus


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


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def uneven(i):
    """Item i's bytes: its index, the writing pid and 0 to 70k filler bytes."""
    return b"%d %d " % (i, os.getpid()) + bytes([65 + i % 26]) * (i * 7919 % 70001) + b"\n"


def turns_to_file(path, fn, items):
    """in_turns(fn, items) emitting to a file every process shares, and its lines."""
    with open(path, "wb", buffering=0) as fh:
        in_turns(fn, items, fh.write)
    return path.read_bytes().splitlines()


@pytest.mark.parametrize("cpus", [1, 2, 3])
@pytest.mark.parametrize("count", [0, 1, 2, 7, 20])
def test_turns_emit_uneven_results_in_input_order(tmp_path, monkeypatch, cpus, count):
    use_cpus(monkeypatch, cpus)
    lines = turns_to_file(tmp_path / "out", uneven, range(count))
    fields = [line.split(b" ", 2) for line in lines]
    assert [(i, filler) for i, _, filler in fields] == [
        (b"%d" % i, uneven(i).split(b" ", 2)[2][:-1]) for i in range(count)]
    pids = [int(pid) for _, pid, _ in fields]
    busy = max(1, min(cpus, count))
    # process r of busy computes items r, r + busy, ...; the caller is process 0
    assert [i for i, pid in enumerate(pids) if pid == os.getpid()] == list(range(0, count, busy))
    assert len(set(pids)) == min(cpus, count)
    assert all(pids[i] == pids[i % busy] for i in range(count))
    assert_no_child_left()


def forbid_fork(monkeypatch):
    def no_fork():
        raise AssertionError("a process was forked")

    monkeypatch.setattr(os, "fork", no_fork)


@pytest.mark.parametrize("cpus,count,worker", [(1, 5, False), (4, 1, False), (4, 5, True)])
def test_turns_run_in_process_on_one_cpu_one_item_or_in_a_worker(tmp_path, monkeypatch, cpus,
                                                                 count, worker):
    use_cpus(monkeypatch, cpus)
    forbid_fork(monkeypatch)
    if worker:
        monkeypatch.setattr(parallel, "_task", uneven)
    lines = turns_to_file(tmp_path / "out", uneven, range(count))
    assert lines == [uneven(i)[:-1] for i in range(count)]


def explodes(bad):
    def fn(x):
        if x == bad:
            raise KeyError(x)
        return b"%d\n" % x

    return fn


@pytest.mark.parametrize("cpus,bad", [(1, 5), (2, 6), (3, 9)])
def test_an_error_of_the_callers_item_propagates(tmp_path, monkeypatch, cpus, bad):
    use_cpus(monkeypatch, cpus)
    with pytest.raises(KeyError):
        turns_to_file(tmp_path / "out", explodes(bad), range(12))
    # every item before the caller's failed one was written, in order
    assert (tmp_path / "out").read_bytes().splitlines()[:bad - cpus + 1] == [
        b"%d" % i for i in range(bad - cpus + 1)]
    assert_no_child_left()


@pytest.mark.parametrize("cpus,bad", [(2, 5), (3, 4), (3, 8)])
def test_an_error_of_a_childs_item_raises_worker_died(tmp_path, monkeypatch, capfd, cpus, bad):
    use_cpus(monkeypatch, cpus)
    with pytest.raises(WorkerDied, match=f"process {bad % cpus} of {cpus} exited with status 1"):
        turns_to_file(tmp_path / "out", explodes(bad), range(12))
    assert "KeyError" in capfd.readouterr().err  # the child's own traceback
    assert_no_child_left()


@pytest.mark.parametrize("cpus", [2, 3])
def test_a_child_killed_before_its_turn_raises_worker_died(tmp_path, monkeypatch, cpus):
    use_cpus(monkeypatch, cpus)
    parent = os.getpid()

    def killed_in_child(x):
        if os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        return b"%d\n" % x

    with pytest.raises(WorkerDied, match=f"process 1 of {cpus} was killed by signal"):
        turns_to_file(tmp_path / "out", killed_in_child, range(9))
    assert (tmp_path / "out").read_bytes() == b"0\n"
    assert_no_child_left()


@pytest.mark.parametrize("cpus", [2, 3])
def test_a_failed_emit_in_the_caller_leaves_no_child(tmp_path, monkeypatch, cpus):
    use_cpus(monkeypatch, cpus)
    parent = os.getpid()
    with open(tmp_path / "out", "wb", buffering=0) as fh:
        def emit(data):
            if os.getpid() == parent and data != b"0\n":
                raise OSError("disk full")
            fh.write(data)

        with pytest.raises(OSError, match="disk full"):
            in_turns(lambda x: b"%d\n" % x, range(10), emit)
    assert (tmp_path / "out").read_bytes() == b"".join(b"%d\n" % i for i in range(cpus))
    assert_no_child_left()


def test_usable_cpus_reads_the_affinity_mask(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {3}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    assert usable_cpus() == 1


@pytest.mark.parametrize("count,cpus", [(8, 8), (None, 1)])
def test_usable_cpus_falls_back_to_the_cpu_count(monkeypatch, count, cpus):
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: count)
    assert usable_cpus() == cpus
