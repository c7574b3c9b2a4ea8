import os
import signal

import pytest

from ctwalk import parallel
from ctwalk.parallel import WorkerDied, in_turns, usable_cpus


def use_cpus(monkeypatch, cpus):
    monkeypatch.setattr(parallel, "usable_cpus", lambda: cpus)


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
        monkeypatch.setattr(parallel, "_in_child", True)
    lines = turns_to_file(tmp_path / "out", uneven, range(count))
    assert lines == [uneven(i)[:-1] for i in range(count)]


def test_a_nested_call_in_a_child_runs_in_process(tmp_path, monkeypatch):
    use_cpus(monkeypatch, 2)

    def nested(i):
        pids = []  # filled only by the items computed in this process
        in_turns(lambda x: os.getpid(), range(4), pids.append)
        return b"%d %d\n" % (os.getpid(), pids == [os.getpid()] * 4)

    lines = turns_to_file(tmp_path / "out", nested, range(4))
    in_child = [line for line in lines if int(line.split()[0]) != os.getpid()]
    assert len(in_child) == 2  # items 1 and 3
    assert all(line.endswith(b" 1") for line in in_child)
    assert_no_child_left()


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
