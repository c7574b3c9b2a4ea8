"""Emit the results of independent items in input order, computed on every usable CPU.

in_turns(fn, items, emit) calls emit(fn(item)) for each item, in input
order, where emit's effect is on something every process shares, such as
a file descriptor opened before the call. Process r of k forks from the
caller (r = 0), computes items r, r + k, ... and emits each in its turn,
which a one-byte token passes round a ring of pipes. fn and the arrays it
closes over are inherited, not pickled; no result crosses a process
boundary, and a process holds only its own results: its last one until
the next is computed. A process whose neighbour ended early sees the end
of its token pipe, or a broken pipe, and ends too; the caller reaps every
child before it returns or raises, and a child that died raises
WorkerDied.

With one item, one usable CPU, no fork on the platform, or inside a child
of in_turns, the same fn runs in-process in the same order and no process
starts. The process count comes from the CPU affinity mask, so
``taskset`` or a cgroup restricts it.
"""

from __future__ import annotations

import os
import sys
from typing import Any, Callable, Iterable

# True in a process forked by in_turns, whose own in_turns calls run in-process
_in_child = False


class WorkerDied(RuntimeError):
    """A worker process ended abruptly (for example killed for memory)."""


def usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask, else the CPU count."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _keep(ends: set[int], own: tuple[int, int]) -> None:
    """Close every pipe end in ends but the two a process uses."""
    for fd in ends - set(own):
        os.close(fd)
    ends.intersection_update(own)


def _take_turns(fn: Callable[[Any], Any], items: list[Any], emit: Callable[[Any], None],
                rank: int, k: int, wait_fd: int, pass_fd: int) -> None:
    for i in range(rank, len(items), k):
        # the last result is freed only once this one is computed: freed
        # before, glibc trims the heap top it held, and every CSV block of
        # simulate --walk classical --N 43 --S 2 faults its pages in afresh
        # (316k minor faults on one CPU against 42k-56k)
        result = fn(items[i])
        if i and not os.read(wait_fd, 1):
            raise WorkerDied("the previous process ended before its turn")
        emit(result)
        if i + 1 < len(items):
            try:
                os.write(pass_fd, b"\1")
            except BrokenPipeError as exc:
                raise WorkerDied("the next process ended before its turn") from exc


def _exit_status(rank: int, k: int, status: int) -> str:
    code = os.waitstatus_to_exitcode(status)
    how = f"was killed by signal {-code}" if code < 0 else f"exited with status {code}"
    return f"process {rank} of {k} {how}"


def in_turns(fn: Callable[[Any], Any], items: Iterable[Any], emit: Callable[[Any], None]) -> None:
    """emit(fn(item)) for each item, in order, with fn spread over the usable CPUs."""
    global _in_child
    items = list(items)
    k = min(usable_cpus(), len(items))
    if k <= 1 or _in_child or not hasattr(os, "fork"):
        for item in items:
            result = fn(item)  # keeps the last result, as _take_turns does
            emit(result)
        return
    pipes = [os.pipe() for _ in range(k)]  # pipe r passes the turn to process r
    ends = {fd for pipe in pipes for fd in pipe}
    own = [(pipes[r][0], pipes[(r + 1) % k][1]) for r in range(k)]
    children: dict[int, int] = {}  # pid: rank
    broken = False
    try:
        for rank in range(1, k):
            pid = os.fork()
            if pid == 0:
                code = 1
                try:
                    _in_child = True
                    _keep(ends, own[rank])
                    _take_turns(fn, items, emit, rank, k, *own[rank])
                    code = 0
                except WorkerDied:
                    pass  # a neighbour died; the caller reports it
                except Exception:
                    sys.excepthook(*sys.exc_info())
                    sys.stderr.flush()
                finally:
                    os._exit(code)
            children[pid] = rank
        _keep(ends, own[0])
        _take_turns(fn, items, emit, 0, k, *own[0])
    except WorkerDied:
        broken = True  # the children's statuses say which one died
    finally:
        _keep(ends, ())
        failed = [_exit_status(rank, k, status) for pid, rank in children.items()
                  if (status := os.waitpid(pid, 0)[1])]
    if broken or failed:
        raise WorkerDied("; ".join(failed) or "a process ended before its turn")
