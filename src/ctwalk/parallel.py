"""Work on independent items spread over every usable CPU, in input order.

ordered_map(fn, items) yields fn(item) for each item, in input order. It
keeps usable_cpus() processes busy: the caller's own process computes
every k-th item, k being the number of busy processes, and a pool of
k - 1 workers computes the rest. At most two items per worker are
submitted at a time, so the results held in memory stay bounded whatever
the item count. Workers are forked: fn and the arrays it closes over are
inherited rather than pickled, only the items and the results cross a
pipe, and no forkserver or resource-tracker process is left behind. The
executor forks all its workers at the first submit, before it starts any
thread of its own. The pool is shut down when the results run out, when
an item fails, or when the caller closes the iterator, so no worker
outlives the map.

in_turns(fn, items, emit) calls emit(fn(item)) for each item, in input
order, where emit's effect is on something every process shares, such as
a file descriptor opened before the call. Process r of k forks from the
caller (r = 0), computes items r, r + k, ... and emits each in its turn,
which a one-byte token passes round a ring of pipes. No result crosses a
process boundary, and a process holds only its own results: its last one
until the next is computed. A process whose neighbour ended early sees
the end of its token pipe, or a broken pipe, and ends too; the caller
reaps every child before it returns or raises, and a child that died
raises WorkerDied.

With one item, one usable CPU, max_workers=1, no fork on the platform, or
inside a worker, the same fn runs in-process in the same order and no
process starts. The worker count comes from the CPU affinity mask, so
``taskset`` or a cgroup restricts it.
"""

from __future__ import annotations

import os
import sys
from collections import deque
from itertools import islice
from typing import Any, Callable, Iterable, Iterator

# in a worker process, the function it runs; None elsewhere
_task: Callable[[Any], Any] | None = None


class WorkerDied(RuntimeError):
    """A worker process ended abruptly (for example killed for memory)."""


def usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask, else the CPU count."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _adopt(fn: Callable[[Any], Any]) -> None:
    global _task
    _task = fn


def _call(item: Any) -> Any:
    return _task(item)


def _serial() -> bool:
    return _task is not None or not hasattr(os, "fork")


def _make_pool(workers: int, fn: Callable[[Any], Any]):
    """Forked workers that each run _adopt(fn) first: a forked process takes
    its initializer arguments by inheritance, so fn is never pickled."""
    from concurrent.futures import ProcessPoolExecutor
    from multiprocessing import get_context

    return ProcessPoolExecutor(max_workers=workers, mp_context=get_context("fork"),
                               initializer=_adopt, initargs=(fn,))


def ordered_map(
    fn: Callable[[Any], Any], items: Iterable[Any], max_workers: int | None = None
) -> Iterator[Any]:
    """fn(item) for each item, in order; max_workers caps the busy processes."""
    items = list(items)
    busy = min(usable_cpus(), len(items), max_workers or len(items))
    if busy <= 1 or _serial():
        yield from map(fn, items)
        return
    from concurrent.futures import Future
    from concurrent.futures.process import BrokenProcessPool

    pool = _make_pool(busy - 1, fn)
    pending: deque[Future] = deque()  # one per item, in order
    mine: deque[tuple[Future, Any]] = deque()  # the caller's items not yet computed
    todo = enumerate(items)

    def take(count: int) -> None:
        for i, item in islice(todo, count):
            if i % busy == 0:
                mine.append((Future(), item))
                pending.append(mine[-1][0])
            else:
                pending.append(pool.submit(_call, item))

    try:
        take(2 * busy)  # any 2 * busy consecutive items hold 2 of the caller's
        while pending:
            head = pending[0]
            if not head.done() and mine:  # compute the caller's share while waiting
                future, item = mine.popleft()
                future.set_result(fn(item))
                continue
            result = pending.popleft().result()
            take(1)
            yield result
    except BrokenProcessPool as exc:
        raise WorkerDied(str(exc)) from exc
    finally:
        pool.shutdown(wait=True, cancel_futures=True)


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
    items = list(items)
    k = min(usable_cpus(), len(items))
    if k <= 1 or _serial():
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
                    _adopt(fn)
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
