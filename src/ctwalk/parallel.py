"""An ordered map over independent items on every usable CPU.

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

With one item, one usable CPU, max_workers=1, no fork on the platform, or
inside a worker, the same fn runs in-process in the same order and no pool
starts. The worker count comes from the CPU affinity mask, so ``taskset``
or a cgroup restricts it.
"""

from __future__ import annotations

import os
from collections import deque
from itertools import islice
from typing import Any, Callable, Iterable, Iterator

# in a worker process, the function its pool maps; None elsewhere
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
    if busy <= 1 or _task is not None or not hasattr(os, "fork"):
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
