"""Run independent shards of one computation in forked worker processes.

:func:`fork_map` is the package's one use of ``os.fork``: the queue scan
(:func:`batchq.queue_core.scan_means`) and the time-constant estimator
(:func:`batchq.percolation.estimate_curve`) split their work into
contiguous shards and run them through it.  A forked child inherits the
parent's memory, so it imports nothing and its arguments are not copied;
only its result comes back, pickled, through its own pipe.  Results come
back in task order whether or not the platform can fork.
"""

from __future__ import annotations

import os
import pickle
from typing import Callable, Sequence

__all__ = ["usable_cpus", "fork_map"]


def usable_cpus() -> int:
    """The CPUs this process may run on (its affinity set where the platform has one)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _child(fn: Callable, args: tuple, r: int, w: int) -> None:
    """Run ``fn(*args)`` in a forked child, write its pickled outcome to pipe end ``w`` and exit.

    The child leaves through ``os._exit`` on every path, so it never runs
    the parent's exit handlers nor flushes the parent's buffered output.
    """
    try:
        os.close(r)
        try:
            outcome = (True, fn(*args))
        except BaseException as exc:  # the parent re-raises it
            outcome = (False, exc)
        try:
            data = pickle.dumps(outcome)
        except Exception as exc:  # an unpicklable result or exception
            data = pickle.dumps((False, RuntimeError(f"worker outcome not picklable: {exc!r}")))
        with open(w, "wb") as fh:
            fh.write(data)
    finally:
        os._exit(0)


def fork_map(fn: Callable, tasks: Sequence[tuple]) -> list:
    """``[fn(*t) for t in tasks]``, with tasks 1.. each in a forked child and task 0 here.

    Every child is forked before this process runs task 0, so a child sees
    the arguments as they were at the call.  A task's exception is raised
    here, the first one in task order; a child that dies without a result
    raises :class:`RuntimeError`.  Every child is reaped before the call
    returns or raises; on an error the others are killed first.  Without
    ``os.fork``, or with one task, the tasks run here in order.
    """
    if len(tasks) < 2 or not hasattr(os, "fork"):
        return [fn(*t) for t in tasks]
    children: list[tuple[int, int]] = []
    done = False
    try:
        for args in tasks[1:]:
            r, w = os.pipe()
            try:
                pid = os.fork()
            except BaseException:
                os.close(r)
                os.close(w)
                raise
            if pid == 0:
                _child(fn, args, r, w)
            os.close(w)
            children.append((pid, r))
        results = [fn(*tasks[0])]
        for pid, r in children:
            with open(r, "rb", closefd=False) as fh:
                data = fh.read()
            if not data:
                raise RuntimeError(f"worker process {pid} exited without a result")
            ok, value = pickle.loads(data)
            if not ok:
                raise value
            results.append(value)
        done = True
        return results
    finally:
        for pid, r in children:
            os.close(r)
            if not done:
                import signal  # only on this path: its import costs about 1 ms
                os.kill(pid, signal.SIGKILL)  # an unreaped child exists, if only as a zombie
            os.waitpid(pid, 0)
