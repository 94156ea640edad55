"""The fork helper: results in task order, errors raised here, no child left behind;
the shard split: contiguous spans that cover the items."""

from __future__ import annotations

import os
import time

import pytest

from batchq import workers
from batchq.workers import fork_map, shard_spans, usable_cpus


def _no_children_left() -> bool:
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


def _task(i: int, where: str | None):
    """(i, pid); by ``where``, task 1 raises, dies or returns a lambda, or the children sleep."""
    if where == "raise" and i == 1:
        raise ValueError(f"task {i} refuses")
    if where == "sleep" and i > 0:
        time.sleep(60)
    if where == "die" and i == 1:
        os._exit(3)
    if where == "unpicklable" and i == 1:
        return lambda: i
    return i, os.getpid()


def test_tasks_after_the_first_run_in_children_and_join_in_order():
    results = fork_map(_task, [(i, None) for i in range(4)])
    assert [i for i, _ in results] == [0, 1, 2, 3]
    pids = [pid for _, pid in results]
    assert pids[0] == os.getpid() and len(set(pids)) == 4
    assert _no_children_left()
    assert fork_map(_task, [(0, None)]) == [(0, os.getpid())]
    assert fork_map(_task, []) == []
    assert usable_cpus() >= 1


def test_a_childs_error_reaches_the_caller_with_its_message():
    with pytest.raises(ValueError, match="task 1 refuses"):
        fork_map(_task, [(i, "raise") for i in range(3)])
    assert _no_children_left()


def test_no_child_is_left_when_this_process_task_raises():
    def first_raises(i):
        if i == 0:
            raise KeyError("parent task")
        time.sleep(60)
    start = time.perf_counter()
    with pytest.raises(KeyError):
        fork_map(first_raises, [(i,) for i in range(3)])
    # the sleeping children were killed, not waited for
    assert time.perf_counter() - start < 30
    assert _no_children_left()


@pytest.mark.parametrize("where,match", [("die", "exited without a result"),
                                         ("unpicklable", "not picklable")])
def test_a_child_without_a_result_raises_runtime_error(where, match):
    with pytest.raises(RuntimeError, match=match):
        fork_map(_task, [(i, where) for i in range(3)])
    assert _no_children_left()


def test_without_fork_every_task_runs_here_in_order(monkeypatch):
    monkeypatch.delattr(os, "fork")
    assert fork_map(_task, [(i, None) for i in range(3)]) == [(i, os.getpid()) for i in range(3)]


# (items, work, unit): more items than CPUs, fewer (items < cpus), work below
# one unit (work < unit), a count set by the work, and no items at all
@pytest.mark.parametrize("cpus", [1, 2, 8])
@pytest.mark.parametrize("items, work, unit", [(1000, 1000, 1), (3, 10**6, 1), (5, 9, 10),
                                               (100, 350, 100), (7, 7, 1), (1, 1, 1),
                                               (0, 0, 1)])
def test_shard_spans_are_contiguous_and_cover_the_items(cpus, items, work, unit, monkeypatch):
    monkeypatch.setattr(workers, "usable_cpus", lambda: cpus)
    spans = shard_spans(items, work, unit)
    assert len(spans) == max(1, min(cpus, items, work // unit))
    assert spans[0][0] == 0 and spans[-1][1] == items
    assert all(hi == lo for (_, hi), (lo, _) in zip(spans, spans[1:]))
    sizes = [hi - lo for lo, hi in spans]
    assert max(sizes) - min(sizes) <= 1 and (items == 0 or min(sizes) >= 1)
