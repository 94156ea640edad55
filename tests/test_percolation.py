"""Lattice first passage: DP against brute force, plus the continuous model."""

from __future__ import annotations

import math
import os
from itertools import combinations_with_replacement

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from batchq import distributions as dist
from batchq import laws
from batchq import percolation as perc
from batchq.percolation import (IdentityCheck, JumpField, PathQuery,
                                WeightField, continuous_first_passage,
                                enumerate_first_passage, estimate_time_constant,
                                first_passage, sample_jump_field,
                                tandem_identity_check)
from batchq.streams import RandomStream
from batchq.tandem import TandemConfig, simulate_tandem


def test_unit_weights_two_by_two():
    field = WeightField(np.ones((2, 2)))
    assert first_passage(field, PathQuery((0, 0), (1, 1))) == 2.0
    assert enumerate_first_passage(field, PathQuery((0, 0), (1, 1))) == 2.0


def test_three_column_worked_example():
    # weights by (column, row): [[1,5],[4,0],[9,2]]; best path rows (0,1,1) costs 3
    w = np.array([[1, 5], [4, 0], [9, 2]]).T
    field = WeightField(w)
    q = PathQuery((0, 0), (2, 1))
    assert enumerate_first_passage(field, q) == 3.0
    assert first_passage(field, q) == 3.0


def test_single_row_is_the_row_sum():
    st = RandomStream(3)
    w = st.uniforms(12).reshape(1, 12)
    field = WeightField(w)
    assert first_passage(field, PathQuery((2, 0), (9, 0))) == pytest.approx(w[0, 2:10].sum())


def test_all_zero_weights():
    field = WeightField(np.zeros((4, 6)))
    assert first_passage(field, PathQuery((0, 0), (5, 3))) == 0.0


def test_dp_equals_bruteforce_on_random_fields():
    stream = RandomStream(101)
    for i in range(300):
        st = stream.substream(i)
        rows = 1 + int(st.uniform() * 8)
        cols = 1 + int(st.uniform() * 8)
        if cols == 1:
            rows = 1
        field = WeightField(np.floor(st.uniforms(rows * cols) * 6).reshape(rows, cols))
        for pinned in (True, False):
            q = PathQuery((0, 0), (cols - 1, rows - 1), pinned=pinned)
            assert first_passage(field, q) == enumerate_first_passage(field, q)


@pytest.mark.parametrize("integer", [True, False], ids=["integer", "float"])
def test_dp_equals_bruteforce_on_twelve_column_fields(integer):
    # a 12-term path sum: numpy adds it pairwise, the DP left to right, so
    # float fields may differ in the last bit and integer fields may not
    for s in range(200):
        w = RandomStream(s).uniforms(24).reshape(2, 12)
        field = WeightField(np.floor(w * 6) if integer else w)
        for pinned in (True, False):
            q = PathQuery((0, 0), (11, 1), pinned=pinned)
            dp, brute = first_passage(field, q), enumerate_first_passage(field, q)
            assert dp == brute if integer else dp == pytest.approx(brute, rel=1e-12, abs=0.0)


def _enumerate_by_loop(field, query):
    """Reference: every path's weights summed by its own numpy sum, one path at a time."""
    i, j = query.start
    k, l = query.end
    best, cols = np.inf, np.arange(i, k + 1)
    for rows in combinations_with_replacement(range(j, l + 1), k - i + 1):
        if not query.pinned or (rows[0] == j and rows[-1] == l):
            best = min(best, field.weights[list(rows), cols].sum())
    return float(best)


def test_enumeration_equals_the_path_loop_on_the_verify_fields():
    # the first 150 fields of verify's percolation_exact family at seed 1
    stream = RandomStream(RandomStream(1).substream(7).seed)
    for i in range(150):
        st_i = stream.substream(i)
        rows = 1 + int(st_i.uniform() * 8)
        cols = 1 + int(st_i.uniform() * 8)
        if cols == 1:
            rows = 1
        field = WeightField(np.floor(st_i.uniforms(rows * cols) * 6).reshape(rows, cols))
        for pinned in (True, False):
            q = PathQuery((0, 0), (cols - 1, rows - 1), pinned=pinned)
            assert enumerate_first_passage(field, q) == _enumerate_by_loop(field, q)


@settings(derandomize=True, deadline=None, max_examples=60)
@given(rows=st.integers(1, 4), cols=st.integers(9, 16), start=st.integers(0, 2),
       integer=st.booleans(), pinned=st.booleans(), cells=st.sampled_from([1, 40, 1 << 16]),
       seed=st.integers(0, 2**32 - 1))
def test_enumeration_keeps_each_paths_summation_order(rows, cols, start, integer, pinned, cells,
                                                      seed):
    # past 8 terms numpy sums pairwise, so the order of a path's sum shows in its bits
    st_w = RandomStream(seed)
    if integer:
        w = np.floor(st_w.uniforms(rows * cols) * 1000).astype(np.int64)
    else:
        w = st_w.uniforms(rows * cols) * 10.0 ** np.floor(st_w.uniforms(rows * cols) * 12 - 6)
    field = WeightField(w.reshape(rows, cols))
    q = PathQuery((start, rows // 3), (cols - 1, rows - 1), pinned=pinned)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(perc, "_ENUM_CELLS", cells)  # 1 and 40: many blocks, none kept
        got = enumerate_first_passage(field, q)
    assert got.hex() == _enumerate_by_loop(field, q).hex()


def test_query_validation():
    field = WeightField(np.ones((3, 3)))
    with pytest.raises(ValueError):
        PathQuery((2, 0), (1, 0))
    with pytest.raises(ValueError):
        first_passage(field, PathQuery((0, 0), (3, 1)))
    # a pinned single column spanning two rows is refused by the query, for the DP and its oracle
    for fn in (first_passage, enumerate_first_passage, lambda f, q: q.validate(f)):
        with pytest.raises(ValueError, match="no pinned path"):
            fn(field, PathQuery((1, 0), (1, 2), pinned=True))
    # the free variant does allow a single-column multi-row query
    assert first_passage(field, PathQuery((1, 0), (1, 2), pinned=False)) == 1.0
    with pytest.raises(ValueError, match="too many paths"):
        enumerate_first_passage(WeightField(np.ones((40, 40))),
                                PathQuery((0, 0), (39, 39)))
    with pytest.raises(ValueError, match="empty path set"):
        enumerate_first_passage(WeightField(np.full((2, 3), np.inf)), PathQuery((0, 0), (2, 1)))



def test_weight_field_refuses_nan_and_negative_weights():
    # a NaN weight would otherwise pass the nonnegativity check and be
    # skipped by the sweep's fmin, which makes first_passage 2.5 here
    for bad in ([[0.5, np.nan, 1], [1, 1, 1]], [[0.5, -1, 1], [1, 1, 1]], [[-0.5]]):
        with pytest.raises(ValueError, match="nonnegative"):
            WeightField(np.array(bad))
    assert WeightField(np.array([[-0.0, np.inf]])).columns == 2


@settings(derandomize=True, deadline=None, max_examples=200)
@given(rows=st.integers(1, 4), cols=st.integers(1, 6), pinned=st.booleans(), data=st.data())
def test_dp_equals_bruteforce_with_infinite_and_signed_zero_weights(rows, cols, pinned, data):
    rows = 1 if cols == 1 else rows
    w = data.draw(st.lists(st.sampled_from([0.0, -0.0, 1.0, 2.5, math.inf]),
                           min_size=rows * cols, max_size=rows * cols))
    field = WeightField(np.array(w).reshape(rows, cols))
    q = PathQuery((0, 0), (cols - 1, rows - 1), pinned=pinned)
    got = first_passage(field, q)
    try:
        want = enumerate_first_passage(field, q)
    except ValueError as exc:  # every path crosses an infinite weight
        assert "empty path set" in str(exc) and got == math.inf
        return
    assert got == want

def test_monotonicity_in_weights():
    stream = RandomStream(55)
    for i in range(100):
        st = stream.substream(i)
        w = np.floor(st.uniforms(30) * 4).reshape(5, 6)
        q = PathQuery((0, 0), (5, 4))
        base = first_passage(WeightField(w.copy()), q)
        w[int(st.uniform() * 5), int(st.uniform() * 6)] += 1.5
        assert first_passage(WeightField(w), q) >= base - 1e-12


def test_subadditivity_through_a_corner():
    stream = RandomStream(56)
    k, r = 4, 3
    for i in range(100):
        st = stream.substream(i)
        field = WeightField(st.uniforms((2 * r + 1) * (2 * k + 1)).reshape(2 * r + 1, 2 * k + 1))
        whole = first_passage(field, PathQuery((0, 0), (2 * k, 2 * r)))
        first = first_passage(field, PathQuery((0, 0), (k, r)))
        second = first_passage(field, PathQuery((k + 1, r), (2 * k, 2 * r)))
        assert whole <= first + second + 1e-12


# --- continuous model -------------------------------------------------------

def test_continuous_single_row_pays_everything():
    jf = JumpField(times=[np.array([0.5, 1.25, 2.0])],
                   weights=[np.array([1.0, 2.0, 4.0])], horizon=3.0)
    assert continuous_first_passage(jf, 0.0, 3.0, 0, 0) == 7.0
    assert continuous_first_passage(jf, 1.0, 3.0, 0, 0) == 6.0


def test_continuous_two_row_worked_example():
    jf = JumpField(times=[np.array([1.0]), np.array([2.0])],
                   weights=[np.array([5.0]), np.array([3.0])], horizon=3.0)
    got = continuous_first_passage(jf, 0.0, 3.0, 0, 1)
    # oracle: one switch time u per inter-event interval
    s0 = lambda u: 5.0 * (u >= 1.0)
    s1 = lambda u: 3.0 * (u >= 2.0)
    candidates = [s0(u) - s0(0.0) + s1(3.0) - s1(u) for u in (0.5, 1.5, 2.5)]
    assert got == min(candidates) == 3.0


def test_continuous_empty_window():
    jf = JumpField(times=[np.array([]), np.array([])],
                   weights=[np.array([]), np.array([])], horizon=5.0)
    assert continuous_first_passage(jf, 0.0, 5.0, 0, 1) == 0.0


def test_continuous_validation():
    jf = JumpField(times=[np.array([1.0])], weights=[np.array([2.0])], horizon=3.0)
    with pytest.raises(ValueError):
        continuous_first_passage(jf, 2.0, 1.0, 0, 0)
    with pytest.raises(ValueError):
        continuous_first_passage(jf, 0.0, 2.0, 0, 1)
    with pytest.raises(ValueError):
        JumpField(times=[np.array([2.0, 1.0])], weights=[np.array([1.0, 1.0])], horizon=3.0)
    for bad in (0.0, np.nan):
        with pytest.raises(ValueError, match="positive"):
            JumpField(times=[np.array([1.0])], weights=[np.array([bad])], horizon=3.0)


def _jump_times(stream: RandomStream, horizon: float) -> list[float]:
    """One row's event times from gaps -log(1 - U), drawn 64 uniforms at a time."""
    t, acc = [], 0.0
    while acc <= horizon:
        for g in -np.log1p(-stream.uniforms(64)):
            acc += g
            if acc > horizon:
                break
            t.append(acc)
    return t


def test_jump_field_gaps_are_exp1_inverse_transforms_of_the_stream():
    for seed in range(5):
        # deterministic weights draw no uniforms, so the rows' gaps are the stream's blocks
        jf = sample_jump_field(3, 150.0, laws.deterministic(2), RandomStream(seed))
        ref = RandomStream(seed)
        for times in jf.times:
            assert times.tobytes() == np.array(_jump_times(ref, 150.0)).tobytes()


def _jump_field_by_loop(n_rows, horizon, weight_spec, stream):
    """sample_jump_field as it was written, one gap at a time: each row's times, added up
    from Exp(1) sample_n blocks of 64 until one passes the horizon, then its weights."""
    times, weights = [], []
    for _ in range(n_rows):
        t, acc = [], 0.0
        while acc <= horizon:
            for g in dist.sample_n(laws.exponential(1.0), stream, 64):
                acc += g
                if acc > horizon:
                    break
                t.append(acc)
        times.append(np.array(t, dtype=float))
        weights.append(dist.sample_n(weight_spec, stream, len(t)).astype(float))
    return times, weights


@settings(derandomize=True, deadline=None, max_examples=40)
@given(rows=st.integers(1, 4), horizon=st.one_of(st.floats(1e-3, 2.0), st.floats(2.0, 300.0)),
       weights=st.sampled_from([laws.exponential(0.7), laws.geom_plus(0.4),
                                laws.deterministic(2.5)]),
       seed=st.integers(0, 2**32 - 1), at_an_event=st.booleans())
def test_jump_field_equals_the_per_value_loop(rows, horizon, weights, seed, at_an_event):
    if at_an_event:
        # a horizon equal to an event time keeps that event: row 0's times do not depend on it
        first = sample_jump_field(1, horizon, weights, RandomStream(seed)).times[0]
        horizon = float(first[-1]) if first.size else horizon
    s_field, s_loop = RandomStream(seed), RandomStream(seed)
    jf = sample_jump_field(rows, horizon, weights, s_field)
    want = _jump_field_by_loop(rows, horizon, weights, s_loop)
    for got, ref in zip((jf.times, jf.weights), want):
        assert [(x.dtype, x.tobytes()) for x in got] == [(x.dtype, x.tobytes()) for x in ref]
    if at_an_event and jf.times[0].size:
        assert jf.times[0][-1] == horizon
    assert s_field.uniform() == s_loop.uniform()


def test_continuous_switch_point_insensitivity():
    stream = RandomStream(77)
    for i in range(30):
        st = stream.substream(i)
        jf = sample_jump_field(4, 8.0, laws.exponential(1.0), st)
        base = continuous_first_passage(jf, 0.0, 8.0, 0, 3)
        merged = sorted((t, r, k) for r in range(4) for k, t in enumerate(jf.times[r]))
        times2 = [t.copy() for t in jf.times]
        for pos, (t, r, k) in enumerate(merged):
            nxt = merged[pos + 1][0] if pos + 1 < len(merged) else 8.0
            times2[r][k] = t + 0.4 * (nxt - t)
        jf2 = JumpField(times=times2, weights=jf.weights, horizon=8.0)
        assert continuous_first_passage(jf2, 0.0, 8.0, 0, 3) == pytest.approx(base, abs=1e-9)
        # decreasing a weight cannot increase the infimum
        w2 = [w.copy() for w in jf.weights]
        if len(w2[i % 4]):
            w2[i % 4][0] *= 0.3
            jf3 = JumpField(times=jf.times, weights=w2, horizon=8.0)
            assert continuous_first_passage(jf3, 0.0, 8.0, 0, 3) <= base + 1e-9


@st.composite
def _jump_queries(draw):
    rows = draw(st.integers(1, 4))
    # event times on a grid of whole numbers, so rows share event times
    times = [sorted(draw(st.sets(st.integers(1, 8), max_size=3))) for _ in range(rows)]
    weights = [draw(st.lists(st.integers(1, 5), min_size=len(t), max_size=len(t)))
               for t in times]
    field = JumpField(times=[np.array(t, dtype=float) for t in times],
                      weights=[np.array(w) for w in weights], horizon=8.0)
    s2 = draw(st.integers(0, 15))
    t2 = draw(st.integers(s2 + 1, 16))
    j = draw(st.integers(0, rows - 1))
    l = draw(st.integers(j, rows - 1))
    return field, s2 / 2, t2 / 2, j, l


@settings(derandomize=True, deadline=None, max_examples=300)
@given(query=_jump_queries())
def test_continuous_equals_bruteforce_on_event_columns(query):
    field, s, t, j, l = query
    # the lattice on event columns: a zero column, then one column per
    # distinct event time in (s, t] holding that time's weights on their rows
    times = sorted({x for r in range(j, l + 1) for x in field.times[r] if s < x <= t})
    w = np.zeros((l - j + 1, 1 + len(times)))
    for r in range(j, l + 1):
        for x, wt in zip(field.times[r], field.weights[r]):
            if s < x <= t:
                w[r - j, 1 + times.index(x)] = wt
    free = PathQuery((0, 0), (len(times), l - j), pinned=False)
    assert continuous_first_passage(field, s, t, j, l) == enumerate_first_passage(WeightField(w),
                                                                                 free)


# --- estimates and the identity ----------------------------------------------

def test_estimate_deterministic_and_thread_invariant():
    spec = laws.exponential(1.0)
    e1 = estimate_time_constant(spec, 1.5, 60, 8, RandomStream(5))
    e2 = estimate_time_constant(spec, 1.5, 60, 8, RandomStream(5))
    e3 = estimate_time_constant(spec, 1.5, 60, 8, RandomStream(5), threads=4)
    assert e1 == e2 == e3
    assert e1.ci_lo <= e1.mean <= e1.ci_hi


@settings(derandomize=True, deadline=None, max_examples=200)
@given(batch=st.integers(1, 4), rows=st.integers(1, 5), cols=st.integers(1, 6),
       pinned=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_batched_sweep_is_the_1d_sweep_and_the_bruteforce(batch, rows, cols, pinned, seed):
    w = np.floor(RandomStream(seed).uniforms(batch * rows * cols) * 6).reshape(batch, rows, cols)
    # every yield is one array updated in place: keep a copy of each column
    batched = [dp.copy() for dp in perc._sweep(w.transpose(2, 0, 1), pinned)]
    assert len(batched) == cols
    for b in range(batch):
        single = [dp.copy() for dp in perc._sweep(w[b].T, pinned)]
        for dp_batch, dp in zip(batched, single):
            assert np.array_equal(dp_batch[b], dp)
        q = PathQuery((0, 0), (cols - 1, rows - 1), pinned=pinned)
        if pinned and cols == 1 and rows > 1:
            assert batched[-1][b, -1] == np.inf
            continue
        got = batched[-1][b, -1] if pinned else batched[-1][b].min()
        assert got == enumerate_first_passage(WeightField(w[b]), q)


WEIGHT_SPECS = st.one_of(
    st.builds(laws.exponential, st.floats(0.5, 2.0)),
    st.builds(laws.ber_exp, st.floats(0.1, 0.9), st.floats(0.5, 2.0)),
    st.builds(laws.bernoulli, st.floats(0.1, 0.9)),
    st.builds(laws.geom_plus, st.floats(0.1, 0.9)),
    st.builds(laws.geom_zero, st.floats(0.1, 0.9)),
    st.builds(laws.ber_geom, st.floats(0.1, 0.9), st.floats(0.1, 0.9)),
    st.builds(laws.deterministic, st.sampled_from([0, 1, 0.5])),
)


def _estimate_one_replica_at_a_time(spec, x, n, replicas, stream):
    """Reference: one column sweep per replica, one sample_n call per column."""
    vals = []
    for r in range(replicas):
        st_r = stream.substream(r)
        dp = np.full(n + 1, np.inf)
        for c in range(int(math.floor(x * n)) + 1):
            col = dist.sample_n(spec, st_r, n + 1).astype(float)
            if c == 0:
                dp[0] = col[0]
            else:
                dp = col + np.minimum.accumulate(dp)
        vals.append(float(dp[-1]) / n)
    vals = np.array(vals)
    m = float(vals.mean())
    half = 1.96 * float(vals.std(ddof=1)) / math.sqrt(replicas)
    return m, m - half, m + half


@settings(derandomize=True, deadline=None, max_examples=60)
@given(spec=WEIGHT_SPECS, x=st.floats(0.1, 3.0), n=st.integers(10, 30),
       replicas=st.integers(2, 7), group=st.integers(1, 8), seed=st.integers(0, 2**32 - 1))
def test_estimate_equals_one_replica_at_a_time(spec, x, n, replicas, group, seed):
    # the block budget fixes how many replicas share one sweep; it must not matter
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(perc, "_BLOCK_CELLS", perc._BLOCK_COLUMNS * (n + 1) * group)
        est = estimate_time_constant(spec, x, n, replicas, RandomStream(seed))
    assert (est.mean, est.ci_lo, est.ci_hi) == _estimate_one_replica_at_a_time(
        spec, x, n, replicas, RandomStream(seed))


@settings(derandomize=True, deadline=None, max_examples=25)
@given(spec=WEIGHT_SPECS,
       xs=st.lists(st.one_of(st.sampled_from([0.1, 1.0, 1.3, 2.5]), st.floats(0.1, 2.5)),
                   min_size=1, max_size=5),
       n=st.integers(10, 20), replicas=st.integers(2, 6), group=st.integers(1, 8),
       seed=st.integers(0, 2**32 - 1))
def test_curve_rows_are_one_point_estimates(spec, xs, n, replicas, group, seed):
    # a field's first columns do not depend on its length, nor on the replica grouping
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(perc, "_BLOCK_CELLS", perc._BLOCK_COLUMNS * (n + 1) * group)
        rows = perc.estimate_curve(spec, xs, n, replicas, RandomStream(seed))
    assert [r.x for r in rows] == xs
    for x, row in zip(xs, rows):
        one = estimate_time_constant(spec, x, n, replicas, RandomStream(seed))
        assert (row.mean, row.ci_lo, row.ci_hi) == (one.mean, one.ci_lo, one.ci_hi)


# one spec of every weight kind
KIND_SPECS = [laws.exponential(1.3), laws.ber_exp(0.4, 0.8), laws.bernoulli(0.3),
              laws.geom_plus(0.6), laws.geom_zero(0.5), laws.ber_geom(0.3, 0.6),
              laws.deterministic(0.5)]


def _cpus(monkeypatch, k):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(k)))


@pytest.mark.parametrize("spec", KIND_SPECS, ids=lambda s: s.kind)
@settings(derandomize=True, deadline=None, max_examples=4)
@given(xs=st.lists(st.floats(0.1, 2.5), min_size=1, max_size=3), n=st.integers(10, 20),
       replicas=st.integers(2, 7), group=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
def test_forked_shards_equal_the_serial_run(spec, xs, n, replicas, group, seed):
    serial = perc.estimate_curve(spec, xs, n, replicas, RandomStream(seed))
    with pytest.MonkeyPatch.context() as mp:
        # every estimate forks, and groups split inside the shards
        mp.setattr(perc, "_SHARD_CELLS", 1)
        mp.setattr(perc, "_BLOCK_CELLS", perc._BLOCK_COLUMNS * (n + 1) * group)
        for cpus in (1, 2, 3, replicas + 2):
            _cpus(mp, cpus)
            forked = perc.estimate_curve(spec, xs, n, replicas, RandomStream(seed))
            # repr prints each float's shortest round trip: equal reprs are equal bits
            assert repr(forked) == repr(serial), cpus


def _sweeps_here(monkeypatch):
    """Counts the column sweeps that run in this process; a forked worker
    counts in its own copy of the list."""
    calls, sweep = [], perc._sweep
    def spy(columns, pinned):
        calls.append(pinned)
        return sweep(columns, pinned)
    monkeypatch.setattr(perc, "_sweep", spy)
    return calls


def test_shards_fork_only_with_fork_and_a_large_field(monkeypatch):
    spec, stream = laws.exponential(1.0), RandomStream(4)
    serial = perc.estimate_curve(spec, [1.0, 2.0], 30, 6, stream)
    _cpus(monkeypatch, 2)
    calls = _sweeps_here(monkeypatch)
    # 6 x 31 x 61 weights is below 2 * _SHARD_CELLS: one shard, in-process
    assert perc.estimate_curve(spec, [1.0, 2.0], 30, 6, stream) == serial
    assert len(calls) == 1
    # two shards; this process sweeps the first and a forked worker the second
    monkeypatch.setattr(perc, "_SHARD_CELLS", 1)
    assert perc.estimate_curve(spec, [1.0, 2.0], 30, 6, stream) == serial
    assert len(calls) == 2
    # a platform without fork sweeps both shards here
    monkeypatch.delattr(os, "fork")
    assert perc.estimate_curve(spec, [1.0, 2.0], 30, 6, stream) == serial
    assert len(calls) == 4


# 11 x 11 weights per replica, at most one shard per _SHARD_CELLS (300 here)
# weights, per CPU and per replica
@pytest.mark.parametrize("replicas, cpus, shards", [(2, 64, 1), (8, 64, 3), (8, 2, 2),
                                                    (20, 64, 8), (20, 1, 1)])
def test_shards_hold_at_least_the_shard_cells(replicas, cpus, shards, monkeypatch):
    spec, stream = laws.exponential(1.0), RandomStream(3)
    serial = perc.estimate_curve(spec, [1.0], 10, replicas, stream)
    calls = []
    def in_process(fn, tasks):
        calls.append(tasks)
        return [fn(*t) for t in tasks]
    monkeypatch.setattr(perc, "fork_map", in_process)
    monkeypatch.setattr(perc, "_SHARD_CELLS", 300)
    _cpus(monkeypatch, cpus)
    assert perc.estimate_curve(spec, [1.0], 10, replicas, stream) == serial
    (tasks,) = calls
    sizes = [(hi - lo) * 121 for *_, lo, hi in tasks]
    assert len(sizes) == shards and sum(sizes) == replicas * 121
    assert min(sizes) >= 121 * (replicas // shards)


def test_worker_error_reaches_the_caller(monkeypatch):
    spec = laws.geom_plus(1e-300)  # every draw is beyond int64
    with pytest.raises(ValueError) as serial:
        perc.estimate_curve(spec, [1.0], 10, 4, RandomStream(1))
    monkeypatch.setattr(perc, "_SHARD_CELLS", 1)
    _cpus(monkeypatch, 2)
    with pytest.raises(ValueError) as forked:
        perc.estimate_curve(spec, [1.0], 10, 4, RandomStream(1))
    assert str(forked.value) == str(serial.value)
    assert "does not fit in int64" in str(serial.value)


def test_estimate_flat_region_small():
    est = estimate_time_constant(laws.bernoulli(0.5), 0.4, 100, 20, RandomStream(6))
    assert est.mean <= 0.02


def test_estimate_validation():
    with pytest.raises(ValueError):
        estimate_time_constant(laws.exponential(1.0), 0.0, 50, 5, RandomStream(0))
    with pytest.raises(ValueError):
        estimate_time_constant(laws.exponential(1.0), 1.0, 5, 5, RandomStream(0))
    with pytest.raises(ValueError):
        estimate_time_constant(laws.exponential(1.0), 1.0, 50, 1, RandomStream(0))
    # floor(x N) = 0: one column, which no pinned path from row 0 to row N fits
    with pytest.raises(ValueError, match=r"x=0\.05.*N=10"):
        estimate_time_constant(laws.exponential(1.0), 0.05, 10, 5, RandomStream(0))
    with pytest.raises(ValueError, match=r"x=0\.05.*N=10"):
        perc.estimate_curve(laws.exponential(1.0), [1.0, 0.05], 10, 5, RandomStream(0))
    with pytest.raises(ValueError):
        perc.estimate_curve(laws.exponential(1.0), [], 10, 5, RandomStream(0))


def _identity_failures(arrival, services, window, stream):
    """The failing identity instances; instance i runs ``services[i]`` on substream i."""
    return stream.trial_failures(range(len(services)), lambda i, st: perc.tandem_identity_check(
        arrival, services[i], window, st).comparisons())


def test_identity_single_stage_is_lindley():
    assert _identity_failures(laws.ber_geom(0.4, 0.5), [[laws.ber_geom(0.6, 0.45)]] * 100,
                              30, RandomStream(200)) == []


def test_identity_multi_stage_exact():
    service = laws.ber_geom(1 / 2, 1 / 2)
    assert _identity_failures(laws.ber_geom(1 / 3, 2 / 3),
                              [[service] * (1 + i % 4) for i in range(200)], 50,
                              RandomStream(201)) == []


def test_identity_instance_i_runs_on_substream_i(monkeypatch):
    seen = []

    def record(arrival, services, window, stream):
        seen.append((len(services), window, stream.seed))
        ok = len(seen) != 3
        return IdentityCheck(lhs=1.0, rhs=float(ok), equal=ok, best_m=-len(seen))

    monkeypatch.setattr(perc, "tandem_identity_check", record)
    stages = [2, 1, 4, 3]
    failures = _identity_failures(laws.bernoulli(0.3), [[laws.bernoulli(0.6)] * r for r in stages],
                                  7, RandomStream(11))
    assert seen == [(r, 7, RandomStream(11).substream(i).seed) for i, r in enumerate(stages)]
    assert failures == [{"substream": 2, "lhs": 1.0, "rhs": 0.0, "best_m": -3}]


def test_identity_zero_arrivals():
    res = tandem_identity_check(laws.deterministic(0),
                                [laws.ber_geom(0.5, 0.5)] * 3,
                                window=20, stream=RandomStream(7))
    assert res.equal and res.lhs == 0.0 and res.rhs == 0.0
    assert isinstance(res, IdentityCheck)


def test_identity_heterogeneous_and_unstable_services():
    # the identity is pathwise, so it holds regardless of stability
    services = [laws.geom_zero(0.7), laws.bernoulli(0.4), laws.deterministic(1)]
    assert _identity_failures(laws.ber_geom(0.5, 0.5), [services] * 100, 40,
                              RandomStream(202)) == []


def test_identity_exact_only_when_arrivals_and_services_are_integer():
    # float arrivals with integer services: the sides differ by rounding only
    res = tandem_identity_check(laws.exponential(1.0), [laws.deterministic(1)], 56,
                                RandomStream(0))
    assert res.equal, res


INT_SPECS = st.one_of(
    st.builds(laws.ber_geom, st.floats(0.05, 0.95), st.floats(0.05, 0.95)),
    st.builds(laws.geom_zero, st.floats(0.05, 0.95)),
    st.builds(laws.bernoulli, st.floats(0.05, 0.95)),
    st.builds(laws.deterministic, st.integers(0, 2)),
)


@settings(derandomize=True, deadline=None, max_examples=150)
@given(arrival=INT_SPECS, services=st.lists(INT_SPECS, min_size=1, max_size=4),
       window=st.integers(1, 10), seed=st.integers(0, 2**31 - 1))
def test_identity_rhs_matches_bruteforce_over_window_starts(arrival, services, window, seed):
    res = tandem_identity_check(arrival, services, window, RandomStream(seed))
    trace = simulate_tandem(TandemConfig(arrival, services), window, RandomStream(seed))
    a = trace.stages[0].a
    s = np.stack([tr.s for tr in trace.stages])
    vals = {window: 0.0}
    for m in range(window):
        free = PathQuery((0, 0), (window - m - 1, len(services) - 1), pinned=False)
        vals[m] = a[m:].sum() - enumerate_first_passage(WeightField(s[:, m:]), free)
    best = max(vals.values())
    assert res.rhs == best
    assert res.best_m == max(m for m, v in vals.items() if v == best) - window
    assert res.equal
