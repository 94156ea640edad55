"""Slot dynamics, stationary laws, fixed points, and the chain oracle."""

from __future__ import annotations

import math
import os
import re
from dataclasses import replace
from itertools import zip_longest

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from batchq import distributions as dist
from batchq import laws
from batchq import queue_core
from batchq.laws import (QueueParams, check_condition, match_arrival_bernoulli, solve_arrival,
                         stationary_law)
from batchq.queue_core import (Trace, excursion_loglik, markov_oracle, path_max_X, simulate,
                               simulate_blocks, simulate_series, step, tee_csv,
                               verify_detailed_balance, write_csv)
from batchq.stats import EmpiricalPmf, chi_square_gof
from batchq.streams import RandomStream

MAIN = QueueParams(p=1 / 3, alpha=2 / 3, q=1 / 2, beta=1 / 2)


def _lindley(a, s, init_x):
    """Queue lengths X_0..X_n from X_0 = ``init_x``: one block of the slot engine's kernel."""
    c, m = queue_core._prefix(a, s, 0, 0, np.result_type(a, s))
    return c + np.maximum(init_x, m)


def test_step_examples():
    assert step(3, 2, 4) == (1, 4, 0)
    assert step(0, 0, 5) == (0, 0, 5)
    assert step(1, 0, 3) == (0, 1, 2)
    with pytest.raises(ValueError):
        step(-1, 0, 0)
    with pytest.raises(ValueError):
        step(0, -2, 0)


def test_deterministic_queue_stays_empty():
    tr = simulate(laws.deterministic(1), laws.deterministic(1), 500, stream=RandomStream(0))
    assert np.all(tr.x == 0)
    assert np.all(tr.d == 1)


def test_trace_invariants_discrete_and_continuous():
    tr = simulate(laws.ber_geom(0.4, 0.5), laws.ber_geom(0.6, 0.4), 20_000, stream=RandomStream(3))
    tr.check_invariants()
    trc = simulate(laws.ber_exp(0.3, 1.0), laws.ber_exp(0.5, 0.5), 20_000, stream=RandomStream(4))
    trc.check_invariants()
    assert trc.a.dtype == np.float64


@pytest.mark.parametrize("n", [100_000, 1_000_000])
def test_float_trace_invariants_hold_at_the_kernel_rounding(n):
    # X is rounded at the size of the prefix sums of A - S, which grow with n
    tr = simulate(laws.exponential(2.0), laws.exponential(1.0), n, RandomStream(1))
    tr.check_invariants()
    moved = tr.x_full.copy()
    moved[n // 2] += 1e-6
    with pytest.raises(ValueError, match="X' = Y - D"):
        Trace(tr.a, tr.s, moved).check_invariants()


def test_every_float_block_holds_its_invariants_at_the_carried_rounding():
    # a block after the first is rounded at the prefix sum carried into it
    blocks = [st[0] for st in simulate_blocks(laws.exponential(2.0), [laws.exponential(1.0)],
                                              1_000_000, RandomStream(1))]
    assert len(blocks) == -(-1_000_000 // queue_core._BLOCK_SLOTS) > 1
    for tr in blocks:
        tr.check_invariants()
    moved = blocks[-1].x_full.copy()
    moved[len(moved) // 2] += 1e-6
    with pytest.raises(ValueError, match="X' = Y - D"):
        replace(blocks[-1], x_full=moved).check_invariants()


def test_trace_invariants_refuse_a_moved_or_negative_queue_length():
    tr = simulate(laws.ber_geom(0.4, 0.5), laws.ber_geom(0.6, 0.4), 1000, RandomStream(3))
    moved = tr.x_full.copy()
    moved[500] += 1
    with pytest.raises(ValueError, match="X' = Y - D"):
        Trace(tr.a, tr.s, moved).check_invariants()
    # X' = Y - D holds from X_0 = -5 (Y = 5, D = 3, X_1 = 2): only X >= 0 refuses it
    for x_full in ([-5, 2], [-5.0, 2.0]):
        with pytest.raises(ValueError, match="X >= 0"):
            Trace(np.array([10]), np.array([3]), np.array(x_full)).check_invariants()


def test_trace_invariants_name_the_count_and_the_first_violation():
    tr = simulate(laws.ber_geom(0.4, 0.5), laws.ber_geom(0.6, 0.4), 1000, RandomStream(3))
    moved = tr.x_full.copy()
    moved[[500, 700]] += 1
    # the slots whose X' = Y - D the moves break, by the per-slot recursion: slot k - 1 for a
    # move of X_k, whose X' it is, and slot k too unless its service empties the one more
    slots = [k for k in range(1000)
             if moved[k + 1] != moved[k] + tr.a[k] - min(moved[k] + tr.a[k], tr.s[k])]
    assert slots[0] == 499 and len(slots) >= 2
    with pytest.raises(ValueError, match=f"fails in {len(slots)} of 1000 slots, first slot 499 "
                                         r"\(error 1,"):
        Trace(tr.a, tr.s, moved).check_invariants()
    # a negative X is named by its index in x_full and its value
    moved = tr.x_full.copy()
    moved[[7, 9]] = -3
    with pytest.raises(ValueError, match="X >= 0 fails at 2 of 1001 values, first X_7 = -3"):
        Trace(tr.a, tr.s, moved).check_invariants()


def test_an_empty_series_is_refused():
    for run in (simulate_series, simulate_blocks):
        with pytest.raises(ValueError, match="need at least one stage"):
            run(laws.bernoulli(0.3), [], 10, RandomStream(0))


def test_trace_csv(tmp_path):
    tr = simulate(laws.ber_geom(0.4, 0.5), laws.geom_zero(0.5), 5, stream=RandomStream(6))
    path = tmp_path / "trace.csv"
    tr.to_csv(path)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "n,A,S,X,Y,D,U,I,T"
    assert len(lines) == 6
    assert lines[-1].split(",")[7] == ""  # I is absent on the final slot


def test_unstable_parameters_allowed():
    tr = simulate(laws.geom_plus(0.3), laws.bernoulli(0.4), 5000, stream=RandomStream(7))
    assert tr.x[-1] > 100  # the queue grows without bound


def test_a_run_draws_its_arrivals_then_each_stage_services_in_stage_order():
    arrival = laws.ber_geom(0.3, 0.6)
    services = [laws.ber_geom(0.5, 0.5), laws.geom_zero(0.4), laws.bernoulli(0.7)]
    stream, ref = RandomStream(11), RandomStream(11)
    stages = simulate_series(arrival, services, 500, stream)
    assert np.array_equal(stages[0].a, dist.sample_n(arrival, ref, 500))
    for tr, spec in zip(stages, services):
        assert np.array_equal(tr.s, dist.sample_n(spec, ref, 500))
    assert stream.uniform() == ref.uniform()  # and moves the stream past them all


def test_path_max_examples():
    assert path_max_X([0, 0, 0], [1, 1, 1]) == 0
    assert path_max_X([3, 0], [1, 1]) == 1
    # an empty window is the empty sum alone, of the drive's dtype (numpy reads [] as float)
    assert path_max_X(np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)) == 0
    assert path_max_X([], []) == 0.0
    with pytest.raises(ValueError):
        path_max_X([1, 2], [1])


def test_path_max_equals_iterated_step():
    stream = RandomStream(42)
    for i in range(300):
        st = stream.substream(i)
        n = 1 + int(st.uniform() * 20)
        a = dist.sample_n(laws.ber_geom(0.5, 0.4), st, n)
        s = dist.sample_n(laws.ber_geom(0.6, 0.5), st, n)
        x = 0
        for k in range(n):
            x, _, _ = step(x, int(a[k]), int(s[k]))
        assert path_max_X(a, s) == x


_DRIVES = st.one_of(
    st.integers(1, 25).flatmap(lambda n: st.tuples(
        st.lists(st.integers(0, 6), min_size=n, max_size=n),
        st.lists(st.integers(0, 6), min_size=n, max_size=n),
        st.integers(0, 10))),
    st.integers(1, 25).flatmap(lambda n: st.tuples(
        st.lists(st.floats(0, 6), min_size=n, max_size=n),
        st.lists(st.floats(0, 6), min_size=n, max_size=n),
        st.floats(0, 10))),
)


@settings(derandomize=True, deadline=None, max_examples=150)
@given(drive=_DRIVES)
def test_lindley_and_path_max_equal_iterated_step(drive):
    # the kernel and the window-maximum oracle share no code; each must equal the scalar step
    a, s, init_x = drive
    discrete = isinstance(init_x, int)
    path = _lindley(np.array(a), np.array(s), init_x)
    xs, x, from_zero = [init_x], init_x, 0
    for ak, sk in zip(a, s):
        x, _, _ = step(x, ak, sk)
        from_zero, _, _ = step(from_zero, ak, sk)
        xs.append(x)
    assert type(path_max_X(a, s)) is (int if discrete else float)
    if discrete:
        assert path.tolist() == xs
        assert path_max_X(a, s) == from_zero
    else:
        assert path == pytest.approx(xs, rel=1e-12, abs=1e-9)
        assert path_max_X(a, s) == pytest.approx(from_zero, rel=1e-12, abs=1e-9)


def test_check_condition():
    assert abs(check_condition(MAIN)) <= 1e-12
    for a in (0.3, 0.5, 0.8):
        for b in (0.2, 0.6, 0.9):
            geom_pair = QueueParams(p=1 - a, alpha=a, q=1 - b, beta=b)
            assert abs(check_condition(geom_pair)) <= 1e-12
    assert abs(check_condition(QueueParams(0.2, 0.9, 0.5, 0.5))) > 0.1


def test_solve_arrival_examples():
    p, a = solve_arrival(0.5, 0.5, 0.5)
    assert p == pytest.approx(1 / 3, abs=1e-12)
    assert a == pytest.approx(2 / 3, abs=1e-12)
    p, a = solve_arrival(0.6, 0.3, 1.0)
    root = 3 / (3 + math.sqrt(14))
    assert p == pytest.approx(root, abs=1e-12)
    assert a == pytest.approx(root, abs=1e-12)
    with pytest.raises(ValueError, match="unstable intensity"):
        solve_arrival(0.5, 0.5, 1.0)
    with pytest.raises(ValueError):
        solve_arrival(0.5, 0.5, 0.0)


@pytest.mark.parametrize("q, b", [(0.1, 0.4), (0.1, 0.6), (0.1, 0.8)])
def test_solve_arrival_refuses_a_root_that_rounds_onto_beta(q, b):
    # at the last double below mu = q/b the admissible root rounds to b itself,
    # which is outside (b, 1): it is refused, not returned, and the refusal names the edge
    lam = math.nextafter(q / b, 0.0)
    with pytest.raises(ValueError, match=re.escape(
            f"no admissible alpha in (beta, 1): the root rounded onto beta = {b}, "
            f"as lam = {lam} is within rounding of q/b = {q / b}")):
        solve_arrival(q, b, lam)


@pytest.mark.parametrize("q, b", [(0.1, 0.4), (0.5, 0.5), (0.9, 0.2)])
def test_solve_arrival_refuses_a_root_that_rounds_onto_1(q, b):
    # near lam = 0 the admissible root rounds to 1, the other end of (b, 1)
    with pytest.raises(ValueError, match=re.escape(
            "no admissible alpha in (beta, 1): the root rounded onto 1, "
            "as lam = 1e-300 is within rounding of 0")):
        solve_arrival(q, b, 1e-300)


def test_solve_arrival_roundtrip_grid():
    for q in (0.3, 0.5, 0.7, 0.9):
        for b in (0.2, 0.5, 0.6, 0.8):
            mu = q / b
            for frac in (0.1, 0.5, 0.9):
                lam = frac * mu
                p, a = solve_arrival(q, b, lam)
                params = QueueParams(p=p, alpha=a, q=q, beta=b)
                assert abs(p / a - lam) <= 1e-12
                assert abs(check_condition(params)) <= 1e-10
                lam1 = p * (p / (1 - p) * (1 - q) / q * (1 - b) / b + 1)
                lam2 = (1 - a) * b * q / (a * a * (1 - b - q) + a * b * q)
                assert abs(lam1 - lam) <= 1e-10
                assert abs(lam2 - lam) <= 1e-10


def test_stationary_law_values():
    law = stationary_law(MAIN)
    assert law.c == pytest.approx(0.5, abs=1e-12)
    assert law.gamma == pytest.approx(1 / 3, abs=1e-12)
    assert law.y_bernoulli == pytest.approx(2 / 3, abs=1e-12)
    assert law.mean_x == pytest.approx(1.5, abs=1e-12)
    assert law.mean_y == pytest.approx(law.mean_x + MAIN.p / MAIN.alpha, abs=1e-12)


def test_stationary_law_rejects_off_family():
    with pytest.raises(ValueError, match="markov_oracle"):
        stationary_law(QueueParams(0.2, 0.9, 0.5, 0.5))
    with pytest.raises(ValueError, match="unstable"):
        stationary_law(QueueParams(p=0.6, alpha=0.3, q=0.3, beta=0.6))


def test_stationary_law_vs_oracle():
    pi = markov_oracle(MAIN.arrival_spec, MAIN.service_spec, K=200)
    law = stationary_law(MAIN)
    ref = np.array([law.x_pmf(k) for k in range(len(pi))])
    assert np.abs(pi - ref).max() <= 1e-10


def test_geom_zero_pair_law_matches_simulation():
    params = QueueParams(p=1 - 0.6, alpha=0.6, q=1 - 0.4, beta=0.4)
    law = stationary_law(params)
    assert law.c == pytest.approx(0.4 / 0.6 * 0.4 / 0.6, abs=1e-12)
    assert law.gamma == pytest.approx((0.6 - 0.4) / 0.6, abs=1e-12)
    tr = simulate(params.arrival_spec, params.service_spec, 600_000, stream=RandomStream(21))
    emp = EmpiricalPmf.from_samples(tr.x[10_000::25], cutoff=25)
    assert chi_square_gof(emp, law.x_pmf, level=0.01).passed


def test_bernoulli_limit_of_stationary_law():
    p_, q_ = 0.3, 0.6
    alpha = 1 - 1e-9
    # the condition is symmetric under (alpha, p) <-> (beta, q)
    beta = match_arrival_bernoulli(q_, p_, alpha)
    law = stationary_law(QueueParams(p=p_, alpha=alpha, q=q_, beta=beta))
    assert law.c == pytest.approx(p_ * (1 - q_) / (q_ * (1 - p_)), rel=1e-6)
    pi = markov_oracle(laws.bernoulli(p_), laws.bernoulli(q_), K=100)
    ref = np.array([law.x_pmf(k) for k in range(len(pi))])
    assert np.abs(pi - ref).max() <= 1e-7


def test_detailed_balance_residuals():
    sets = [(0.5, 0.5, 2 / 3), (0.6, 0.3, 0.5), (0.7, 0.4, 0.55),
            (0.4, 0.2, 0.5), (0.8, 0.45, 0.75)]
    for q, b, a in sets:
        params = QueueParams(p=match_arrival_bernoulli(a, q, b), alpha=a, q=q, beta=b)
        assert verify_detailed_balance(params) <= 1e-12
    assert verify_detailed_balance(QueueParams(0.2, 0.9, 0.5, 0.5)) > 1e-6


def test_excursion_single_slot_self_reversed():
    ll_f = excursion_loglik(MAIN, [2], [2])
    ll_r = excursion_loglik(MAIN, [2], [2])
    assert ll_f == ll_r
    # direct product oracle: log pmf_A(2) + log P(S >= 2)
    expect = math.log(laws.pmf(MAIN.arrival_spec, 2)) + math.log(laws.sf(MAIN.service_spec, 2))
    assert ll_f == pytest.approx(expect, abs=1e-12)


def test_excursion_reversal_iff_condition():
    fwd = excursion_loglik(MAIN, [2, 0], [1, 1])
    rev = excursion_loglik(MAIN, [1, 1], [0, 2])
    assert fwd == pytest.approx(rev, abs=1e-12)
    off = QueueParams(0.2, 0.9, 0.5, 0.5)
    assert abs(excursion_loglik(off, [2, 0], [1, 1])
               - excursion_loglik(off, [1, 1], [0, 2])) > 1e-6


def test_excursion_geom_zero_closed_form():
    params = QueueParams(p=0.4, alpha=0.6, q=0.3, beta=0.7)
    a_seq, d_seq = [3, 0, 1], [1, 1, 2]
    ll = excursion_loglik(params, a_seq, d_seq)
    n, sa, sd = 3, 4, 4
    closed = (n * math.log(0.6) + sa * math.log(0.4)
              + (n - 1) * math.log(0.7) + sd * math.log(0.3))
    assert ll == pytest.approx(closed, abs=1e-12)


def test_excursion_shape_validation():
    with pytest.raises(ValueError):
        excursion_loglik(MAIN, [2, 0], [1, 2])  # totals differ
    with pytest.raises(ValueError):
        excursion_loglik(MAIN, [1, 1], [1, 1])  # hits zero in the middle
    with pytest.raises(ValueError):
        excursion_loglik(MAIN, [0, 2], [1, 1])  # a_1 = 0
    with pytest.raises(ValueError):
        excursion_loglik(MAIN, [2], [])


def test_oracle_general_service_shapes():
    # 0/1 arrivals with general service: the queue law is plain geometric
    pi = markov_oracle(laws.bernoulli(0.3), laws.bernoulli(0.6), K=120)
    ratios = pi[1:40] / pi[0:39]
    assert ratios.max() - ratios.min() <= 1e-10
    # BerGeom arrivals with deterministic service: constant ratio above 0
    pi = markov_oracle(laws.ber_geom(0.3, 0.5), laws.deterministic(1), K=200)
    ratios = pi[2:31] / pi[1:30]
    assert ratios.max() - ratios.min() <= 1e-8


def test_oracle_rejects_bad_input():
    with pytest.raises(RuntimeError, match="increase K"):
        markov_oracle(laws.ber_geom(0.45, 0.5), laws.deterministic(1), K=25)
    with pytest.raises(ValueError, match="discrete"):
        markov_oracle(laws.exponential(1.0), laws.deterministic(1), K=50)
    with pytest.raises(ValueError, match="unstable"):
        markov_oracle(laws.geom_plus(0.3), laws.bernoulli(0.5), K=50)
    with pytest.raises(ValueError, match="pmf"):
        markov_oracle(laws.bernoulli(0.2), np.array([0.5, 0.4]), K=50)


@settings(derandomize=True, deadline=None, max_examples=60)
@given(q=st.floats(0.05, 0.95), beta=st.floats(0.05, 0.9), gamma=st.floats(0.15, 0.95))
def test_oracle_matches_formula_law_on_family(q, beta, gamma):
    # gamma >= 0.15 keeps the boundary mass at K=200 below the refusal level
    alpha = beta + gamma * (1 - beta)
    params = QueueParams(p=match_arrival_bernoulli(alpha, q, beta), alpha=alpha, q=q, beta=beta)
    pi = markov_oracle(params.arrival_spec, params.service_spec, K=200)
    law = stationary_law(params)
    ref = np.array([law.x_pmf(k) for k in range(len(pi))])
    assert np.abs(pi - ref).max() <= 1e-10
    assert pi.min() >= 0.0
    assert abs(pi.sum() - 1.0) <= 1e-12


def test_queue_params_validation_and_burn_in():
    with pytest.raises(ValueError):
        QueueParams(p=0.0, alpha=0.5, q=0.5, beta=0.5)
    assert MAIN.is_stable


def _one_shot(arrival, services, n, stream, init_x):
    """Whole traces of queues in series: every sampler call, then one Lindley pass per stage.

    The first stage starts at ``init_x`` and the others empty; a stage whose
    arrival and service dtypes differ runs in float.
    """
    a = dist.sample_n(arrival, stream, n)
    drawn = [dist.sample_n(sv, stream, n) for sv in services]
    stages = []
    for r, s in enumerate(drawn):
        if a.dtype != s.dtype:
            a, s = a.astype(float), s.astype(float)
        x0 = init_x if r == 0 else 0
        x0 = x0 if a.dtype == np.int64 else float(x0)
        stages.append(Trace(a=a, s=s, x_full=_lindley(a, s, x0)))
        a = stages[-1].d
    return stages


_SIM_SPECS = st.sampled_from([
    (laws.ber_geom(0.4, 0.5), [laws.ber_geom(0.6, 0.4)]),
    (laws.ber_geom(0.3, 0.6), [laws.geom_zero(0.5)]),
    (laws.geom_plus(0.3), [laws.bernoulli(0.4)]),
    (laws.ber_exp(0.3, 1.0), [laws.ber_exp(0.5, 0.5)]),
    (laws.exponential(2.0), [laws.ber_geom(0.5, 0.5)]),
    # queues in series, R = 2..4, and a float stage feeding an integer one
    (laws.ber_geom(0.4, 0.5), [laws.ber_geom(0.6, 0.4)] * 2),
    (laws.ber_geom(1 / 3, 2 / 3), [laws.ber_geom(0.5, 0.5)] * 3),
    (laws.geom_plus(0.6), [laws.geom_zero(0.5), laws.ber_geom(0.6, 0.4), laws.bernoulli(0.7),
                           laws.geom_plus(0.3)]),
    (laws.ber_geom(0.4, 0.5), [laws.exponential(1.0), laws.ber_geom(0.6, 0.4)]),
])


@settings(derandomize=True, deadline=None, max_examples=120)
@given(specs=_SIM_SPECS, block=st.integers(1, 50), n=st.integers(1, 300),
       init_x=st.integers(0, 40), seed=st.integers(0, 2**32 - 1))
def test_block_simulation_equals_one_shot_slot_by_slot(specs, block, n, init_x, seed):
    arrival, services = specs
    ref = _one_shot(arrival, services, n, RandomStream(seed), init_x)
    stream = RandomStream(seed)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(queue_core, "_BLOCK_SLOTS", block)
        blocks = list(simulate_blocks(arrival, services, n, stream, init_x=init_x))
        whole = simulate_series(arrival, services, n, RandomStream(seed), init_x=init_x)
    assert [len(b[0]) for b in blocks] == [min(block, n - lo) for lo in range(0, n, block)]
    for r, want in enumerate(ref):
        x = want.x_full[0]
        for lo, stages in zip(range(0, n, block), blocks):
            b = stages[r]
            # each block starts where the stage's previous block ended
            assert b.x_full[0] == x
            assert np.array_equal(b.a, want.a[lo:lo + block])
            assert np.array_equal(b.s, want.s[lo:lo + block])
            assert np.array_equal(b.x_full, want.x_full[lo:lo + block + 1])
            x = b.final_x
        tracks = [whole[r]]
        if len(services) == 1:
            tracks.append(simulate(arrival, services[0], n, RandomStream(seed), init_x=init_x))
        for tr in tracks:
            for name in ("a", "s", "x_full"):
                got, exp = getattr(tr, name), getattr(want, name)
                assert got.dtype == exp.dtype and np.array_equal(got, exp)
    # the stream is left past all the draws, as by the one-shot run
    assert stream.uniform() == RandomStream(seed).ahead(
        n * sum(2 if s.kind in ("ber_geom", "ber_exp") else 1 for s in (arrival, *services))
    ).uniform()


def test_block_simulation_matches_iterated_step_across_default_blocks():
    n = 3 * queue_core._BLOCK_SLOTS + 17
    tr = simulate(laws.ber_geom(0.45, 0.5), laws.ber_geom(0.5, 0.5), n, RandomStream(4),
                  init_x=30)
    x = 30
    xs = [x]
    for a, s in zip(tr.a.tolist(), tr.s.tolist()):
        x, _, _ = step(x, a, s)
        xs.append(x)
    assert tr.x_full.tolist() == xs


def _old_write_csv(path, header, columns):
    """The per-cell Python formatter that the numpy writer replaces."""
    def cells(col):
        if np.issubdtype(col.dtype, np.integer):
            return list(map(str, col.tolist()))
        return list(map("{:.17g}".format, col.tolist()))
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(",".join(row) + "\n"
                      for row in zip_longest(*map(cells, columns), fillvalue=""))


_INT_COLUMN = st.one_of(
    st.integers(0, 2**63 - 1), st.integers(0, 12),
    st.sampled_from([0, 9, 10, 99, 100, 2**63 - 1, 10**18]))
_FLOAT_COLUMN = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True), st.floats(-1e3, 1e3),
    st.sampled_from([0.0, -0.0, 0.1, 1e-300, 5e-324, 1e300, 2.0**53]))
_COLUMNS = {"int64": _INT_COLUMN, "float64": _FLOAT_COLUMN,
            "uint64": st.one_of(st.integers(0, 2**64 - 1), st.sampled_from([0, 2**64 - 1]))}


@settings(derandomize=True, deadline=None, max_examples=150)
@given(data=st.data())
def test_write_csv_equals_the_per_cell_formatter(data, tmp_path_factory):
    rows = data.draw(st.integers(1, 40))
    kinds = data.draw(st.lists(st.sampled_from(list(_COLUMNS)), min_size=1, max_size=5))
    columns = []
    for j, kind in enumerate(kinds):
        # after the first, a column may be short, leaving its trailing cells empty
        length = rows if j == 0 else data.draw(st.integers(max(rows - 2, 0), rows))
        values = data.draw(st.lists(_COLUMNS[kind], min_size=length, max_size=length))
        columns.append(np.array(values, dtype=kind))
    header = [f"c{j}" for j in range(len(columns))]
    root = tmp_path_factory.mktemp("csv")
    write_csv(root / "new.csv", header, columns)
    _old_write_csv(root / "old.csv", header, columns)
    assert (root / "new.csv").read_bytes() == (root / "old.csv").read_bytes()


def test_write_csv_crosses_row_blocks(tmp_path):
    n = 2 * queue_core._BLOCK_SLOTS + 5
    columns = [np.arange(n, dtype=np.int64) * 7919, np.linspace(-1.0, 1.0, n - 1)]
    write_csv(tmp_path / "new.csv", ["k", "v"], columns)
    _old_write_csv(tmp_path / "old.csv", ["k", "v"], columns)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


@settings(derandomize=True, deadline=None, max_examples=60)
@given(values=st.lists(st.one_of(st.integers(-(2**63), 2**63 - 1), st.integers(-12, 12),
                                 st.sampled_from([-(2**63), -1, -(10**18)])),
                       min_size=1, max_size=40).filter(lambda v: min(v) < 0),
       at=st.integers(0, 2))
def test_write_csv_refuses_a_negative_integer_cell(values, at, tmp_path_factory):
    # every integer column the program writes is >= 0; a negative cell is refused,
    # also in a later row block
    col = np.zeros(at * queue_core._BLOCK_SLOTS + len(values), dtype=np.int64)
    col[-len(values):] = values
    with pytest.raises(ValueError, match=">= 0"):
        write_csv(tmp_path_factory.mktemp("neg") / "k.csv", ["k"], [col])


@settings(derandomize=True, deadline=None, max_examples=40)
@given(block=st.integers(1, 30), n=st.integers(1, 120), init_x=st.integers(0, 9),
       seed=st.integers(0, 2**32 - 1))
def test_tee_csv_writes_the_whole_trace_file(block, n, init_x, seed, tmp_path_factory):
    root = tmp_path_factory.mktemp("tee")
    arrival, service = laws.ber_geom(0.4, 0.5), laws.ber_geom(0.6, 0.4)
    _one_shot(arrival, [service], n, RandomStream(seed), init_x)[0].to_csv(root / "whole.csv")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(queue_core, "_BLOCK_SLOTS", block)
        blocks = simulate_blocks(arrival, [service], n, RandomStream(seed), init_x=init_x)
        passed = list(tee_csv((stages[0] for stages in blocks), root / "streamed.csv"))
    assert sum(map(len, passed)) == n
    assert (root / "streamed.csv").read_bytes() == (root / "whole.csv").read_bytes()


def _engine_means(arrival, service, n, seed, init_x, burn):
    tr = simulate(arrival, service, n, RandomStream(seed), init_x=init_x)
    return {name: float(getattr(tr, name)[burn:].mean()) for name in "xyd"}


@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_scan_moves_the_stream_as_the_slot_engine_does(cpus, monkeypatch):
    arrival, service = laws.ber_geom(0.4, 0.5), laws.ber_geom(0.6, 0.4)
    monkeypatch.setattr(queue_core, "_BLOCK_SLOTS", 64)
    monkeypatch.setattr(queue_core, "_SHARD_SLOTS", 1)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    engine, scanned = RandomStream(9), RandomStream(9)
    simulate_blocks(arrival, [service], 1000, engine, init_x=3)
    means = queue_core.scan_means(arrival, service, 1000, scanned, 3, 100)
    assert means == _engine_means(arrival, service, 1000, 9, 3, 100)
    assert scanned.uniform() == engine.uniform()


def test_scan_reruns_a_shard_whose_levels_stop_below_its_start(monkeypatch):
    arrival, service = laws.ber_geom(0.4, 0.5), laws.ber_geom(0.6, 0.4)
    calls, shard = [], queue_core._scan_shard
    def spy(*args):
        calls.append(args[4:])  # (lo, hi, burn, cap); a forked worker counts in its own copy
        return shard(*args)
    monkeypatch.setattr(queue_core, "_scan_shard", spy)
    monkeypatch.setattr(queue_core, "_SHARD_SLOTS", 1)
    monkeypatch.setattr(queue_core, "_LEVEL_CAP", 2)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    # the queue drains about 0.7 a slot from 2000, so the second shard
    # starts far above the 2 levels it records, and its M passes them
    means = queue_core.scan_means(arrival, service, 2000, RandomStream(5), 2000, 10)
    assert means == _engine_means(arrival, service, 2000, 5, 2000, 10)
    # this process scans the first shard, then reruns the second with every level up to its start
    assert [c[:3] for c in calls] == [(0, 1000, 10), (1000, 2000, 10)]
    assert calls[0][3] == 2000 and calls[1][3] > 2


# shards of at least _SHARD_SLOTS (100 here) slots, at most one per CPU
@pytest.mark.parametrize("slots, cpus, shards", [(99, 64, 1), (199, 64, 1), (200, 64, 2),
                                                 (1050, 64, 10), (1050, 3, 3), (1050, 1, 1)])
def test_scan_shards_hold_at_least_the_shard_slots(slots, cpus, shards, monkeypatch):
    arrival, service = laws.ber_geom(0.4, 0.5), laws.ber_geom(0.6, 0.4)
    calls = []
    def in_process(fn, tasks):
        calls.append(tasks)
        return [fn(*t) for t in tasks]
    monkeypatch.setattr(queue_core, "fork_map", in_process)
    monkeypatch.setattr(queue_core, "_SHARD_SLOTS", 100)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    means = queue_core.scan_means(arrival, service, slots, RandomStream(2), 5, 30)
    assert means == _engine_means(arrival, service, slots, 2, 5, 30)
    (tasks,) = calls
    spans = [t[4:6] for t in tasks]
    assert len(spans) == shards
    assert all(hi - lo >= min(slots, 100) for lo, hi in spans)


def test_scan_means_validation():
    a, s = laws.ber_geom(0.4, 0.5), laws.ber_geom(0.6, 0.4)
    for n, init_x, burn, msg in ((0, 0, 0, "n_slots"), (10, -1, 0, "init_x"),
                                 (10, 0, 10, "burn_in"), (10, 0, -1, "burn_in")):
        with pytest.raises(ValueError, match=msg):
            queue_core.scan_means(a, s, n, RandomStream(1), init_x, burn)
    with pytest.raises(ValueError, match="integer-valued"):
        queue_core.scan_means(laws.exponential(1.0), s, 10, RandomStream(1))


def test_block_means_refuses_a_burn_in_outside_the_slots():
    # below 0 or at and above the slot count, no slot is averaged as asked
    arrival, service = laws.ber_geom(0.4, 0.5), laws.ber_geom(0.6, 0.4)
    for burn in (-5, 1000, 1200):
        blocks = simulate_blocks(arrival, [service], 1000, RandomStream(3))
        with pytest.raises(ValueError, match="burn_in must lie in"):
            queue_core.block_means((stages[0] for stages in blocks), burn)
    blocks = simulate_blocks(arrival, [service], 1000, RandomStream(3))
    assert (queue_core.block_means((stages[0] for stages in blocks), 999)
            == [_engine_means(arrival, service, 1000, 3, 0, 999)])
