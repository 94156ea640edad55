"""The chi-square/KS machinery, checked against closed-form tail oracles."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from batchq import distributions as dist
from batchq import laws
from batchq.stats import (EmpiricalPmf, _kolmogorov_sf, _pool_tail, _spans, batch_mean_stderr,
                          chi2_sf, chi_square_gof, chi_square_two_sample, encode_pairs,
                          independence_chi2, ks_distance, ks_test, lag_autocorr)
from batchq.streams import RandomStream


def test_chi2_sf_matches_scipy_gammaincc():
    special = pytest.importorskip("scipy.special")
    for dof in (1, 2, 3, 4, 5, 7, 10, 17, 30, 64, 100, 250, 1000, 5000):
        for m in (1e-4, 0.01, 0.1, 0.5, 0.9, 1.0, 1.1, 1.5, 2.0, 3.0, 5.0, 10.0):
            stat = m * dof
            ref = float(special.gammaincc(dof / 2.0, stat / 2.0))
            assert chi2_sf(stat, dof) == pytest.approx(ref, rel=1e-10, abs=1e-300), (dof, stat)


def test_chi2_sf_against_closed_forms():
    # dof 2: survival is exp(-x/2); dof 1: erfc(sqrt(x/2))
    for x in (0.1, 1.0, 3.7, 10.0, 40.0):
        assert chi2_sf(x, 2) == pytest.approx(math.exp(-x / 2), rel=1e-12)
        assert chi2_sf(x, 1) == pytest.approx(math.erfc(math.sqrt(x / 2)), rel=1e-10)
    assert chi2_sf(0.0, 5) == 1.0
    # mean of a chi-square is its dof, so the sf at the mean is moderate
    assert 0.3 < chi2_sf(10.0, 10) < 0.6


def test_empirical_pmf_counts():
    emp = EmpiricalPmf.from_samples([0, 1, 1, 2, 9], cutoff=3)
    assert emp.counts.tolist() == [1, 2, 1, 0, 1]
    assert emp.n == 5
    with pytest.raises(ValueError):
        EmpiricalPmf.from_samples([])
    with pytest.raises(ValueError):
        EmpiricalPmf.from_samples([-1, 2])


def test_exact_fit_gives_statistic_zero_p_one():
    probs = np.array([0.5, 0.3, 0.2, 0.0])
    emp = EmpiricalPmf(counts=(probs * 1000).astype(np.int64), n=1000, cutoff=2)
    res = chi_square_gof(emp, probs)
    assert res.statistic == 0.0
    assert res.p_value == 1.0
    assert res.passed


def test_gof_pools_small_expected_cells():
    spec = laws.geom_zero(0.6)
    draws = dist.sample_n(spec, RandomStream(3), 50_000)
    emp = EmpiricalPmf.from_samples(draws, cutoff=40)  # deep cells are nearly empty
    res = chi_square_gof(emp, lambda k: laws.pmf(spec, k))
    assert res.passed
    assert res.dof < 40  # pooling merged the deep tail


def test_pooling_joins_deficient_front_cells_to_the_first_full_group():
    # from the tail: 3 + 50 and 50 reach 5; the front cell (expected 1) joins the 50
    o, e, starts = _pool_tail(np.array([1.0, 50.0, 50.0, 3.0]), np.array([1.0, 50.0, 50.0, 3.0]))
    assert o.tolist() == e.tolist() == [51.0, 53.0]
    assert starts == [0, 2]


def _span(text: str) -> tuple[float, float]:
    """The values of a pooled cell's label: "3", "3..5", or "6+" (6 and above)."""
    if text.endswith("+"):
        return int(text[:-1]), math.inf
    lo, _, hi = text.partition("..")
    return int(lo), int(hi or lo)


def test_a_chi_square_result_names_its_pooled_cells_and_its_worst_cell():
    # gof: value 1 is 30 above its expected 300, and the tail (expected 2) pools from 3 on
    emp = EmpiricalPmf(counts=np.array([470, 330, 150, 40, 10]), n=1000, cutoff=3)
    cells = chi_square_gof(emp, np.array([0.5, 0.3, 0.15, 0.048, 0.002]))._cells
    assert cells["cells"] == 4
    assert cells["worst_cell"] == {"values": "1", "observed": 330.0,
                                   "expected": pytest.approx(300.0)}
    # two samples: the histograms differ at index 2, and the last three indices pool
    cells = chi_square_two_sample([100, 200, 300, 50, 3, 1], [100, 200, 200, 50, 3, 1])._cells
    assert cells["cells"] == 4
    assert cells["worst_cell"]["values"] == "2"
    assert cells["worst_cell"]["observed"] == [300.0, 200.0]
    # independence: the worst cell's observed count is the pairs its labels hold
    x = dist.sample_n(laws.geom_zero(0.4), RandomStream(1), 20_000)
    y = dist.sample_n(laws.geom_zero(0.4), RandomStream(2), 20_000)
    y[:3000] = x[:3000]
    res = independence_chi2(x, y, 6, 6, min_pairs=1000)
    cells = res._cells
    assert not res.passed and cells["cells"] > res.dof
    (xlo, xhi), (ylo, yhi) = (_span(cells["worst_cell"]["values"][k]) for k in "xy")
    held = (xlo <= x) & (x <= xhi) & (ylo <= y) & (y <= yhi)
    assert cells["worst_cell"]["observed"] == held.sum()
    terms = ((cells["worst_cell"]["observed"] - cells["worst_cell"]["expected"]) ** 2
             / cells["worst_cell"]["expected"])
    assert terms >= res.statistic / cells["cells"]  # the largest term is at least the mean


def _reference(terms: list, observed: list, expected: list, values: list, dof: int):
    """(statistic, p-value, dof, cells) with each sample's terms summed on its own, then
    added; the worst cell is the largest sum of a cell's terms over the samples."""
    stat = float(sum(t.sum() for t in terms))
    w = int(np.argmax(sum(terms)))
    o, e = [float(v[w]) for v in observed], [float(v[w]) for v in expected]
    if len(terms) == 1:
        o, e = o[0], e[0]
    return stat, chi2_sf(stat, dof), dof, {
        "cells": len(values), "worst_cell": {"values": values[w], "observed": o, "expected": e}}


def _gof_reference(counts: np.ndarray, probs: np.ndarray):
    o, e, starts = _pool_tail(counts, probs * counts.sum())
    return _reference([(o - e) ** 2 / e], [o], [e], _spans(starts, len(counts), True),
                      len(o) - 1)


def _two_sample_reference(c1: np.ndarray, c2: np.ndarray):
    n1, n2 = c1.sum(), c2.sum()
    pooled = (c1 + c2) / (n1 + n2)
    c1p, _, starts = _pool_tail(c1, pooled * min(n1, n2))
    c2p, _, _ = _pool_tail(c2, pooled * min(n1, n2))
    p_hat = (c1p + c2p) / (n1 + n2)
    e1, e2 = n1 * p_hat, n2 * p_hat
    return _reference([(c1p - e1) ** 2 / e1, (c2p - e2) ** 2 / e2], [c1p, c2p], [e1, e2],
                      _spans(starts, len(c1), False), len(c1p) - 1)


def _independence_reference(x: np.ndarray, y: np.ndarray, xc: int, yc: int):
    xv, yv = np.minimum(x, xc), np.minimum(y, yc)
    table = np.zeros((xc + 1, yc + 1))
    np.add.at(table, (xv, yv), 1.0)
    xs, ys = (np.flatnonzero(table.sum(axis=a) > 0).tolist() for a in (1, 0))
    table = table[xs][:, ys]
    while True:
        expected = table.sum(axis=1, keepdims=True) * table.sum(axis=0, keepdims=True) / x.size
        if expected.min() >= 5.0:
            break
        if table.shape[0] >= table.shape[1] and table.shape[0] > 2:
            table = np.vstack([table[:-2], table[-2] + table[-1]])
            xs.pop()
        else:
            table = np.hstack([table[:, :-2], (table[:, -2] + table[:, -1])[:, None]])
            ys.pop()
    cells = [{"x": a, "y": b} for a in _spans(xs, xc + 1, True) for b in _spans(ys, yc + 1, True)]
    return _reference([((table - expected) ** 2 / expected).ravel()], [table.ravel()],
                      [expected.ravel()], cells, (table.shape[0] - 1) * (table.shape[1] - 1))


def _agree(test, reference) -> None:
    """``test()`` gives ``reference()``'s statistic, p-value, dof and cells, or both refuse."""
    try:
        ref = reference()
    except ValueError:
        with pytest.raises(ValueError, match="insufficient counts"):
            test()
    else:
        res = test()
        assert (res.statistic, res.p_value, res.dof, res._cells) == ref


@given(counts=st.lists(st.tuples(st.integers(0, 400), st.integers(0, 400)), min_size=2,
                       max_size=40),
       cutoffs=st.sampled_from([(1, 4), (4, 1), (2, 6), (6, 3), (5, 8)]),
       pairs=st.integers(1000, 20_000), shared=st.floats(0.0, 0.3), seed=st.integers(0, 2**32 - 1))
@example(counts=[(5, 8), (8, 5), (10, 10)], cutoffs=(1, 4), pairs=1000, shared=0.0, seed=0)
@settings(derandomize=True, deadline=None, max_examples=60)
def test_each_chi_square_is_the_per_sample_pearson_sum_bit_for_bit(counts, cutoffs, pairs,
                                                                   shared, seed):
    # the example's two cells tie on their summed terms, while sample 1's terms differ by
    # rounding: the first cell is the worst, not the first sample's largest term
    c1, c2 = np.array(counts, dtype=float).T
    # sample 1 against the pmf proportional to sample 2's counts plus 1
    probs = (c2 + 1) / (c2 + 1).sum()
    emp = EmpiricalPmf(counts=c1.astype(np.int64), n=int(c1.sum()), cutoff=len(c1) - 2)
    _agree(lambda: chi_square_gof(emp, probs), lambda: _gof_reference(c1, probs))
    if c1.sum() and c2.sum():
        _agree(lambda: chi_square_two_sample(c1, c2), lambda: _two_sample_reference(c1, c2))
    # unequal cutoffs: a pair's cell index needs y's cutoff, not x's
    rng = np.random.default_rng(seed)
    x, y = rng.geometric(0.45, (2, pairs)) - 1
    y[: int(shared * pairs)] = x[: int(shared * pairs)]
    _agree(lambda: independence_chi2(x, y, *cutoffs, min_pairs=1000),
           lambda: _independence_reference(x, y, *cutoffs))


def test_gof_insufficient_counts():
    emp = EmpiricalPmf(counts=np.array([3, 1], dtype=np.int64), n=4, cutoff=0)
    with pytest.raises(ValueError, match="insufficient counts"):
        chi_square_gof(emp, np.array([0.5, 0.5]))


def test_gof_power_against_wrong_law():
    draws = dist.sample_n(laws.geom_zero(0.5), RandomStream(8), 1_000_000)
    emp = EmpiricalPmf.from_samples(draws, cutoff=25)
    res = chi_square_gof(emp, lambda k: laws.pmf(laws.ber_geom(0.4, 0.5), k))
    assert res.p_value < 1e-6


def test_null_pvalues_are_near_uniform_over_200_seeds():
    ref = laws.ber_geom(1 / 3, 2 / 3)
    stream = RandomStream(123)
    pvals = []
    for i in range(200):
        draws = dist.sample_n(ref, stream.substream(i), 10_000)
        emp = EmpiricalPmf.from_samples(draws, cutoff=25)
        pvals.append(chi_square_gof(emp, lambda k: laws.pmf(ref, k)).p_value)
    assert ks_distance(pvals, lambda u: min(1.0, max(0.0, u))) < 0.1


def test_independence_calibration_and_power():
    st = RandomStream(99)
    z1 = dist.sample_n(laws.ber_geom(0.4, 0.5), st.substream(0), 150_000)
    z2 = dist.sample_n(laws.ber_geom(0.4, 0.5), st.substream(1), 150_000)
    res = independence_chi2(z1, z2, 8, 8)
    assert res.p_value > 0.01
    res = independence_chi2(z1, z1, 8, 8)
    assert res.p_value < 1e-10


def test_independence_preconditions():
    with pytest.raises(ValueError, match="pairs"):
        independence_chi2([1, 2, 3], [1, 2, 3], 4, 4)
    ones = np.ones(200_000, dtype=np.int64)
    with pytest.raises(ValueError, match="degenerate"):
        independence_chi2(ones, ones, 4, 4)


def test_encode_pairs():
    a = np.array([0, 1, 9])
    b = np.array([2, 0, 5])
    assert encode_pairs(a, b, 3).tolist() == [2, 4, 15]


def test_lag_autocorr_iid_and_markov():
    st = RandomStream(11)
    iid = dist.sample_n(laws.geom_zero(0.5), st, 200_000).astype(float)
    rho, se = lag_autocorr(iid, 1)
    assert abs(rho) < 3 * se
    # an AR(1)-style running sum is visibly correlated
    walk = np.cumsum(iid - iid.mean())[:100_000]
    rho, se = lag_autocorr(walk, 1)
    assert rho > 10 * se
    with pytest.raises(ValueError, match="constant"):
        lag_autocorr(np.ones(1000), 1)


def test_batch_mean_stderr_on_iid_matches_classic():
    st = RandomStream(12)
    x = st.uniforms(400_000)
    se = batch_mean_stderr(x)
    classic = x.std(ddof=1) / math.sqrt(len(x))
    assert se == pytest.approx(classic, rel=0.35)
    with pytest.raises(ValueError):
        batch_mean_stderr(x[:500])


def test_ks_test_calibration():
    st = RandomStream(13)
    u = st.uniforms(50_000)
    res = ks_test(u, lambda x: min(1.0, max(0.0, x)))
    assert res.passed
    res = ks_test(u**2, lambda x: min(1.0, max(0.0, x)))
    assert res.p_value < 1e-10


def test_ks_p_value_of_a_sample_that_fits_too_well_is_one():
    # midpoints of n equal cells have D = 1/(2n), t about 0.005 at n = 10**4:
    # below the t where 100 terms of the alternating series converge
    for n in (10**4, 4 * 10**4):
        res = ks_test((np.arange(n) + 0.5) / n, lambda x: x)
        assert res.p_value > 1 - 1e-12
    assert _kolmogorov_sf(0.01) == 1.0
    # both sides of the switch to the small-t series give scipy.special.kolmogorov's values
    for t, sf in ((0.04, 1.0), (0.05, 1.0), (0.5, 0.9639452436648751),
                  (1.0, 0.26999967167735456)):
        assert abs(_kolmogorov_sf(t) - sf) <= 1e-12


def test_two_sample_chi_square():
    st = RandomStream(14)
    a = dist.sample_n(laws.geom_zero(0.5), st.substream(0), 100_000)
    b = dist.sample_n(laws.geom_zero(0.5), st.substream(1), 100_000)
    ca = np.bincount(np.minimum(a, 20), minlength=21)
    cb = np.bincount(np.minimum(b, 20), minlength=21)
    assert chi_square_two_sample(ca, cb).passed
    c = dist.sample_n(laws.geom_zero(0.4), st.substream(2), 100_000)
    cc = np.bincount(np.minimum(c, 20), minlength=21)
    assert chi_square_two_sample(ca, cc).p_value < 1e-10
