"""The chi-square/KS machinery, checked against closed-form tail oracles."""

from __future__ import annotations

import math

import numpy as np
import pytest

from batchq import distributions as dist
from batchq.stats import (EmpiricalPmf, _kolmogorov_sf, _pool_tail, batch_mean_stderr,
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
    spec = dist.geom_zero(0.6)
    draws = dist.sample_n(spec, RandomStream(3), 50_000)
    emp = EmpiricalPmf.from_samples(draws, cutoff=40)  # deep cells are nearly empty
    res = chi_square_gof(emp, lambda k: dist.pmf(spec, k))
    assert res.passed
    assert res.dof < 40  # pooling merged the deep tail


def test_pooling_joins_deficient_front_cells_to_the_first_full_group():
    # from the tail: 3 + 50 and 50 reach 5; the front cell (expected 1) joins the 50
    o, e = _pool_tail(np.array([1.0, 50.0, 50.0, 3.0]), np.array([1.0, 50.0, 50.0, 3.0]))
    assert o.tolist() == e.tolist() == [51.0, 53.0]


def test_gof_insufficient_counts():
    emp = EmpiricalPmf(counts=np.array([3, 1], dtype=np.int64), n=4, cutoff=0)
    with pytest.raises(ValueError, match="insufficient counts"):
        chi_square_gof(emp, np.array([0.5, 0.5]))


def test_gof_power_against_wrong_law():
    draws = dist.sample_n(dist.geom_zero(0.5), RandomStream(8), 1_000_000)
    emp = EmpiricalPmf.from_samples(draws, cutoff=25)
    res = chi_square_gof(emp, lambda k: dist.pmf(dist.ber_geom(0.4, 0.5), k))
    assert res.p_value < 1e-6


def test_null_pvalues_are_near_uniform_over_200_seeds():
    ref = dist.ber_geom(1 / 3, 2 / 3)
    stream = RandomStream(123)
    pvals = []
    for i in range(200):
        draws = dist.sample_n(ref, stream.substream(i), 10_000)
        emp = EmpiricalPmf.from_samples(draws, cutoff=25)
        pvals.append(chi_square_gof(emp, lambda k: dist.pmf(ref, k)).p_value)
    assert ks_distance(pvals, lambda u: min(1.0, max(0.0, u))) < 0.1


def test_independence_calibration_and_power():
    st = RandomStream(99)
    z1 = dist.sample_n(dist.ber_geom(0.4, 0.5), st.substream(0), 150_000)
    z2 = dist.sample_n(dist.ber_geom(0.4, 0.5), st.substream(1), 150_000)
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
    iid = dist.sample_n(dist.geom_zero(0.5), st, 200_000).astype(float)
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
    a = dist.sample_n(dist.geom_zero(0.5), st.substream(0), 100_000)
    b = dist.sample_n(dist.geom_zero(0.5), st.substream(1), 100_000)
    ca = np.bincount(np.minimum(a, 20), minlength=21)
    cb = np.bincount(np.minimum(b, 20), minlength=21)
    assert chi_square_two_sample(ca, cb).passed
    c = dist.sample_n(dist.geom_zero(0.4), st.substream(2), 100_000)
    cc = np.bincount(np.minimum(c, 20), minlength=21)
    assert chi_square_two_sample(ca, cc).p_value < 1e-10
