"""Acceptance suite: one test per criterion, each at its stated tolerance.

Every test prints a single "ACCEPTANCE n: PASS/FAIL" line.  Seeds are
fixed so the suite is deterministic; statistical assertions use the 0.01
level named by the criteria.
"""

from __future__ import annotations

import json
import math
import time

import numpy as np
import pytest

from batchq import distributions as dist
from batchq import percolation as perc
from batchq import timeconstants as tc
from batchq import verify
from batchq.cli import run
from batchq.queue_core import markov_oracle, simulate, stationary_law
from batchq.stats import (EmpiricalPmf, batch_mean_stderr, chi_square_gof,
                          encode_pairs, independence_chi2, lag_autocorr)
from batchq.streams import RandomStream
from batchq.tandem import TandemConfig, simulate_tandem, verify_product_form
from batchq.verify import CONDITION_SETS

MAIN = CONDITION_SETS[0]        # p=1/3, alpha=2/3, q=beta=1/2
BURN = 10_000
LEVEL = 0.01


def _report(criterion: int, passed: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'} - {detail}")
    assert passed, f"criterion {criterion}: {detail}"


@pytest.fixture(scope="module")
def main_trace():
    """One million stationary-regime slots of the reference queue."""
    trace = simulate(MAIN.arrival_spec, MAIN.service_spec, 1_000_000,
                     stream=RandomStream(20_260_808))
    trace.check_invariants()
    return trace


def test_criterion_1_detailed_balance():
    t0 = time.time()
    checks = verify.check_detailed_balance()
    elapsed = time.time() - t0
    worst = checks[0]["observed"]  # detailed_balance_residual_5_sets, <= 1e-12
    _report(1, all(c["passed"] for c in checks) and elapsed < 1.0,
            f"max residual {worst:.3e} over 5 sets (k,r<=m<=30) in {elapsed:.2f}s")


def test_criterion_2_stationary_law(main_trace):
    t0 = time.time()
    worst = 0.0
    for params in CONDITION_SETS:
        law = stationary_law(params)
        pi = markov_oracle(params.arrival_spec, params.service_spec, K=200)
        ref = np.array([law.x_pmf(k) for k in range(len(pi))])
        worst = max(worst, float(np.abs(pi - ref).max()))
    law = stationary_law(MAIN)
    x = main_trace.x[BURN:]
    res = chi_square_gof(EmpiricalPmf.from_samples(x[::25], cutoff=30),
                         law.x_pmf, level=LEVEL)
    z = abs(float(x.mean()) - law.mean_x) / batch_mean_stderr(x)
    elapsed = time.time() - t0
    _report(2, worst <= 1e-10 and res.passed and z <= 3.0 and elapsed < 30.0,
            f"oracle supnorm {worst:.2e}, X chi-square p={res.p_value:.4f}, "
            f"mean z={z:.2f} (E X target {law.mean_x:g}), {elapsed:.1f}s")


def test_criterion_3_burke(main_trace):
    d = main_trace.d[BURN:]
    res = chi_square_gof(EmpiricalPmf.from_samples(d, cutoff=30),
                         lambda k: dist.pmf(MAIN.arrival_spec, k), level=LEVEL)
    rho1, se = lag_autocorr(d, 1)
    rho2, _ = lag_autocorr(d, 2)
    ok = res.passed and abs(rho1) < 3 * se and abs(rho2) < 3 * se
    _report(3, ok, f"departure chi-square p={res.p_value:.4f}, "
                   f"|rho1|={abs(rho1):.2e}, |rho2|={abs(rho2):.2e} vs 3/sqrt(n)={3*se:.2e}")


def test_criterion_4_independence(main_trace):
    xs = main_trace.x[BURN:]
    d1 = main_trace.d[BURN - 1:-1]
    d2 = main_trace.d[BURN - 2:-2]
    comp = encode_pairs(d1, d2, 3)
    res = independence_chi2(xs[::9], comp[::9], x_cutoff=8, y_cutoff=15, level=LEVEL)
    _report(4, res.passed,
            f"X vs (D-1, D-2) independence p={res.p_value:.4f} on {len(xs[::9])} pairs")


def test_criterion_5_joint_burke():
    # Geom+ queue: (A, S) and (D, I) share their joint law
    a_spec, s_spec = dist.geom_plus(0.5), dist.geom_plus(0.35)
    trace = simulate(a_spec, s_spec, 1_000_000, stream=RandomStream(50_001))
    cut = 8
    code = encode_pairs(trace.d[BURN:-1], trace.i[BURN:], cut)

    def product_geom(idx: int) -> float:
        da, ia = divmod(idx, cut + 1)
        pa = dist.sf(a_spec, cut) if da == cut else dist.pmf(a_spec, da)
        ps = dist.sf(s_spec, cut) if ia == cut else dist.pmf(s_spec, ia)
        return pa * ps

    res_g = chi_square_gof(EmpiricalPmf.from_samples(code, cutoff=(cut + 1) ** 2 - 1),
                           product_geom, level=LEVEL)
    # Bernoulli queue: (A, S) and (D, T) share their joint law
    a_spec, s_spec = dist.bernoulli(0.3), dist.bernoulli(0.6)
    trace = simulate(a_spec, s_spec, 1_000_000, stream=RandomStream(50_002))
    code = encode_pairs(trace.d[BURN:], trace.t[BURN:], 1)

    def product_bern(idx: int) -> float:
        da, ta = divmod(idx, 2)
        return dist.pmf(a_spec, da) * dist.pmf(s_spec, ta)

    res_b = chi_square_gof(EmpiricalPmf.from_samples(code, cutoff=3),
                           product_bern, level=LEVEL)
    _report(5, res_g.passed and res_b.passed,
            f"(D,I) joint p={res_g.p_value:.4f}; (D,T) joint p={res_b.p_value:.4f}")


def test_criterion_6_tandem():
    config = TandemConfig.bergeom(MAIN, 4)
    tt = simulate_tandem(config, 1_000_000, stream=RandomStream(60_001))
    tt.check_feed_forward()
    dep_ps = []
    for tr in tt.stages:
        res = chi_square_gof(EmpiricalPmf.from_samples(tr.d[BURN:], cutoff=20),
                             lambda k: dist.pmf(MAIN.arrival_spec, k), level=LEVEL)
        dep_ps.append(res.p_value)
        assert res.passed, res
    results = verify_product_form(tt, burn_in=BURN, level=LEVEL, stride=9)
    worst = min(r.p_value for r in results)
    ok = all(r.passed for r in results) and all(p >= LEVEL for p in dep_ps)
    _report(6, ok, f"4 departure laws (min p={min(dep_ps):.4f}), "
                   f"{len(results)} product-form tests (min p={worst:.4f})")


def test_criterion_7_general_service_ratios():
    # spread of pi(k+1)/pi(k) for k = 1..50, each <= 1e-9
    checks = verify.check_general_service_ratios()
    _report(7, all(c["passed"] for c in checks),
            "ratio spreads " + ", ".join(
                f"{c['name'].removeprefix('general_service_constant_ratio_')}={c['observed']:.2e}"
                for c in checks))


def test_criterion_8_percolation_oracle():
    stream = RandomStream(80_001)
    mismatches = 0
    for i in range(1000):
        st = stream.substream(i)
        rows = 1 + int(st.uniform() * 8)
        cols = 1 + int(st.uniform() * 8)
        if cols == 1:
            rows = 1
        field = perc.WeightField(np.floor(st.uniforms(rows * cols) * 6).reshape(rows, cols))
        q = perc.PathQuery((0, 0), (cols - 1, rows - 1))
        if perc.first_passage(field, q) != perc.enumerate_first_passage(field, q):
            mismatches += 1
    _report(8, mismatches == 0, f"{mismatches} mismatches on 1000 random fields up to 8x8")


def test_criterion_9_tandem_identity():
    failures, _ = perc.identity_trials(MAIN.arrival_spec, MAIN.service_spec,
                                       [1 + i % 4 for i in range(1000)], 50,
                                       RandomStream(90_001))
    _report(9, failures == 0, f"{failures} failures on 1000 instances, R<=4, window 50")


def test_criterion_10_time_constants():
    worst_pair = 0.0
    for (q, b), xs in {(0.5, 0.5): np.linspace(0.5, 6.0, 50),
                       (0.6, 0.3): np.linspace(0.3, 5.0, 50),
                       (0.35, 0.25): np.linspace(0.5, 8.0, 50)}.items():
        for x in xs:
            worst_pair = max(worst_pair,
                             abs(tc.f_legendre(q, b, float(x)) - tc.f_bergeom(q, b, float(x))))
    geom_err = abs(tc.f_bergeom(0.5, 0.5, 3.0) - (6 - 4 * math.sqrt(2)))
    bern_err = abs(tc.f_bergeom(0.5, 1 - 1e-6, 3.0) - tc.f_bernoulli(0.5, 3.0))
    exp4_err = max(abs(tc.ftilde_exp_sup(float(y)) - tc.ftilde_exp(float(y)))
                   for y in np.linspace(0.4, 5.0, 24))
    exp4_val = abs(tc.ftilde_exp(2.0) - 0.0567003)
    poisson_ok = tc.ftilde_poisson(4.0) == 1.0 and tc.ftilde_poisson(0.25) == 0.0
    flats = (tc.f_bergeom(0.5, 0.5, 0.9), tc.f_legendre(0.5, 0.5, 0.7),
             tc.f_bernoulli(0.5, 1.0), tc.f_geometric(0.5, 1.0), tc.ftilde_exp(1.0))
    ok = (worst_pair <= 1e-8 and geom_err <= 1e-8 and bern_err <= 1e-2
          and exp4_err <= 1e-10 and exp4_val <= 1e-6 and poisson_ok
          and all(f == 0.0 for f in flats))
    _report(10, ok, f"legendre-vs-variational {worst_pair:.2e}, geom {geom_err:.2e}, "
                    f"bernoulli-limit {bern_err:.2e}, quadratic-root {exp4_err:.2e}, "
                    f"flats all exactly 0: {all(f == 0.0 for f in flats)}")


def test_criterion_11_simulation_vs_formula():
    t0 = time.time()
    stream = RandomStream(110_001)
    est_exp = perc.estimate_time_constant(dist.exponential(1.0), 3.0, 400, 100,
                                          stream.substream(0))
    est_flat = perc.estimate_time_constant(dist.bernoulli(0.5), 0.5, 200, 100,
                                           stream.substream(1))
    elapsed = time.time() - t0
    ok = (est_exp.mean >= 1.0 and abs(est_exp.mean - 1.0) <= 0.1
          and est_flat.mean <= 0.02 and elapsed < 300.0)
    _report(11, ok, f"Exp(1) x=3 estimate {est_exp.mean:.4f} (target 1, from above), "
                    f"Bernoulli flat estimate {est_flat.mean:.4f} (<= 0.02), {elapsed:.1f}s")


def test_criterion_12_reproducibility(tmp_path):
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    code1 = run(["verify", "--suite", "all", "--seed", "1", "--out", str(out1)])
    code2 = run(["verify", "--suite", "all", "--seed", "1", "--out", str(out2)])
    identical = out1.read_bytes() == out2.read_bytes()
    report = json.loads(out1.read_text())
    _report(12, code1 == 0 and code2 == 0 and identical and report["passed"],
            f"verify --suite all --seed 1: exit {code1}/{code2}, byte-identical={identical}, "
            f"{report['n_checks']} checks")
