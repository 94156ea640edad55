"""Acceptance suite: one test per criterion, each at its stated tolerance.

Every test prints a single "ACCEPTANCE n: PASS/FAIL" line.  Criteria
2-11 take their verdict from the ``verify.check_*`` families, each run
on the criterion's own fixed seed, so the suite is deterministic.  A
statistical check's ``passed`` is p >= 0.01, the level the criteria name.
"""

from __future__ import annotations

import json
import time

import numpy as np
import pytest

from batchq import timeconstants as tc
from batchq import verify
from batchq.cli import run


def _report(criterion: int, passed: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'} - {detail}")
    assert passed, f"criterion {criterion}: {detail}"


def _all_pass(checks: list[dict]) -> bool:
    return all(c["passed"] for c in checks)


def _observed(checks: list[dict]) -> dict[str, float]:
    return {c["name"]: c["observed"] for c in checks}


@pytest.fixture(scope="module")
def main_checks():
    """One million slots of the reference queue (p=1/3, alpha=2/3, q=beta=1/2)."""
    return {c["name"]: c for c in verify.check_queue_simulation(20_260_808)}


def test_criterion_1_detailed_balance():
    t0 = time.time()
    checks = verify.check_detailed_balance()
    elapsed = time.time() - t0
    worst = checks[0]["observed"]  # detailed_balance_residual_5_sets, <= 1e-12
    _report(1, _all_pass(checks) and elapsed < 1.0,
            f"max residual {worst:.3e} over 5 sets (k,r<=m<=30) in {elapsed:.2f}s")


def test_criterion_2_stationary_law(main_checks):
    t0 = time.time()
    oracle = verify.check_stationary_oracle()
    elapsed = time.time() - t0
    checks = oracle + [main_checks["x_marginal_chi_square"], main_checks["mean_x_within_3_sigma"]]
    seen = _observed(checks)
    _report(2, _all_pass(checks) and elapsed < 30.0,
            f"oracle supnorm {seen['stationary_oracle_supnorm_5_sets']:.2e}, "
            f"X chi-square p={seen['x_marginal_chi_square']:.4f}, "
            f"mean z={seen['mean_x_within_3_sigma']:.2f}, {elapsed:.1f}s")


def test_criterion_3_burke(main_checks):
    checks = [main_checks[name] for name in ("departure_marginal_chi_square",
                                             "departure_autocorr_lag1", "departure_autocorr_lag2")]
    p, rho1, rho2 = (c["observed"] for c in checks)
    _report(3, _all_pass(checks), f"departure chi-square p={p:.4f}, |rho1|={rho1:.2e}, "
                                  f"|rho2|={rho2:.2e} vs 3/sqrt(n): {checks[1]['requirement']}")


def test_criterion_4_independence(main_checks):
    check = main_checks["x_independent_of_past_departures"]
    _report(4, check["passed"], f"X vs (D-1, D-2) independence p={check['observed']:.4f}")


def test_criterion_5_joint_burke():
    # (A, S) and (D, I) share their joint law in a Geom+ queue, (A, S) and
    # (D, T) in a Bernoulli queue
    checks = verify.check_joint_burke(50_001)
    seen = _observed(checks)
    _report(5, _all_pass(checks), f"(D,I) joint p={seen['joint_burke_geom_plus_D_I']:.4f}; "
                                  f"(D,T) joint p={seen['joint_burke_bernoulli_D_T']:.4f}")


def test_criterion_6_tandem():
    checks = verify.check_tandem(60_001)
    stat = [c for c in checks if c["kind"] == "stat"]
    worst = min(stat, key=lambda c: c["observed"])
    _report(6, _all_pass(checks), f"feed-forward conserved, {len(stat)} departure-law, "
                                  f"product-form and heterogeneous-stage tests "
                                  f"(min p={worst['observed']:.4f}, {worst['name']})")


def test_criterion_7_general_service_ratios():
    # spread of pi(k+1)/pi(k) for k = 1..50, each <= 1e-9
    checks = verify.check_general_service_ratios()
    _report(7, _all_pass(checks),
            "ratio spreads " + ", ".join(
                f"{c['name'].removeprefix('general_service_constant_ratio_')}={c['observed']:.2e}"
                for c in checks))


def test_criterion_8_percolation_oracle():
    checks = verify.check_percolation_exact(80_001)
    failed = [c["name"] for c in checks if not c["passed"]]
    mism = _observed(checks)["dp_equals_bruteforce_1000_fields"]
    _report(8, not failed, f"{mism:g} mismatches on 1000 random fields up to 8x8, "
                           f"failed checks {failed}")


def test_criterion_9_tandem_identity():
    check = verify.check_identity(90_001)[0]
    _report(9, check["passed"],
            f"{check['observed']:g} failures on 1000 instances, R<=4, window 50")


def test_criterion_10_time_constants():
    checks = verify.check_timeconstants()
    # values the family does not compute
    exp4_err = max(abs(tc.ftilde_exp_sup(float(y)) - tc.ftilde_exp(float(y)))
                   for y in np.linspace(0.4, 5.0, 24))
    exp4_val = abs(tc.ftilde_exp(2.0) - 0.0567003)
    flats = (tc.ftilde_poisson(0.25), tc.f_bergeom(0.5, 0.5, 0.9), tc.f_legendre(0.5, 0.5, 0.7))
    seen = _observed(checks)
    flats_zero = all(f == 0.0 for f in flats) and seen["flat_regions_exactly_zero"] == 0.0
    ok = _all_pass(checks) and exp4_err <= 1e-10 and exp4_val <= 1e-6 and flats_zero
    _report(10, ok, f"legendre-vs-variational {seen['legendre_equals_variational']:.2e}, "
                    f"geom {seen['geom_case_closed_form']:.2e}, "
                    f"bernoulli-limit {seen['bernoulli_limit_closed_form']:.2e}, "
                    f"quadratic-root {exp4_err:.2e}, flats all exactly 0: {flats_zero}")


def test_criterion_11_simulation_vs_formula():
    t0 = time.time()
    checks = verify.check_percolation_sim(110_001)
    elapsed = time.time() - t0
    seen = _observed(checks)
    _report(11, _all_pass(checks) and elapsed < 300.0,
            f"Exp(1) x=3 estimate {seen['exp_weights_estimate_above_limit']:.4f} "
            f"(target 1, from above), Bernoulli flat estimate "
            f"{seen['bernoulli_flat_region_estimate']:.4f} (<= 0.02), Geom0 x=3 estimate "
            f"{seen['geom_weights_estimate_above_limit']:.4f} (within 10 % of 6 - 4 sqrt 2), "
            f"{elapsed:.1f}s")


def test_criterion_12_reproducibility(tmp_path):
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    code1 = run(["verify", "--suite", "all", "--seed", "1", "--out", str(out1)])
    code2 = run(["verify", "--suite", "all", "--seed", "1", "--out", str(out2)])
    identical = out1.read_bytes() == out2.read_bytes()
    report = json.loads(out1.read_text())
    _report(12, code1 == 0 and code2 == 0 and identical and report["passed"],
            f"verify --suite all --seed 1: exit {code1}/{code2}, byte-identical={identical}, "
            f"{report['n_checks']} checks")
