"""Executable verification suites tying the theorems to simulations.

Each ``check_*`` function returns a list of plain dicts, one per check:

    {"name": ..., "kind": "exact" | "stat", "passed": bool,
     "observed": float, "requirement": str, ...}

An exact check grades one measured error against its threshold, and a
NaN error fails.  A check over several cases measures the worst case's
error (:func:`_worst`); failing, it names that case under
``worst_case``.  A check over seeded trials, the tandem identity's
instances among them, runs trial i on substream i of its seed
(:meth:`~batchq.streams.RandomStream.trial_failures`) and measures the
number of failing comparisons (:func:`_trials`); failing, it names the
first under ``first_failure``, with its substream index and the compared
values.  A family that raises is one failed exact check, named
``<family>_raised``, with the exception's type and message, so its
suite fails (``batchq verify`` exits 1).
Statistical checks carry a chi-square or KS p-value; :func:`run_suite`
re-grades them at a Bonferroni-corrected level (0.01 divided by the
number of statistical checks in the suite) so the suite-level
false-alarm rate stays at 1%.  A chi-square check that fails there names
its pooled cell count under ``cells`` and the cell of its largest term
under ``worst_cell``: the values it pools and its observed and expected
counts.

One table, :data:`FAMILIES`, lists every family in report order with
its suite and its substream index; ``check_<family>`` runs it.  A
seeded family gets substream ``index`` of the suite seed, so all
randomness is derived from the suite seed and a report is
byte-identical across runs.  The acceptance criteria call the same
``check_*`` functions on fixed seeds of their own.
"""

from __future__ import annotations

import math
from typing import Iterable

import numpy as np

from . import distributions as dist
from . import laws
from . import percolation as perc
from . import timeconstants as tc
from .laws import (QueueParams, check_condition, match_arrival_bernoulli, solve_arrival,
                   stationary_law)
from .queue_core import (markov_oracle, simulate, step, path_max_X, verify_detailed_balance,
                         excursion_loglik)
from .stats import (EmpiricalPmf, TestResult, batch_mean_stderr,
                    chi_square_gof, chi_square_two_sample, encode_pairs,
                    independence_chi2, ks_distance, ks_test, lag_autocorr)
from .streams import RandomStream
from .tandem import TandemConfig, simulate_tandem, verify_product_form

__all__ = ["run_suite", "run_family", "FAMILIES", "SUITES", "CONDITION_SETS",
           "GENERAL_SERVICE_CASES"]

# five reversibility-condition parameter sets (q, beta, alpha), p derived
_SET_BASES = [
    (0.5, 0.5, 2.0 / 3.0),
    (0.6, 0.3, 0.5),
    (0.7, 0.4, 0.55),
    (0.4, 0.2, 0.5),
    (0.8, 0.45, 0.75),
]

CONDITION_SETS = [
    QueueParams(p=match_arrival_bernoulli(a, q, b), alpha=a, q=q, beta=b)
    for q, b, a in _SET_BASES
]

VIOLATING_PARAMS = QueueParams(p=0.2, alpha=0.9, q=0.5, beta=0.5)

GENERAL_SERVICE_CASES = [
    ("deterministic_1", laws.ber_geom(0.45, 0.5), laws.deterministic(1)),
    ("bernoulli_0.6", laws.ber_geom(0.45, 0.9), laws.bernoulli(0.6)),
    ("uniform_012", laws.ber_geom(0.35, 0.5), np.full(3, 1.0 / 3.0)),
]

MAIN_PARAMS = CONDITION_SETS[0]  # (1/3, 2/3, 1/2, 1/2)
BURN_IN = 10_000
X_STRIDE = 25          # decorrelates queue-length samples for chi-square
PAIR_STRIDE = 9        # keeps >= 1e5 pairs out of a 1e6-slot trace
N_SLOTS = 1_000_000    # trace length of the simulation checks


def _exact(name: str, observed: float, threshold: float, below: bool = True) -> dict:
    passed = observed <= threshold if below else observed >= threshold
    req = f"<= {threshold:g}" if below else f">= {threshold:g}"
    return {"name": name, "kind": "exact", "passed": bool(passed),
            "observed": float(observed), "requirement": req}


def _worst(name: str, cases: Iterable[tuple[dict, float]], threshold: float) -> dict:
    """The exact check of the largest error among the ``(case, error)`` pairs
    ``cases``, where NaN ranks above every number; failing, it names the case."""
    case, error = max(cases, key=lambda ce: math.inf if math.isnan(ce[1]) else ce[1])
    check = _exact(name, error, threshold)
    return check if check["passed"] else {**check, "worst_case": case}


def _trials(name: str, failures: list[dict]) -> dict:
    """The exact check that no seeded trial failed: it counts the ``failures``
    of :meth:`RandomStream.trial_failures`; failing, it names the first."""
    check = _exact(name, len(failures), 0)
    return check if check["passed"] else {**check, "first_failure": failures[0]}


def _stat(result: TestResult) -> dict:
    """The statistical check of ``result``; failing at its own level, a chi-square check
    carries its pooled cell count and its worst cell, which :func:`run_suite` keeps only
    where the check fails at the suite's level."""
    check = {"name": result.name, "kind": "stat", "passed": bool(result.passed),
             "observed": float(result.p_value), "requirement": f"p >= {result.level:g}",
             "statistic": float(result.statistic), "dof": int(result.dof)}
    return check if result.passed or result._cells is None else {**check, **result._cells}


# --- distributions ----------------------------------------------------------

def check_distributions(seed: int) -> list[dict]:
    out = []
    stream = RandomStream(seed)
    specs = [laws.ber_geom(1 / 3, 2 / 3), laws.geom_plus(0.4), laws.geom_zero(0.25),
             laws.bernoulli(0.3), laws.ber_geom(0.2, 0.4)]
    # pmf sums to 1 with the analytic tail beyond k=1000
    out.append(_worst("pmf_normalization_with_tail", (
        ({"spec": s.to_dict()},
         abs(sum(laws.pmf(s, k) for k in range(1001)) + laws.sf(s, 1001) - 1.0)) for s in specs),
        1e-12))
    # mean equals the central pgf derivative at z=1
    h = 1e-6
    out.append(_worst("pgf_derivative_matches_mean", (
        ({"spec": s.to_dict()},
         abs((laws.pgf(s, 1.0 + h) - laws.pgf(s, 1.0 - h)) / (2 * h) - laws.mean(s)))
        for s in specs), 1e-5))
    # BerGeom conditioned on being nonzero is Geom+
    bg = laws.ber_geom(1 / 3, 2 / 3)
    out.append(_worst("bergeom_conditional_nonzero_is_geom_plus", (
        ({"k": k}, abs(laws.pmf(bg, k) / bg.p - laws.pmf(laws.geom_plus(bg.alpha), k)))
        for k in range(1, 101)), 1e-12))
    # BerGeom(p, a) with p = 1 - a coincides with Geom0(a)
    out.append(_worst("bergeom_p_eq_1_minus_a_is_geom_zero", (
        ({"k": k}, abs(laws.pmf(laws.ber_geom(0.5, 0.5), k) - laws.pmf(laws.geom_zero(0.5), k)))
        for k in range(51)), 1e-12))
    # a -> 1 degenerates to Bernoulli
    near = laws.ber_geom(0.3, 1 - 1e-9)
    out.append(_worst("bergeom_alpha_to_1_degenerates_to_bernoulli", (
        ({"k": k}, abs(laws.pmf(near, k) - laws.pmf(laws.bernoulli(0.3), k))) for k in range(4)),
        1e-8))
    # truncated-series oracles
    tail_mean = sum(k * laws.pmf(laws.geom_plus(0.25), k) for k in range(1, 10_001))
    out.append(_exact("geom_plus_mean_vs_series", abs(tail_mean - 4.0), 1e-10))
    series = sum(laws.pmf(laws.ber_geom(0.5, 0.5), k) * 0.5**k for k in range(201))
    out.append(_exact("pgf_vs_truncated_series", abs(series - laws.pgf(laws.ber_geom(0.5, 0.5), 0.5)), 1e-12))
    # compound representation: pgf identity on a z-grid at the boundary case
    p, a = 1 / 3, 2 / 3
    zs = np.linspace(0.0, 1.0, 21)
    wpar = a / (1 - p)
    phi_w = wpar * zs / (1 - (1 - wpar) * zs)
    compound_pgf = (1 - p) / (1 - p * phi_w)
    direct = np.array([laws.pgf(laws.ber_geom(p, a), z) for z in zs])
    out.append(_exact("compound_pgf_identity", float(np.abs(compound_pgf - direct).max()), 1e-12))
    # compound sampler matches BerGeom at three parameter points
    for i, (cp, ca) in enumerate(((0.2, 0.4), (1 / 3, 2 / 3), (0.1, 0.5))):
        draws = dist.sample_compound_n(cp, ca, stream.substream(i), 1_000_000)
        emp = EmpiricalPmf.from_samples(draws)
        ref = laws.ber_geom(cp, ca)
        out.append(_stat(chi_square_gof(emp, lambda k: laws.pmf(ref, k),
                                        name=f"compound_matches_bergeom_p{cp:g}_a{ca:g}")))
    # sample mean lands within 3 sigma of the exact mean
    bgd = dist.sample_n(bg, stream.substream(10), 1_000_000)
    z = abs(bgd.mean() - laws.mean(bg)) / math.sqrt(laws.variance(bg) / 1e6)
    out.append(_exact("sample_mean_within_3_sigma", z, 3.0))
    # BerExp tail: conditional positives are Exp(rate), atom has mass p
    be = laws.ber_exp(0.4, 1.5)
    draws = dist.sample_n(be, stream.substream(11), 200_000)
    pos = draws[draws > 0]
    out.append(_stat(ks_test(pos, lambda x: 1.0 - math.exp(-be.rate * x),
                             name="berexp_positive_part_ks")))
    z = abs(len(pos) / len(draws) - be.p) / math.sqrt(be.p * (1 - be.p) / len(draws))
    out.append(_exact("berexp_atom_within_3_sigma", z, 3.0))
    # determinism: identical seeds give identical draws
    d1 = dist.sample_n(bg, RandomStream(42), 100)
    d2 = dist.sample_n(bg, RandomStream(42), 100)
    out.append(_exact("seed_determinism", 0.0 if np.array_equal(d1, d2) else 1.0, 0.5))
    return out


# --- queue ------------------------------------------------------------------

def check_detailed_balance() -> list[dict]:
    out = [_worst("detailed_balance_residual_5_sets",
                  (({"set": i}, verify_detailed_balance(p)) for i, p in enumerate(CONDITION_SETS)),
                  1e-12)]
    out.append(_exact("detailed_balance_violation_detected",
                      verify_detailed_balance(VIOLATING_PARAMS), 1e-6, below=False))
    return out


def check_stationary_oracle() -> list[dict]:
    out = []

    def errors(p: QueueParams) -> np.ndarray:
        law = stationary_law(p)
        pi = markov_oracle(p.arrival_spec, p.service_spec, K=200)
        return np.abs(pi - np.array([law.x_pmf(k) for k in range(len(pi))]))

    out.append(_worst("stationary_oracle_supnorm_5_sets", (
        ({"set": i, "k": k}, e) for i, p in enumerate(CONDITION_SETS)
        for k, e in enumerate(errors(p))), 1e-10))
    # Bernoulli limit of the formula law against a Bernoulli/Bernoulli oracle
    p_, q_ = 0.3, 0.6
    alpha = 1 - 1e-9
    # the condition is symmetric under (alpha, p) <-> (beta, q)
    beta = match_arrival_bernoulli(q_, p_, alpha)
    law = stationary_law(QueueParams(p=p_, alpha=alpha, q=q_, beta=beta))
    pi = markov_oracle(laws.bernoulli(p_), laws.bernoulli(q_), K=100)
    ref = np.array([law.x_pmf(k) for k in range(len(pi))])
    out.append(_exact("bernoulli_limit_of_formula_law", float(np.abs(pi - ref).max()), 1e-7))
    return out


def check_queue_simulation(seed: int) -> list[dict]:
    out = []
    params = MAIN_PARAMS
    law = stationary_law(params)
    trace = simulate(params.arrival_spec, params.service_spec, N_SLOTS,
                     stream=RandomStream(seed))
    trace.check_invariants()
    x = trace.x[BURN_IN:]
    d = trace.d[BURN_IN:]
    # mean with a batch-means standard error (X is autocorrelated)
    se = batch_mean_stderr(x)
    z = abs(float(x.mean()) - law.mean_x) / se
    out.append(_exact("mean_x_within_3_sigma", z, 3.0))
    # thinned X marginal against the BerGeom stationary law
    emp = EmpiricalPmf.from_samples(x[::X_STRIDE], cutoff=30)
    out.append(_stat(chi_square_gof(emp, law.x_pmf, name="x_marginal_chi_square")))
    # departures: i.i.d. like the arrivals (no thinning needed under the theorem)
    emp_d = EmpiricalPmf.from_samples(d, cutoff=30)
    out.append(_stat(chi_square_gof(emp_d, lambda k: laws.pmf(params.arrival_spec, k),
                                    name="departure_marginal_chi_square")))
    for lag in (1, 2):
        rho, se_rho = lag_autocorr(d, lag)
        out.append(_exact(f"departure_autocorr_lag{lag}", abs(rho), 3.0 * se_rho))
    # queue length independent of the two preceding departures
    xs = trace.x[BURN_IN:]
    d1 = trace.d[BURN_IN - 1:-1]
    d2 = trace.d[BURN_IN - 2:-2]
    comp = encode_pairs(d1, d2, 3)
    out.append(_stat(independence_chi2(xs[::PAIR_STRIDE], comp[::PAIR_STRIDE],
                                       x_cutoff=8, y_cutoff=15,
                                       name="x_independent_of_past_departures")))
    return out


def check_reversibility_window(seed: int) -> list[dict]:
    """Joint law of (X_n, Y_n, X_{n+1}, Y_{n+1}) matches its time reversal.

    Forward windows come from the first half of the trace and reversed
    windows from the second half, so the two-sample chi-square sees
    (nearly) independent samples; windows are thinned within each half.
    """
    params = MAIN_PARAMS
    trace = simulate(params.arrival_spec, params.service_spec, N_SLOTS,
                     stream=RandomStream(seed))
    x, y = trace.x, trace.y
    cut = 6
    base = cut + 1

    def windows(lo: int, hi: int, reverse: bool) -> np.ndarray:
        ns = np.arange(lo, hi, X_STRIDE)
        if reverse:
            q = (np.minimum(x[ns + 1], cut), np.minimum(y[ns], cut),
                 np.minimum(x[ns], cut), np.minimum(y[ns - 1], cut))
        else:
            q = (np.minimum(x[ns], cut), np.minimum(y[ns], cut),
                 np.minimum(x[ns + 1], cut), np.minimum(y[ns + 1], cut))
        code = ((q[0] * base + q[1]) * base + q[2]) * base + q[3]
        return np.bincount(code, minlength=base**4)

    half = N_SLOTS // 2
    fwd = windows(BURN_IN, half - 2, reverse=False)
    rev = windows(half + BURN_IN, N_SLOTS - 2, reverse=True)
    return [_stat(chi_square_two_sample(fwd, rev, name="reversibility_window_two_sample"))]


def check_joint_burke(seed: int) -> list[dict]:
    out = []
    stream = RandomStream(seed)
    # Geom+ queue: (A, S) pairs match (D, I) pairs jointly
    a_spec, s_spec = laws.geom_plus(0.5), laws.geom_plus(0.35)
    trace = simulate(a_spec, s_spec, N_SLOTS, stream=stream.substream(0))
    d = trace.d[BURN_IN:-1]
    i_seq = trace.i[BURN_IN:]
    cut = 8
    code = encode_pairs(d, i_seq, cut)
    emp = EmpiricalPmf.from_samples(code, cutoff=(cut + 1) ** 2 - 1)

    def product_pmf(idx: int) -> float:
        da, ia = divmod(idx, cut + 1)
        pa = laws.sf(a_spec, cut) if da == cut else laws.pmf(a_spec, da)
        ps = laws.sf(s_spec, cut) if ia == cut else laws.pmf(s_spec, ia)
        return pa * ps

    out.append(_stat(chi_square_gof(emp, product_pmf, name="joint_burke_geom_plus_D_I")))
    # Bernoulli queue: (A, S) pairs match (D, T) pairs jointly
    a_spec, s_spec = laws.bernoulli(0.3), laws.bernoulli(0.6)
    trace = simulate(a_spec, s_spec, N_SLOTS, stream=stream.substream(1))
    d = trace.d[BURN_IN:]
    t_seq = trace.t[BURN_IN:]
    code = encode_pairs(d, t_seq, 1)
    emp = EmpiricalPmf.from_samples(code, cutoff=3)

    def product_pmf_b(idx: int) -> float:
        da, ta = divmod(idx, 2)
        return laws.pmf(a_spec, da) * laws.pmf(s_spec, ta)

    out.append(_stat(chi_square_gof(emp, product_pmf_b, name="joint_burke_bernoulli_D_T")))
    return out


def check_general_service_ratios() -> list[dict]:
    out = []
    for name, arr, svc in GENERAL_SERVICE_CASES:
        pi = markov_oracle(arr, svc, K=300)
        ratios = pi[2:52] / pi[1:51]  # ratios[j] = pi(k + 1) / pi(k) at state k = j + 1
        check = _exact(f"general_service_constant_ratio_{name}",
                       float(ratios.max() - ratios.min()), 1e-9)
        out.append(check if check["passed"] else {**check, "worst_case": {
            "max_ratio_k": int(ratios.argmax()) + 1, "min_ratio_k": int(ratios.argmin()) + 1}})
    return out


def check_queue_small(seed: int) -> list[dict]:
    """Exact structural checks: recurrences, fixed points, excursions."""
    out = []
    # window-maximum formula equals the iterated recurrence
    def path_max_trial(i: int, st: RandomStream) -> list:
        n = 1 + int(st.uniform() * 20)
        a = dist.sample_n(laws.ber_geom(0.5, 0.4), st, n)
        s = dist.sample_n(laws.ber_geom(0.6, 0.5), st, n)
        x = 0
        for k in range(n):
            x, _, _ = step(x, int(a[k]), int(s[k]))
        pm = path_max_X(a, s)
        return [(abs(pm - x), 0, {"path_max": pm, "iterated": x})]

    out.append(_trials("path_max_equals_iterated_recurrence",
                       RandomStream(seed).trial_failures(range(1000), path_max_trial)))

    # fixed-point solver round trip on a (q, b, lambda) grid
    def roundtrip_error(q: float, b: float, lam: float) -> float:
        p, a = solve_arrival(q, b, lam)
        lam1 = p * (p / (1 - p) * (1 - q) / q * (1 - b) / b + 1)
        lam2 = (1 - a) * b * q / (a * a * (1 - b - q) + a * b * q)
        residual = check_condition(QueueParams(p=p, alpha=a, q=q, beta=b))
        return float(np.max(np.abs([p / a - lam, residual, lam1 - lam, lam2 - lam])))

    grid = [(q, b, frac * (q / b)) for q in (0.3, 0.5, 0.7) for b in (0.2, 0.5, 0.6)
            for frac in (0.2, 0.5, 0.9)]
    out.append(_worst("solve_arrival_roundtrip", (
        ({"q": q, "beta": b, "lambda": lam}, roundtrip_error(q, b, lam)) for q, b, lam in grid),
        1e-10))
    # excursion likelihood: reversal invariance holds exactly on the family
    params = MAIN_PARAMS
    fwd = excursion_loglik(params, [2, 0], [1, 1])
    rev = excursion_loglik(params, [1, 1], [0, 2])
    out.append(_exact("excursion_reversal_invariant_on_family", abs(fwd - rev), 1e-12))
    off = VIOLATING_PARAMS
    fwd = excursion_loglik(off, [2, 0], [1, 1])
    rev = excursion_loglik(off, [1, 1], [0, 2])
    out.append(_exact("excursion_reversal_breaks_off_family", abs(fwd - rev), 1e-6, below=False))
    # Geom0 closed form
    g = QueueParams(p=0.4, alpha=0.6, q=0.3, beta=0.7)  # p=1-alpha, q=1-beta
    a_seq, d_seq = [3, 0, 1], [1, 1, 2]
    ll = excursion_loglik(g, a_seq, d_seq)
    n, sa, sd = 3, 4, 4
    closed = (n * math.log(0.6) + sa * math.log(0.4)
              + (n - 1) * math.log(0.7) + sd * math.log(0.3))
    out.append(_exact("excursion_geom_zero_closed_form", abs(ll - closed), 1e-12))
    out += _y_law_and_burke_checks()
    return out


# Y's law and the one-step Burke identity, from the pmfs on 0..60.  Measured on the five
# condition sets (2 vCPU, Python 3.11, numpy 2.4.6): the largest rounding error is 8.3e-17
# for P(Y = m), 2.1e-17 for P(D = d, X' = x') and 2.8e-16 relative for E[Y] (over 400 other
# sets on the curve at most 2.2e-16, 5.6e-17 and 3.4e-16); each threshold is about ten times
# the five sets' error, and a wrong law misses by orders more (y_b's product term x 0.98
# moves P(Y = 0) by about 3e-3).
_Y_LAW_TOL, _MEAN_Y_TOL, _BURKE_TOL = 1e-15, 3e-15, 1e-15


def _y_law_and_burke_checks() -> list[dict]:
    """Exact checks of Y's law and the one-step Burke identity on the condition sets.

    With pi the BerGeom(c, gamma) law of X, P(Y = m) = sum_k pi(k) P(A = m - k) must be
    BerGeom(y_b, gamma) for m <= 59 and E[Y] must be E[X] + E[A]; and, as X' = Y - D with
    D = min(Y, S), P(D = d, X' = x') = P(Y = d + x') P(S = d) for x' > 0 (P(S >= d) for
    x' = 0) must be P(A = d) pi(x') for d, x' <= 30: departures distributed like the
    arrivals, independent of the queue they leave.
    """
    ks, cut = np.arange(61), 31
    y_err, mean_err, burke_err = [], [], []
    for i, p in enumerate(CONDITION_SETS):
        law = stationary_law(p)
        pi = np.array([law.x_pmf(k) for k in ks])
        a = np.array([laws.pmf(p.arrival_spec, k) for k in ks])
        y = np.convolve(pi, a)[:len(ks)]
        y_law = laws.ber_geom(law.y_bernoulli, law.gamma)
        y_err += [({"set": i, "m": m}, abs(y[m] - laws.pmf(y_law, m))) for m in range(60)]
        mean_xa = law.mean_x + laws.mean(p.arrival_spec)
        mean_err.append(({"set": i}, abs(law.mean_y - mean_xa) / mean_xa))
        s = p.service_spec
        served = np.array([[laws.sf(s, d)] + [laws.pmf(s, d)] * (cut - 1) for d in range(cut)])
        joint = y[np.add.outer(ks[:cut], ks[:cut])] * served
        err = np.abs(joint - np.outer(a[:cut], pi[:cut]))
        d, x = np.unravel_index(np.argmax(err), err.shape)  # a NaN is the argmax
        burke_err.append(({"set": i, "d": int(d), "x": int(x)}, float(err[d, x])))
    return [_worst("y_law_is_bergeom_5_sets", y_err, _Y_LAW_TOL),
            _worst("mean_y_is_mean_x_plus_mean_a_5_sets", mean_err, _MEAN_Y_TOL),
            _worst("one_step_burke_d_x_independent_5_sets", burke_err, _BURKE_TOL)]


# --- tandem -------------------------------------------------------------

def check_tandem(seed: int) -> list[dict]:
    params = MAIN_PARAMS
    config = TandemConfig.bergeom(params, 4)
    tt = simulate_tandem(config, N_SLOTS, stream=RandomStream(seed))
    violations, first = tt.check_feed_forward()
    check = _exact("feed_forward_conservation", violations, 0)
    out = [check if first is None else
           {**check, "first_violation": {"stage": first[0], "slot": first[1]}}]
    for r, tr in enumerate(tt.stages):
        emp = EmpiricalPmf.from_samples(tr.d[BURN_IN:], cutoff=20)
        out.append(_stat(chi_square_gof(emp, lambda k: laws.pmf(params.arrival_spec, k),
                                        name=f"stage{r+1}_departure_law")))
    for res in verify_product_form(tt, burn_in=BURN_IN, stride=PAIR_STRIDE):
        out.append(_stat(res))
    # heterogeneous services on the same one-parameter family
    het = TandemConfig(params.arrival_spec,
                       [laws.ber_geom(0.5, 0.5), laws.ber_geom(0.55, 0.45)])
    tt2 = simulate_tandem(het, N_SLOTS // 2, stream=RandomStream(seed).substream(99))
    for r in range(het.stages):
        law = stationary_law(het.stage_params(r))
        emp = EmpiricalPmf.from_samples(tt2.stages[r].x[BURN_IN::X_STRIDE], cutoff=20)
        out.append(_stat(chi_square_gof(emp, law.x_pmf, name=f"heterogeneous_stage{r+1}_marginal")))
    return out


# --- percolation --------------------------------------------------------

def check_percolation_exact(seed: int) -> list[dict]:
    out = []
    stream = RandomStream(seed)

    def dp_trial(i: int, st: RandomStream) -> list:
        rows = 1 + int(st.uniform() * 8)
        cols = 1 + int(st.uniform() * 8)
        if cols == 1:
            rows = 1
        w = np.floor(st.uniforms(rows * cols) * 6).reshape(rows, cols)
        field = perc.WeightField(w)
        comparisons = []
        for pinned in (True, False):
            q = perc.PathQuery((0, 0), (cols - 1, rows - 1), pinned=pinned)
            dp, brute = perc.first_passage(field, q), perc.enumerate_first_passage(field, q)
            comparisons.append((abs(dp - brute), 0,
                                {"pinned": pinned, "dp": dp, "bruteforce": brute}))
        return comparisons

    out.append(_trials("dp_equals_bruteforce_1000_fields",
                       stream.trial_failures(range(1000), dp_trial)))

    # monotonicity: raising one weight never lowers the first passage
    def monotonicity_trial(i: int, st: RandomStream) -> list:
        w = np.floor(st.uniforms(5 * 6) * 4).reshape(5, 6)
        field = perc.WeightField(w.copy())
        q = perc.PathQuery((0, 0), (5, 4))
        base = perc.first_passage(field, q)
        r, c = int(st.uniform() * 5), int(st.uniform() * 6)
        w[r, c] += 1 + st.uniform() * 3
        raised = perc.first_passage(perc.WeightField(w), q)
        return [(base - raised, 1e-12, {"base": base, "raised": raised})]

    out.append(_trials("weight_monotonicity",
                       stream.trial_failures(range(10_000, 10_200), monotonicity_trial)))

    # subadditivity through a shared corner
    def subadditivity_trial(i: int, st: RandomStream) -> list:
        k, r = 4, 3
        w = st.uniforms((2 * r + 1) * (2 * k + 1)).reshape(2 * r + 1, 2 * k + 1)
        field = perc.WeightField(w)
        whole = perc.first_passage(field, perc.PathQuery((0, 0), (2 * k, 2 * r)))
        halves = (perc.first_passage(field, perc.PathQuery((0, 0), (k, r)))
                  + perc.first_passage(field, perc.PathQuery((k + 1, r), (2 * k, 2 * r))))
        return [(whole - halves, 1e-12, {"whole": whole, "halves": halves})]

    out.append(_trials("subadditivity",
                       stream.trial_failures(range(20_000, 20_200), subadditivity_trial)))
    # continuous model: worked two-row example and switch-point insensitivity
    jf = perc.JumpField(times=[np.array([1.0]), np.array([2.0])],
                        weights=[np.array([5.0]), np.array([3.0])], horizon=3.0)
    got = perc.continuous_first_passage(jf, 0.0, 3.0, 0, 1)
    out.append(_exact("continuous_two_row_example", abs(got - 3.0), 0))

    def continuous_trial(i: int, st: RandomStream) -> list:
        jf = perc.sample_jump_field(4, 10.0, laws.exponential(1.0), st)
        base = perc.continuous_first_passage(jf, 0.0, 10.0, 0, 3)
        # nudge every event a quarter of the way toward the next event of
        # the merged sequence: order is preserved, so the value must not move
        merged = sorted((t, r, k) for r in range(4) for k, t in enumerate(jf.times[r]))
        times2 = [tt.copy() for tt in jf.times]
        for pos, (t, r, k) in enumerate(merged):
            nxt = merged[pos + 1][0] if pos + 1 < len(merged) else 10.0
            times2[r][k] = t + 0.25 * (nxt - t)
        jf2 = perc.JumpField(times=times2, weights=jf.weights, horizon=10.0)
        nudged = perc.continuous_first_passage(jf2, 0.0, 10.0, 0, 3)
        comparisons = [(abs(nudged - base), 1e-9, {"base": base, "nudged": nudged})]
        # decreasing one weight must not increase the value
        w2 = [w.copy() for w in jf.weights]
        row = i % 4
        if len(w2[row]):
            w2[row][0] *= 0.5
            jf3 = perc.JumpField(times=jf.times, weights=w2, horizon=10.0)
            lowered = perc.continuous_first_passage(jf3, 0.0, 10.0, 0, 3)
            comparisons.append((lowered - base, 1e-9, {"base": base, "lowered": lowered}))
        return comparisons

    out.append(_trials("continuous_switch_insensitivity_and_monotonicity",
                       stream.trial_failures(range(30_000, 30_100), continuous_trial)))
    return out


def check_identity(seed: int) -> list[dict]:
    arrival, service = laws.ber_geom(1 / 3, 2 / 3), laws.ber_geom(1 / 2, 1 / 2)
    # instance i runs 1 + i % 4 stages for 50 slots
    return [_trials("tandem_identity_1000_instances", RandomStream(seed).trial_failures(
        range(1000), lambda i, st: perc.tandem_identity_check(
            arrival, [service] * (1 + i % 4), 50, st).comparisons()))]


def check_percolation_sim(seed: int) -> list[dict]:
    out = []
    stream = RandomStream(seed)
    est = perc.estimate_time_constant(laws.exponential(1.0), 3.0, 400, 100, stream.substream(0))
    out.append(_exact("exp_weights_estimate_above_limit", est.mean, 1.0, below=False))
    out.append(_exact("exp_weights_estimate_within_10pct", abs(est.mean - 1.0), 0.1))
    est = perc.estimate_time_constant(laws.bernoulli(0.5), 0.5, 200, 100, stream.substream(1))
    out.append(_exact("bernoulli_flat_region_estimate", est.mean, 0.02))
    target = 6.0 - 4.0 * math.sqrt(2.0)
    est = perc.estimate_time_constant(laws.geom_zero(0.5), 3.0, 400, 100, stream.substream(2))
    out.append(_exact("geom_weights_estimate_above_limit", est.mean, target, below=False))
    out.append(_exact("geom_weights_estimate_within_10pct", abs(est.mean - target) / target, 0.1))
    return out


# --- time constants -------------------------------------------------------

def check_timeconstants() -> list[dict]:
    out = []
    grids = {
        (0.5, 0.5): np.linspace(0.5, 6.0, 50),
        (0.6, 0.3): np.linspace(0.3, 5.0, 50),
        (0.35, 0.25): np.linspace(0.5, 8.0, 50),
    }
    points = [(q, b, float(x)) for (q, b), xs in grids.items() for x in xs]
    p_form = [tc.f_bergeom(*pt) for pt in points]
    for name, f in (("legendre_equals_variational", tc.f_legendre),
                    ("alpha_form_equals_p_form", tc.f_bergeom_alpha)):
        out.append(_worst(name, (({"q": q, "beta": b, "x": x}, abs(f(q, b, x) - fp))
                                 for (q, b, x), fp in zip(points, p_form)), 1e-8))
    out.append(_exact("geom_case_closed_form",
                      abs(tc.f_bergeom(0.5, 0.5, 3.0) - (6 - 4 * math.sqrt(2))), 1e-8))
    out.append(_exact("bernoulli_limit_closed_form",
                      abs(tc.f_bergeom(0.5, 1 - 1e-6, 3.0) - tc.f_bernoulli(0.5, 3.0)), 1e-2))
    out.append(_exact("berexp_limit_of_exponential",
                      abs(tc.f_berexp(1 - 1e-6, 3.0) - tc.f_exponential(3.0)), 1e-3))
    out.append(_exact("berexp_limit_of_bergeom",
                      abs(1e-4 * tc.f_bergeom(0.5, 1e-4, 5.0) - tc.f_berexp(0.5, 5.0)), 1e-3))
    out.append(_worst("cont_exp_sup_equals_quadratic_root", (
        ({"y": float(y)}, abs(tc.ftilde_exp_sup(y) - tc.ftilde_exp(y)))
        for y in np.linspace(0.5, 5.0, 46)), 1e-10))
    out.append(_exact("cont_geom_poisson_limit",
                      abs(tc.ftilde_geom(1 - 1e-4, 4.0) - tc.ftilde_poisson(4.0)), 1e-2))
    out.append(_exact("poisson_closed_form", abs(tc.ftilde_poisson(4.0) - 1.0), 0.0))
    # h: both printed forms agree and the map is convex increasing
    def h_errors(q: float, b: float) -> tuple:
        hs = [tc.h_of_lambda(q, b, f * (q / b)) for f in np.linspace(0.05, 0.95, 19)]
        return (({"q": q, "beta": b, "property": "increasing"},
                 0.0 if np.all(np.diff(hs) > 0) else 1.0),
                ({"q": q, "beta": b, "property": "convex"}, -np.diff(hs, 2).min()))

    out.append(_worst("h_increasing_convex", (ce for q, b in ((0.5, 0.5), (0.6, 0.3), (0.7, 0.4))
                                              for ce in h_errors(q, b)), 1e-9))
    # flat regions: exactly zero below the critical ratio, positive above
    flat = ((tc.f_bergeom, 0.5, 0.5, 0.5), (tc.f_bergeom, 0.5, 0.5, 1.0),
            (tc.f_bernoulli, 0.5, 1.0), (tc.f_geometric, 0.5, 1.0), (tc.ftilde_exp, 1.0))
    out.append(_worst("flat_regions_exactly_zero",
                      (({"f": f.__name__, "args": args}, f(*args)) for f, *args in flat), 0.0))
    out.append(_exact("just_past_critical_is_positive",
                      tc.f_bergeom(0.5, 0.5, 1.01), 1e-12, below=False))
    # convexity and monotonicity of every curve on a grid
    def curve_errors(variant: str, pr: dict) -> tuple:
        vals = [p.f for p in tc.curve(variant, pr, np.linspace(0.4, 6.0, 29)).points]
        return (({"variant": variant, **pr, "property": "nonnegative"},
                 1.0 if min(vals) < 0 else 0.0),
                ({"variant": variant, **pr, "property": "nondecreasing"}, -np.diff(vals).min()),
                ({"variant": variant, **pr, "property": "convex"}, -np.diff(vals, 2).min()))

    out.append(_worst("curves_nonnegative_nondecreasing_convex", (
        ce for variant, pr in (
            ("ber", {"q": 0.5}), ("geom", {"beta": 0.5}), ("exp", {}),
            ("ber_geom", {"q": 0.5, "beta": 0.5}), ("ber_exp", {"q": 0.5}),
            ("cont_geom", {"beta": 0.5}), ("cont_exp", {}), ("cont_poisson", {}))
        for ce in curve_errors(variant, pr)), 1e-9))
    # unimodality scans back the golden-section searches, on the objectives they maximize
    uni_ok = all(tc.scan_is_unimodal(*tc.objective(variant, pr, x)) for variant, pr, x in (
        ("ber_geom", {"q": 0.5, "beta": 0.5}, 3.0), ("ber_exp", {"q": 0.5}, 3.0),
        ("cont_geom", {"beta": 0.5}, 4.0), ("cont_exp", {}, 2.0),
        ("legendre", {"q": 0.5, "beta": 0.5}, 3.0)))
    out.append(_exact("objectives_unimodal_on_scan", 0.0 if uni_ok else 1.0, 0.5))
    return out


# --- stats ----------------------------------------------------------------

def check_stats(seed: int) -> list[dict]:
    out = []
    stream = RandomStream(seed)
    # p-values under the null are near-uniform across seeded replications
    ref = laws.ber_geom(1 / 3, 2 / 3)
    pvals = []
    for i in range(200):
        draws = dist.sample_n(ref, stream.substream(i), 10_000)
        emp = EmpiricalPmf.from_samples(draws, cutoff=25)
        pvals.append(chi_square_gof(emp, lambda k: laws.pmf(ref, k)).p_value)
    dist_ks = ks_distance(pvals, lambda u: min(1.0, max(0.0, u)))
    out.append(_exact("null_pvalues_uniform_ks", dist_ks, 0.1))
    # power: a wrong law is rejected overwhelmingly
    draws = dist.sample_n(laws.geom_zero(0.5), stream.substream(1000), 1_000_000)
    emp = EmpiricalPmf.from_samples(draws, cutoff=25)
    wrong = laws.ber_geom(0.4, 0.5)
    res = chi_square_gof(emp, lambda k: laws.pmf(wrong, k))
    out.append(_exact("power_against_wrong_law", res.p_value, 1e-6))
    # perfect proportions give statistic 0, p = 1
    probs = np.array([0.5, 0.3, 0.2, 0.0])
    emp = EmpiricalPmf(counts=(probs * 1000).astype(np.int64), n=1000, cutoff=2)
    res = chi_square_gof(emp, probs)
    out.append(_exact("exact_fit_statistic_zero", res.statistic, 0.0))
    # independence: calibrated on independent pairs, decisive on (Z, Z)
    z1 = dist.sample_n(ref, stream.substream(2000), 200_000)
    z2 = dist.sample_n(ref, stream.substream(2001), 200_000)
    res = independence_chi2(z1, z2, 8, 8)
    out.append(_exact("independence_calibration", res.p_value, 0.01, below=False))
    res = independence_chi2(z1, z1, 8, 8)
    out.append(_exact("perfect_dependence_detected", res.p_value, 1e-10))
    # autocorrelation calibration on i.i.d. draws
    rho, se = lag_autocorr(z1.astype(float), 1)
    out.append(_exact("iid_autocorr_within_3_sigma", abs(rho), 3 * se))
    return out


# One row per check family, in report order: (family, suite, the index of
# the suite seed's substream the family's seed comes from, or None when
# check_<family> takes no seed).  A suite's rows are contiguous, so the
# "all" report is the suites' reports in order.
FAMILIES = (
    ("distributions", "distributions", 1),
    ("detailed_balance", "queue", None),
    ("stationary_oracle", "queue", None),
    ("queue_simulation", "queue", 2),
    ("reversibility_window", "queue", 3),
    ("joint_burke", "queue", 4),
    ("general_service_ratios", "queue", None),
    ("queue_small", "queue", 5),
    ("tandem", "tandem", 6),
    ("percolation_exact", "percolation", 7),
    ("identity", "percolation", 8),
    ("percolation_sim", "percolation", 9),
    ("timeconstants", "timeconstants", None),
    ("stats", "stats", 10),
)

SUITES = tuple(dict.fromkeys(suite for _, suite, _ in FAMILIES)) + ("all",)


def run_family(family: str, seed: int) -> list[dict]:
    """The ungraded checks of ``check_<family>`` under suite seed ``seed``:
    a seeded family runs on its table row's substream of that seed.  A family
    that raises gives one failed exact check, ``<family>_raised``; ``check_<family>``
    on the seed this function gives it raises again, with the traceback."""
    index = next(i for name, _, i in FAMILIES if name == family)
    check = globals()["check_" + family]
    try:
        return check() if index is None else check(RandomStream(seed).substream(index).seed)
    except Exception as exc:
        return [{**_exact(f"{family}_raised", 1, 0), "exception": type(exc).__name__,
                 "message": str(exc)}]


def _suite_checks(suite: str, seed: int) -> list[dict]:
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}; choose from {SUITES}")
    return [c for family, in_suite, _ in FAMILIES if suite in (in_suite, "all")
            for c in run_family(family, seed)]


def run_suite(suite: str, seed: int) -> dict:
    """Run one suite and grade it; statistical checks get a Bonferroni level.

    Returns a JSON-ready report; ``passed`` is the single gate.
    """
    checks = _suite_checks(suite, seed)
    n_stat = sum(1 for c in checks if c["kind"] == "stat")
    level = 0.01 / max(1, n_stat)
    for c in checks:
        if c["kind"] == "stat":
            c["passed"] = bool(c["observed"] >= level)
            c["requirement"] = f"p >= {level:.6g} (0.01 Bonferroni over {n_stat})"
            if c["passed"]:
                c.pop("cells", None)
                c.pop("worst_cell", None)
    return {
        "suite": suite,
        "seed": seed,
        "n_checks": len(checks),
        "n_statistical": n_stat,
        "statistical_level": level,
        "checks": checks,
        "passed": all(c["passed"] for c in checks),
    }
