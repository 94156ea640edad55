"""Verify's exact checks fail on NaN and name the reproducer of their failure."""

from __future__ import annotations

import importlib.util
import json
import math
import os
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from batchq import cli
from batchq import distributions as dist
from batchq import laws
from batchq import percolation as perc
from batchq import stats
from batchq import timeconstants as tc
from batchq import verify
from batchq.streams import RandomStream
from test_tandem import miswired


def test_percolation_exact_names_its_first_mismatch(monkeypatch):
    # two brute-force calls per field (pinned, then free): disagree on field 3, free
    calls = []

    def off_by_one_on_call_7(field, query):
        calls.append((field, query))
        dp = perc.first_passage(field, query)
        return dp + 1.0 if len(calls) == 8 else dp

    monkeypatch.setattr(perc, "enumerate_first_passage", off_by_one_on_call_7)
    check = verify.check_percolation_exact(5)[0]
    assert check["name"] == "dp_equals_bruteforce_1000_fields"
    assert not check["passed"] and check["observed"] == 1
    dp = perc.first_passage(*calls[7])
    assert not calls[7][1].pinned
    assert check["first_failure"] == {"substream": 3, "pinned": False, "dp": dp,
                                      "bruteforce": dp + 1.0}


def test_passing_checks_carry_no_reproducer():
    assert "first_failure" not in verify.check_identity(5)[0]


def test_identity_names_its_first_failure(monkeypatch):
    real = perc.tandem_identity_check
    bad = {RandomStream(5).substream(i).seed for i in (6, 9)}

    def unequal_on_two_instances(arrival, services, window, stream):
        res = real(arrival, services, window, stream)
        return replace(res, equal=False) if stream.seed in bad else res

    monkeypatch.setattr(perc, "tandem_identity_check", unequal_on_two_instances)
    check = verify.check_identity(5)[0]
    assert not check["passed"] and check["observed"] == 2
    # instance 6 runs 1 + 6 % 4 = 3 stages
    replay = real(laws.ber_geom(1 / 3, 2 / 3), [laws.ber_geom(1 / 2, 1 / 2)] * 3, 50,
                  RandomStream(5).substream(6))
    assert check["first_failure"] == {"substream": 6, "lhs": replay.lhs, "rhs": replay.rhs,
                                      "best_m": replay.best_m}


def _check(checks: list[dict], name: str) -> dict:
    return next(c for c in checks if c["name"] == name)


def test_path_max_check_names_its_first_failure(monkeypatch):
    real, values = verify.path_max_X, []

    def off_by_one_on_substreams_3_and_8(a, s):
        values.append(real(a, s))
        return values[-1] + (1 if len(values) in (4, 9) else 0)

    monkeypatch.setattr(verify, "path_max_X", off_by_one_on_substreams_3_and_8)
    check = _check(verify.check_queue_small(5), "path_max_equals_iterated_recurrence")
    assert not check["passed"] and check["observed"] == 2
    assert check["first_failure"] == {"substream": 3, "path_max": values[3] + 1,
                                      "iterated": values[3]}


def test_weight_monotonicity_names_its_first_failure(monkeypatch):
    real, seen = perc.first_passage, {"raised": 0}
    monkeypatch.setattr(perc, "enumerate_first_passage", real)  # skip the slow brute force

    def lower_third_raised_field(field, query):
        out = real(field, query)
        w = field.weights
        # only a raised monotonicity field is 5 x 6 with a fractional weight;
        # its base field is the call just before
        if w.shape == (5, 6) and np.any(w != np.floor(w)):
            seen["raised"] += 1
            if seen["raised"] in (3, 5):
                out -= 100.0
                seen.setdefault("first", {"substream": 10_002, "base": seen["last"],
                                          "raised": out})
        seen["last"] = out
        return out

    monkeypatch.setattr(perc, "first_passage", lower_third_raised_field)
    check = _check(verify.check_percolation_exact(5), "weight_monotonicity")
    assert not check["passed"] and check["observed"] == 2
    assert check["first_failure"] == seen["first"]


def test_subadditivity_names_its_first_failure(monkeypatch):
    real, wholes = perc.first_passage, []
    monkeypatch.setattr(perc, "enumerate_first_passage", real)

    def raise_second_whole_path(field, query):
        out = real(field, query)
        if field.weights.shape == (7, 9) and query.start == (0, 0) and query.end == (8, 6):
            wholes.append(field)
            if len(wholes) == 2:
                out += 100.0
        return out

    monkeypatch.setattr(perc, "first_passage", raise_second_whole_path)
    check = _check(verify.check_percolation_exact(5), "subadditivity")
    assert not check["passed"] and check["observed"] == 1
    field = wholes[1]
    halves = (real(field, perc.PathQuery((0, 0), (4, 3)))
              + real(field, perc.PathQuery((5, 3), (8, 6))))
    assert check["first_failure"] == {"substream": 20_001,
                                      "whole": real(field, perc.PathQuery((0, 0), (8, 6))) + 100.0,
                                      "halves": halves}


def test_continuous_check_names_its_first_failure(monkeypatch):
    monkeypatch.setattr(perc, "enumerate_first_passage", perc.first_passage)
    real, calls, nudged = perc.continuous_first_passage, [], []

    def move_third_nudged_field(field, s, t, j, l):
        out = real(field, s, t, j, l)
        # a nudged field shares its weights list with the base field called just before
        if calls and field.weights is calls[-1][0].weights:
            if len(nudged) == 2:
                out += 1.0
            nudged.append((calls[-1][1], out))
        calls.append((field, out))
        return out

    monkeypatch.setattr(perc, "continuous_first_passage", move_third_nudged_field)
    check = _check(verify.check_percolation_exact(5),
                   "continuous_switch_insensitivity_and_monotonicity")
    assert not check["passed"] and check["observed"] == 1
    base, moved = nudged[2]
    assert check["first_failure"] == {"substream": 30_002, "base": base, "nudged": moved}


def nan(*args, **kwargs):
    return math.nan


def _nan(real):
    return nan


_SET = verify.CONDITION_SETS[3]


def _nan_on_set_3(real):
    return lambda params: math.nan if params == _SET else real(params)


def _nan_at_k_5_of_set_3(real):
    def oracle(arrival, service, K):
        pi = real(arrival, service, K=K)
        if (arrival, service) == (_SET.arrival_spec, _SET.service_spec):
            pi = pi.copy()
            pi[5] = math.nan
        return pi
    return oracle


_NAN_PASSAGES = [(perc, "first_passage", _nan), (perc, "enumerate_first_passage", _nan),
                 (perc, "continuous_first_passage", _nan)]


# (check, family, patches, reproducer key, its expected case or first substream)
_NAN_CASES = [
    ("legendre_equals_variational", "timeconstants", [(tc, "f_legendre", _nan)],
     "worst_case", {"q": 0.5, "beta": 0.5, "x": 0.5}),
    ("alpha_form_equals_p_form", "timeconstants", [(tc, "f_bergeom_alpha", _nan)],
     "worst_case", {"q": 0.5, "beta": 0.5, "x": 0.5}),
    ("detailed_balance_residual_5_sets", "detailed_balance",
     [(verify, "verify_detailed_balance", _nan_on_set_3)], "worst_case", {"set": 3}),
    ("stationary_oracle_supnorm_5_sets", "stationary_oracle",
     [(verify, "markov_oracle", _nan_at_k_5_of_set_3)], "worst_case", {"set": 3, "k": 5}),
    ("weight_monotonicity", "percolation_exact", _NAN_PASSAGES, "first_failure", 10_000),
    ("subadditivity", "percolation_exact", _NAN_PASSAGES, "first_failure", 20_000),
    ("continuous_switch_insensitivity_and_monotonicity", "percolation_exact", _NAN_PASSAGES,
     "first_failure", 30_000),
    ("h_increasing_convex", "timeconstants", [(tc, "h_of_lambda", _nan)],
     "worst_case", {"q": 0.5, "beta": 0.5, "property": "convex"}),
    ("flat_regions_exactly_zero", "timeconstants", [(tc, "f_bernoulli", _nan)],
     "worst_case", {"f": "nan", "args": [0.5, 1.0]}),
]


@pytest.mark.parametrize("name, family, patches, key, reproducer", _NAN_CASES,
                         ids=[case[0] for case in _NAN_CASES])
def test_a_nan_error_fails_and_names_its_case(name, family, patches, key, reproducer,
                                              monkeypatch):
    for module, attr, patch in patches:
        monkeypatch.setattr(module, attr, patch(getattr(module, attr)))
    check = _check(verify.run_family(family, 5), name)
    assert not check["passed"]
    if key == "worst_case":
        assert math.isnan(check["observed"]) and check["worst_case"] == reproducer
    else:  # every trial compares NaN, so the first trial fails
        assert check["first_failure"]["substream"] == reproducer


def test_a_failed_chi_square_check_names_its_pooled_cells_and_its_worst_cell(monkeypatch):
    real = dist.sample_compound_n
    # the compound sampler's draws, judged against BerGeom(p, alpha), come from alpha 10 % low
    monkeypatch.setattr(dist, "sample_compound_n", lambda p, a, st, n: real(p, 0.9 * a, st, n))
    report = verify.run_suite("distributions", 1)
    failed = [c for c in report["checks"] if not c["passed"]]
    assert [c["name"] for c in failed] == ["compound_matches_bergeom_p0.2_a0.4",
                                           "compound_matches_bergeom_p0.333333_a0.666667",
                                           "compound_matches_bergeom_p0.1_a0.5"]
    for c in failed:
        cell = c["worst_cell"]
        assert c["cells"] == c["dof"] + 1 and isinstance(cell["values"], str)
        # the worst cell's term is the largest, so at least the statistic's mean term
        assert (cell["observed"] - cell["expected"]) ** 2 / cell["expected"] >= (
            c["statistic"] / c["cells"])
    # a passing row is unchanged
    assert not any({"cells", "worst_cell"} & set(c) for c in report["checks"] if c["passed"])
    # so is one that fails at its own level 0.01 but passes at the suite's 0.005
    pooled = {"cells": 2, "worst_cell": {"values": "0", "observed": 1.0, "expected": 2.0}}
    results = [stats.TestResult(f"t{i}", 9.0, 1, p, 0.01, False, pooled)
               for i, p in enumerate((0.006, 0.004))]
    monkeypatch.setattr(verify, "check_stats", lambda seed: [verify._stat(r) for r in results])
    checks = verify.run_suite("stats", 1)["checks"]
    assert [(c["passed"], "cells" in c, "worst_cell" in c) for c in checks] == [
        (True, False, False), (False, True, True)]


def test_stationary_oracle_names_the_set_and_state_of_its_worst_error(monkeypatch):
    real = verify.stationary_law

    class MovedAt7:
        def __init__(self, law):
            self.law = law

        def x_pmf(self, k):
            return self.law.x_pmf(k) + (1e-6 if k == 7 else 0.0)

    def moved_on_set_2(params):
        law = real(params)
        return MovedAt7(law) if params == verify.CONDITION_SETS[2] else law

    monkeypatch.setattr(verify, "stationary_law", moved_on_set_2)
    check = _check(verify.check_stationary_oracle(), "stationary_oracle_supnorm_5_sets")
    assert not check["passed"] and check["observed"] == pytest.approx(1e-6, rel=1e-3)
    assert check["worst_case"] == {"set": 2, "k": 7}


def test_a_miswired_tandem_fails_feed_forward_and_the_family_still_reports(monkeypatch):
    real, bad = verify.simulate_tandem, []

    def every_stage_fed_the_external_arrivals(config, n_slots, stream):
        bad.append(miswired(real(config, n_slots, stream), range(1, config.stages)))
        return bad[-1]

    names = [c["name"] for c in verify.run_family("tandem", 5)]
    monkeypatch.setattr(verify, "simulate_tandem", every_stage_fed_the_external_arrivals)
    checks = verify.run_family("tandem", 5)
    assert [c["name"] for c in checks] == names
    check = _check(checks, "feed_forward_conservation")
    count, (stage, slot) = bad[0].check_feed_forward()
    assert not check["passed"] and check["observed"] == count > 0
    assert check["first_violation"] == {"stage": stage, "slot": slot}
    assert bad[0].stages[stage - 1].d[slot] != bad[0].stages[stage].a[slot]


def test_general_service_ratio_names_the_states_of_its_extreme_ratios(monkeypatch):
    real = verify.markov_oracle
    bernoulli = verify.GENERAL_SERVICE_CASES[1][2]

    def pi_10_raised(arrival, service, K):
        pi = real(arrival, service, K=K)
        if service is bernoulli:
            pi = pi.copy()
            pi[10] *= 1 + 1e-6  # raises pi(10) / pi(9), lowers pi(11) / pi(10)
        return pi

    monkeypatch.setattr(verify, "markov_oracle", pi_10_raised)
    checks = verify.check_general_service_ratios()
    assert [c["passed"] for c in checks] == [True, False, True]
    assert checks[1]["worst_case"] == {"max_ratio_k": 9, "min_ratio_k": 10}
    assert all("worst_case" not in c for c in (checks[0], checks[2]))


_Y_AND_BURKE = ("y_law_is_bergeom_5_sets", "mean_y_is_mean_x_plus_mean_a_5_sets",
                "one_step_burke_d_x_independent_5_sets")


def test_y_law_and_one_step_burke_hold_exactly_on_the_condition_sets():
    checks = {c["name"]: c for c in verify.run_family("queue_small", 5)}
    assert all(checks[name]["passed"] and "worst_case" not in checks[name]
               for name in _Y_AND_BURKE)


@pytest.mark.parametrize("field, cases", [
    ("y_bernoulli", [{"set": 3, "m": 0}, {"set": 3}, None]),
    ("gamma", [{"set": 3, "m": 1}, {"set": 3}, {"set": 3, "d": 0, "x": 1}]),
])
def test_y_law_and_burke_checks_name_the_set_and_state_of_a_wrong_law(field, cases,
                                                                       monkeypatch):
    # set 3's stationary law with one parameter 1 % high: a wrong Y law breaks the Y checks
    # only, a wrong gamma all three
    real = verify.stationary_law

    def off_on_set_3(params):
        law = real(params)
        return replace(law, **{field: 1.01 * getattr(law, field)}) if params == _SET else law

    monkeypatch.setattr(verify, "stationary_law", off_on_set_3)
    checks = {c["name"]: c for c in verify.run_family("queue_small", 5)}
    for name, case in zip(_Y_AND_BURKE, cases):
        assert checks[name]["passed"] == (case is None)
        assert checks[name].get("worst_case") == case


def test_geom_plus_joint_burke_holds_exactly_and_names_the_cell_of_a_wrong_law(monkeypatch):
    name = "joint_burke_geom_plus_d_i_exact"
    check = _check(verify.run_family("queue_small", 5), name)
    assert check["passed"] and check["observed"] <= 1e-13 and "worst_case" not in check
    real = verify.markov_oracle

    def mass_moved_from_2_to_1(*args, **kwargs):
        pi = real(*args, **kwargs).copy()
        pi[1] += 1e-6
        pi[2] -= 1e-6
        return pi

    monkeypatch.setattr(verify, "markov_oracle", mass_moved_from_2_to_1)
    check = _check(verify.run_family("queue_small", 5), name)
    assert not check["passed"] and check["worst_case"] == {"d": 2, "i": 3}


def test_limit_checks_catch_a_closed_form_off_by_a_relative_1e_4(monkeypatch):
    real = tc.f_exponential
    monkeypatch.setattr(tc, "f_exponential", lambda x: 1.0001 * real(x))
    failed = [c["name"] for c in verify.check_timeconstants() if not c["passed"]]
    assert failed == ["berexp_limit_of_exponential"]


def test_passing_worst_error_checks_carry_no_case():
    assert all("worst_case" not in c for c in verify.check_detailed_balance())


@pytest.mark.parametrize("exc", [ValueError("reversibility condition violated"),
                                 ArithmeticError("math domain error")],
                         ids=["ValueError", "ArithmeticError"])
def test_a_family_that_raises_is_one_failed_check(exc, monkeypatch, tmp_path, capsys):
    def raising(seed):
        raise exc

    monkeypatch.setattr(verify, "check_stats", raising)
    out = tmp_path / "report.json"
    assert cli.run(["verify", "--suite", "stats", "--out", str(out)]) == 1
    report = json.loads(out.read_text())
    assert not report["passed"] and report["checks"] == [
        {"name": "stats_raised", "kind": "exact", "passed": False, "observed": 1.0,
         "requirement": "<= 0", "exception": type(exc).__name__, "message": str(exc)}]
    assert capsys.readouterr().out == "stats: 0/1 checks passed\n"


def _tool(name):
    path = Path(__file__).resolve().parent.parent / "tools" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_calibration_names_the_verify_seeds_of_its_failures(monkeypatch, tmp_path):
    real, seeds = verify.check_joint_burke, []

    def low_second_p_on_the_second_seed(seed):
        seeds.append(seed)
        checks = real(seed)
        if len(seeds) == 2:
            checks[1].update(observed=0.005, passed=False)
        return checks

    monkeypatch.setattr(verify, "check_joint_burke", low_second_p_on_the_second_seed)
    # one usable CPU: every seed runs in this process, where the spy records it
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    out = tmp_path / "cal.json"
    assert _tool("calibrate_verify").main(["--families", "joint_burke", "--seeds", "1:2",
                                     "--out", str(out)]) == 0
    # run_suite("queue", s) runs joint_burke on substream 4 of s
    assert seeds == [RandomStream(s).substream(4).seed for s in (1, 2)]
    checks = json.loads(out.read_text())["checks"]
    assert [(c["name"], c["runs"], c["failed_seeds"]) for c in checks] == [
        ("joint_burke_geom_plus_D_I", 2, []), ("joint_burke_bernoulli_D_T", 2, [2])]
    assert all(c["kind"] == "stat" and 0.0 <= c["ks_p_value"] <= 1.0 for c in checks)


def test_calibration_records_a_family_that_raises_at_its_seed(monkeypatch, tmp_path):
    real, calls = verify.check_detailed_balance, []

    def raising_on_the_second_seed():
        calls.append(None)
        if len(calls) == 2:
            raise ArithmeticError("math domain error")
        return real()

    monkeypatch.setattr(verify, "check_detailed_balance", raising_on_the_second_seed)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    out = tmp_path / "cal.json"
    assert _tool("calibrate_verify").main(["--families", "detailed_balance", "--seeds", "1:2",
                                           "--out", str(out)]) == 0
    checks = json.loads(out.read_text())["checks"]
    assert [(c["name"], c["runs"], c["failed_seeds"]) for c in checks] == [
        ("detailed_balance_residual_5_sets", 1, []),
        ("detailed_balance_violation_detected", 1, []), ("detailed_balance_raised", 1, [2])]


def test_calibration_report_is_the_same_on_forked_workers(monkeypatch, tmp_path):
    tool, reports = _tool("calibrate_verify"), []
    for cpus in (1, 2):  # at 2 CPUs, seeds 1 and 2..3 run in two processes
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        out = tmp_path / f"cal{cpus}.json"
        assert tool.main(["--families", "joint_burke", "--seeds", "1:3", "--out", str(out)]) == 0
        reports.append(out.read_bytes())
    assert reports[0] == reports[1]


def test_calibration_reports_the_headroom_of_upper_bound_exact_checks(monkeypatch, tmp_path):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    out = tmp_path / "cal.json"
    assert _tool("calibrate_verify").main(["--families", "queue_small", "--seeds", "1:2",
                                           "--out", str(out)]) == 0
    checks = {c["name"]: c for c in json.loads(out.read_text())["checks"]}
    runs = [verify.run_family("queue_small", s) for s in (1, 2)]
    assert sorted(checks) == sorted(c["name"] for c in runs[0])
    for first, second in zip(*runs):
        rec, req = checks[first["name"]], first["requirement"]
        if first["kind"] == "exact" and req.startswith("<= "):
            top = max(first["observed"], second["observed"])
            assert rec["max_observed"] == top
            assert rec["headroom"] == (None if top == 0 else float(req[3:]) / top)
        else:
            assert "max_observed" not in rec and "headroom" not in rec
    # a count that is 0 at both seeds has no ratio; a lower bound has no headroom
    assert checks["path_max_equals_iterated_recurrence"]["headroom"] is None
    assert "headroom" not in checks["excursion_reversal_breaks_off_family"]
    assert checks["one_step_burke_d_x_independent_5_sets"]["headroom"] >= 10


def test_calibration_refuses_seeds_that_verify_refuses(tmp_path, capsys):
    out = tmp_path / "cal.json"
    with pytest.raises(SystemExit) as exc:
        _tool("calibrate_verify").main(["--families", "joint_burke", "--seeds",
                                  f"{2**64}:{2**64}", "--out", str(out)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.count("error:") == 1 and "2**64" in err
    assert not out.exists()


def test_every_listed_mutant_applies_exactly_once(tmp_path):
    tool = _tool("mutants")
    assert tool.check_patterns(tool.MUTANTS, Path(verify.__file__).parent) == []
    assert tool.missing_tests(tool.MUTANTS) == []
    assert tool.missing_tests([tool.Mutant("untested", "lib.py", "x", "y")]) == [
        "untested: no test file tests/test_lib.py"]
    (tmp_path / "lib.py").write_text("x = 1\nx = 1\n")
    bad = [tool.Mutant("twice", "lib.py", "x = 1", "x = 2"),
           tool.Mutant("never", "lib.py", "y = 1", "y = 2")]
    assert tool.check_patterns(bad, tmp_path) == ["twice: pattern occurs 2 times in lib.py",
                                                  "never: pattern occurs 0 times in lib.py"]
