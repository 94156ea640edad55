"""CLI: subcommands, exit codes, config handling, reproducible outputs."""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import shlex
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from batchq import distributions as dist
from batchq import laws
from batchq import percolation as perc
from batchq import queue_core
from batchq.cli import build_parser, run
from batchq.laws import QueueParams
from batchq.streams import RandomStream
from batchq.tandem import TandemConfig, TandemTrace
from test_queue_core import _old_write_csv, _one_shot


def test_tc_single_value_prints_plain_float(capsys):
    assert run(["tc", "--variant", "exp", "--x", "3"]) == 0
    assert capsys.readouterr().out == "1.0\n"


def test_tc_legendre_ends_where_float_spacing_exceeds_tol(capsys):
    # the Legendre scan runs over (0, q/beta) = (0, 9e5), where doubles are 1.2e-10 apart
    assert run(["tc", "--variant", "legendre", "--q", "0.9", "--beta", "1e-6", "--x", "3"]) == 0
    assert float(capsys.readouterr().out) > 0


def test_tc_grid_csv(capsys):
    assert run(["tc", "--variant", "ber_geom", "--q", "0.5", "--beta", "0.5",
                "--x", "0.5:6:0.25"]) == 0
    out = capsys.readouterr().out.strip().split("\n")
    assert out[0] == "variant,params,x,f,maximizer"
    vals = [float(line.split(",")[3]) for line in out[1:]]
    assert len(vals) == 23
    assert all(v == 0.0 for v, line in zip(vals, out[1:])
               if float(line.split(",")[2]) <= 1.0)
    assert all(b >= a for a, b in zip(vals, vals[1:]))


def test_tc_missing_params_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["tc", "--variant", "ber_geom", "--x", "3"])
    assert exc.value.code == 2


def test_unknown_subcommand_exits_2():
    with pytest.raises(SystemExit) as exc:
        run(["frobnicate"])
    assert exc.value.code == 2


def test_dist_pmf_csv(capsys):
    spec = '{"kind": "ber_geom", "p": 0.5, "alpha": 0.5}'
    assert run(["dist", "pmf", "--spec", spec, "--max-k", "2"]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == "k,pmf"
    assert [float(l.split(",")[1]) for l in lines[1:]] == [0.5, 0.25, 0.125]


def test_dist_pmf_json(capsys):
    spec = {"kind": "ber_geom", "p": 0.5, "alpha": 0.5}
    assert run(["dist", "pmf", "--spec", json.dumps(spec), "--max-k", "2",
                "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out) == {"spec": spec, "pmf": [0.5, 0.25, 0.125]}


def test_dist_sample_deterministic_json(capsys, tmp_path):
    spec = '{"kind": "geom_plus", "alpha": 0.5}'
    assert run(["dist", "sample", "--spec", spec, "--n", "5", "--seed", "42",
                "--format", "json"]) == 0
    first = json.loads(capsys.readouterr().out)
    assert run(["dist", "sample", "--spec", spec, "--n", "5", "--seed", "42",
                "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out) == first
    # the CSV, on stdout and in --out, is the per-cell formatter's text for every kind
    for spec in (laws.bernoulli(0.3), laws.geom_plus(0.5), laws.geom_zero(0.25),
                 laws.ber_geom(0.3, 0.6), laws.exponential(1.5), laws.ber_exp(0.4, 2.0),
                 laws.deterministic(3), laws.deterministic(2.5)):
        argv = ["dist", "sample", "--spec", json.dumps(spec.to_dict(), sort_keys=True),
                "--n", "3000", "--seed", "42"]
        assert run(argv) == 0
        _old_write_csv(tmp_path / "old.csv", ["value"],
                       [dist.sample_n(spec, RandomStream(42), 3000)])
        assert capsys.readouterr().out == (tmp_path / "old.csv").read_text()
        assert run(argv + ["--out", str(tmp_path / "out.csv")]) == 0
        assert (tmp_path / "out.csv").read_text() == (tmp_path / "old.csv").read_text()


def test_dist_bad_spec_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["dist", "pmf", "--spec", '{"kind": "nope"}'])
    assert exc.value.code == 2


def test_queue_summary_and_trace(tmp_path, capsys):
    out = tmp_path / "trace.csv"
    code = run(["queue", "--p", "0.3333333333333333", "--alpha", "0.6666666666666666",
                "--q", "0.5", "--beta", "0.5", "--slots", "300000", "--seed", "7",
                "--out", str(out)])
    assert code == 0
    summary = json.loads(capsys.readouterr().out)
    assert abs(summary["empirical"]["mean_x"] - 1.5) < 0.15
    assert summary["stationary"]["mean_x"] == pytest.approx(1.5, abs=1e-12)
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "n,A,S,X,Y,D,U,I,T"
    assert len(lines) == 300_001


def test_queue_byte_identical_outputs(tmp_path):
    args = ["queue", "--p", "0.4", "--alpha", "0.5", "--q", "0.6", "--beta", "0.4",
            "--slots", "5000", "--seed", "11"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run(args + ["--out", str(a)]) == 0
    assert run(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_tandem_summary(tmp_path, capsys):
    out = tmp_path / "tandem.csv"
    code = run(["tandem", "--p", "0.3333333333333333", "--alpha", "0.6666666666666666",
                "--q", "0.5", "--beta", "0.5", "--stages", "3", "--slots", "100000",
                "--seed", "5", "--out", str(out)])
    assert code == 0
    summary = json.loads(capsys.readouterr().out)
    assert len(summary["empirical_mean_x"]) == 3
    header = out.read_text().split("\n", 1)[0]
    assert header == "n,A,X1,X2,X3,D1,D2,D3"


def test_perc_simulate_csv_and_threads(tmp_path):
    args = ["perc", "simulate", "--weights", '{"kind": "exp", "rate": 1.0}',
            "--x", "1.0,2.0", "--n", "60", "--replicas", "8", "--seed", "3"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run(args + ["--out", str(a), "--threads", "1"]) == 0
    assert run(args + ["--out", str(b), "--threads", "4"]) == 0
    assert a.read_bytes() == b.read_bytes()
    lines = a.read_text().strip().split("\n")
    assert lines[0] == "x,N,mean,ci_lo,ci_hi,replicas,seed"
    assert len(lines) == 3


def test_perc_simulate_grid_rows_are_one_point_runs(capsys):
    # every grid point is read off the same field per replica, drawn from substream(0)
    args = ["perc", "simulate", "--weights", '{"kind": "exp", "rate": 1.0}',
            "--n", "40", "--replicas", "6", "--seed", "7"]
    assert run(args + ["--x", "1,2,3"]) == 0
    grid = capsys.readouterr().out.strip().split("\n")
    assert len(grid) == 4
    for x, row in zip(("1", "2", "3"), grid[1:]):
        assert run(args + ["--x", x]) == 0
        assert capsys.readouterr().out.strip().split("\n")[1:] == [row]


def test_perc_identity_cli(capsys):
    code = run(["perc", "identity", "--p", "0.3333333333333333",
                "--alpha", "0.6666666666666666", "--q", "0.5", "--beta", "0.5",
                "--stages", "2", "--window", "30", "--instances", "50", "--seed", "9"])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["failures"] == 0 and report["all_equal"]
    assert "first_failure" not in report


def test_perc_identity_reports_first_failure(monkeypatch, capsys):
    real = perc.tandem_identity_check
    bad = {RandomStream(9).substream(i).seed for i in (2, 4)}

    def unequal_on_two_instances(arrival, services, window, stream):
        res = real(arrival, services, window=window, stream=stream)
        return replace(res, equal=False) if stream.seed in bad else res

    monkeypatch.setattr(perc, "tandem_identity_check", unequal_on_two_instances)
    code = run(["perc", "identity", *P, "--stages", "2", "--window", "30",
                "--instances", "6", "--seed", "9"])
    assert code == 1
    report = json.loads(capsys.readouterr().out)
    assert report["failures"] == 2 and not report["all_equal"]
    replay = real(laws.ber_geom(0.3333333333333333, 0.6666666666666666),
                  [laws.ber_geom(0.5, 0.5)] * 2, window=30, stream=RandomStream(9).substream(2))
    assert report["first_failure"] == {"substream": 2, "lhs": replay.lhs, "rhs": replay.rhs,
                                       "best_m": replay.best_m}


def test_config_file_defaults_and_flag_override(tmp_path, capsys):
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps({"variant": "exp", "x": "3"}))
    assert run(["tc", "--variant", "exp", "--x", "8", "--config", str(conf)]) == 0
    assert capsys.readouterr().out == "4.0\n"  # flag x=8 wins: (sqrt(9)-1)^2
    conf2 = tmp_path / "conf2.json"
    conf2.write_text(json.dumps({"seed": 42, "n": 3}))
    assert run(["dist", "sample", "--spec", '{"kind": "bernoulli", "p": 0.5}',
                "--config", str(conf2), "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["seed"] == 42 and len(payload["samples"]) == 3
    # null leaves a flag at its default
    conf2.write_text(json.dumps({"seed": None, "n": 3}))
    assert run(["dist", "sample", "--spec", '{"kind": "bernoulli", "p": 0.5}',
                "--config", str(conf2), "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["seed"] == 1


def test_verify_stats_suite_exits_zero(tmp_path, capsys):
    out = tmp_path / "report.json"
    assert run(["verify", "--suite", "stats", "--seed", "1", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["passed"] and report["suite"] == "stats"
    assert capsys.readouterr().out.startswith("stats:")


def _exit_code_and_stderr(argv, capsys):
    try:
        code = run(argv)
    except SystemExit as exc:
        code = exc.code
    return code, capsys.readouterr().err


def _assert_refused(code, err, prog):
    """Exit 2 with the usage of the leaf subcommand ``prog`` and one error: line."""
    assert code == 2
    assert err.startswith(f"usage: {prog} [-h]") and f"\n{prog}: error: " in err, err
    assert err.count("error:") == 1 and "Traceback" not in err


def _prog(argv):
    return "batchq " + " ".join(argv[:2] if argv[0] in ("dist", "perc") else argv[:1])


P = ["--p", "0.3333333333333333", "--alpha", "0.6666666666666666", "--q", "0.5", "--beta", "0.5"]


@pytest.mark.parametrize("argv, refusal", [
    (["queue", *P, "--slots", "0"], "n_slots must be >= 1"),
    (["tandem", *P, "--stages", "0", "--slots", "100"], "need at least one stage"),
    (["tandem", *P, "--slots", "0"], "n_slots must be >= 1"),
    (["perc", "identity", *P, "--window", "0", "--instances", "2"], "--window must be >= 1"),
    (["perc", "identity", *P, "--stages", "0", "--window", "5", "--instances", "2"],
     "need at least one stage"),
    (["perc", "identity", *P, "--window", "5", "--instances", "0"], "--instances must be >= 1"),
    (["perc", "simulate", "--weights", '{"kind": "exp", "rate": 1.0}', "--x", "0.2",
      "--replicas", "2", "--n", "0"], "N must be at least 10"),
    (["perc", "simulate", "--weights", '{"kind": "exp", "rate": 1.0}', "--x", "0.2",
      "--n", "10", "--replicas", "0"], "need at least 2 replicas for a confidence interval"),
], ids=["queue-slots", "tandem-stages", "tandem-slots", "identity-window",
        "identity-stages", "identity-instances", "perc-n", "perc-replicas"])
def test_explicit_zero_counts_are_not_replaced_by_defaults(argv, refusal, capsys):
    code, err = _exit_code_and_stderr(argv, capsys)
    _assert_refused(code, err, _prog(argv))
    assert err.endswith(f"{_prog(argv)}: error: {refusal}\n"), err


@pytest.mark.parametrize("case", ["zero-step-grid", "legendre-arithmetic", "missing-config",
                                  "missing-out-dir", "missing-trace-dir", "queue-negative-burn-in",
                                  "tandem-negative-burn-in", "non-object-config",
                                  "tc-ber-geom-q-above-1", "tc-ber-exp-q-above-1",
                                  "tc-cont-geom-beta-above-1", "tc-ber-geom-negative-x",
                                  "tc-cont-exp-negative-x", "tc-exp-with-q-and-beta",
                                  "non-object-spec", "non-object-weights",
                                  "weights-missing-field", "spec-string-field", "spec-bool-field",
                                  "perc-x-below-one-column", "perc-empty-grid",
                                  "dist-negative-max-k", "queue-format", "verify-format",
                                  "tc-format-json", "config-slots-not-int",
                                  "config-format-not-a-choice", "config-tc-format-json",
                                  "queue-burn-in-at-slots", "tandem-burn-in-above-slots",
                                  "seed-negative", "seed-2-to-the-64", "config-seed-negative",
                                  "tc-seed-2-to-the-64", "config-dispatch-key",
                                  "tandem-stages-2-to-the-62",
                                  "identity-stages-2-to-the-62", "verify-suite-not-a-choice",
                                  "config-repeated-key", "config-nan"])
def test_bad_input_exits_2_without_traceback(case, tmp_path, capsys):
    missing = str(tmp_path / "no_such_dir" / "x.csv")
    list_config = tmp_path / "list.json"
    list_config.write_text("[1]")
    configs = {"slots": {"slots": "abc"}, "xml": {"format": "xml"}, "json": {"format": "json"},
               "seed": {"seed": -1}, "handler": {"handler": 1}}
    exp = '{"kind": "exp", "rate": 1.0}'
    for name, conf in configs.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(conf))
    (tmp_path / "repeated.json").write_text('{"slots": 10, "slots": 20}')
    (tmp_path / "nan.json").write_text('{"burn_in": NaN}')
    argv = {
        "zero-step-grid": ["tc", "--variant", "exp", "--x", "1:4:0"],
        "legendre-arithmetic": ["tc", "--variant", "legendre", "--q", "0.5",
                                "--beta", "0.999999", "--x", "0.5,3,50"],
        "missing-config": ["tc", "--variant", "exp", "--x", "3",
                           "--config", str(tmp_path / "missing.json")],
        "missing-out-dir": ["tc", "--variant", "exp", "--x", "3", "--out", missing],
        "missing-trace-dir": ["queue", *P, "--slots", "10", "--out", missing],
        "queue-negative-burn-in": ["queue", *P, "--slots", "1000", "--burn-in", "-5"],
        "tandem-negative-burn-in": ["tandem", *P, "--slots", "1000", "--burn-in", "-5"],
        "non-object-config": ["tc", "--variant", "exp", "--x", "3",
                              "--config", str(list_config)],
        "tc-ber-geom-q-above-1": ["tc", "--variant", "ber_geom", "--q", "1.5", "--beta", "0.5",
                                  "--x", "3"],
        "tc-ber-exp-q-above-1": ["tc", "--variant", "ber_exp", "--q", "1.5", "--x", "3"],
        "tc-cont-geom-beta-above-1": ["tc", "--variant", "cont_geom", "--beta", "1.5", "--x", "3"],
        "tc-ber-geom-negative-x": ["tc", "--variant", "ber_geom", "--q", "0.5", "--beta", "0.5",
                                   "--x", "-1"],
        "tc-cont-exp-negative-x": ["tc", "--variant", "cont_exp", "--x", "-1"],
        # a flag the variant does not take is refused, not ignored
        "tc-exp-with-q-and-beta": ["tc", "--variant", "exp", "--q", "0.5", "--beta", "0.9",
                                   "--x", "3"],
        "non-object-spec": ["dist", "pmf", "--spec", "[1]"],
        "non-object-weights": ["perc", "simulate", "--weights", "[1]", "--x", "1", "--n", "10",
                               "--replicas", "2"],
        "weights-missing-field": ["perc", "simulate", "--weights", '{"kind": "exp"}', "--x", "1",
                                  "--n", "10", "--replicas", "2"],
        "spec-string-field": ["dist", "sample", "--spec", '{"kind": "exp", "rate": "a"}'],
        "spec-bool-field": ["dist", "sample", "--spec", '{"kind": "deterministic", "value": true}'],
        "perc-x-below-one-column": ["perc", "simulate", "--weights", '{"kind": "exp", "rate": 1.0}',
                                    "--x", "0.05", "--n", "10", "--replicas", "5"],
        "perc-empty-grid": ["perc", "simulate", "--weights", '{"kind": "exp", "rate": 1.0}',
                            "--x", ",", "--n", "10", "--replicas", "5"],
        "dist-negative-max-k": ["dist", "pmf", "--spec", '{"kind": "geom_zero", "alpha": 0.5}',
                                "--max-k", "-3"],
        # --format exists only on dist and tc, and tc has no JSON output
        "queue-format": ["queue", *P, "--slots", "10", "--format", "csv"],
        "verify-format": ["verify", "--suite", "stats", "--format", "csv"],
        "tc-format-json": ["tc", "--variant", "exp", "--x", "1,2", "--format", "json"],
        # a --config value passes the same type and choices checks as the flag
        "config-slots-not-int": ["queue", *P, "--config", str(tmp_path / "slots.json")],
        "config-format-not-a-choice": ["dist", "sample", "--spec",
                                       '{"kind": "bernoulli", "p": 0.5}', "--n", "2",
                                       "--config", str(tmp_path / "xml.json")],
        "config-tc-format-json": ["tc", "--variant", "exp", "--x", "1,2",
                                  "--config", str(tmp_path / "json.json")],
        "queue-burn-in-at-slots": ["queue", *P, "--slots", "1000", "--burn-in", "1000"],
        "tandem-burn-in-above-slots": ["tandem", *P, "--slots", "1000", "--burn-in", "5000"],
        # a seed outside [0, 2**64) is refused, not reduced mod 2**64
        "seed-negative": ["dist", "sample", "--spec", exp, "--n", "3", "--seed", "-1"],
        "seed-2-to-the-64": ["dist", "sample", "--spec", exp, "--n", "3", "--seed", str(2**64)],
        "config-seed-negative": ["dist", "sample", "--spec", exp, "--n", "3",
                                 "--config", str(tmp_path / "seed.json")],
        # checked by the flag itself: tc builds no stream that could refuse it
        "tc-seed-2-to-the-64": ["tc", "--variant", "exp", "--x", "3", "--seed", str(2**64)],
        # a name that dispatch stores in the namespace is not a flag
        "config-dispatch-key": ["tc", "--variant", "exp", "--x", "3",
                                "--config", str(tmp_path / "handler.json")],
        # a count too large to allocate is refused before anything is allocated
        "tandem-stages-2-to-the-62": ["tandem", *P, "--stages", str(2**62), "--slots", "10"],
        "identity-stages-2-to-the-62": ["perc", "identity", *P, "--stages", str(2**62),
                                        "--window", "5", "--instances", "2"],
        # the choices are read from verify on demand; argparse lists them in the error
        "verify-suite-not-a-choice": ["verify", "--suite", "nope"],
        # a --config file is read as strictly as --spec
        "config-repeated-key": ["queue", *P, "--config", str(tmp_path / "repeated.json")],
        "config-nan": ["queue", *P, "--slots", "10", "--config", str(tmp_path / "nan.json")],
    }[case]
    code, err = _exit_code_and_stderr(argv, capsys)
    _assert_refused(code, err, _prog(argv))


def test_perc_simulate_worker_error_exits_2(monkeypatch, capsys):
    # every estimate forks, and a worker raises: geom_plus draws beyond int64
    monkeypatch.setattr(perc, "_SHARD_CELLS", 1)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    code, err = _exit_code_and_stderr(["perc", "simulate", "--weights",
                                       '{"kind": "geom_plus", "alpha": 1e-300}', "--x", "1",
                                       "--n", "10", "--replicas", "4"], capsys)
    _assert_refused(code, err, "batchq perc simulate")
    assert "does not fit in int64" in err


def _leaves(parser: argparse.ArgumentParser) -> list[argparse.ArgumentParser]:
    """The parser of every leaf subcommand under ``parser``."""
    subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        return [parser]
    return [leaf for sp in subs[0].choices.values() for leaf in _leaves(sp)]


EXP = '{"kind": "exp", "rate": 1.0}'
# one small valid argv per leaf subcommand, by the leaf's usage name
SMALL = {
    "batchq dist pmf": ["dist", "pmf", "--spec", '{"kind": "geom_zero", "alpha": 0.5}',
                        "--max-k", "5"],
    "batchq dist sample": ["dist", "sample", "--spec", EXP, "--n", "5"],
    "batchq queue": ["queue", *P, "--slots", "200", "--burn-in", "10"],
    "batchq tandem": ["tandem", *P, "--stages", "3", "--slots", "200"],
    "batchq perc simulate": ["perc", "simulate", "--weights", EXP, "--x", "1", "--n", "10",
                             "--replicas", "3"],
    "batchq perc identity": ["perc", "identity", *P, "--stages", "2", "--window", "10",
                             "--instances", "3"],
    "batchq tc": ["tc", "--variant", "ber_geom", "--q", "0.5", "--beta", "0.5", "--x", "2"],
    "batchq verify": ["verify", "--suite", "stats"],
}
LEAVES = {leaf.prog: leaf for leaf in _leaves(build_parser())}
# every typed (numeric) flag of every leaf with one edge value; no valid count
# is large enough to start a long run
EDGES = [(prog, f"{action.option_strings[-1]}={value}") for prog, leaf in LEAVES.items()
         for action in leaf._actions if action.type is not None
         for value in ("0", "-1", "nan", "inf", "-inf", "-0.0", "1e300", "x", "1_000")]


def test_every_leaf_subcommand_has_a_small_valid_argv(capsys):
    assert sorted(SMALL) == sorted(LEAVES)
    for argv in SMALL.values():
        assert run(argv) == 0


@settings(derandomize=True, deadline=None, max_examples=len(EDGES) + 50)
@given(edge=st.sampled_from(EDGES))
def test_a_numeric_flag_at_an_edge_value_keeps_the_cli_contract(edge):
    # the last --flag=value wins, so it replaces the small argv's value
    prog, flag = edge
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = run(SMALL[prog] + [flag])
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 1, 2)
    if code == 2:
        _assert_refused(code, err.getvalue(), prog)


# bad values of every free-text flag, by its dest, with the refusal each must name; the
# JSON ones go to every flag that takes a distribution, and each value replaces the
# flag's value in the leaf's small argv
_JSON_EDGES = [('{"kind": "exp", "rate": 1.0', "Expecting ',' delimiter"),
               ('{"kind": "exp", "rate": "1.0"}', "must be a number"),
               ('{"kind": "exp", "rate": 1.0, "p": 0.5}', "unexpected fields"),
               ('{"kind": "exp", "rate": 1.0, "rate": 2.0}', "repeated JSON key 'rate'"),
               ('{"kind": "exp", "rate": NaN}', "NaN is not a JSON number"),
               ('{"kind": "exp", "rate": Infinity}', "Infinity is not a JSON number"),
               ('{"kind": "exp", "rate": 1e400}', "positive and finite"),
               ('{"kind": "ber_exp", "p": 0.5, "rate": 1e400}', "positive and finite"),
               ('{"kind": "exp", "rate": 1e-320}', "overflow"),
               ('{"kind": "ber_exp", "p": 0.5, "rate": 1e-320}', "overflow"),
               ('{"kind": "deterministic", "value": 1e400}', "finite and >= 0"),
               ('{"kind": "deterministic", "value": 1%s}' % ("0" * 400), "finite and >= 0")]
STRING_EDGES = {
    "spec": _JSON_EDGES + [('{"kind": "geom_zero", "alpha": 0.5, "alpha": 0.7}', "repeated")],
    "weights": _JSON_EDGES,
    "x": [(x, "bad grid") for x in ("1:2", "1:2:3:4", "1,,2", ",", "1,", "nan", "1,inf",
                                     "1:inf:1", "nan:2:1", "a", "")]
         + [("1:2:0", "the step must be positive"), ("1:2:-1", "the step must be positive")],
}
# dist pmf tabulates no continuous kind, so its exp specs name that refusal or one before it
_PMF_REFUSALS = ("discrete-only", "not a JSON number", "repeated", "Expecting", "must be a number",
                 "unexpected fields", "positive and finite")
STRING_CASES = [(prog, action.option_strings[-1], value, refusal)
                for prog, leaf in LEAVES.items() for action in leaf._actions
                for value, refusal in STRING_EDGES.get(action.dest, ())]


def test_every_free_text_flag_has_bad_values():
    # a new string flag gets its edge values here; --out and --config name files
    free = {action.dest for leaf in LEAVES.values() for action in leaf._actions
            if action.option_strings and action.type is None and action.choices is None
            and action.nargs != 0}
    assert free - {"out", "config", "help"} == set(STRING_EDGES)


@pytest.mark.parametrize("prog, flag, value, refusal", STRING_CASES, ids=[
    f"{prog[7:].replace(' ', '-')}{flag}={''.join(value.split())}"
    for prog, flag, value, _ in STRING_CASES])
def test_a_string_flag_with_a_bad_value_is_refused(prog, flag, value, refusal):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = run(SMALL[prog] + [f"{flag}={value}"])
        except SystemExit as exc:
            code = exc.code
    _assert_refused(code, err.getvalue(), prog)
    line = err.getvalue().rsplit("error: ", 1)[1]
    assert refusal in line or prog == "batchq dist pmf" and any(r in line for r in _PMF_REFUSALS), \
        line


SRC = Path(__file__).resolve().parent.parent / "src"


def _python(args: list[str]) -> subprocess.CompletedProcess:
    """Run a fresh interpreter with ``args``; it imports this checkout's batchq."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC),
                                                                     os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, *args], capture_output=True, env=env, timeout=120)


def _batchq(code: str, argv: list[str]) -> subprocess.CompletedProcess:
    """Run ``code`` with ``argv`` in a fresh interpreter that imports this checkout's batchq."""
    return _python(["-c", code, *argv])


# perc simulate and queue with every estimate and scan forked into three
# shards, after a stdout write still in the pipe's buffer when the workers fork
FORKING = """
import os
from batchq import percolation, queue_core
percolation._SHARD_CELLS = 1
queue_core._SHARD_SLOTS = 1
os.sched_getaffinity = lambda pid: {0, 1, 2}
"""
FORKED_RUN = FORKING + """
import sys
from batchq.cli import run
sys.stdout.write("before\\n")
sys.exit(run(sys.argv[1:]))
"""


def test_forked_perc_simulate_writes_its_output_once(tmp_path, capsys):
    argv = ["perc", "simulate", "--weights", '{"kind": "exp", "rate": 1.0}', "--x", "1,2.5",
            "--n", "30", "--replicas", "7", "--seed", "2"]
    assert run(argv) == 0
    serial = capsys.readouterr().out.encode()
    forked = _batchq(FORKED_RUN, argv)
    assert forked.returncode == 0, forked.stderr
    assert forked.stdout == b"before\n" + serial
    out = tmp_path / "est.csv"
    forked = _batchq(FORKED_RUN, argv + ["--out", str(out)])
    assert forked.returncode == 0, forked.stderr
    assert forked.stdout == b"before\n" and out.read_bytes() == serial


def test_forked_queue_writes_its_output_once(capsys):
    argv = ["queue", *P, "--slots", "5000", "--init-x", "7", "--burn-in", "2500", "--seed", "3"]
    assert run(argv) == 0
    serial = capsys.readouterr().out.encode()
    forked = _batchq(FORKED_RUN, argv)
    assert forked.returncode == 0, forked.stderr
    assert forked.stdout == b"before\n" + serial


def _as_main(argv: list[str], prelude: str | None = None) -> subprocess.CompletedProcess:
    """``python -m batchq.cli argv`` in this checkout; with a ``prelude``, that code runs
    first and the module then runs as ``__main__`` through runpy, as -m runs it."""
    if prelude is None:
        return _python(["-m", "batchq.cli", *argv])
    return _batchq(prelude + "\nimport runpy\n"
                   "runpy.run_module('batchq.cli', run_name='__main__', alter_sys=True)\n", argv)


# every identity instance reported unequal, so perc identity exits 1
UNEQUAL = """
from dataclasses import replace
from batchq import percolation
real = percolation.tandem_identity_check
percolation.tandem_identity_check = lambda *a, **k: replace(real(*a, **k), equal=False)
"""


@pytest.mark.parametrize("argv, prelude, code", [
    (SMALL["batchq perc identity"], None, 0),
    (SMALL["batchq perc identity"], UNEQUAL, 1),
    (SMALL["batchq perc identity"] + ["--window", "0"], None, 2),
    (["queue", *P, "--slots", "10", "--out", "/no/such/dir/q.csv"], None, 2),
], ids=["ok", "failed-check", "refused", "unwritable-out"])
def test_python_m_batchq_cli_keeps_the_exit_codes(argv, prelude, code):
    res = _as_main(argv, prelude)
    assert res.returncode == code, res.stderr
    if code == 2:
        _assert_refused(code, res.stderr.decode(), _prog(argv))
    else:
        assert json.loads(res.stdout)["all_equal"] is (code == 0) and not res.stderr


@pytest.mark.parametrize("argv, prelude", [
    (["queue", *P, "--slots", "5000", "--init-x", "7", "--seed", "3"], FORKING),
    (["queue", *P, "--slots", "3000", "--seed", "3", "--out"], None),
    (["perc", "simulate", "--weights", EXP, "--x", "1,2.5", "--n", "30", "--replicas", "7",
      "--seed", "2"], FORKING),
    (["perc", "simulate", "--weights", EXP, "--x", "1:2:0.5", "--n", "20", "--replicas", "5",
      "--out"], FORKING),
    (["perc", "identity", *P, "--stages", "3", "--window", "40", "--instances", "4"], None),
    (["perc", "identity", *P, "--window", "20", "--instances", "2", "--out"], None),
], ids=["queue-forked-scan", "queue-out", "perc-simulate-forked", "perc-simulate-forked-out",
        "perc-identity", "perc-identity-out"])
def test_python_m_batchq_cli_writes_what_run_writes(argv, prelude, tmp_path, capsys):
    # the FORKING cases shrink the shards before the module runs, which imports numpy
    # before the collector's pause; an argv ending in --out writes there: in process to one file, under -m to another
    if argv[-1] == "--out":
        argv = argv + [str(tmp_path / "run.out")]
    assert run(argv) == 0
    expected = capsys.readouterr().out.encode()
    if argv[-2] == "--out":
        expected += (tmp_path / "run.out").read_bytes()
        argv = argv[:-1] + [str(tmp_path / "main.out")]
    res = _as_main(argv, prelude)
    assert res.returncode == 0, res.stderr
    got = res.stdout + ((tmp_path / "main.out").read_bytes() if argv[-2] == "--out" else b"")
    assert got == expected


def test_run_leaves_the_callers_collector_as_it_was(capsys):
    before = gc.isenabled(), gc.get_freeze_count()
    try:
        for enabled in (True, False):
            (gc.enable if enabled else gc.disable)()
            for argv in (SMALL["batchq queue"], SMALL["batchq perc identity"],
                         SMALL["batchq queue"] + ["--slots", "0"]):
                _exit_code_and_stderr(argv, capsys)
                assert (gc.isenabled(), gc.get_freeze_count()) == (enabled, before[1])
    finally:
        (gc.enable if before[0] else gc.disable)()


# the collector as the handler sees it at its first stdout write, and the collections
# that started while numpy was loaded and nothing was frozen yet
PROBED = """
import gc, sys
early = []
gc.callbacks.append(lambda phase, info: phase == "start" and "numpy" in sys.modules
                    and not gc.get_freeze_count() and early.append(info["generation"]))

class Probe:
    def __init__(self, out):
        self.out, self.seen = out, None

    def write(self, text):
        self.seen = self.seen or f"enabled={gc.isenabled()} frozen={gc.get_freeze_count() > 0}"
        return self.out.write(text)

    def __getattr__(self, name):
        return getattr(self.out, name)

sys.stdout = probe = Probe(sys.stdout)
import atexit
atexit.register(lambda: print(f"handler {probe.seen}; import collections {len(early)}",
                              file=sys.stderr))
"""


@pytest.mark.parametrize("argv", [SMALL["batchq perc identity"], SMALL["batchq queue"]],
                         ids=["perc-identity", "queue"])
def test_under_python_m_the_handler_runs_collected_on_a_frozen_import_heap(argv):
    res = _as_main(argv, PROBED)
    assert res.returncode == 0, res.stderr
    assert res.stderr.decode() == "handler enabled=True frozen=True; import collections 0\n"


@pytest.mark.parametrize("argv", [SMALL["batchq perc identity"], SMALL["batchq queue"]],
                         ids=["perc-identity", "queue"])
def test_under_the_console_script_the_handler_runs_collected_on_a_frozen_import_heap(argv):
    # the batchq console script imports batchq.cli with the collector running, then calls main()
    res = _batchq(PROBED + "\nfrom batchq.cli import main\nmain()\n", argv)
    assert res.returncode == 0, res.stderr
    assert res.stderr.decode() == "handler enabled=True frozen=True; import collections 0\n"


# the collections that started while batchq.cli imported its own modules: after argparse,
# before numpy and before the freeze
OWN_IMPORTS_PROBED = """
import gc, sys
own = []
gc.callbacks.append(lambda phase, info: phase == "start" and "argparse" in sys.modules
                    and "numpy" not in sys.modules and not gc.get_freeze_count()
                    and own.append(info["generation"]))
import atexit
atexit.register(lambda: print(f"own import collections {len(own)}", file=sys.stderr))
"""


def test_under_python_m_batchq_cli_imports_its_own_modules_uncollected():
    res = _as_main(SMALL["batchq perc identity"], OWN_IMPORTS_PROBED)
    assert res.returncode == 0, res.stderr
    assert res.stderr.decode() == "own import collections 0\n"


# the batchq modules and numpy that were loaded when main() froze the heap
FREEZE_PROBED = """
import gc, sys
freeze = gc.freeze

def probed_freeze():
    sys.stderr.write(" ".join(m for m in ("batchq.queue_core", "batchq.percolation",
                                          "batchq.timeconstants", "numpy") if m in sys.modules))
    freeze()

gc.freeze = probed_freeze
"""


@pytest.mark.parametrize("argv,frozen", [
    (SMALL["batchq perc identity"], "batchq.percolation numpy"),
    (SMALL["batchq queue"], "batchq.queue_core numpy"),
    (SMALL["batchq tc"], "batchq.timeconstants"),
], ids=["perc-identity", "queue", "tc"])
def test_main_imports_the_handlers_modules_before_it_freezes_the_heap(argv, frozen):
    res = _as_main(argv, FREEZE_PROBED)
    assert res.returncode == 0, res.stderr
    assert res.stderr.decode() == frozen


# the modules a command loaded, on stderr after the command's own output
LOADED = """
import sys
from batchq.cli import build_parser, run
code = run(sys.argv[1:])
sys.stderr.write(" ".join(m for m in ("multiprocessing", "concurrent.futures", "batchq.verify",
                                      "batchq.timeconstants", "batchq.stats",
                                      "batchq.queue_core", "batchq.tandem", "batchq.percolation",
                                      "numpy")
                          if m in sys.modules))
sys.exit(code)
"""


@pytest.mark.parametrize("argv,loaded", [
    (["perc", "identity", *P, "--window", "20", "--instances", "3"],
     "batchq.queue_core batchq.percolation numpy"),
    (["queue", *P, "--slots", "2000"], "batchq.queue_core numpy"),
    (["tandem", *P, "--slots", "2000"], "batchq.queue_core batchq.tandem numpy"),
    (["tc", "--variant", "exp", "--x", "3"], "batchq.timeconstants"),
    (["perc", "simulate", "--weights", '{"kind": "exp", "rate": 1.0}', "--x", "1", "--n", "10",
      "--replicas", "2"], "batchq.percolation numpy"),
    (SMALL["batchq dist pmf"], ""),
], ids=["perc-identity", "queue", "tandem", "tc", "perc-simulate", "dist-pmf"])
def test_commands_import_only_what_they_use(argv, loaded):
    res = _batchq(LOADED, argv)
    assert res.returncode == 0, res.stderr
    assert res.stderr.decode() == loaded


def test_import_batchq_loads_no_submodule():
    res = _batchq("import sys, batchq\nprint(sorted(m for m in sys.modules if m.startswith('batchq')))",
                  [])
    assert res.returncode == 0, res.stderr
    assert res.stdout.decode().strip() == "['batchq']"


README = Path(__file__).resolve().parent.parent / "README.md"
# the README's CLI commands at test sizes; criterion 12 runs verify --suite all
README_SIZES = {"--slots": "2000", "--n": "20", "--replicas": "3", "--instances": "5",
                "--suite": "stats"}
# what a README comment says a command prints, checked on its stdout
README_STATED = {"prints 1.0": lambda out: out == "1.0\n",
                 "curve CSV": lambda out: out.startswith("variant,params,x,f,maximizer\n"),
                 "summary JSON on stdout": lambda out: "mean_x" in json.loads(out)["empirical"],
                 "exit 0 iff every check passes": lambda out: out.startswith("{")}


def _readme_commands() -> list[tuple[list[str], str]]:
    """Each command of the README's CLI block: its argv after ``batchq`` and its comment."""
    block = README.read_text().split("\n## CLI\n", 1)[1].split("```bash\n", 1)[1]
    commands = []
    for line in block.split("```", 1)[0].replace("\\\n", " ").splitlines():
        command, _, comment = line.partition("#")
        commands.append((shlex.split(command)[1:], comment.strip()))
    return commands


def test_the_readme_cli_block_runs(tmp_path, capsys):
    commands = _readme_commands()
    assert len(commands) == 9
    for argv, comment in commands:
        # a flag's value follows it: an --out goes to tmp_path, a size shrinks
        argv = argv[:1] + [str(tmp_path / value) if flag == "--out"
                           else README_SIZES.get(flag, value)
                           for flag, value in zip(argv, argv[1:])]
        assert run(argv) == 0, argv
        out = capsys.readouterr().out
        assert comment == "" or README_STATED[comment](out), (argv, out)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["tandem.csv", "trace.csv"]
    assert (tmp_path / "trace.csv").read_text().count("\n") == 2001


def test_explicit_burn_in_is_used_as_given(capsys):
    assert run(["queue", *P, "--slots", "1000", "--burn-in", "900"]) == 0
    assert json.loads(capsys.readouterr().out)["burn_in"] == 900
    assert run(["tandem", *P, "--slots", "1000", "--burn-in", "999"]) == 0
    assert json.loads(capsys.readouterr().out)["burn_in"] == 999
    # the default stays min(10**4, slots // 2)
    assert run(["queue", *P, "--slots", "1000"]) == 0
    assert json.loads(capsys.readouterr().out)["burn_in"] == 500


@settings(derandomize=True, deadline=None, max_examples=60)
@given(block=st.integers(1, 40), slots=st.integers(1, 150), init_x=st.integers(0, 12),
       seed=st.integers(0, 2**31), command=st.sampled_from(["queue", "tandem"]),
       stages=st.integers(1, 4), data=st.data())
def test_streamed_queue_out_and_summary_equal_the_whole_trace(block, slots, init_x, seed, command,
                                                              stages, data, tmp_path_factory):
    burn = data.draw(st.integers(0, slots - 1))
    root = tmp_path_factory.mktemp(command)
    argv = [command, *P, "--slots", str(slots), "--burn-in", str(burn), "--seed", str(seed),
            "--out", str(root / "streamed.csv")]
    if command == "queue":
        argv += ["--init-x", str(init_x)]
        stages = 1
    else:
        argv += ["--stages", str(stages)]
        init_x = 0
    stdout = io.StringIO()
    with pytest.MonkeyPatch.context() as mp, contextlib.redirect_stdout(stdout):
        mp.setattr(queue_core, "_BLOCK_SLOTS", block)
        assert run(argv) == 0
    params = QueueParams(*(float(v) for v in P[1::2]))
    whole = _one_shot(params.arrival_spec, [params.service_spec] * stages, slots,
                      RandomStream(seed), init_x)
    summary = json.loads(stdout.getvalue())
    assert summary["burn_in"] == burn
    if command == "queue":
        whole[0].to_csv(root / "whole.csv")
        assert summary["empirical"] == {"mean_x": float(whole[0].x[burn:].mean()),
                                        "mean_y": float(whole[0].y[burn:].mean()),
                                        "mean_d": float(whole[0].d[burn:].mean())}
    else:
        TandemTrace(TandemConfig.bergeom(params, stages), whole).to_csv(root / "whole.csv")
        assert summary["empirical_mean_x"] == [float(tr.x[burn:].mean()) for tr in whole]
        assert summary["empirical_mean_d"] == [float(tr.d[burn:].mean()) for tr in whole]
    assert (root / "streamed.csv").read_bytes() == (root / "whole.csv").read_bytes()


def test_every_cli_csv_is_byte_identical_at_any_block_size(tmp_path):
    # queue --out, tandem --out and dist sample (an integer and a float kind, on a text
    # stdout and in --out) against the whole trace's CSV and the per-cell formatter's,
    # with one row per chunk, chunks of 7 and a short last one, and one chunk of all rows
    params = QueueParams(*(float(v) for v in P[1::2]))
    refs = {}
    whole = _one_shot(params.arrival_spec, [params.service_spec], 40, RandomStream(5), 2)
    whole[0].to_csv(tmp_path / "queue.csv")
    refs["queue"] = ["queue", *P, "--slots", "40", "--init-x", "2", "--seed", "5"]
    whole = _one_shot(params.arrival_spec, [params.service_spec] * 3, 40, RandomStream(5), 0)
    TandemTrace(TandemConfig.bergeom(params, 3), whole).to_csv(tmp_path / "tandem.csv")
    refs["tandem"] = ["tandem", *P, "--stages", "3", "--slots", "40", "--seed", "5"]
    for name, spec in (("geom_plus", laws.geom_plus(0.3)), ("exp", laws.exponential(1.5))):
        _old_write_csv(tmp_path / f"{name}.csv", ["value"],
                       [dist.sample_n(spec, RandomStream(5), 40)])
        refs[name] = ["dist", "sample", "--spec", json.dumps(spec.to_dict()), "--n", "40",
                      "--seed", "5"]
    summaries = set()
    for block in (1, 7, 1 << 14):
        for name, argv in refs.items():
            want = (tmp_path / f"{name}.csv").read_text()
            out = tmp_path / f"{name}-{block}.csv"
            stdout = io.StringIO()
            with pytest.MonkeyPatch.context() as mp, contextlib.redirect_stdout(stdout):
                mp.setattr(queue_core, "_BLOCK_SLOTS", block)
                assert run(argv + ["--out", str(out)]) == 0
                if name in ("queue", "tandem"):
                    summaries.add((name, stdout.getvalue()))
                else:
                    assert stdout.getvalue() == ""
                    assert run(argv) == 0
                    assert stdout.getvalue() == want
            assert out.read_text() == want
    # the summaries too are the same at every block size
    assert len(summaries) == 2


# BerGeom queues on the reversibility curve, off it, and unstable (mean arrival above service)
_QUEUES = st.sampled_from([P, ["--p", "0.4", "--alpha", "0.5", "--q", "0.6", "--beta", "0.4"],
                           ["--p", "0.6", "--alpha", "0.3", "--q", "0.3", "--beta", "0.7"]])


@settings(derandomize=True, deadline=None, max_examples=60)
@given(params=_QUEUES, block=st.integers(1, 40), slots=st.integers(1, 300),
       init_x=st.one_of(st.integers(0, 12), st.integers(60, 300)), seed=st.integers(0, 2**31),
       cpus=st.sampled_from([1, 2, 3, 5]), cap=st.sampled_from([0, 1, 4, 1 << 16]),
       data=st.data())
def test_queue_scan_summary_equals_the_slot_engine(params, block, slots, init_x, seed, cpus, cap,
                                                   data, tmp_path_factory):
    burn = data.draw(st.integers(0, slots - 1))
    argv = ["queue", *params, "--slots", str(slots), "--burn-in", str(burn),
            "--init-x", str(init_x), "--seed", str(seed)]
    engine, scan = io.StringIO(), io.StringIO()
    with pytest.MonkeyPatch.context() as mp:
        # every scan forks, into shards of a few blocks, with a tiny level cap
        mp.setattr(queue_core, "_BLOCK_SLOTS", block)
        mp.setattr(queue_core, "_SHARD_SLOTS", 1)
        mp.setattr(queue_core, "_LEVEL_CAP", cap)
        mp.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        with contextlib.redirect_stdout(scan):
            assert run(argv) == 0
        out = tmp_path_factory.mktemp("scan") / "trace.csv"
        with contextlib.redirect_stdout(engine):
            assert run(argv + ["--out", str(out)]) == 0
    assert scan.getvalue() == engine.getvalue()
