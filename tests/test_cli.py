"""CLI: subcommands, exit codes, config handling, reproducible outputs."""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from batchq import distributions as dist
from batchq import percolation as perc
from batchq import queue_core
from batchq.cli import build_parser, run
from batchq.queue_core import QueueParams
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
    # the CSV is the per-cell formatter's text, for a discrete and a continuous kind
    for spec in (dist.geom_plus(0.5), dist.exponential(1.5)):
        assert run(["dist", "sample", "--spec", json.dumps(spec.to_dict(), sort_keys=True),
                    "--n", "3000", "--seed", "42"]) == 0
        _old_write_csv(tmp_path / "old.csv", ["value"],
                       [dist.sample_n(spec, RandomStream(42), 3000)])
        assert capsys.readouterr().out == (tmp_path / "old.csv").read_text()


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
    replay = real(dist.ber_geom(0.3333333333333333, 0.6666666666666666),
                  [dist.ber_geom(0.5, 0.5)] * 2, window=30, stream=RandomStream(9).substream(2))
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
                                  "tc-cont-exp-negative-x", "non-object-spec", "non-object-weights",
                                  "weights-missing-field", "spec-string-field", "spec-bool-field",
                                  "perc-x-below-one-column", "perc-empty-grid",
                                  "dist-negative-max-k", "queue-format", "verify-format",
                                  "tc-format-json", "config-slots-not-int",
                                  "config-format-not-a-choice", "config-tc-format-json",
                                  "queue-burn-in-at-slots", "tandem-burn-in-above-slots",
                                  "seed-negative", "seed-2-to-the-64", "config-seed-negative",
                                  "tc-seed-2-to-the-64", "config-dispatch-key",
                                  "tandem-stages-2-to-the-62",
                                  "identity-stages-2-to-the-62", "verify-suite-not-a-choice"])
def test_bad_input_exits_2_without_traceback(case, tmp_path, capsys):
    missing = str(tmp_path / "no_such_dir" / "x.csv")
    list_config = tmp_path / "list.json"
    list_config.write_text("[1]")
    configs = {"slots": {"slots": "abc"}, "xml": {"format": "xml"}, "json": {"format": "json"},
               "seed": {"seed": -1}, "handler": {"handler": 1}}
    exp = '{"kind": "exp", "rate": 1.0}'
    for name, conf in configs.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(conf))
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


SRC = Path(__file__).resolve().parent.parent / "src"


def _batchq(code: str, argv: list[str]) -> subprocess.CompletedProcess:
    """Run ``code`` with ``argv`` in a fresh interpreter that imports this checkout's batchq."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC),
                                                                     os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, env=env,
                          timeout=120)


# perc simulate and queue with every estimate and scan forked into three
# shards, after a stdout write still in the pipe's buffer when the workers fork
FORKED_RUN = """
import os, sys
from batchq import percolation, queue_core
from batchq.cli import build_parser, run
percolation._SHARD_CELLS = 1
queue_core._SHARD_SLOTS = 1
os.sched_getaffinity = lambda pid: {0, 1, 2}
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


# the modules a command loaded, on stderr after the command's own output
LOADED = """
import sys
from batchq.cli import build_parser, run
code = run(sys.argv[1:])
sys.stderr.write(" ".join(m for m in ("multiprocessing", "concurrent.futures", "batchq.verify",
                                      "batchq.timeconstants", "batchq.stats",
                                      "batchq.queue_core", "batchq.tandem", "batchq.percolation")
                          if m in sys.modules))
sys.exit(code)
"""


@pytest.mark.parametrize("argv,loaded", [
    (["perc", "identity", *P, "--window", "20", "--instances", "3"],
     "batchq.queue_core batchq.percolation"),
    (["queue", *P, "--slots", "2000"], "batchq.queue_core"),
    (["tandem", *P, "--slots", "2000"], "batchq.queue_core batchq.tandem"),
    (["tc", "--variant", "exp", "--x", "3"], "batchq.timeconstants batchq.queue_core"),
    (["perc", "simulate", "--weights", '{"kind": "exp", "rate": 1.0}', "--x", "1", "--n", "10",
      "--replicas", "2"], "batchq.percolation"),
], ids=["perc-identity", "queue", "tandem", "tc", "perc-simulate"])
def test_commands_import_only_what_they_use(argv, loaded):
    res = _batchq(LOADED, argv)
    assert res.returncode == 0, res.stderr
    assert res.stderr.decode() == loaded


def test_import_batchq_loads_no_submodule():
    res = _batchq("import sys, batchq\nprint(sorted(m for m in sys.modules if m.startswith('batchq')))",
                  [])
    assert res.returncode == 0, res.stderr
    assert res.stdout.decode().strip() == "['batchq']"


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
