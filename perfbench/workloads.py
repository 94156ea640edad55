"""The closed-loop workloads: batchq argv, output checks, work counts.

Each operation is one ``batchq`` command.  Its check reads the command's
stdout and ``--out`` bytes and returns an error text, or None when the
output is correct.  Work counts are computed from the inputs alone (they
are labelled "computed" in the report); nothing here runs the program.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

# the README queue parameters: (p, alpha, q, beta) on the reversibility curve
P = ["--p", "0.3333333", "--alpha", "0.6666667", "--q", "0.5", "--beta", "0.5"]
QUEUE_HEADER = b"n,A,S,X,Y,D,U,I,T\n"
PERC_HEADER = "x,N,mean,ci_lo,ci_hi,replicas,seed"

WORKLOADS = ("lattice", "trace-io")

# problem sizes; "tiny" is for the benchmark's own smoke test
SIZES = {
    "full": {"perc_x": (1.0, 4.0, 0.5), "perc_n": 400, "perc_replicas": 100,
             "id_window": 1000, "id_instances": 3, "queue_out_slots": 1_000_000,
             "tandem_slots": 200_000, "queue_sim_slots": 10_000_000},
    "tiny": {"perc_x": (3.0, 3.0, 0.5), "perc_n": 200, "perc_replicas": 10,
             "id_window": 50, "id_instances": 5, "queue_out_slots": 20_000,
             "tandem_slots": 5_000, "queue_sim_slots": 100_000},
}

Check = Callable[[bytes, "bytes | None"], "str | None"]


@dataclass
class Op:
    """One batchq command, named by the end-to-end metric that times it.

    ``per_cycle`` is how often the command runs in one cycle of its workload.
    The counts are chosen so that each command is a comparable share of the
    cycle, so a slower command moves the cycle time by its share.
    """

    metric: str
    argv: list[str]
    check: Check
    counts: dict = field(default_factory=dict)
    out: Path | None = None
    per_cycle: int = 1


def f_exponential(x: float) -> float:
    """Time constant for Exp(1) site weights, (sqrt(1+x) - 1)**2 (the paper's closed form)."""
    return (math.sqrt(1.0 + x) - 1.0) ** 2


def _grid(lo: float, hi: float, step: float) -> list[float]:
    n = int(round((hi - lo) / step))
    return [lo + i * step for i in range(n + 1)]


def _json(stdout: bytes) -> dict:
    return json.loads(stdout.decode())


def _check_perc_simulate(xs: list[float], n: int, replicas: int, seed: int) -> Check:
    def check(stdout, out):
        lines = stdout.decode().splitlines()
        if not lines or lines[0] != PERC_HEADER:
            return "perc simulate: wrong CSV header"
        if len(lines) != len(xs) + 1:
            return f"perc simulate: {len(lines) - 1} rows, expected {len(xs)}"
        for x, line in zip(xs, lines[1:]):
            cols = line.split(",")
            if len(cols) != 7:
                return f"perc simulate: malformed row {line!r}"
            gx, gn, mean, lo, hi, reps, gseed = cols
            if abs(float(gx) - x) > 1e-12 or int(gn) != n or int(reps) != replicas or int(gseed) != seed:
                return f"perc simulate: row does not echo its inputs: {line!r}"
            f = f_exponential(x)
            mean, lo, hi = float(mean), float(lo), float(hi)
            if not lo <= mean <= hi:
                return f"perc simulate: mean outside its CI at x={x}"
            if lo < f:
                return f"perc simulate: ci_lo {lo} below f({x}) = {f}"
            if abs(mean - f) > 0.1 * f:
                return f"perc simulate: mean {mean} not within 10% of f({x}) = {f}"
        return None
    return check


def _check_identity(stages: int, window: int, instances: int) -> Check:
    def check(stdout, out):
        rep = _json(stdout)
        if rep.get("all_equal") is not True or rep.get("failures") != 0:
            return f"perc identity: {rep.get('failures')} unequal instances"
        if (rep.get("stages"), rep.get("window"), rep.get("instances")) != (stages, window, instances):
            return "perc identity: report does not echo its inputs"
        return None
    return check


def tandem_header(stages: int) -> bytes:
    cols = ["n", "A"] + [f"X{r}" for r in range(1, stages + 1)] + [f"D{r}" for r in range(1, stages + 1)]
    return ",".join(cols).encode() + b"\n"


def csv_error(out: bytes | None, header: bytes, slots: int) -> str | None:
    """A trace CSV has the documented header and one line per slot."""
    if out is None or not out.startswith(header):
        return "trace CSV: missing or wrong header"
    lines = out.count(b"\n")
    if lines != slots + 1 or not out.endswith(b"\n"):
        return f"trace CSV: {lines} lines, expected {slots + 1}"
    return None


def _check_trace_csv(header: bytes, slots: int) -> Check:
    def check(stdout, out):
        if _json(stdout).get("slots") != slots:
            return "summary does not echo --slots"
        return csv_error(out, header, slots)
    return check


def _check_queue_sim(slots: int) -> Check:
    def check(stdout, out):
        rep = _json(stdout)
        if rep.get("slots") != slots:
            return "summary does not echo --slots"
        got, want = rep["empirical"]["mean_x"], rep["stationary"]["mean_x"]
        if abs(got - want) > 0.1 * want:
            return f"queue: mean_x {got} not within 10% of the stationary {want}"
        return None
    return check


def build(workload: str, seed: int, size: str, nproc: int, tmp: Path) -> list[Op]:
    """The commands of one workload cycle."""
    z = SIZES[size]
    s = str(seed)
    if workload == "lattice":
        lo, hi, step = z["perc_x"]
        xs = _grid(lo, hi, step)
        n, reps = z["perc_n"], z["perc_replicas"]
        cols = sum(math.floor(x * n) + 1 for x in xs)
        w, inst, stages = z["id_window"], z["id_instances"], 4
        return [
            Op("perc_simulate_s",
               ["perc", "simulate", "--weights", '{"kind": "exp", "rate": 1.0}',
                "--x", f"{lo:g}:{hi:g}:{step:g}", "--n", str(n), "--replicas", str(reps),
                "--seed", s, "--threads", str(min(2, nproc))],
               _check_perc_simulate(xs, n, reps, seed),
               {"values_drawn": (n + 1) * cols * reps, "lattice_cells": (n + 1) * cols * reps,
                "sample_n_calls": cols * reps}),
            Op("perc_identity_s",
               ["perc", "identity", *P, "--stages", str(stages), "--window", str(w),
                "--instances", str(inst), "--seed", s],
               _check_identity(stages, w, inst),
               {"values_drawn": inst * w * (stages + 1),
                "identity_sweep_cells": inst * stages * w * (w + 1) // 2,
                "tandem_stage_slots": inst * stages * w}, per_cycle=2),
        ]
    if workload == "trace-io":
        q, t, qs = z["queue_out_slots"], z["tandem_slots"], z["queue_sim_slots"]
        stages = 4
        q_out, t_out = tmp / "queue.csv", tmp / "tandem.csv"
        return [
            Op("queue_out_s", ["queue", *P, "--slots", str(q), "--seed", s, "--out", str(q_out)],
               _check_trace_csv(QUEUE_HEADER, q),
               {"slots": q, "values_drawn": 2 * q, "csv_rows": q}, q_out),
            Op("tandem_out_s", ["tandem", *P, "--stages", str(stages), "--slots", str(t),
                                "--seed", s, "--out", str(t_out)],
               _check_trace_csv(tandem_header(stages), t),
               {"slots": t, "stage_slots": stages * t, "values_drawn": (stages + 1) * t,
                "csv_rows": t}, t_out, per_cycle=3),
            Op("queue_sim_s", ["queue", *P, "--slots", str(qs), "--seed", s],
               _check_queue_sim(qs), {"slots": qs, "values_drawn": 2 * qs}, per_cycle=3),
        ]
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
