#!/usr/bin/env python3
"""Smoke test of the benchmark itself, at tiny problem sizes (about a minute).

Run from the root of a batchq checkout:

    python3 perfbench/smoke.py

It checks that every metric BENCHMARK.json names is emitted with its unit
(every workload with --trace 0, and the traced run), that two same-seed
runs give identical output digests, that a corrupted output is counted as
failed, that every per-layer metric has a row in predictions.json, and
that the benchmark refuses to run without the program's sources.  Exits 0
when all of it holds.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
from pathlib import Path

import run
import workloads

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
OUT = ROOT / ".perfbench_out"
SEED = 5

failures: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(("PASS " if ok else "FAIL ") + what, flush=True)
    if not ok:
        failures.append(what)


def bench(*args: str, cwd: Path = ROOT) -> tuple[int, dict | None]:
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--size", "tiny", "--seconds", "1", *args],
                          cwd=cwd, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    try:
        return proc.returncode, json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return proc.returncode, None


def digests(workload: str, trace: int = 0) -> list:
    rep = json.loads((OUT / f"{workload}-seed{SEED}-trace{trace}-tiny.json").read_text())
    return sorted({(r["metric"], r["stdout_sha256"], r["out_sha256"]) for c in rep["cycles"] for r in c})


def emits(result: dict | None, declared: list[dict]) -> bool:
    if result is None or not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
        return False
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    return got == {m["name"]: m["unit"] for m in declared} and all(
        isinstance(v["value"], (int, float)) and v["value"] > 0 for v in result["metrics"].values())


def corrupting(build):
    """``workloads.build``, but each op's check sees its primary output with the last bytes cut."""
    def cut(check):
        return lambda stdout, out: check(stdout, out[:-2]) if out is not None else check(stdout[:-2], out)

    def wrapped(*args, **kwargs):
        ops = build(*args, **kwargs)
        for op in ops:
            op.check = cut(op.check)
        return ops
    return wrapped


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for w in workloads.WORKLOADS:
        rc, first = bench("--workload", w, "--seed", str(SEED), "--trace", "0")
        expect(rc == 0 and emits(first, spec["end_to_end"]), f"{w}: every end-to-end metric emitted with its unit")
        d1 = digests(w)
        rc, _ = bench("--workload", w, "--seed", str(SEED), "--trace", "0")
        expect(rc == 0 and d1 == digests(w), f"{w}: output digests agree across two runs of seed {SEED}")
    rc, traced = bench("--workload", "lattice", "--seed", str(SEED), "--trace", "1")
    expect(rc == 0 and emits(traced, spec["per_layer"]), "traced run: every per-layer metric emitted with its unit")

    # damaged stdout (lattice) and damaged --out files (trace-io) both count as failed
    build = workloads.build
    workloads.build = corrupting(build)
    try:
        for w in ("lattice", "trace-io"):
            args = argparse.Namespace(workload=w, seed=SEED, seconds=1, trace=0, size="tiny")
            res = run.run_workload(ROOT, spec, args, nproc=1)
            expect(not res["correct"] and res["attempted"] >= 2 and res["failed"] == res["attempted"],
                   f"{w}: a corrupted output is counted as failed")
    finally:
        workloads.build = build

    table = json.loads((HERE / "predictions.json").read_text())
    predicted = {row["layer_metric"] for row in table["predictions"]}
    unexplained = {m["name"] for m in spec["per_layer"]} - predicted - {"env.calib_s", "trace.overhead_share"}
    expect(not unexplained, f"every per-layer metric has a prediction row (missing: {sorted(unexplained)})")
    expect(set(table["workloads"]) == {w["name"] for w in spec["workloads"]},
           "predictions.json describes exactly the workloads of BENCHMARK.json")

    bare = OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    rc, res = bench("--workload", "lattice", cwd=bare)
    shutil.rmtree(bare)
    expect(rc != 0 and res is None, "without the program's sources the benchmark exits nonzero, printing no result")

    print(f"{len(failures)} failed" if failures else "all smoke checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
