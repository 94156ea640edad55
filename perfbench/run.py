#!/usr/bin/env python3
"""batchq benchmark: closed-loop CLI workloads and a traced per-layer run.

Run from the root of a batchq checkout; it runs the checkout's ./src/batchq:

    python3 perfbench/run.py --workload lattice --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all          # every workload in turn

--trace 0: one client runs cycles of the workload's batchq commands as
subprocesses, one at a time (closed loop), checks every output and times
each command.  The last stdout line is a JSON object with the end-to-end
metrics named in BENCHMARK.json.

--trace 1: the same work runs in-process through each module's public
functions under spans (perfbench/layers.py); the last line carries the
per-layer metrics.  This run does a fixed amount of work and ignores
--seconds.

Either way a full report (environment, every sample, output digests,
computed work counts, spans) is written to .perfbench_out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Callable

import numpy as np

import layers
import workloads

SETUP_REPS = 5  # before the loop; measure() adds one after every command
CALIB_REPS = 3
DEADLINE_S = 170  # a run must end within 180 s; a hung batchq is killed before that


def _deadline(signum, frame):
    raise TimeoutError(f"perfbench: workload exceeded {DEADLINE_S} s")


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    return env


def run_code(code: str, env: dict, root: Path) -> str:
    """Run ``code`` in a fresh interpreter and return its stdout."""
    return subprocess.run([sys.executable, "-c", code], env=env, cwd=root, check=True,
                          capture_output=True, text=True, timeout=120).stdout


def setup_once(root: Path, env: dict, workload: str, seed: int, size: str, nproc: int,
               tmp: Path) -> tuple[float, list[workloads.Op]]:
    """A cold ``import batchq`` in a fresh interpreter plus the workload's preparation."""
    t = time.perf_counter()
    where = Path(run_code("import batchq; print(batchq.__file__)", env, root).strip())
    if where.parent != root / "src" / "batchq":
        raise RuntimeError(f"import batchq resolved to {where}, not this checkout")
    ops = workloads.build(workload, seed, size, nproc, tmp)
    return time.perf_counter() - t, ops


def calibrate() -> float:
    """Fixed interpreter-plus-numpy probe; explains host drift, never normalizes."""
    times = []
    for _ in range(CALIB_REPS):
        t = time.perf_counter()
        acc = 0
        for i in range(1_000_000):
            acc += i * i % 7
        np.sort(np.arange(2_000_000, dtype=float)[::-1])
        times.append(time.perf_counter() - t)
    return statistics.median(times)


def _blas_threads() -> int | None:
    """Thread count of numpy's bundled OpenBLAS, when it exposes one."""
    import ctypes
    libdir = Path(np.__file__).parent.parent / "numpy.libs"
    for lib in sorted(libdir.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            if hasattr(handle, sym):
                fn = getattr(handle, sym)
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(root: Path, nproc: int) -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    src = hashlib.sha256()
    for f in sorted((root / "src" / "batchq").glob("*.py")):
        src.update(f.name.encode() + b"\0" + f.read_bytes())
    sha = None
    if (root / ".git").exists():
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True).stdout.strip() or None
    return {"nproc": nproc, "cpu_count": os.cpu_count(), "cpu_model": cpu,
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}", "blas_threads": _blas_threads(),
            "blas_thread_env": {k: os.environ.get(k) for k in
                                ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
            "git_sha": sha, "src_sha256": src.hexdigest(), "platform": platform.platform()}


def run_op(op: workloads.Op, env: dict, root: Path, logdir: Path) -> dict:
    """Run one batchq command, wait for it, then check its output (outside the timing)."""
    so_path, se_path = logdir / "stdout", logdir / "stderr"
    with open(so_path, "wb") as so, open(se_path, "wb") as se:
        t = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "batchq.cli", *op.argv],
                                stdout=so, stderr=se, env=env, cwd=root)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - t
        proc.returncode = os.waitstatus_to_exitcode(status)
    stdout = so_path.read_bytes()
    out = op.out.read_bytes() if op.out is not None and op.out.exists() else None
    if op.out is not None and op.out.exists():
        op.out.unlink()
    rec = {"metric": op.metric, "wall_s": wall, "cpu_s": usage.ru_utime + usage.ru_stime,
           "rss_mb": usage.ru_maxrss / 1024.0,
           "returncode": proc.returncode, "error": None,
           "stdout_sha256": hashlib.sha256(stdout).hexdigest(),
           "out_sha256": None if out is None else hashlib.sha256(out).hexdigest(),
           "out_bytes": None if out is None else len(out)}
    if proc.returncode != 0:
        rec["error"] = f"exit {proc.returncode}: {se_path.read_text()[-500:]}"
    else:
        try:
            rec["error"] = op.check(stdout, out)
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            rec["error"] = f"unreadable output: {exc!r}"
    return rec


def cycle_order(ops: list[workloads.Op]) -> list[workloads.Op]:
    """One cycle: each command ``per_cycle`` times, round-robin, so repeats spread over the cycle."""
    return [op for i in range(max(op.per_cycle for op in ops)) for op in ops if i < op.per_cycle]


def measure(ops: list[workloads.Op], seconds: float, env: dict, root: Path, logdir: Path,
            between: Callable[[], object]) -> list[list[dict]]:
    """Closed loop: runs cycles of the workload's commands until the window is spent.

    A cycle starts while its expected end (the median cycle so far) falls
    within the window, so the loop lasts about the window even on a slow
    host.  ``between()`` runs after every command, outside its timing; it
    takes the set-up samples, which so spread over the window as well.
    Every cycle repeats the same argv, so every output must match the first
    correct one byte for byte.
    """
    cycles: list[list[dict]] = []
    lengths: list[float] = []
    reference: dict[str, tuple] = {}
    t0 = time.perf_counter()
    while True:
        start, cycle = time.perf_counter(), []
        for op in cycle_order(ops):
            rec = run_op(op, env, root, logdir)
            digest = (rec["stdout_sha256"], rec["out_sha256"])
            if rec["error"] is None and reference.setdefault(op.metric, digest) != digest:
                rec["error"] = "output bytes differ from an identical earlier run"
            cycle.append(rec)
            between()
        cycles.append(cycle)
        lengths.append(time.perf_counter() - start)
        if time.perf_counter() - t0 + statistics.median(lengths) > seconds:
            return cycles


def summarize(samples: list[float]) -> dict:
    """Median, sample count and the highest percentile with at least ten samples beyond it."""
    out = {"median": statistics.median(samples) if samples else None, "n": len(samples)}
    for pct in (99.9, 99.0, 95.0, 90.0, 75.0):
        if len(samples) * (1 - pct / 100) >= 10:
            out[f"p{pct:g}"] = float(np.percentile(samples, pct))
            break
    return out


def run_workload(root: Path, spec: dict, args, nproc: int) -> dict:
    env = child_env(root)
    outdir = root / ".perfbench_out"
    tmp = outdir / f"tmp-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    signal.signal(signal.SIGALRM, _deadline)
    signal.alarm(DEADLINE_S)
    try:
        setup = [setup_once(root, env, args.workload, args.seed, args.size, nproc, tmp)
                 for _ in range(SETUP_REPS)]
        ops = setup[-1][1]
        setup_s = [s for s, _ in setup]
        calib = calibrate()
        envr = environment(root, nproc)
        print(f"env: nproc {nproc}, {envr['cpu_model']}, python {envr['python']}, numpy {envr['numpy']}, "
              f"{envr['blas']} ({envr['blas_threads']} threads), git {envr['git_sha']}, "
              f"src sha256 {envr['src_sha256'][:12]}", flush=True)
        report = {"workload": args.workload, "seed": args.seed, "size": args.size,
                  "trace": args.trace, "seconds": args.seconds,
                  "environment": envr, "env.calib_s": calib,
                  "setup_s": {"samples": setup_s, **summarize(setup_s)},
                  "counts (computed)": {op.metric: op.counts for op in ops},
                  "argv": {op.metric: op.argv for op in ops},
                  "per_cycle": {op.metric: op.per_cycle for op in ops}}
        if args.trace:
            result = traced_run(root, spec, args, nproc, tmp, env, report)
        else:
            result = timed_run(root, spec, args, nproc, tmp, env, ops, report)
    finally:
        signal.alarm(0)
        shutil.rmtree(tmp, ignore_errors=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}" + ("" if args.size == "full" else f"-{args.size}")
    (outdir / f"{name}.json").write_text(json.dumps(report, indent=1, default=str) + "\n")
    return result


def timed_run(root, spec, args, nproc, tmp, env, ops, report) -> dict:
    warm = workloads.build(args.workload, args.seed, "tiny", nproc, tmp)[0]
    warm_rec = run_op(warm, env, root, tmp)  # untimed warm-up: page cache, imports
    setup_s = report["setup_s"]["samples"]
    cycles = measure(ops, args.seconds, env, root, tmp, lambda: setup_s.append(
        setup_once(root, env, args.workload, args.seed, args.size, nproc, tmp)[0]))
    records = [warm_rec] + [r for c in cycles for r in c]
    failed = sum(1 for r in records if r["error"] is not None)
    # A failed command is never timed as a success.  When none of a
    # command's runs passed (the program fails on this seed) its time is
    # still reported, and the result says "correct": false.
    per_op = {}
    for op in ops:
        recs = [r for c in cycles for r in c if r["metric"] == op.metric]
        passed = [r["wall_s"] for r in recs if r["error"] is None]
        per_op[op.metric] = {**summarize(passed or [r["wall_s"] for r in recs]),
                             "timed": "passed runs" if passed else "all runs, none passed",
                             "per_cycle": op.per_cycle}
    # one cycle's time, built from each command's median
    cycle_s = sum(s["per_cycle"] * s["median"] for s in per_op.values())
    for s in per_op.values():
        s["share"] = s["per_cycle"] * s["median"] / cycle_s
    summary = {"cycle_s": {"median": cycle_s, "n": len(cycles)}, **per_op,
               "setup_s": {"samples": setup_s, **summarize(setup_s)},
               "peak_rss_mb": {"max": max(r["rss_mb"] for r in records), "n": len(records)}}
    report.update(warmup=warm_rec, cycles=cycles, summary=summary, setup_s=summary["setup_s"],
                  failed_ratio=failed / len(records),
                  errors=[r["error"] for r in records if r["error"] is not None])
    values = {"cycle_s": cycle_s, "setup_s": summary["setup_s"]["median"],
              "peak_rss_mb": summary["peak_rss_mb"]["max"]}
    lines = [f"{args.workload} seed {args.seed}: {len(cycles)} cycles, {len(records)} operations "
             f"(1 untimed warm-up), {failed} failed, failed_ratio {failed / len(records):g}"]
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    for key, s in summary.items():
        stat = "max" if "max" in s else "median"
        if key == "cycle_s":
            how = f"sum of command medians x per-cycle counts, {s['n']} cycles"
        else:
            how = f"{stat} of {s['n']}" + "".join(f", {k} {v:.4f}" for k, v in s.items() if k[0] == "p" and k[1].isdigit())
            if "share" in s:
                how += f", {s['per_cycle']} per cycle, {s['share']:.0%} of cycle_s"
        lines.append(f"  {key:<16} {s[stat]:>10.4f} {units.get(key, 's'):<5} ({how})")
    lines.append(f"  {'env.calib_s':<16} {report['env.calib_s']:>10.4f} s     (calibration probe)")
    for r in report["errors"]:
        lines.append(f"  FAILED: {r}")
    print("\n".join(lines), flush=True)
    return finish(spec["end_to_end"], values, len(records), failed)


def traced_run(root, spec, args, nproc, tmp, env, report) -> dict:
    sys.path.insert(0, str(root / "src"))
    import batchq
    if Path(batchq.__file__).parent != root / "src" / "batchq":
        raise RuntimeError(f"import batchq resolved to {batchq.__file__}, not this checkout")
    metrics, attempted, errors, spans = layers.run_layers(
        args.seed, args.size, nproc, tmp, lambda code: run_code(code, env, root))
    metrics["env.calib_s"] = report["env.calib_s"]
    report.update(layer_metrics=metrics, errors=errors, spans=spans)
    width = max(map(len, metrics))
    print(f"{args.workload} seed {args.seed} (traced, {len(spans)} spans): "
          f"{attempted} checks, {len(errors)} failed", flush=True)
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    for k, v in metrics.items():
        print(f"  {k:<{width}} {v:14.6g} {units.get(k, '?')}")
    for e in errors:
        print(f"  FAILED: {e}")
    return finish(spec["per_layer"], metrics, attempted, len(errors))


def finish(declared: list[dict], values: dict, attempted: int, failed: int) -> dict:
    names = [m["name"] for m in declared]
    if sorted(names) != sorted(values):
        raise RuntimeError(f"emitted metrics {sorted(values)} differ from BENCHMARK.json {sorted(names)}")
    return {"correct": failed == 0 and all(values[n] is not None for n in names),
            "attempted": attempted, "failed": failed,
            "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None,
                    help="measurement window per workload (default: run_seconds of BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=tuple(workloads.SIZES), default="full",
                    help="problem sizes; 'tiny' is for perfbench/smoke.py")
    args = ap.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "batchq" / "__init__.py").is_file() or not (root / "BENCHMARK.json").is_file():
        sys.stderr.write("perfbench: run from the root of a batchq checkout "
                         "(needs src/batchq and BENCHMARK.json)\n")
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text())
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else (os.cpu_count() or 1)
    if args.workload != "all":
        names = (args.workload,)
    else:  # the traced run does the same work on every workload, so it runs once
        names = workloads.WORKLOADS[:1] if args.trace else workloads.WORKLOADS
    results = {}
    for name in names:
        args.workload = name
        results[name] = run_workload(root, spec, args, nproc)
    if len(results) == 1:
        result = results[names[0]]
    else:
        result = {"correct": all(r["correct"] for r in results.values()),
                  "attempted": sum(r["attempted"] for r in results.values()),
                  "failed": sum(r["failed"] for r in results.values()),
                  "metrics": {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()}}
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
