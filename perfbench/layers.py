"""Traced in-process run: the workloads' work through each module's public functions.

Every probe calls a public function of one batchq module (private kernels
are reached through the public call that wraps them: ``_lindley`` through
``queue_core.simulate``, ``_sweep`` through ``percolation.first_passage``
and ``percolation.estimate_time_constant``).  Each call sits in a span
(name, start, end, parent, computed work counts) kept in memory; the
per-layer metrics are derived from the spans, and the spans are written
out when the run ends.  The verify layer is timed family by family, by
calling the ``check_*`` functions of the families that pass on every seed
(see FAMILIES).
"""

from __future__ import annotations

import math
import statistics
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Callable

from workloads import QUEUE_HEADER, csv_error, tandem_header

# The verify check families whose checks are exact properties (identities,
# theorems, closed forms), so they pass on every seed: name -> (the substream
# index verify._suite_checks derives the family's seed from, or None when it
# takes no seed; the number of checks it returns).  The statistical families
# and percolation_sim are left out: verify --suite all fails on about 16 % of
# seeds (a known defect of the suite), and a benchmark run must pass on every seed.
FAMILIES = {"detailed_balance": (None, 2), "stationary_oracle": (None, 2),
            "general_service_ratios": (None, 3), "percolation_exact": (7, 5),
            "identity": (8, 1), "timeconstants": (None, 14)}

# (repetitions, sizes) per probe; "tiny" is for the benchmark's own smoke test
SIZES = {
    "full": {"reps": 3, "exp_calls": 20_000, "bg_calls": 5, "sim_slots": 1_000_000,
             "csv_rows": 200_000, "tandem_slots": 1_000_000, "est_n": 400, "est_replicas": 100,
             "w50_instances": 250, "w1000_instances": 2, "enum_reps": 10, "fp_reps": 5,
             "curve_reps": 5},
    "tiny": {"reps": 1, "exp_calls": 500, "bg_calls": 1, "sim_slots": 100_000,
             "csv_rows": 5_000, "tandem_slots": 120_000, "est_n": 200, "est_replicas": 10,
             "w50_instances": 20, "w1000_instances": 1, "enum_reps": 2, "fp_reps": 1,
             "curve_reps": 1},
}

IMPORT_PROBE = ("import time; t = time.perf_counter(); import batchq.cli; "
                "print(time.perf_counter() - t)")
FIRST_CALL_PROBE = (
    "import time\n"
    "from batchq.queue_core import markov_oracle\n"
    "from batchq.verify import CONDITION_SETS\n"
    "p = CONDITION_SETS[0]\n"
    "t = time.perf_counter()\n"
    "pi = markov_oracle(p.arrival_spec, p.service_spec, K=200)\n"
    "print(time.perf_counter() - t, float(pi.sum()))\n"
)


class Tracer:
    """In-memory spans with parent links; one open-span stack, main thread only."""

    def __init__(self):
        self.spans: list[dict] = []
        self._open: list[dict] = []

    @contextmanager
    def span(self, name: str, **counts):
        rec = {"id": len(self.spans), "name": name,
               "parent": self._open[-1]["id"] if self._open else None,
               "start": 0.0, "end": 0.0, "counts": counts}
        self.spans.append(rec)
        self._open.append(rec)
        rec["start"] = time.perf_counter()
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._open.pop()


def dur(rec: dict) -> float:
    return rec["end"] - rec["start"]


def span_cost_s(n: int = 20_000) -> float:
    """Wall time of one empty span, measured on a throwaway tracer."""
    tr = Tracer()
    t = time.perf_counter()
    for _ in range(n):
        with tr.span("x"):
            pass
    return (time.perf_counter() - t) / n


def run_layers(seed: int, size: str, nproc: int, tmp: Path,
               child: Callable[[str], str]) -> tuple[dict, int, list[str], list[dict]]:
    """Run every probe once; returns (metrics, attempted, errors, spans).

    ``child(code)`` runs ``code`` in a fresh interpreter that imports the
    checkout's batchq and returns its stdout.
    """
    import numpy as np
    from batchq import distributions as dist
    from batchq import percolation as perc
    from batchq import queue_core, stats, tandem, verify
    from batchq import timeconstants as tc
    from batchq.streams import RandomStream

    z = SIZES[size]
    tr = Tracer()
    m: dict[str, float] = {}
    errors: list[str] = []
    attempted = 0
    root = RandomStream(seed)

    def expect(ok: bool, what: str) -> None:
        nonlocal attempted
        attempted += 1
        if not ok:
            errors.append(what)

    def timed(name: str, reps: int, fn: Callable, **counts) -> tuple[float, object]:
        """Median span duration of ``reps`` calls of ``fn``; returns it and the last result."""
        times, out = [], None
        for _ in range(reps):
            with tr.span(name, **counts) as rec:
                out = fn()
            times.append(dur(rec))
        return statistics.median(times), out

    params = queue_core.QueueParams(p=0.3333333, alpha=0.6666667, q=0.5, beta=0.5)
    start = time.perf_counter()

    # cli: a cold import in a fresh interpreter, paid by every batchq command
    with tr.span("cli.import", reps=3):
        m["cli.import_s"] = statistics.median(float(child(IMPORT_PROBE)) for _ in range(3))
    # queue_core.markov_oracle: the OpenBLAS cold first call, reported on its own
    with tr.span("queue_core.markov_oracle.first_call", K=200):
        first_s, total = (float(v) for v in child(FIRST_CALL_PROBE).split())
    m["queue_core.markov_oracle.first_call_s"] = first_s
    expect(abs(total - 1.0) < 1e-9, "markov_oracle first call: pmf does not sum to 1")

    # verify: the families whose verdict must hold on every seed, each called
    # with the seed run_suite("all", seed) gives it
    sets = verify.CONDITION_SETS
    queue_core.markov_oracle(sets[0].arrival_spec, sets[0].service_spec, K=200)  # warm BLAS
    for family, (index, n_checks) in FAMILIES.items():
        fn = getattr(verify, "check_" + family)
        args = () if index is None else (root.substream(index).seed,)
        with tr.span("verify." + family, seed=args[0] if args else None) as rec:
            checks = fn(*args)
        m[f"verify.{family}.s"] = dur(rec)
        failed = [c["name"] for c in checks if not c["passed"]]
        expect(len(checks) == n_checks and not failed,
               f"verify.check_{family}: {len(checks)} checks (expected {n_checks}), failed {failed}")

    # queue_core
    m["queue_core.markov_oracle.s"], pis = timed(
        "queue_core.markov_oracle", z["reps"],
        lambda: [queue_core.markov_oracle(p.arrival_spec, p.service_spec, K=200) for p in sets],
        sets=len(sets), K=200)
    expect(all(abs(float(pi.sum()) - 1.0) < 1e-9 for pi in pis), "markov_oracle: pmf does not sum to 1")

    n = z["sim_slots"]
    st = root.substream(2)
    t, trace = timed("queue_core.simulate", z["reps"],
                     lambda: queue_core.simulate(params.arrival_spec, params.service_spec, n, stream=st),
                     slots=n, values_drawn=2 * n)
    m["queue_core.simulate.slots_per_s"] = n / t
    expect(_no_value_error(trace.check_invariants), "simulate: trace invariants violated")
    rows = z["csv_rows"]
    small = queue_core.simulate(params.arrival_spec, params.service_spec, rows, stream=root.substream(3))
    path = tmp / "layer_queue.csv"
    t, _ = timed("queue_core.Trace.to_csv", 1, lambda: small.to_csv(path), csv_rows=rows)
    m["queue_core.Trace.to_csv.rows_per_s"] = rows / t
    expect(_csv_ok(path, QUEUE_HEADER, rows), "Trace.to_csv: wrong header or line count")

    # tandem
    cfg = tandem.TandemConfig.bergeom(params, 4)
    n = z["tandem_slots"]
    t, tt = timed("tandem.simulate_tandem", 1,
                  lambda: tandem.simulate_tandem(cfg, n, stream=root.substream(4)),
                  stage_slots=4 * n, values_drawn=5 * n)
    m["tandem.simulate_tandem.stage_slots_per_s"] = 4 * n / t
    expect(_no_value_error(tt.check_feed_forward), "simulate_tandem: feed-forward violated")
    m["tandem.verify_product_form.s"], res = timed(
        "tandem.verify_product_form", 1,
        lambda: tandem.verify_product_form(tt, burn_in=10_000, level=0.01, stride=9), slots=n)
    expect(bool(res) and all(0.0 <= r.p_value <= 1.0 for r in res), "verify_product_form: bad p-values")
    del tt
    small = tandem.simulate_tandem(cfg, rows, stream=root.substream(5))
    path = tmp / "layer_tandem.csv"
    t, _ = timed("tandem.TandemTrace.to_csv", 1, lambda: small.to_csv(path), csv_rows=rows)
    m["tandem.TandemTrace.to_csv.rows_per_s"] = rows / t
    expect(_csv_ok(path, tandem_header(4), rows), "TandemTrace.to_csv: wrong header or line count")

    # distributions
    exp1, calls = dist.exponential(1.0), z["exp_calls"]
    st = root.substream(6)
    t, v = timed("distributions.sample_n.exp.n401", 1,
                 lambda: _repeat(lambda: dist.sample_n(exp1, st, 401), calls),
                 calls=calls, values_drawn=401 * calls)
    m["distributions.sample_n.exp.n401.values_per_s"] = 401 * calls / t
    expect(v.shape == (401,) and float(v.min()) >= 0.0, "sample_n exp: wrong shape or support")
    bg, calls = dist.ber_geom(1 / 3, 2 / 3), z["bg_calls"]
    t, v = timed("distributions.sample_n.ber_geom.n1e6", 1,
                 lambda: _repeat(lambda: dist.sample_n(bg, st, 1_000_000), calls),
                 calls=calls, values_drawn=1_000_000 * calls)
    m["distributions.sample_n.ber_geom.n1e6.values_per_s"] = 1_000_000 * calls / t
    expect(v.dtype == np.int64 and int(v.min()) >= 0 and abs(float(v.mean()) - 0.5) < 0.01,
           "sample_n ber_geom: wrong dtype, support or mean")

    # percolation
    en, er = z["est_n"], z["est_replicas"]
    cells = (en + 1) * (math.floor(3.0 * en) + 1) * er
    st = root.substream(7)
    t1, e1 = timed("percolation.estimate_time_constant.threads1", 1,
                   lambda: perc.estimate_time_constant(exp1, 3.0, en, er, st, threads=None),
                   lattice_cells=cells, threads=1)
    tn, e_n = timed("percolation.estimate_time_constant.threads_nproc", 1,
                    lambda: perc.estimate_time_constant(exp1, 3.0, en, er, st, threads=nproc),
                    lattice_cells=cells, threads=nproc)
    m["percolation.estimate_time_constant.cells_per_s.threads1"] = cells / t1
    m["percolation.estimate_time_constant.cells_per_s.threads_nproc"] = cells / tn
    m["percolation.estimate_time_constant.thread_speedup"] = t1 / tn
    expect(e1 == e_n, "estimate_time_constant: result depends on the thread count")
    expect(abs(e1.mean - 1.0) <= 0.1, f"estimate_time_constant: mean {e1.mean} not within 10% of f(3) = 1")

    a50, s50 = dist.ber_geom(1 / 3, 2 / 3), dist.ber_geom(1 / 2, 1 / 2)
    k = z["w50_instances"]
    st = root.substream(8)
    t, eq = timed("percolation.tandem_identity_check.w50", 1,
                  lambda: [perc.tandem_identity_check(a50, [s50] * (1 + i % 4), 50, st.substream(i)).equal
                           for i in range(k)],
                  instances=k, identity_sweep_cells=sum((1 + i % 4) * 50 * 51 // 2 for i in range(k)))
    m["percolation.tandem_identity_check.w50.instances_per_s"] = k / t
    expect(all(eq), "tandem_identity_check w50: unequal instance")
    k = z["w1000_instances"]
    t, eq = timed("percolation.tandem_identity_check.w1000", 1,
                  lambda: [perc.tandem_identity_check(params.arrival_spec, [params.service_spec] * 4,
                                                      1000, st.substream(10_000 + i)).equal
                           for i in range(k)],
                  instances=k, identity_sweep_cells=k * 4 * 1000 * 1001 // 2)
    m["percolation.tandem_identity_check.w1000.instances_per_s"] = k / t
    expect(all(eq), "tandem_identity_check w1000: unequal instance")

    field = perc.WeightField(np.floor(root.substream(9).uniforms(64) * 6).reshape(8, 8))
    free = perc.PathQuery((0, 0), (7, 7), pinned=False)
    paths = math.comb(8 + 8 - 1, 8 - 1)
    t, brute = timed("percolation.enumerate_first_passage", 1,
                     lambda: _repeat(lambda: perc.enumerate_first_passage(field, free), z["enum_reps"]),
                     paths=paths * z["enum_reps"])
    m["percolation.enumerate_first_passage.paths_per_s"] = paths * z["enum_reps"] / t
    expect(brute == perc.first_passage(field, free), "first_passage disagrees with brute force")
    big = perc.WeightField(dist.sample_n(exp1, root.substream(10), 401 * 1201).reshape(401, 1201))
    corner = perc.PathQuery((0, 0), (1200, 400))
    reps = z["fp_reps"]
    t, fp = timed("percolation.first_passage", 1,
                  lambda: _repeat(lambda: perc.first_passage(big, corner), reps),
                  lattice_cells=401 * 1201 * reps)
    m["percolation.first_passage.cells_per_s"] = 401 * 1201 * reps / t
    expect(0.8 < fp / 400 < 1.2, f"first_passage: F/N = {fp / 400} far from f(3) = 1")

    # timeconstants
    xs = [0.5 + 0.25 * i for i in range(23)]
    reps = z["curve_reps"]
    t, cur = timed("timeconstants.curve", 1,
                   lambda: _repeat(lambda: tc.curve("ber_geom", {"q": 0.5, "beta": 0.5}, xs), reps),
                   points=len(xs) * reps)
    m["timeconstants.curve.points_per_s"] = len(xs) * reps / t
    fs = [p.f for p in cur.points]
    expect(min(fs) >= 0.0 and all(b >= a for a, b in zip(fs, fs[1:])),
           "curve: negative or decreasing values")

    # stats
    ref = dist.ber_geom(1 / 3, 2 / 3)
    emp = stats.EmpiricalPmf.from_samples(dist.sample_n(ref, root.substream(11), 1_000_000), cutoff=25)
    # per-call seconds, from the median of blocks of calls (one call is well under a millisecond)
    t, r = timed("stats.chi_square_gof", z["reps"],
                 lambda: _repeat(lambda: stats.chi_square_gof(emp, lambda k_: dist.pmf(ref, k_)), 20),
                 calls=20, samples=1_000_000)
    m["stats.chi_square_gof.s"] = t / 20
    expect(0.0 <= r.p_value <= 1.0, "chi_square_gof: p-value outside [0, 1]")
    z1 = dist.sample_n(ref, root.substream(12), 200_000)
    z2 = dist.sample_n(ref, root.substream(13), 200_000)
    t, r = timed("stats.independence_chi2", z["reps"],
                 lambda: _repeat(lambda: stats.independence_chi2(z1, z2, 8, 8), 10),
                 calls=10, pairs=200_000)
    m["stats.independence_chi2.s"] = t / 10
    expect(0.0 <= r.p_value <= 1.0, "independence_chi2: p-value outside [0, 1]")

    # tracing overhead: measured cost of one span times the spans recorded, over the traced time
    m["trace.overhead_share"] = span_cost_s() * len(tr.spans) / (time.perf_counter() - start)
    return m, attempted, errors, tr.spans


def _repeat(fn: Callable, n: int):
    """Call ``fn`` ``n`` times; return the last result."""
    for _ in range(n):
        out = fn()
    return out


def _no_value_error(fn: Callable) -> bool:
    try:
        fn()
    except ValueError:
        return False
    return True


def _csv_ok(path: Path, header: bytes, rows: int) -> bool:
    data = path.read_bytes()
    path.unlink()
    return csv_error(data, header, rows) is None
