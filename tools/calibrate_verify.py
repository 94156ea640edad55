#!/usr/bin/env python3
"""Calibrate verify's checks: run chosen families over a range of suite seeds.

Run from the root of a checkout (or after ``pip install -e .``):

    PYTHONPATH=src python3 tools/calibrate_verify.py --families tandem --seeds 1:400 --out tandem.json

``--families`` names rows of ``verify.FAMILIES``; ``--seeds lo:hi`` runs
suite seeds lo..hi, both included, in [0, 2**64).  Each family runs on the seed that
``batchq verify --seed s`` gives it, so that command reproduces any failure
listed here.  A check fails at a seed when its ``passed`` is false as
``verify.run_family`` grades it: an exact check against its threshold, a
statistical check at p < 0.01 (before the suite's Bonferroni correction),
and a family that raises as one failed check.  The JSON gives, per check, its runs, the
seeds where it failed and its rejection rate; a statistical check also gets
the KS p-value of its p-values against U(0, 1), which are uniform when the
check is calibrated.  An exact check whose requirement is an upper bound also
gets its largest observed value (``max_observed``) and its ``headroom``: the
smallest threshold / observed over the runs, which for a fixed threshold is the
threshold over ``max_observed``; null when every value is 0, and 0 when a value
is NaN.  The graded checks are verify's own: this tool changes
none of them.  The seed range splits into contiguous spans, at most one per
usable CPU, run on forked workers (``batchq.workers``); the records join in
seed order, so the report is the same for any worker count.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from itertools import chain

from batchq import verify
from batchq.stats import ks_test
from batchq.streams import check_seed
from batchq.workers import fork_map, shard_spans

LEVEL = 0.01  # run_family's level for a statistical check


def _run(families: list[str], seeds: range) -> list[tuple[int, str, list[dict]]]:
    """Every family's checks at every seed, in seed order."""
    return [(seed, family, verify.run_family(family, seed)) for seed in seeds
            for family in families]


def calibrate(families: list[str], seeds: range) -> list[dict]:
    records, p_values = {}, {}
    spans = shard_spans(len(seeds), len(seeds), 1)
    runs = fork_map(_run, [(families, seeds[lo:hi]) for lo, hi in spans])
    for seed, family, checks in chain.from_iterable(runs):
        for c in checks:
            key = (family, c["name"])
            rec = records.setdefault(key, {"family": family, "name": c["name"],
                                           "kind": c["kind"], "runs": 0, "failed_seeds": []})
            rec["runs"] += 1
            if c["kind"] == "stat":
                p_values.setdefault(key, []).append(c["observed"])
            if c["kind"] == "exact" and c["requirement"].startswith("<= "):
                obs, bound = c["observed"], float(c["requirement"][3:])
                rec["max_observed"] = max(rec.get("max_observed", obs), obs,
                                          key=lambda v: math.inf if math.isnan(v) else v)
                room = 0.0 if math.isnan(obs) else math.inf if obs == 0 else bound / obs
                rec["headroom"] = min(rec.get("headroom", math.inf), room)
            if not c["passed"]:
                rec["failed_seeds"].append(seed)
                print(f"seed {seed}: {family}.{c['name']} failed", file=sys.stderr)
    for key, rec in records.items():
        rec["rejection_rate"] = len(rec["failed_seeds"]) / rec["runs"]
        if rec.get("headroom") == math.inf:
            rec["headroom"] = None
        if key in p_values:
            rec["ks_p_value"] = ks_test(p_values[key], lambda u: min(1.0, max(0.0, u))).p_value
    return list(records.values())


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--families", required=True,
                        help="comma-separated family names from verify.FAMILIES")
    parser.add_argument("--seeds", required=True, help="lo:hi, both included")
    parser.add_argument("--out", required=True, help="JSON report path")
    args = parser.parse_args(argv)
    families = list(dict.fromkeys(args.families.split(",")))
    known = [family for family, _, _ in verify.FAMILIES]
    unknown = [f for f in families if f not in known]
    if unknown:
        parser.error(f"unknown families {unknown}; choose from {known}")
    try:  # the seeds of batchq verify --seed
        lo, hi = (check_seed(int(v)) for v in args.seeds.split(":"))
    except ValueError as exc:
        parser.error(f"--seeds must be lo:hi, two seeds, got {args.seeds!r}: {exc}")
    if lo > hi:
        parser.error(f"--seeds needs lo <= hi, got {args.seeds!r}")
    checks = calibrate(families, range(lo, hi + 1))
    report = {"families": families, "seeds": [lo, hi], "level": LEVEL, "checks": checks}
    with open(args.out, "w") as f:
        json.dump(report, f, indent=1)
        f.write("\n")
    for c in checks:
        ks = f", KS p {c['ks_p_value']:.3g}" if "ks_p_value" in c else ""
        room = ""
        if "headroom" in c:
            h = "none" if c["headroom"] is None else f"{c['headroom']:.3g}"
            room = f", max {c['max_observed']:.3g}, headroom {h}"
        print(f"{c['family']}.{c['name']}: {len(c['failed_seeds'])}/{c['runs']} failed{ks}{room}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
