#!/usr/bin/env python3
"""Mutation harness: check that the tests kill each named mutant of the library.

Run from the root of a checkout:

    python3 tools/mutants.py --out mutants.json

A mutant is one exact text substitution in one file of ``src/batchq``.  It
is refused, with exit 2 before anything runs, unless its pattern occurs
exactly once in that file and its test files exist.  Each mutant runs in
its own temporary copy of ``src/``, ``tests/`` and ``tools/``, never in
the checkout: pytest runs, with ``-x``, the mutated module's test file
(``tests/test_<module>.py``, or the files the mutant names) and
``tests/test_acceptance.py``, and the mutant is killed when they fail or
time out.  The unmutated copy must pass every one of those files first,
or the tool exits 2.  The JSON lists, per mutant, its name, file, whether
it was killed, the tests that failed and the seconds it took; the tool
exits 1 if a mutant survived.  A survivor gets a new test, or an argument
that it is equivalent; no tolerance is loosened to kill one.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT_S = 900


class Mutant(NamedTuple):
    name: str
    module: str  # a file of src/batchq
    pattern: str
    replacement: str
    tests: tuple[str, ...] = ()  # test files to run, if not tests/test_<module>.py


MUTANTS = [
    # the window-maximum oracle
    Mutant("path_max_without_reversal", "queue_core.py",
           "np.cumsum((a - s)[::-1])", "np.cumsum(a - s)"),
    Mutant("path_max_without_clamp", "queue_core.py",
           ".max(initial=0).item()", ".max().item()"),
    # the trace invariants
    Mutant("invariant_tolerance_times_1e6", "queue_core.py",
           "tol = 8 * np.finfo(float).eps", "tol = 8e6 * np.finfo(float).eps"),
    Mutant("no_nonnegative_x_check", "queue_core.py",
           "if not np.all(x >= 0):", "if False:"),
    # the slot engine
    Mutant("empty_series_accepted", "queue_core.py",
           "if not services:", "if False:"),
    # one copy of each rule and formula
    Mutant("pinned_refusal_dropped_from_validate", "percolation.py",
           "if self.pinned and i == k and j != l:", "if False:"),
    Mutant("seed_bound_inclusive", "streams.py",
           "if not 0 <= self.seed < 1 << 64:", "if not 0 <= self.seed <= 1 << 64:",
           ("tests/test_distributions.py", "tests/test_cli.py")),
    Mutant("config_depth_off_by_one", "cli.py",
           'depth = args.leaf.prog.count(" ")', 'depth = args.leaf.prog.count(" ") + 1'),
    Mutant("jump_gap_rate_off", "percolation.py",
           "sample_n(exponential(1.0), stream, 64)", "sample_n(exponential(1.5), stream, 64)"),
    Mutant("init_x_check_dropped", "queue_core.py", "if init_x < 0:", "if False:"),
    Mutant("negative_csv_cell_accepted", "queue_core.py", "if col.min() < 0:", "if False:"),
    Mutant("legendre_row_runs_the_p_form", "timeconstants.py",
           '"legendre": (("q", "beta"), _legendre, True)',
           '"legendre": (("q", "beta"), _bergeom_p, True)'),
    Mutant("bergeom_objective_formula_changed", "timeconstants.py",
           "* (x - (1.0 - q) / (q - p)) / (b * q))", "* (x - (1.0 - b) / (q - p)) / (b * q))"),
    Mutant("objective_accessor_at_another_x", "timeconstants.py",
           "return fn(*args.values(), float(x))", "return fn(*args.values(), 2.0 * float(x))"),
    # the satellite fixes
    Mutant("block_means_burn_in_check_dropped", "queue_core.py",
           "_check_run(first, burn_in=burn_in)", "None"),
    Mutant("ks_small_t_branch_never_taken", "stats.py",
           "small = 2.0 * math.exp(-2.0 * 100 * 100 * t * t) >= 1e-16", "small = False"),
    Mutant("tail_cutoff_floor_at_1", "distributions.py",
           "while k > 0 and sf(spec, k) <= tol:", "while k > 1 and sf(spec, k) <= tol:"),
    Mutant("tail_cutoff_not_corrected_down", "distributions.py",
           "while k > 0 and sf(spec, k) <= tol:", "while False:"),
    # the seeded-trial rule, verify's grading, the family guard and the identity's window refusal
    Mutant("trial_on_next_substream", "streams.py",
           "trial(i, self.substream(i))", "trial(i, self.substream(i + 1))",
           ("tests/test_distributions.py", "tests/test_cli.py")),
    Mutant("trials_read_only_the_first_comparison", "streams.py",
           "values in trial(i, self.substream(i))", "values in trial(i, self.substream(i))[:1]",
           ("tests/test_distributions.py",)),
    Mutant("worst_ranks_nan_as_a_number", "verify.py",
           "key=lambda ce: math.inf if math.isnan(ce[1]) else ce[1]", "key=lambda ce: ce[1]"),
    Mutant("trials_keep_the_last_failure", "verify.py",
           '"first_failure": failures[0]}', '"first_failure": failures[-1]}'),
    Mutant("run_family_catches_only_value_error", "verify.py",
           "except Exception as exc:", "except ValueError as exc:"),
    Mutant("cli_window_check_dropped", "cli.py", "if args.window < 1:", "if False:"),
    # checks that can fail and name their case
    Mutant("unimodal_scan_without_nan_guard", "timeconstants.py",
           "if any(math.isnan(v) for v in vals):", "if False:"),
    Mutant("feed_forward_skips_the_last_stage_pair", "tandem.py",
           "for r in range(self.R - 1)]", "for r in range(self.R - 2)]"),
    Mutant("general_service_worst_state_off_by_one", "verify.py",
           '"max_ratio_k": int(ratios.argmax()) + 1', '"max_ratio_k": int(ratios.argmax())'),
    # earlier hand mutants
    Mutant("prefix_carry_dropped", "queue_core.py", "c[0] = c0", "c[0] = 0"),
    Mutant("magnitude_cursor_one_double_off", "distributions.py",
           "stream.ahead(j * n + lo)", "stream.ahead(j * n + lo + j)"),
    Mutant("shard_spans_bound_plus_one", "workers.py",
           "shards = max(1, min(usable_cpus(), items, work // unit))",
           "shards = max(1, min(usable_cpus(), items, work // unit + 1))"),
]


def _tests_for(m: Mutant) -> list[str]:
    return [*(m.tests or [f"tests/test_{Path(m.module).stem}.py"]), "tests/test_acceptance.py"]


def _copy(dest: Path) -> None:
    ignore = shutil.ignore_patterns("__pycache__", "*.pyc", ".hypothesis")
    for part in ("src", "tests", "tools"):  # tests load tools/ from the tree
        shutil.copytree(ROOT / part, dest / part, ignore=ignore)


def _pytest(tree: Path, files: list[str]) -> tuple[bool, list[str], bool]:
    """Run ``files`` in ``tree`` with -x: (passed, failed test ids, timed out)."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-rfE", "-p", "no:cacheprovider", *files]
    try:
        res = subprocess.run(cmd, cwd=tree, env=env, capture_output=True, text=True,
                             timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return False, [], True
    failed = re.findall(r"^(?:FAILED|ERROR) (\S+)", res.stdout, flags=re.M)
    return res.returncode == 0, failed, False


def check_patterns(mutants: list[Mutant], src: Path) -> list[str]:
    """One complaint per mutant whose pattern does not occur exactly once in its file."""
    bad = []
    for m in mutants:
        count = (src / m.module).read_text().count(m.pattern)
        if count != 1:
            bad.append(f"{m.name}: pattern occurs {count} times in {m.module}")
    return bad


def missing_tests(mutants: list[Mutant]) -> list[str]:
    """One complaint per test file of a mutant that does not exist: pytest would fail on
    it, and the mutant would pass as killed."""
    return [f"{m.name}: no test file {f}" for m in mutants for f in _tests_for(m)
            if not (ROOT / f).is_file()]


def run_mutant(m: Mutant) -> dict:
    with tempfile.TemporaryDirectory(prefix="batchq-mutant-") as tmp:
        tree = Path(tmp)
        _copy(tree)
        path = tree / "src" / "batchq" / m.module
        path.write_text(path.read_text().replace(m.pattern, m.replacement))
        start = time.perf_counter()
        passed, failed, timed_out = _pytest(tree, _tests_for(m))
        seconds = time.perf_counter() - start
    return {"mutant": m.name, "file": m.module, "killed": not passed, "timed_out": timed_out,
            "tests_failed": failed, "seconds": round(seconds, 2)}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, help="JSON report path")
    args = parser.parse_args(argv)
    bad = check_patterns(MUTANTS, ROOT / "src" / "batchq") + missing_tests(MUTANTS)
    if bad:
        parser.error("; ".join(bad))
    files = sorted({f for m in MUTANTS for f in _tests_for(m)})
    with tempfile.TemporaryDirectory(prefix="batchq-mutant-") as tmp:
        _copy(Path(tmp))
        passed, failed, _ = _pytest(Path(tmp), files)
    if not passed:
        parser.error(f"the unmutated tests fail ({failed or 'timeout'}); no mutant can be judged")
    results = []
    for m in MUTANTS:
        rec = run_mutant(m)
        results.append(rec)
        print(f"{m.name}: {'killed' if rec['killed'] else 'SURVIVED'} in {rec['seconds']} s "
              f"{rec['tests_failed']}", file=sys.stderr)
    with open(args.out, "w") as f:
        json.dump({"mutants": results}, f, indent=1)
        f.write("\n")
    return 0 if all(r["killed"] for r in results) else 1


if __name__ == "__main__":
    sys.exit(main())
