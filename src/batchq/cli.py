"""Command-line interface: simulations, verifications, curves.

Subcommands: dist {pmf|sample}, queue, tandem, perc {simulate|identity},
tc, verify.  Common flags (--seed, --out, --threads, --config) are
accepted by every subcommand; values from a --config JSON file fill in
any flag not given explicitly, checked with the flag's type and choices.
An explicit --burn-in is used as given and must lie in [0, --slots); the
default is min(10^4, slots // 2).  --format exists only where it is read:
dist takes csv or json, and tc takes csv (a table even for one --x).
Exit codes: 0 success, 1 failed verification, 2 usage or validation error.

Outputs are deterministic for a fixed argv and seed: floats print with
17 significant digits and JSON keys are sorted.  --threads is accepted
and still ignored: perc simulate and queue (without --out) use up to
one worker process per usable CPU on their own, forked through
batchq.workers.fork_map, and their output is byte-identical for any
worker count.  perc simulate draws one field per replica from the
seed's substream(0) and reads every --x grid point off it, so rows at
different x are correlated.  The cost of perc identity is linear in
--window.  queue --out and tandem share one block loop: it runs the
slots in blocks with the one-block run's draws and bytes, writes --out
rows as each block is made and sums the summary means exactly, so
memory is bounded by the block.  queue without --out needs only four
exact integers (sum X and sum A after burn-in, X at the burn-in slot
and at the end); queue_core.scan_means computes them from the same
draws with a Lindley scan sharded over contiguous slot ranges, so its
summary is byte-identical to the block loop's.  No --threads-like knob
sets the block size or the shard count.  A subcommand imports only the
modules it uses.
"""

from __future__ import annotations

import argparse
import importlib
import io
import json
import sys

from . import distributions as dist
from .queue_core import (QueueParams, check_condition, condition_holds, scan_means,
                         simulate_blocks, slot_means, stationary_law, tee_csv, write_csv)
from .streams import RandomStream

__all__ = ["main", "run"]


class _Choices:
    """Flag choices read from a batchq module's attribute when a value is
    checked or help is shown; a parser built with them imports the module
    only then, so only tc imports timeconstants and only verify imports
    verify."""

    def __init__(self, module: str, name: str):
        self.module, self.name = module, name

    def _names(self) -> tuple[str, ...]:
        return getattr(importlib.import_module(f"{__package__}.{self.module}"), self.name)

    def __contains__(self, value) -> bool:
        return value in self._names()

    def __iter__(self):
        return iter(self._names())


def _fmt(v: float) -> str:
    return f"{float(v):.17g}"


def _write_out(text: str, out: str | None) -> None:
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _json_dump(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _add_common(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--seed", type=int, default=None, help="PRNG seed (default 1)")
    sp.add_argument("--out", default=None, help="write the primary output to this file")
    sp.add_argument("--threads", type=int, default=None,
                    help="accepted for compatibility; has no effect")
    sp.add_argument("--config", default=None,
                    help="JSON file with defaults for any flag of this subcommand")


def _with_config(argv: list[str], args: argparse.Namespace,
                 parser: argparse.ArgumentParser) -> list[str]:
    """argv with the --config values inserted as flags ahead of the explicit ones.

    argparse then checks each value with the flag's type and choices, and
    an explicit flag, parsed later, wins.
    """
    with open(args.config) as fh:
        conf = json.load(fh)
    if not isinstance(conf, dict):
        parser.error(f"--config {args.config!r} must hold a JSON object")
    flags = []
    for key, val in conf.items():
        attr = key.replace("-", "_")
        if not hasattr(args, attr):
            parser.error(f"unknown config key {key!r}")
        if val is None:  # null leaves the flag at its default
            continue
        text = val if isinstance(val, str) else json.dumps(val)
        flags.append(f"--{attr.replace('_', '-')}={text}")
    depth = 2 if args.command in ("dist", "perc") else 1
    return argv[:depth] + flags + argv[depth:]


def _seed_of(args: argparse.Namespace) -> int:
    return 1 if args.seed is None else int(args.seed)


def _queue_params(args, parser) -> QueueParams:
    missing = [k for k in ("p", "alpha", "q", "beta") if getattr(args, k) is None]
    if missing:
        parser.error(f"missing required flags: {', '.join('--' + m for m in missing)}")
    return QueueParams(p=args.p, alpha=args.alpha, q=args.q, beta=args.beta)


def _burn_in(args, parser, slots: int) -> int:
    """An explicit --burn-in as given, in [0, slots); by default min(10^4, slots // 2)."""
    if args.burn_in is None:
        return min(10_000, slots // 2)
    if not 0 <= args.burn_in < slots:
        parser.error(f"--burn-in must be >= 0 and below --slots {slots}, got {args.burn_in}")
    return args.burn_in


def _parse_grid(text: str, parser) -> list[float]:
    """Either a comma list '1,2,3' or a range 'lo:hi:step'."""
    try:
        if ":" in text:
            lo, hi, step = (float(t) for t in text.split(":"))
            if not step > 0:
                parser.error(f"bad grid {text!r}; the step must be positive")
            n = int(round((hi - lo) / step))
            return [lo + i * step for i in range(n + 1) if lo + i * step <= hi + 1e-12]
        return [float(t) for t in text.split(",") if t]
    except ValueError:
        parser.error(f"bad grid {text!r}; use 'lo:hi:step' or a comma list")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="batchq",
                                     description="Batch queues, Burke-type checks, "
                                                 "and first-passage time constants")
    sub = parser.add_subparsers(dest="command", required=True)

    p_dist = sub.add_parser("dist", help="distribution pmf tables and samples")
    dist_sub = p_dist.add_subparsers(dest="action", required=True)
    for action, hlp in (("pmf", "tabulate the pmf"), ("sample", "draw samples")):
        sp = dist_sub.add_parser(action, help=hlp)
        sp.add_argument("--spec", required=True, help='distribution JSON, e.g. '
                        '\'{"kind": "ber_geom", "p": 0.333, "alpha": 0.667}\'')
        if action == "pmf":
            sp.add_argument("--max-k", type=int, default=None, help="largest k (default 20)")
        else:
            sp.add_argument("--n", type=int, default=None, help="draw count (default 10)")
        sp.add_argument("--format", choices=("csv", "json"), default=None, help="default csv")
        _add_common(sp)

    sp = sub.add_parser("queue", help="simulate one queue; trace CSV plus summary JSON")
    for flag in ("p", "alpha", "q", "beta"):
        sp.add_argument(f"--{flag}", type=float, default=None)
    sp.add_argument("--slots", type=int, default=None, help="number of slots (default 100000)")
    sp.add_argument("--init-x", type=int, default=None)
    sp.add_argument("--burn-in", type=int, default=None)
    _add_common(sp)

    sp = sub.add_parser("tandem", help="simulate queues in series; trace CSV plus summary")
    for flag in ("p", "alpha", "q", "beta"):
        sp.add_argument(f"--{flag}", type=float, default=None)
    sp.add_argument("--stages", type=int, default=None, help="queue count R (default 2)")
    sp.add_argument("--slots", type=int, default=None)
    sp.add_argument("--burn-in", type=int, default=None)
    _add_common(sp)

    p_perc = sub.add_parser("perc", help="percolation estimates and the tandem identity")
    perc_sub = p_perc.add_subparsers(dest="action", required=True)
    sp = perc_sub.add_parser("simulate", help="Monte Carlo time-constant estimates")
    sp.add_argument("--weights", required=True, help="weight distribution JSON")
    sp.add_argument("--x", required=True, help="aspect ratio grid: comma list or lo:hi:step")
    sp.add_argument("--n", type=int, default=None, help="lattice size N (default 200)")
    sp.add_argument("--replicas", type=int, default=None, help="replica count (default 50)")
    _add_common(sp)
    sp = perc_sub.add_parser("identity", help="pathwise tandem-vs-percolation identity")
    for flag in ("p", "alpha", "q", "beta"):
        sp.add_argument(f"--{flag}", type=float, default=None)
    sp.add_argument("--stages", type=int, default=None)
    sp.add_argument("--window", type=int, default=None)
    sp.add_argument("--instances", type=int, default=None)
    _add_common(sp)

    sp = sub.add_parser("tc", help="time constants: single value or curve CSV")
    sp.add_argument("--variant", required=True, choices=_Choices("timeconstants", "VARIANTS"),
                    metavar="VARIANT", help="one of %(choices)s")
    sp.add_argument("--x", required=True, help="abscissa: single value, comma list, or lo:hi:step")
    sp.add_argument("--q", type=float, default=None)
    sp.add_argument("--beta", type=float, default=None)
    sp.add_argument("--format", choices=("csv",), default=None, help="a table even for one --x")
    _add_common(sp)

    sp = sub.add_parser("verify", help="run the verification suites; exit 0 iff all pass")
    sp.add_argument("--suite", default=None, choices=_Choices("verify", "SUITES"),
                    metavar="SUITE", help="one of %(choices)s (default: all)")
    _add_common(sp)
    return parser


def _cmd_dist(args, parser) -> int:
    spec = dist.DistSpec.from_json(args.spec)
    fmt = args.format or "csv"
    if args.action == "pmf":
        if not spec.is_discrete:
            parser.error("pmf is a discrete-only operation")
        max_k = 20 if args.max_k is None else args.max_k
        if max_k < 0:
            parser.error("--max-k must be >= 0")
        rows = [(k, dist.pmf(spec, k)) for k in range(max_k + 1)]
        if fmt == "json":
            text = _json_dump({"spec": spec.to_dict(), "pmf": [v for _, v in rows]})
        else:
            text = "k,pmf\n" + "".join(f"{k},{_fmt(v)}\n" for k, v in rows)
    else:
        n = 10 if args.n is None else args.n
        draws = dist.sample_n(spec, RandomStream(_seed_of(args)), n)
        if fmt == "json":
            vals = [int(v) for v in draws] if spec.is_discrete else [float(v) for v in draws]
            text = _json_dump({"spec": spec.to_dict(), "seed": _seed_of(args), "samples": vals})
        else:
            buf = io.BytesIO()
            write_csv(buf, ["value"], [draws])
            text = buf.getvalue().decode()
    _write_out(text, args.out)
    return 0


def _block_means(blocks, burn: int, out: str | None) -> list[dict]:
    """Per stage, :func:`slot_means` after burn-in of Trace or TandemTrace blocks.

    With ``out`` the CSV rows are written as the blocks pass.  Each stage
    sums X and A exactly and keeps X at the burn-in slot and at the end.
    """
    if out:
        blocks = tee_csv(blocks, out)
    sums, first = [], 0
    for blk in blocks:
        stages = getattr(blk, "stages", [blk])
        if not sums:
            sums = [[0, 0, 0, 0] for _ in stages]  # sum X, sum A, X at burn-in, X at the end
        k = max(burn - first, 0)
        for tr, acc in zip(stages, sums):
            acc[0] += int(tr.x[k:].sum())
            acc[1] += int(tr.a[k:].sum())
            if k < len(tr) and burn >= first:
                acc[2] = int(tr.x[k])
            acc[3] = int(tr.final_x)
        first += len(blk)
    return [slot_means(*acc, first - burn) for acc in sums]


def _series_args(args, parser) -> tuple[QueueParams, int, int, dict]:
    """Parameters, slots and burn-in of queue and tandem, and the summary fields they share."""
    params = _queue_params(args, parser)
    slots = 100_000 if args.slots is None else args.slots
    burn = _burn_in(args, parser, slots)
    return params, slots, burn, {
        "params": {"p": params.p, "alpha": params.alpha, "q": params.q, "beta": params.beta},
        "seed": _seed_of(args), "slots": slots, "burn_in": burn}


def _cmd_queue(args, parser) -> int:
    params, slots, burn, summary = _series_args(args, parser)
    arrival, service, stream = params.arrival_spec, params.service_spec, RandomStream(_seed_of(args))
    init_x = args.init_x or 0
    if args.out:
        blocks = simulate_blocks(arrival, [service], slots, stream, init_x)
        means = _block_means((stages[0] for stages in blocks), burn, args.out)[0]
    else:
        means = scan_means(arrival, service, slots, stream, init_x, burn)
    summary["empirical"] = {f"mean_{name}": means[name] for name in "xyd"}
    summary["condition_residual"] = check_condition(params)
    if params.is_stable and condition_holds(params):
        summary["stationary"] = stationary_law(params).to_dict()
    sys.stdout.write(_json_dump(summary))
    return 0


def _cmd_tandem(args, parser) -> int:
    from .tandem import TandemConfig, TandemTrace
    params, slots, burn, summary = _series_args(args, parser)
    summary["stages"] = stages = 2 if args.stages is None else args.stages
    config = TandemConfig.bergeom(params, stages)
    blocks = simulate_blocks(config.arrival, config.services, slots, RandomStream(_seed_of(args)))
    means = _block_means((TandemTrace(config, st) for st in blocks), burn, args.out)
    summary["empirical_mean_x"] = [m["x"] for m in means]
    summary["empirical_mean_d"] = [m["d"] for m in means]
    if params.is_stable and condition_holds(params):
        summary["stationary_mean_x"] = stationary_law(params).mean_x
    sys.stdout.write(_json_dump(summary))
    return 0


def _cmd_perc(args, parser) -> int:
    from . import percolation as perc
    if args.action == "simulate":
        spec = dist.DistSpec.from_json(args.weights)
        xs = _parse_grid(args.x, parser)
        n = 200 if args.n is None else args.n
        replicas = 50 if args.replicas is None else args.replicas
        seed = _seed_of(args)
        lines = ["x,N,mean,ci_lo,ci_hi,replicas,seed"]
        ests = perc.estimate_curve(spec, xs, n, replicas, RandomStream(seed).substream(0))
        for x, est in zip(xs, ests):
            lines.append(",".join([_fmt(x), str(n), _fmt(est.mean), _fmt(est.ci_lo),
                                   _fmt(est.ci_hi), str(replicas), str(seed)]))
        _write_out("\n".join(lines) + "\n", args.out)
        return 0
    # identity
    params = _queue_params(args, parser)
    stages = 3 if args.stages is None else args.stages
    window = 50 if args.window is None else args.window
    instances = 1000 if args.instances is None else args.instances
    if instances < 1:
        parser.error("--instances must be >= 1")
    failures, first = perc.identity_trials(params.arrival_spec, params.service_spec,
                                           [stages] * instances, window,
                                           RandomStream(_seed_of(args)))
    report = {"stages": stages, "window": window, "instances": instances,
              "failures": failures, "all_equal": failures == 0, "seed": _seed_of(args)}
    if first is not None:
        # replayed by one tandem_identity_check call on the seed's substream(instance)
        report["first_failure"] = first
    _write_out(_json_dump(report), args.out)
    return 0 if failures == 0 else 1


def _cmd_tc(args, parser) -> int:
    from . import timeconstants as tc
    xs = _parse_grid(args.x, parser)
    if not xs:
        parser.error("empty --x grid")
    params = {}
    if args.q is not None:
        params["q"] = args.q
    if args.beta is not None:
        params["beta"] = args.beta
    result = tc.curve(args.variant, params, xs)
    if len(xs) == 1 and not args.out and args.format != "csv":
        sys.stdout.write(f"{result.points[0].f!r}\n")
        return 0
    text = "variant,params,x,f,maximizer\n" + "\n".join(result.csv_rows()) + "\n"
    _write_out(text, args.out)
    return 0


def _cmd_verify(args, parser) -> int:
    from .verify import run_suite
    suite = args.suite or "all"
    report = run_suite(suite, _seed_of(args))
    _write_out(_json_dump(report), args.out)
    if args.out:
        n_pass = sum(1 for c in report["checks"] if c["passed"])
        sys.stdout.write(f"{suite}: {n_pass}/{report['n_checks']} checks passed\n")
    return 0 if report["passed"] else 1


def run(argv: list[str] | None = None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    args = parser.parse_args(argv)
    handlers = {
        "dist": _cmd_dist,
        "queue": _cmd_queue,
        "tandem": _cmd_tandem,
        "perc": _cmd_perc,
        "tc": _cmd_tc,
        "verify": _cmd_verify,
    }
    try:
        if args.config:
            args = parser.parse_args(_with_config(argv, args, parser))
        return handlers[args.command](args, parser)
    except (ValueError, ArithmeticError, OSError) as exc:
        parser.error(str(exc))


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
