"""Command-line interface: simulations, verifications, curves.

Subcommands: dist {pmf|sample}, queue, tandem, perc {simulate|identity},
tc, verify.  Each leaf subparser carries its handler and its flags'
defaults, which --help shows.  Common flags (--seed, --out, --threads,
--config) are accepted by every subcommand; values from a --config JSON
file fill in any flag not given explicitly, checked with the flag's type
and choices.  A --seed must lie in [0, 2**64), the seeds of the PRNG.  An
explicit --burn-in is used as given and must lie in [0, --slots); the
default is min(10^4, slots // 2).  --format exists only where it is read:
dist takes csv or json, and tc takes csv (a table even for one --x).
Exit codes: 0 success, 1 failed verification (a verify family that
raises is one failed check), 2 usage or validation error (a count too
large to allocate is one).  Every exit 2 prints the
subcommand's usage and one error: line, whether argparse, a handler or
the library refused the input.

Outputs are deterministic for a fixed argv and seed: floats print with
17 significant digits and JSON keys are sorted.  --threads is accepted
and still ignored: perc simulate and queue (without --out) use up to
one worker process per usable CPU on their own (batchq.workers), and
their output is byte-identical for any worker count.  perc simulate
draws one field per replica from the seed's substream(0) and reads
every --x grid point off it, so rows at different x are correlated.
The cost of perc identity is linear in --window.  This module does no
queue arithmetic: queue --out and tandem pass the slot engine's blocks
to queue_core.block_means, which writes --out rows as each block is
made, so memory is bounded by the block; queue without --out calls
queue_core.scan_means, a sharded Lindley scan of the same draws, whose
summary is byte-identical.  No --threads-like knob sets the block size
or the shard count.  A subcommand imports only the modules it uses.
"""

from __future__ import annotations

import argparse
import importlib
import io
import json
import sys
from typing import TYPE_CHECKING

from . import distributions as dist
from .streams import RandomStream

if TYPE_CHECKING:
    from .queue_core import QueueParams

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


def _seed(text: str) -> int:
    """A --seed value: an integer that :class:`RandomStream` takes, in [0, 2**64)."""
    try:
        return RandomStream(int(text)).seed
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _leaf(sp: argparse.ArgumentParser, handler) -> None:
    """Give the subcommand ``sp`` the common flags, its handler, and itself, whose usage
    any error in it prints."""
    sp.set_defaults(handler=handler, leaf=sp)
    sp.add_argument("--seed", type=_seed, default=1,
                    help="PRNG seed in [0, 2**64) (default %(default)s)")
    sp.add_argument("--out", default=None, help="write the primary output to this file")
    sp.add_argument("--threads", type=int, default=None,
                    help="accepted for compatibility; has no effect")
    sp.add_argument("--config", default=None,
                    help="JSON file with defaults for any flag of this subcommand")


def _parse(parser: argparse.ArgumentParser, argv: list[str]) -> argparse.Namespace:
    """argv parsed; an unrecognized argument is refused under its subcommand's usage."""
    args, extra = parser.parse_known_args(argv)
    if extra:
        args.leaf.error(f"unrecognized arguments: {' '.join(extra)}")
    return args


def _with_config(argv: list[str], args: argparse.Namespace) -> list[str]:
    """argv with the --config values inserted as flags ahead of the explicit ones.

    argparse then checks each value with the flag's type and choices, and
    an explicit flag, parsed later, wins.
    """
    with open(args.config) as fh:
        conf = json.load(fh)
    if not isinstance(conf, dict):
        raise ValueError(f"--config {args.config!r} must hold a JSON object")
    known = {a.dest for a in args.leaf._actions if a.option_strings} - {"help"}
    flags = []
    for key, val in conf.items():
        attr = key.replace("-", "_")
        if attr not in known:
            raise ValueError(f"unknown config key {key!r}")
        if val is None:  # null leaves the flag at its default
            continue
        text = val if isinstance(val, str) else json.dumps(val)
        flags.append(f"--{attr.replace('_', '-')}={text}")
    depth = args.leaf.prog.count(" ")  # the words after "batchq" name the subcommand
    return argv[:depth] + flags + argv[depth:]


def _queue_params(args) -> QueueParams:
    from .queue_core import QueueParams
    missing = [k for k in ("p", "alpha", "q", "beta") if getattr(args, k) is None]
    if missing:
        raise ValueError(f"missing required flags: {', '.join('--' + m for m in missing)}")
    return QueueParams(p=args.p, alpha=args.alpha, q=args.q, beta=args.beta)


def _parse_grid(text: str) -> list[float]:
    """Either a comma list '1,2,3' or a range 'lo:hi:step' with a positive step."""
    try:
        if ":" not in text:
            return [float(t) for t in text.split(",") if t]
        lo, hi, step = (float(t) for t in text.split(":"))
        n = int(round((hi - lo) / step)) if step > 0 else 0
    except ValueError:
        raise ValueError(f"bad grid {text!r}; use 'lo:hi:step' or a comma list") from None
    if not step > 0:
        raise ValueError(f"bad grid {text!r}; the step must be positive")
    return [lo + i * step for i in range(n + 1) if lo + i * step <= hi + 1e-12]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="batchq",
                                     description="Batch queues, Burke-type checks, "
                                                 "and first-passage time constants")
    sub = parser.add_subparsers(dest="command", required=True)

    p_dist = sub.add_parser("dist", help="distribution pmf tables and samples")
    dist_sub = p_dist.add_subparsers(dest="action", required=True)
    for action, handler, hlp in (("pmf", _cmd_pmf, "tabulate the pmf"),
                                 ("sample", _cmd_sample, "draw samples")):
        sp = dist_sub.add_parser(action, help=hlp)
        sp.add_argument("--spec", required=True, help='distribution JSON, e.g. '
                        '\'{"kind": "ber_geom", "p": 0.333, "alpha": 0.667}\'')
        if action == "pmf":
            sp.add_argument("--max-k", type=int, default=20, help="largest k (default %(default)s)")
        else:
            sp.add_argument("--n", type=int, default=10, help="draw count (default %(default)s)")
        sp.add_argument("--format", choices=("csv", "json"), default="csv",
                        help="(default %(default)s)")
        _leaf(sp, handler)

    sp = sub.add_parser("queue", help="simulate one queue; trace CSV plus summary JSON")
    for flag in ("p", "alpha", "q", "beta"):
        sp.add_argument(f"--{flag}", type=float, default=None, help="required")
    sp.add_argument("--slots", type=int, default=100_000, help="slot count (default %(default)s)")
    sp.add_argument("--init-x", type=int, default=0,
                    help="queue length before slot 1 (default %(default)s)")
    sp.add_argument("--burn-in", type=int, default=None,
                    help="slots left out of the means (default min(10^4, slots // 2))")
    _leaf(sp, _cmd_queue)

    sp = sub.add_parser("tandem", help="simulate queues in series; trace CSV plus summary")
    for flag in ("p", "alpha", "q", "beta"):
        sp.add_argument(f"--{flag}", type=float, default=None, help="required")
    sp.add_argument("--stages", type=int, default=2, help="queue count R (default %(default)s)")
    sp.add_argument("--slots", type=int, default=100_000, help="slot count (default %(default)s)")
    sp.add_argument("--burn-in", type=int, default=None,
                    help="slots left out of the means (default min(10^4, slots // 2))")
    _leaf(sp, _cmd_tandem)

    p_perc = sub.add_parser("perc", help="percolation estimates and the tandem identity")
    perc_sub = p_perc.add_subparsers(dest="action", required=True)
    sp = perc_sub.add_parser("simulate", help="Monte Carlo time-constant estimates")
    sp.add_argument("--weights", required=True, help="weight distribution JSON")
    sp.add_argument("--x", required=True, help="aspect ratio grid: comma list or lo:hi:step")
    sp.add_argument("--n", type=int, default=200, help="lattice size N (default %(default)s)")
    sp.add_argument("--replicas", type=int, default=50, help="replica count (default %(default)s)")
    _leaf(sp, _cmd_simulate)
    sp = perc_sub.add_parser("identity", help="pathwise tandem-vs-percolation identity")
    for flag in ("p", "alpha", "q", "beta"):
        sp.add_argument(f"--{flag}", type=float, default=None, help="required")
    sp.add_argument("--stages", type=int, default=3, help="queue count R (default %(default)s)")
    sp.add_argument("--window", type=int, default=50,
                    help="slots per instance (default %(default)s)")
    sp.add_argument("--instances", type=int, default=1000,
                    help="instance count (default %(default)s)")
    _leaf(sp, _cmd_identity)

    sp = sub.add_parser("tc", help="time constants: single value or curve CSV")
    sp.add_argument("--variant", required=True, choices=_Choices("timeconstants", "VARIANTS"),
                    metavar="VARIANT", help="one of %(choices)s")
    sp.add_argument("--x", required=True, help="abscissa: single value, comma list, or lo:hi:step")
    sp.add_argument("--q", type=float, default=None, help="needed by some variants")
    sp.add_argument("--beta", type=float, default=None, help="needed by some variants")
    sp.add_argument("--format", choices=("csv",), default=None,
                    help="a table even for one --x (default: one --x prints a bare value)")
    _leaf(sp, _cmd_tc)

    sp = sub.add_parser("verify", help="run the verification suites; exit 0 iff all pass")
    sp.add_argument("--suite", default="all", choices=_Choices("verify", "SUITES"),
                    metavar="SUITE", help="one of %(choices)s (default %(default)s)")
    _leaf(sp, _cmd_verify)
    return parser


def _cmd_pmf(args) -> int:
    spec = dist.DistSpec.from_json(args.spec)
    if args.max_k < 0:
        raise ValueError("--max-k must be >= 0")
    rows = [(k, dist.pmf(spec, k)) for k in range(args.max_k + 1)]
    if args.format == "json":
        text = _json_dump({"spec": spec.to_dict(), "pmf": [v for _, v in rows]})
    else:
        text = "k,pmf\n" + "".join(f"{k},{_fmt(v)}\n" for k, v in rows)
    _write_out(text, args.out)
    return 0


def _cmd_sample(args) -> int:
    spec = dist.DistSpec.from_json(args.spec)
    draws = dist.sample_n(spec, RandomStream(args.seed), args.n)
    if args.format == "json":
        vals = [int(v) for v in draws] if spec.is_discrete else [float(v) for v in draws]
        text = _json_dump({"spec": spec.to_dict(), "seed": args.seed, "samples": vals})
    else:
        from .queue_core import write_csv
        buf = io.BytesIO()
        write_csv(buf, ["value"], [draws])
        text = buf.getvalue().decode()
    _write_out(text, args.out)
    return 0


def _series_args(args) -> tuple[QueueParams, int, dict]:
    """Parameters and burn-in of queue and tandem, and the summary fields they share.

    An explicit --burn-in is used as given, in [0, slots); by default min(10^4, slots // 2).
    """
    params = _queue_params(args)
    burn = args.burn_in
    if burn is None:
        burn = min(10_000, args.slots // 2)
    elif not 0 <= burn < args.slots:
        raise ValueError(f"--burn-in must be >= 0 and below --slots {args.slots}, got {burn}")
    return params, burn, {
        "params": {"p": params.p, "alpha": params.alpha, "q": params.q, "beta": params.beta},
        "seed": args.seed, "slots": args.slots, "burn_in": burn}


def _cmd_queue(args) -> int:
    from .queue_core import (block_means, check_condition, condition_holds, scan_means,
                             simulate_blocks, stationary_law)
    params, burn, summary = _series_args(args)
    arrival, service, stream = params.arrival_spec, params.service_spec, RandomStream(args.seed)
    if args.out:
        blocks = simulate_blocks(arrival, [service], args.slots, stream, args.init_x)
        means = block_means((stages[0] for stages in blocks), burn, args.out)[0]
    else:
        means = scan_means(arrival, service, args.slots, stream, args.init_x, burn)
    summary["empirical"] = {f"mean_{name}": means[name] for name in "xyd"}
    summary["condition_residual"] = check_condition(params)
    if params.is_stable and condition_holds(params):
        summary["stationary"] = stationary_law(params).to_dict()
    sys.stdout.write(_json_dump(summary))
    return 0


def _cmd_tandem(args) -> int:
    from .queue_core import block_means, condition_holds, simulate_blocks, stationary_law
    from .tandem import TandemConfig, TandemTrace
    params, burn, summary = _series_args(args)
    summary["stages"] = args.stages
    config = TandemConfig.bergeom(params, args.stages)
    blocks = simulate_blocks(config.arrival, config.services, args.slots, RandomStream(args.seed))
    means = block_means((TandemTrace(config, st) for st in blocks), burn, args.out)
    summary["empirical_mean_x"] = [m["x"] for m in means]
    summary["empirical_mean_d"] = [m["d"] for m in means]
    if params.is_stable and condition_holds(params):
        summary["stationary_mean_x"] = stationary_law(params).mean_x
    sys.stdout.write(_json_dump(summary))
    return 0


def _cmd_simulate(args) -> int:
    from .percolation import estimate_curve
    spec = dist.DistSpec.from_json(args.weights)
    xs = _parse_grid(args.x)
    lines = ["x,N,mean,ci_lo,ci_hi,replicas,seed"]
    ests = estimate_curve(spec, xs, args.n, args.replicas, RandomStream(args.seed).substream(0))
    for x, est in zip(xs, ests):
        lines.append(",".join([_fmt(x), str(args.n), _fmt(est.mean), _fmt(est.ci_lo),
                               _fmt(est.ci_hi), str(args.replicas), str(args.seed)]))
    _write_out("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_identity(args) -> int:
    from . import percolation as perc
    params = _queue_params(args)
    if args.window < 1:
        raise ValueError("--window must be >= 1")
    if args.instances < 1:
        raise ValueError("--instances must be >= 1")
    services = [params.service_spec] * args.stages
    failures = RandomStream(args.seed).trial_failures(
        range(args.instances), lambda i, st: perc.tandem_identity_check(
            params.arrival_spec, services, args.window, st).comparisons())
    report = {"stages": args.stages, "window": args.window, "instances": args.instances,
              "failures": len(failures), "all_equal": not failures, "seed": args.seed}
    if failures:
        # replayed by one tandem_identity_check call on the seed's substream
        report["first_failure"] = failures[0]
    _write_out(_json_dump(report), args.out)
    return 1 if failures else 0


def _cmd_tc(args) -> int:
    from .timeconstants import curve
    xs = _parse_grid(args.x)
    params = {k: getattr(args, k) for k in ("q", "beta") if getattr(args, k) is not None}
    result = curve(args.variant, params, xs)
    if len(xs) == 1 and not args.out and args.format != "csv":
        sys.stdout.write(f"{result.points[0].f!r}\n")
        return 0
    text = "variant,params,x,f,maximizer\n" + "\n".join(result.csv_rows()) + "\n"
    _write_out(text, args.out)
    return 0


def _cmd_verify(args) -> int:
    from .verify import run_suite
    report = run_suite(args.suite, args.seed)
    _write_out(_json_dump(report), args.out)
    if args.out:
        n_pass = sum(1 for c in report["checks"] if c["passed"])
        sys.stdout.write(f"{args.suite}: {n_pass}/{report['n_checks']} checks passed\n")
    return 0 if report["passed"] else 1


def run(argv: list[str] | None = None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _parse(parser, argv)
    try:
        if args.config:
            args = _parse(parser, _with_config(argv, args))
        return args.handler(args)
    except (ValueError, ArithmeticError, OSError, MemoryError) as exc:
        args.leaf.error(str(exc) or "a count is too large to allocate")


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
