"""Analytic and semi-analytic percolation time constants.

The general principle: with service-distributed weights, the time
constant is the Legendre transform of the stationary mean queue length
seen as a function of the arrival intensity,

    f(x) = sup over 0 < lam < mu of ( lam * x - h(lam) ),

where h(lam) is the stationary mean of a queue on the one-parameter
family with arrival intensity lam.  Plugging in the family gives
variational formulas parameterized by p or alpha, and closed forms in
the Bernoulli, geometric and exponential weight limits.  Every supremum
here is of a concave (after monotone reparameterization) objective on an
open interval, computed by a coarse scan plus golden-section refinement;
values are clamped at zero, which realizes the flat region exactly.

Continuous-time variants (one lattice direction replaced by time) are
prefixed ``ftilde``.

Each formula has one implementation, which checks its inputs
(probabilities by :func:`~batchq.laws.check_probability`, abscissa
positive) before computing; a variational one returns its objective and
interval for :func:`golden_max`.  The module imports only
:mod:`batchq.laws`, so ``batchq tc`` loads no numpy.
:func:`curve` tabulates a variant through one table row per variant: its
parameter names and that implementation, so a curve point and the public
``f_*``/``ftilde_*`` value at the same input are the same number, and
:func:`objective` hands the checks that scan it the same objective.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

from .laws import check_probability, solve_arrival

__all__ = [
    "golden_max",
    "scan_is_unimodal",
    "h_of_lambda",
    "f_bergeom",
    "f_bergeom_alpha",
    "f_bernoulli",
    "f_geometric",
    "f_exponential",
    "f_berexp",
    "ftilde_geom",
    "ftilde_exp",
    "ftilde_exp_sup",
    "ftilde_poisson",
    "f_legendre",
    "CurvePoint",
    "CurveResult",
    "curve",
    "objective",
    "VARIANTS",
]

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
_Objective = tuple[Callable[[float], float], float, float]  # fn, and (lo, hi) to search


def golden_max(fn: Callable[[float], float], lo: float, hi: float) -> tuple[float, float]:
    """Maximize a unimodal function on (lo, hi); returns (argmax, value).

    A 129-point scan brackets the maximum (robust for nearly flat
    objectives), then golden-section search shrinks the bracket to
    1e-12, or until it stops shrinking where neighbouring floats are
    more than 1e-12 apart.
    """
    tol, scan = 1e-12, 129
    if not hi > lo:
        raise ValueError("need hi > lo")
    step = (hi - lo) / (scan + 1)
    xs = [lo + step * (i + 1) for i in range(scan)]
    vals = [fn(x) for x in xs]
    idx = max(range(scan), key=vals.__getitem__)
    a = xs[idx - 1] if idx > 0 else lo
    b = xs[idx + 1] if idx < scan - 1 else hi
    x1 = b - _INVPHI * (b - a)
    x2 = a + _INVPHI * (b - a)
    f1, f2 = fn(x1), fn(x2)
    width = math.inf
    while tol < b - a < width:
        width = b - a
        if f1 < f2:
            a, x1, f1 = x1, x2, f2
            x2 = a + _INVPHI * (b - a)
            f2 = fn(x2)
        else:
            b, x2, f2 = x2, x1, f1
            x1 = b - _INVPHI * (b - a)
            f1 = fn(x1)
    xm = 0.5 * (a + b)
    candidates = [(xs[idx], vals[idx]), (x1, f1), (x2, f2), (xm, fn(xm))]
    return max(candidates, key=lambda c: c[1])


def scan_is_unimodal(fn: Callable[[float], float], lo: float, hi: float) -> bool:
    """No interior dip, beyond a relative 1e-12, on a 1000-point scan (three-point
    check); a NaN anywhere on the scan is not unimodal."""
    n, tol = 1000, 1e-12
    step = (hi - lo) / (n + 1)
    vals = [fn(lo + step * (i + 1)) for i in range(n)]
    if any(math.isnan(v) for v in vals):
        return False
    scale = max(1.0, max(abs(v) for v in vals))
    for i in range(1, n - 1):
        if vals[i] < vals[i - 1] - tol * scale and vals[i] < vals[i + 1] - tol * scale:
            return False
    return True


def h_of_lambda(q: float, b: float, lam: float) -> float:
    """Stationary mean queue length at arrival intensity lam, service (q, b).

    Evaluated through the fixed-point arrival parameters in two
    algebraically equivalent ways, which must agree to 1e-10:

        h = b*(1-a) / (a*(a-b))
        h = [p/(1-p)] * [(1-q)/q] * [p*(1-q)/(b*(q-p)) + 1]
    """
    p, a = solve_arrival(q, b, lam)
    h1 = b * (1.0 - a) / (a * (a - b))
    h2 = p / (1.0 - p) * (1.0 - q) / q * (p * (1.0 - q) / (b * (q - p)) + 1.0)
    if abs(h1 - h2) > 1e-10 * max(1.0, abs(h1), abs(h2)):
        raise ArithmeticError(f"mean-queue-length forms disagree: {h1} vs {h2}")
    return h1


def _check(x: float, **probs: float) -> None:
    """Every probability strictly in (0, 1) and a positive abscissa."""
    for name, v in probs.items():
        check_probability(name, v)
    if not x > 0:
        raise ValueError(f"abscissa must be positive, got {x}")


def _bergeom_p(q: float, b: float, x: float) -> _Objective:
    _check(x, q=q, beta=b)

    def fn(p: float) -> float:
        return (p * (p * (1.0 - q) + (q - p) * b) / (1.0 - p)
                * (x - (1.0 - q) / (q - p)) / (b * q))

    return fn, 0.0, q


def f_bergeom(q: float, b: float, x: float) -> float:
    """Time constant for BerGeom(q, b) weights (variational, p form)."""
    return max(0.0, golden_max(*_bergeom_p(q, b, x))[1])


def _bergeom_alpha(q: float, b: float, x: float) -> _Objective:
    _check(x, q=q, beta=b)

    def fn(a: float) -> float:
        return (b * (1.0 - a) / a
                * (q * x / (a * (1.0 - b - q) + b * q) - 1.0 / (a - b)))

    return fn, b, 1.0


def f_bergeom_alpha(q: float, b: float, x: float) -> float:
    """Same time constant through the alpha parameterization."""
    return max(0.0, golden_max(*_bergeom_alpha(q, b, x))[1])


def f_bernoulli(q: float, x: float) -> float:
    """Closed form for Bernoulli(q) weights; flat for x <= (1-q)/q."""
    _check(x, q=q)
    if x <= (1.0 - q) / q:
        return 0.0
    return (math.sqrt(q * x) - math.sqrt(1.0 - q)) ** 2


def f_geometric(b: float, x: float) -> float:
    """Closed form for Geom0(b) weights; flat for x <= b/(1-b)."""
    _check(x, beta=b)
    if x <= b / (1.0 - b):
        return 0.0
    return (math.sqrt(1.0 - b) * math.sqrt(1.0 + x) - 1.0) ** 2 / b


def f_exponential(x: float) -> float:
    """Closed form for Exp(1) weights: (sqrt(1+x) - 1)**2."""
    _check(x)
    return (math.sqrt(1.0 + x) - 1.0) ** 2


def _berexp(q: float, x: float) -> _Objective:
    _check(x, q=q)

    def fn(r: float) -> float:
        return r * r * (q * x / (1.0 - q + r * q) - 1.0 / (1.0 - r))

    return fn, 0.0, 1.0


def f_berexp(q: float, x: float) -> float:
    """Time constant for BerExp(q, 1) weights (variational)."""
    return max(0.0, golden_max(*_berexp(q, x))[1])


def _tilde_geom(b: float, y: float) -> _Objective:
    _check(y, beta=b)

    def fn(a: float) -> float:
        return b * (1.0 - a) / a * (y / (a * (1.0 - b)) - 1.0 / (a - b))

    return fn, b, 1.0


def ftilde_geom(b: float, y: float) -> float:
    """Continuous-time variant with Geom+(b) jump weights (variational)."""
    return max(0.0, golden_max(*_tilde_geom(b, y))[1])


def _tilde_exp(y: float) -> _Objective:
    _check(y)

    def fn(r: float) -> float:
        return r * r * (y - 1.0 / (1.0 - r))

    return fn, 0.0, 1.0


def ftilde_exp_sup(y: float) -> float:
    """Continuous-time, Exp(1) jump weights: the variational form."""
    return max(0.0, golden_max(*_tilde_exp(y))[1])


def ftilde_exp(y: float) -> float:
    """Closed form of :func:`ftilde_exp_sup` via the stationarity quadratic.

    The maximizing r satisfies 2*y*s**2 - s - 1 = 0 with s = 1 - r, so
    s = (1 + sqrt(8y + 1)) / (4y) and f = (1-s)**2 * (y - 1/s), clamped
    at zero (the value vanishes for y <= 1).
    """
    _check(y)
    s = (1.0 + math.sqrt(8.0 * y + 1.0)) / (4.0 * y)
    val = (1.0 - s) ** 2 * (y - 1.0 / s)
    return max(0.0, val)


def ftilde_poisson(y: float) -> float:
    """Unit jump weights at Poisson times: ([sqrt(y) - 1]_+)**2."""
    _check(y)
    return max(0.0, math.sqrt(y) - 1.0) ** 2


def _legendre(q: float, b: float, x: float) -> _Objective:
    _check(x, q=q, beta=b)
    mu = q / b

    def fn(lam: float) -> float:
        return lam * x - h_of_lambda(q, b, lam)

    return fn, mu * 1e-9, mu * (1.0 - 1e-9)


def f_legendre(q: float, b: float, x: float) -> float:
    """Time constant as the Legendre transform of the mean queue length.

    Must agree with :func:`f_bergeom` everywhere; the two routes share no
    code beyond the golden-section helper.
    """
    return max(0.0, golden_max(*_legendre(q, b, x))[1])


# --- curve tabulation -------------------------------------------------------

# variant -> (parameter names, function of (*params, x), variational): a variational
# variant's function gives its objective (fn, lo, hi), whose supremum is the value and
# whose argmax the maximizer; a closed form's gives the value, with no maximizer
_TABLE: dict[str, tuple[tuple[str, ...], Callable, bool]] = {
    "ber": (("q",), f_bernoulli, False),
    "geom": (("beta",), f_geometric, False),
    "exp": ((), f_exponential, False),
    "ber_geom": (("q", "beta"), _bergeom_p, True),
    "ber_exp": (("q",), _berexp, True),
    "cont_geom": (("beta",), _tilde_geom, True),
    "cont_exp": ((), _tilde_exp, True),
    "cont_poisson": ((), ftilde_poisson, False),
    "legendre": (("q", "beta"), _legendre, True),
}

VARIANTS = tuple(_TABLE)


@dataclass(frozen=True)
class CurvePoint:
    x: float
    f: float
    maximizer: float | None


@dataclass(frozen=True)
class CurveResult:
    variant: str
    params: dict
    points: list[CurvePoint]

    def csv_rows(self) -> list[str]:
        ptxt = ";".join(f"{k}={v:.17g}" for k, v in sorted(self.params.items())) or "-"
        rows = []
        for pt in self.points:
            m = "" if pt.maximizer is None else f"{pt.maximizer:.17g}"
            rows.append(f"{self.variant},{ptxt},{pt.x:.17g},{pt.f:.17g},{m}")
        return rows


def _lookup(variant: str, params: dict) -> tuple[Callable, bool, dict]:
    """A variant's table row, with its parameters by name in place of their names; a
    missing parameter or one the variant does not take is refused."""
    if variant not in _TABLE:
        raise ValueError(f"unknown variant {variant!r}; choose from {VARIANTS}")
    names, fn, variational = _TABLE[variant]
    missing = [k for k in names if k not in params]
    if missing:
        raise ValueError(f"variant {variant} needs parameters {missing}")
    extra = sorted(set(params) - set(names))
    if extra:
        raise ValueError(f"variant {variant} does not take the parameters {extra}")
    return fn, variational, {k: params[k] for k in names}


def objective(variant: str, params: dict, x: float) -> _Objective:
    """The objective (fn, lo, hi) whose supremum on (lo, hi) is a variational variant at x.

    It is the function that :func:`curve` and the public ``f_*``/``ftilde_*``
    value hand to :func:`golden_max`; a closed-form variant has none and raises.
    """
    fn, variational, args = _lookup(variant, params)
    if not variational:
        raise ValueError(f"variant {variant} is a closed form; it has no objective")
    return fn(*args.values(), float(x))


def curve(variant: str, params: dict, xs: Sequence[float]) -> CurveResult:
    """Tabulate (x, f(x), maximizer) for one model variant on a grid; ``params`` holds
    exactly the variant's parameters."""
    fn, variational, args = _lookup(variant, params)
    xs = list(xs)
    if not xs:
        raise ValueError("empty abscissa grid")
    pts = []
    for x in map(float, xs):
        if variational:
            xm, val = golden_max(*fn(*args.values(), x))
        else:
            xm, val = None, fn(*args.values(), x)
        pts.append(CurvePoint(x, max(0.0, val), xm))
    return CurveResult(variant=variant, params=args, points=pts)
