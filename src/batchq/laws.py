"""The paper's laws and the parameters they accept, in pure ``math``: no numpy.

Geometric conventions are fixed once for the whole package and are used
everywhere by name, never as an unqualified "geometric":

* ``Geom+(a)``: support {1, 2, ...} with pmf ``a * (1-a)**(k-1)``.
* ``Geom0(a)``: ``Geom+(a) - 1``, support {0, 1, ...}.
* ``BerGeom(p, a)``: product of an independent Ber(p) and Geom+(a);
  mass ``1-p`` at zero and ``p * a * (1-a)**(k-1)`` at ``k >= 1``.
  Conditioned on being nonzero it is exactly Geom+(a), and its mean is
  ``p / a``.
* ``BerExp(p, rate)``: continuous analogue with tail
  ``P(X >= x) = p * exp(-rate * x)`` for ``x > 0``.

For Bernoulli-geometric arrivals BerGeom(p, alpha) and services
BerGeom(q, beta), the queue is reversible in equilibrium exactly when

    [alpha/(1-alpha)] * [p/(1-p)] == [beta/(1-beta)] * [q/(1-q)],

in which case departures are distributed like arrivals (a Burke-type
theorem), the queue length is independent of past departures, and the
stationary law of X is BerGeom(c, gamma) with

    c = [beta/(1-beta)] * [(1-alpha)/alpha],   gamma = (alpha-beta)/(1-beta).

:func:`solve_arrival` gives the arrival on a service's family at a given intensity,
the fixed point behind every time constant.  :func:`check_probability`, the one check
of a probability's range, serves these laws, the samplers and the time constants.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass

__all__ = ["check_probability", "DistSpec", "bernoulli", "geom_plus", "geom_zero", "ber_geom",
           "exponential", "ber_exp", "deterministic", "pmf", "sf", "mean", "variance", "pgf",
           "tail_cutoff", "QueueParams", "StationaryLaw", "check_condition", "condition_holds",
           "match_arrival_bernoulli", "solve_arrival", "formula_law", "stationary_law"]

_KINDS = ("bernoulli", "geom_plus", "geom_zero", "ber_geom", "exp", "ber_exp", "deterministic")
_CONTINUOUS = ("exp", "ber_exp")

# JSON field names per kind; fixed, see README.
_FIELDS = {
    "bernoulli": ("p",),
    "geom_plus": ("alpha",),
    "geom_zero": ("alpha",),
    "ber_geom": ("p", "alpha"),
    "exp": ("rate",),
    "ber_exp": ("p", "rate"),
    "deterministic": ("value",),
}


def check_probability(name: str, v: float) -> None:
    """Refuse ``v`` unless it lies strictly in (0, 1); NaN is refused too."""
    if not 0.0 < v < 1.0:
        raise ValueError(f"{name} must lie strictly in (0, 1), got {v}")


@dataclass(frozen=True)
class DistSpec:
    """Tagged description of a batch distribution.

    Use the factory functions (:func:`ber_geom`, :func:`geom_plus`, ...)
    rather than the constructor; they validate parameters per variant.
    """

    kind: str
    p: float | None = None
    alpha: float | None = None
    rate: float | None = None
    value: float | None = None

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown distribution kind {self.kind!r}")
        want = _FIELDS[self.kind]
        for f in ("p", "alpha", "rate", "value"):
            present = getattr(self, f) is not None
            if present != (f in want):
                raise ValueError(f"{self.kind} takes exactly the fields {want}")
        if self.p is not None:
            check_probability("p", self.p)
        if self.alpha is not None:
            check_probability("alpha", self.alpha)
        if self.rate is not None and not 0 < self.rate < math.inf:
            raise ValueError(f"rate must be positive and finite, got {self.rate}")
        if self.value is not None and not 0 <= self.value <= sys.float_info.max:
            raise ValueError(f"deterministic value must be finite and >= 0, got {self.value}")

    @property
    def is_continuous(self) -> bool:
        return self.kind in _CONTINUOUS

    @property
    def is_discrete(self) -> bool:
        """True when pmf/pgf make sense (integer-valued support)."""
        if self.is_continuous:
            return False
        if self.kind == "deterministic":
            return float(self.value).is_integer()
        return True

    def to_dict(self) -> dict:
        d = {"kind": self.kind}
        for f in _FIELDS[self.kind]:
            d[f] = float(getattr(self, f))
        return d

    @staticmethod
    def from_dict(d: dict) -> "DistSpec":
        """Parse the JSON object form; any malformed input raises ValueError."""
        if not isinstance(d, dict):
            raise ValueError(f"a distribution spec must be a JSON object, got {d!r}")
        kind = d.get("kind")
        if kind not in _KINDS:
            raise ValueError(f"unknown distribution kind {kind!r}")
        extra = set(d) - {"kind", *_FIELDS[kind]}
        if extra:
            raise ValueError(f"unexpected fields for {kind}: {sorted(extra)}")
        for f in _FIELDS[kind]:
            if f not in d:
                raise ValueError(f"{kind} needs the field {f!r}")
            if isinstance(d[f], bool) or not isinstance(d[f], numbers.Real):
                raise ValueError(f"field {f!r} of {kind} must be a number, got {d[f]!r}")
        return DistSpec(kind=kind, **{f: d[f] for f in _FIELDS[kind]})


def bernoulli(p: float) -> DistSpec:
    return DistSpec("bernoulli", p=p)


def geom_plus(alpha: float) -> DistSpec:
    return DistSpec("geom_plus", alpha=alpha)


def geom_zero(alpha: float) -> DistSpec:
    return DistSpec("geom_zero", alpha=alpha)


def ber_geom(p: float, alpha: float) -> DistSpec:
    return DistSpec("ber_geom", p=p, alpha=alpha)


def exponential(rate: float) -> DistSpec:
    return DistSpec("exp", rate=rate)


def ber_exp(p: float, rate: float) -> DistSpec:
    return DistSpec("ber_exp", p=p, rate=rate)


def deterministic(value: float) -> DistSpec:
    return DistSpec("deterministic", value=value)


def _require_discrete(spec: DistSpec, op: str) -> None:
    if not spec.is_discrete:
        detail = f"{spec.kind}(value={spec.value})" if spec.kind == "deterministic" else spec.kind
        raise ValueError(f"discrete-only operation: {op} is undefined for {detail}")


def pmf(spec: DistSpec, k: int) -> float:
    """P(X = k) for a discrete spec; raises for continuous variants."""
    _require_discrete(spec, "pmf")
    if k < 0 or k != int(k):
        raise ValueError(f"pmf defined on nonnegative integers, got {k}")
    k = int(k)
    if spec.kind == "bernoulli":
        return 1.0 - spec.p if k == 0 else (spec.p if k == 1 else 0.0)
    if spec.kind == "geom_plus":
        return 0.0 if k == 0 else spec.alpha * (1.0 - spec.alpha) ** (k - 1)
    if spec.kind == "geom_zero":
        return spec.alpha * (1.0 - spec.alpha) ** k
    if spec.kind == "ber_geom":
        if k == 0:
            return 1.0 - spec.p
        return spec.p * spec.alpha * (1.0 - spec.alpha) ** (k - 1)
    # deterministic with integral value
    return 1.0 if k == int(spec.value) else 0.0


def sf(spec: DistSpec, x: float) -> float:
    """Survival function P(X >= x); valid for every variant.

    For the discrete variants the useful arguments are integers; the tail
    formulas extend the geometric pattern analytically, e.g. for BerGeom
    ``P(X >= k) = p * (1-a)**(k-1)`` for ``k >= 1``.
    """
    if x <= 0:
        return 1.0
    if spec.kind == "exp":
        return math.exp(-spec.rate * x)
    if spec.kind == "ber_exp":
        return spec.p * math.exp(-spec.rate * x)
    if spec.kind == "deterministic":
        return 1.0 if spec.value >= x else 0.0
    k = math.ceil(x)
    if spec.kind == "bernoulli":
        return spec.p if k == 1 else 0.0
    if spec.kind == "geom_plus":
        return (1.0 - spec.alpha) ** (k - 1)
    if spec.kind == "geom_zero":
        return (1.0 - spec.alpha) ** k
    # ber_geom
    return spec.p * (1.0 - spec.alpha) ** (k - 1)


def mean(spec: DistSpec) -> float:
    """Exact expectation."""
    if spec.kind == "bernoulli":
        return spec.p
    if spec.kind == "geom_plus":
        return 1.0 / spec.alpha
    if spec.kind == "geom_zero":
        return 1.0 / spec.alpha - 1.0
    if spec.kind == "ber_geom":
        return spec.p / spec.alpha
    if spec.kind == "exp":
        return 1.0 / spec.rate
    if spec.kind == "ber_exp":
        return spec.p / spec.rate
    return float(spec.value)


def variance(spec: DistSpec) -> float:
    """Exact variance."""
    if spec.kind == "bernoulli":
        return spec.p * (1.0 - spec.p)
    if spec.kind in ("geom_plus", "geom_zero"):
        return (1.0 - spec.alpha) / spec.alpha**2
    if spec.kind == "ber_geom":
        p, a = spec.p, spec.alpha
        return p * (2.0 - a) / a**2 - (p / a) ** 2
    if spec.kind == "exp":
        return 1.0 / spec.rate**2
    if spec.kind == "ber_exp":
        p, r = spec.p, spec.rate
        return 2.0 * p / r**2 - (p / r) ** 2
    return 0.0


def pgf(spec: DistSpec, z: float) -> float:
    """Probability generating function E[z**X] for a discrete spec.

    ``z`` normally lies in [0, 1]; values up to 1 + 1e-3 are accepted so
    that the mean can be cross-checked by a central finite difference of
    the pgf at z = 1.
    """
    _require_discrete(spec, "pgf")
    if not (0.0 <= z <= 1.0 + 1e-3):
        raise ValueError(f"pgf argument must lie in [0, 1], got {z}")
    if spec.kind == "bernoulli":
        return 1.0 - spec.p + spec.p * z
    if spec.kind == "geom_plus":
        a = spec.alpha
        return a * z / (1.0 - (1.0 - a) * z)
    if spec.kind == "geom_zero":
        a = spec.alpha
        return a / (1.0 - (1.0 - a) * z)
    if spec.kind == "ber_geom":
        p, a = spec.p, spec.alpha
        return ((1.0 - p) - (1.0 - p - a) * z) / (1.0 - (1.0 - a) * z)
    return z ** int(spec.value)


def tail_cutoff(spec: DistSpec, tol: float = 1e-12) -> int:
    """Smallest K with P(X > K) <= tol (discrete variants only)."""
    _require_discrete(spec, "tail_cutoff")
    if tol <= 0:
        raise ValueError("tol must be positive")
    if spec.kind == "deterministic":
        return int(spec.value)
    k = 0
    if spec.kind != "bernoulli":
        # P(X > K) is about scale * (1-a)**K for the geometric-tailed kinds
        scale = spec.p if spec.kind == "ber_geom" else 1.0
        k = max(math.ceil(math.log(tol / scale) / math.log1p(-spec.alpha)), 0)
    # the estimate, corrected down and then up: P(X > K) = sf(K + 1)
    while k > 0 and sf(spec, k) <= tol:
        k -= 1
    while sf(spec, k + 1) > tol:
        k += 1
    return k


@dataclass(frozen=True)
class QueueParams:
    """The four-parameter BerGeom queue: arrivals (p, alpha), services (q, beta)."""

    p: float
    alpha: float
    q: float
    beta: float

    def __post_init__(self):
        for name in ("p", "alpha", "q", "beta"):
            check_probability(name, getattr(self, name))

    @property
    def arrival_spec(self) -> DistSpec:
        return ber_geom(self.p, self.alpha)

    @property
    def service_spec(self) -> DistSpec:
        return ber_geom(self.q, self.beta)

    @property
    def is_stable(self) -> bool:
        """Mean service exceeds mean arrival: p*beta < q*alpha."""
        return self.p * self.beta < self.q * self.alpha


@dataclass(frozen=True)
class StationaryLaw:
    """Stationary X ~ BerGeom(c, gamma); Y ~ BerGeom(p + c - p*c, gamma)."""

    c: float
    gamma: float
    y_bernoulli: float

    @property
    def mean_x(self) -> float:
        return self.c / self.gamma

    @property
    def mean_y(self) -> float:
        return self.y_bernoulli / self.gamma

    @property
    def x_spec(self) -> DistSpec:
        return ber_geom(self.c, self.gamma)

    def x_pmf(self, k: int) -> float:
        return pmf(self.x_spec, k)

    def to_dict(self) -> dict:
        return {
            "c": self.c,
            "gamma": self.gamma,
            "y_bernoulli": self.y_bernoulli,
            "mean_x": self.mean_x,
            "mean_y": self.mean_y,
        }


def _odds_product(a: float, p: float) -> float:
    """[a/(1-a)][p/(1-p)]: one side of the reversibility condition."""
    return a / (1.0 - a) * p / (1.0 - p)


def _condition_sides(params: QueueParams) -> tuple[float, float]:
    return _odds_product(params.alpha, params.p), _odds_product(params.beta, params.q)


def check_condition(params: QueueParams) -> float:
    """Residual of the reversibility condition; zero iff it holds.

    Returns [a/(1-a)][p/(1-p)] - [b/(1-b)][q/(1-q)].
    """
    lhs, rhs = _condition_sides(params)
    return lhs - rhs


def condition_holds(params: QueueParams) -> bool:
    """The reversibility condition holds to a relative tolerance of 1e-6."""
    # relative tolerance: near-degenerate parameters (alpha or beta close
    # to 1) cannot represent the curve more tightly than 1 - alpha allows
    lhs, rhs = _condition_sides(params)
    return abs(lhs - rhs) <= 1e-6 * max(1.0, abs(lhs), abs(rhs))


def match_arrival_bernoulli(alpha: float, q: float, beta: float) -> float:
    """The unique p placing (p, alpha) on the service's one-parameter family."""
    t = _odds_product(beta, q) * (1.0 - alpha) / alpha
    return t / (1.0 + t)


def solve_arrival(q: float, b: float, lam: float) -> tuple[float, float]:
    """Arrival parameters (p, alpha) with intensity lam on the family of (q, b).

    Solves the quadratic in alpha implied by the intensity identity
    lam = (1-alpha)*b*q / (alpha^2*(1-b-q) + alpha*b*q) and keeps the root
    in (b, 1); the fixed point is unique for 0 < lam < q/b.  In exact
    arithmetic that root exists for every such lam, but it nears b as lam
    nears q/b and 1 as lam nears 0: for a lam within rounding of either end
    (e.g. the last double below q/b) it rounds onto b or onto 1, and the
    call refuses it with a ``ValueError`` that names the end.
    """
    check_probability("q", q)
    check_probability("b", b)
    if lam <= 0:
        raise ValueError(f"arrival intensity must be positive, got {lam}")
    mu = q / b
    if lam >= mu:
        raise ValueError(f"unstable intensity: lam={lam} >= service intensity mu={mu}")
    # lam*(1-b-q)*alpha^2 + b*q*(lam+1)*alpha - b*q = 0
    ca = lam * (1.0 - b - q)
    cb = b * q * (lam + 1.0)
    cc = -b * q
    if ca == 0.0:
        roots = [-cc / cb]
    else:
        disc = cb * cb - 4.0 * ca * cc
        if disc < 0:
            raise ValueError("no real solution; parameters out of range")
        sq = math.sqrt(disc)
        # numerically stable pair of roots
        qq = -0.5 * (cb + math.copysign(sq, cb))
        roots = [qq / ca, cc / qq]
    valid = [r for r in roots if b < r < 1.0]
    if not valid:
        # exactly one root lies in (0, 1), as the quadratic is -bq at 0 and positive at 1
        if any(0.0 < r <= b for r in roots):
            raise ValueError(f"no admissible alpha in (beta, 1): the root rounded onto "
                             f"beta = {b}, as lam = {lam} is within rounding of q/b = {mu}")
        raise ValueError(f"no admissible alpha in (beta, 1): the root rounded onto 1, "
                         f"as lam = {lam} is within rounding of 0")
    alpha = min(valid)  # uniqueness makes this a single element
    p = lam * alpha
    if not 0.0 < p < 1.0:
        raise ValueError("derived p outside (0, 1); check parameters")
    return p, alpha


def formula_law(params: QueueParams) -> tuple[float, float]:
    """(c, gamma) of the BerGeom(c, gamma) formula law of X, whether or not the
    reversibility condition makes it the stationary law."""
    c = params.beta / (1.0 - params.beta) * (1.0 - params.alpha) / params.alpha
    gamma = (params.alpha - params.beta) / (1.0 - params.beta)
    return c, gamma


def stationary_law(params: QueueParams) -> StationaryLaw:
    """Stationary BerGeom law of the queue under the reversibility condition.

    Raises when the condition fails: the stationary law is then not
    Bernoulli-geometric in general; use :func:`~batchq.queue_core.markov_oracle` instead.
    """
    if not params.is_stable:
        raise ValueError("unstable parameters: need p*beta < q*alpha")
    if not condition_holds(params):
        raise ValueError(
            "reversibility condition violated (residual "
            f"{check_condition(params):.3g}); the stationary law is not "
            "Bernoulli-geometric in general, use markov_oracle")
    c, gamma = formula_law(params)
    y_b = params.p + c - params.p * c
    return StationaryLaw(c=c, gamma=gamma, y_bernoulli=y_b)
