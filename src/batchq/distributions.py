"""Arrival and service batch distributions.

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

Samplers are inverse-transform based (geometric draws cost O(1) regardless
of the value) and consume a fixed number of uniforms per draw, so a seeded
:class:`~batchq.streams.RandomStream` reproduces sequences bit-exactly.
One transform makes every value (``_values``, which writes the values
over their uniforms; a deterministic batch reads none and is its one
value, broadcast read-only to the batch's shape), and one spec check
(``_check_sampleable``) refuses, at the call and before any uniform is
read, a spec none of whose values can be made.  The three samplers differ
only in where their uniforms come from: :func:`sample_n` reads them from
the stream, :func:`sample_chunks` yields one ``sample_n`` call, or a range
of its values, in bounded slices read from stream cursors, and
:func:`sample_blocks` draws successive calls of many streams into one
reused block buffer and transforms each block at once.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .streams import RandomStream

__all__ = [
    "DistSpec",
    "bernoulli",
    "geom_plus",
    "geom_zero",
    "ber_geom",
    "exponential",
    "ber_exp",
    "deterministic",
    "pmf",
    "pmf_vector",
    "sf",
    "mean",
    "variance",
    "pgf",
    "sample_n",
    "sample_blocks",
    "sample_chunks",
    "sample_compound_n",
    "tail_cutoff",
]

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


def _check_prob(name: str, v: float) -> float:
    v = float(v)
    if not 0.0 < v < 1.0:
        raise ValueError(f"{name} must lie strictly in (0, 1), got {v}")
    return v


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
            _check_prob("p", self.p)
        if self.alpha is not None:
            _check_prob("alpha", self.alpha)
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


def pmf_vector(spec: DistSpec, kmax: int) -> np.ndarray:
    """pmf evaluated on 0..kmax as a vector (convenience for kernels)."""
    return np.array([pmf(spec, k) for k in range(kmax + 1)], dtype=float)


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


def _uniforms_per_value(spec: DistSpec) -> int:
    if spec.kind == "deterministic":
        return 0
    return 2 if spec.kind in ("ber_geom", "ber_exp") else 1


def _as_int64(k: np.ndarray) -> np.ndarray:
    """The integer-valued doubles ``k`` cast to int64 over their own memory.

    A cast along one axis reads each double before it writes its integer,
    so numpy casts a contiguous ``k`` with no temporary; a strided ``k`` it
    casts through a copy.
    """
    out = k.view(np.int64)
    if k.flags.c_contiguous:
        out.reshape(-1)[...] = k.reshape(-1)
    else:
        out[...] = k
    return out


def _geom_plus_values(alpha: float, u: np.ndarray) -> np.ndarray:
    """Inverse-transform Geom+(alpha) values 1 + floor(log1p(-u) / log1p(-alpha)),
    written over ``u`` and returned as its int64 view."""
    np.negative(u, out=u)
    np.log1p(u, out=u)
    u /= math.log1p(-alpha)
    np.floor(u, out=u)
    u += 1
    if u.size and u.max() >= 2.0**63:
        raise ValueError(f"Geom+({alpha:g}) draw does not fit in int64; alpha is too small")
    return _as_int64(u)


# the largest Exp(1) value the transform makes, -log1p(-u) at the largest uniform 1 - 2**-53
_EXP1_MAX = 53 * math.log(2.0)


def _check_sampleable(spec: DistSpec) -> None:
    """Refuse, before any uniform is read, a spec none of whose values can be made:
    a deterministic value beyond int64, or a rate whose largest draw overflows."""
    if spec.kind == "deterministic" and not spec.value < 2.0**63:
        raise ValueError(f"deterministic value {spec.value:g} does not fit in int64")
    if spec.is_continuous and not math.isfinite(_EXP1_MAX / spec.rate):
        raise ValueError(f"{spec.kind} draws overflow float64 at rate {spec.rate:g}; "
                         "the rate is too small")


def _values(spec: DistSpec, u: Sequence[np.ndarray], shape) -> np.ndarray:
    """Values of ``spec`` written over their uniforms: the one copy of each transform.

    ``u`` holds one row of uniforms per uniform a value takes, each of the values'
    ``shape``: deterministic reads none, the plain kinds their one row, and the
    Bernoulli-mixed kinds their Bernoulli from row 0 and their magnitude from row 1,
    which they write their values over.  The result is a view of the row written over
    (float64 for the continuous kinds, int64 for the discrete ones), and deterministic's
    is its one value; a transform allocates at most a Bernoulli mask and, for a strided
    discrete block, numpy's cast copy.  A Geom+ draw beyond int64, which depends on its
    uniform, is refused here.
    """
    if spec.kind == "deterministic":  # its one value, read-only, with zero strides
        return np.broadcast_to((np.int64 if spec.is_discrete else np.float64)(spec.value), shape)
    b, x = u[0], u[-1]  # the Bernoulli and the magnitude uniforms; one row for a plain kind
    if spec.kind == "bernoulli":
        np.less(b, spec.p, out=b)
        return _as_int64(b)
    if spec.kind == "geom_plus":
        return _geom_plus_values(spec.alpha, x)
    if spec.kind == "geom_zero":
        k = _geom_plus_values(spec.alpha, x)
        k -= 1
        return k
    if spec.kind == "ber_geom":
        k = _geom_plus_values(spec.alpha, x)
        k *= b < spec.p
        return k
    # -log1p(-x) / rate, with the sign moved onto the divisor: the same bits
    np.negative(x, out=x)
    np.log1p(x, out=x)
    x /= -spec.rate
    if spec.kind == "ber_exp":
        x *= b < spec.p
    return x


def sample_n(spec: DistSpec, stream: RandomStream, n: int) -> np.ndarray:
    """n independent draws; int64 for discrete kinds, float64 for continuous.

    Draw budget per value is fixed (two uniforms for the Bernoulli-mixed
    kinds, one for the plain ones, none for deterministic), which keeps
    replica substreams aligned regardless of the sampled values.  The
    Bernoulli-mixed kinds read their n Bernoulli uniforms first and then
    their n magnitude uniforms.  A deterministic batch is one read-only value, broadcast.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    _check_sampleable(spec)
    return _values(spec, [stream.uniforms(n) for _ in range(_uniforms_per_value(spec))], n)


def sample_blocks(spec: DistSpec, streams: Sequence[RandomStream], calls: int, n: int,
                  block: int) -> Iterator[np.ndarray]:
    """``calls`` successive ``sample_n(spec, s, n)`` calls per stream s, in blocks of at most ``block``.

    Each yield is a (len(streams), m, n) array, m <= block, whose [i, j] row is stream i's
    next call, bit for bit.  A block's uniforms go from each stream straight into its slice
    of one (streams, block, uniforms per value, n) buffer, and one :func:`_values` call
    transforms the block over them (a deterministic block is a read-only view of its one
    value).  Every block is written over that buffer, so a caller reads a block before it
    asks for the next and keeps none (``.copy()`` keeps one).
    """
    if calls < 0 or n < 0:
        raise ValueError("calls and n must be nonnegative")
    if block < 1:
        raise ValueError("block must be positive")
    _check_sampleable(spec)
    return _blocks(spec, streams, calls, n, block)


def _blocks(spec: DistSpec, streams: Sequence[RandomStream], calls: int, n: int,
            block: int) -> Iterator[np.ndarray]:
    buf = np.empty((len(streams), block, _uniforms_per_value(spec), n))
    for c in range(0, calls, block):
        u = buf[:, :min(block, calls - c)]
        for s, rows in zip(streams, u):
            s.fill(rows)
        yield _values(spec, np.moveaxis(u, 2, 0), u.shape[:2] + (n,))


def sample_chunks(spec: DistSpec, stream: RandomStream, n: int, block: int,
                  lo: int = 0, hi: int | None = None) -> Iterator[np.ndarray]:
    """Values lo..hi-1 of ``sample_n(spec, stream, n)`` in consecutive slices of at most ``block``.

    The slices concatenate to that part of one ``sample_n`` call bit for bit, with memory
    bounded by the block, and the stream moves past all n values at the call, whatever the
    range (``hi`` defaults to n).  One slice of all n values (0 < n <= block) is that call;
    the others are read later from cursors (:meth:`~batchq.streams.RandomStream.ahead`)
    opened at value lo, for the Bernoulli-mixed kinds at offset lo for the Bernoulli
    uniforms and at offset n + lo for the magnitudes.
    """
    hi = n if hi is None else hi
    if n < 0:
        raise ValueError("n must be nonnegative")
    if not 0 <= lo <= hi <= n:
        raise ValueError(f"need 0 <= lo <= hi <= n, got lo={lo}, hi={hi}, n={n}")
    if block < 1:
        raise ValueError("block must be positive")
    if 0 < n <= block and (lo, hi) == (0, n):
        # the call itself: opening a cursor costs more than drawing 1000 exp values
        return iter([sample_n(spec, stream, n)])
    _check_sampleable(spec)
    cursors = [stream.ahead(j * n + lo) for j in range(_uniforms_per_value(spec))]
    stream.skip(len(cursors) * n)
    sizes = (min(block, hi - start) for start in range(lo, hi, block))
    return (_values(spec, [c.uniforms(m) for c in cursors], m) for m in sizes)


def sample_compound_n(p: float, alpha: float, stream: RandomStream, n: int) -> np.ndarray:
    """n draws of a geometric number of independent Geom+ summands.

    Draws V with P(V = k) = (1-p) * p**k for k >= 0, then V i.i.d.
    Geom+(alpha / (1-p)) summands; the sum is distributed BerGeom(p, alpha).
    The representation needs the summand parameter alpha / (1-p) <= 1,
    i.e. alpha <= 1 - p.
    """
    _check_prob("p", p)
    _check_prob("alpha", alpha)
    if alpha - (1.0 - p) > 1e-12:
        raise ValueError("compound representation unavailable: requires alpha <= 1 - p")
    def geom_plus_n(a: float, m: int) -> np.ndarray:
        # Geom+(1), and a parameter rounded above 1, is the constant 1 and draws nothing
        return sample_n(geom_plus(a) if a < 1.0 else deterministic(1), stream, m)
    # V = Geom+(1-p) - 1 counts the summands
    v = geom_plus_n(1.0 - p, n) - 1
    total = int(v.sum())
    w = geom_plus_n(alpha / (1.0 - p), total)
    out = np.zeros(n, dtype=np.int64)
    ends = np.cumsum(v)
    starts = ends - v
    nonzero = v > 0
    if total:
        csum = np.concatenate(([0], np.cumsum(w)))
        out[nonzero] = csum[ends[nonzero]] - csum[starts[nonzero]]
    return out


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
