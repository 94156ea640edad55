"""Samplers of the batch laws of :mod:`batchq.laws`, and their pmf as a vector.

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
from typing import Iterator, Sequence

import numpy as np

from .laws import DistSpec, ber_geom, check_probability, deterministic, exponential, geom_plus, pmf
from .streams import RandomStream

# ber_geom, exponential and pmf are laws, re-exported where perfbench/ still reaches them
__all__ = ["pmf_vector", "sample_n", "sample_blocks", "sample_chunks", "sample_compound_n",
           "ber_geom", "exponential", "pmf"]


def pmf_vector(spec: DistSpec, kmax: int) -> np.ndarray:
    """pmf evaluated on 0..kmax as a vector (convenience for kernels)."""
    return np.array([pmf(spec, k) for k in range(kmax + 1)], dtype=float)


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
    check_probability("p", p)
    check_probability("alpha", alpha)
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
