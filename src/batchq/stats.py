"""Statistical machinery shared by the verification suites.

Everything here is deterministic given (data, pooling rule).  Chi-square
p-values come from our own regularized incomplete gamma (series plus
continued fraction, accurate to ~1e-12), so no statistics library is
required.  The pooling rule is fixed: cells are merged from the tail
downward until every expected count reaches 5, and a deficient leading
group is folded into its neighbour.  A chi-square result also keeps its
pooled cell count and its worst cell (the largest term of the statistic):
the values the cell pools ("3", "3..5", or "6+" for a cell that holds the
tail from 6 on), and its observed and expected counts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "TestResult",
    "EmpiricalPmf",
    "chi_square_gof",
    "chi_square_two_sample",
    "independence_chi2",
    "lag_autocorr",
    "ks_distance",
    "ks_test",
    "encode_pairs",
    "batch_mean_stderr",
    "chi2_sf",
]


@dataclass(frozen=True)
class TestResult:
    """Outcome of one statistical check at a declared significance level.

    A chi-square test sets ``_cells`` to ``{"cells": n, "worst_cell": {"values": ...,
    "observed": ..., "expected": ...}}``, which a report shows for a failed check only.
    """

    name: str
    statistic: float
    dof: int
    p_value: float
    level: float
    passed: bool
    _cells: dict | None = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class EmpiricalPmf:
    """Counts per value on 0..cutoff plus one pooled cell for values above.

    ``counts`` has length cutoff + 2; the last entry holds the tail.
    """

    counts: np.ndarray
    n: int
    cutoff: int

    @staticmethod
    def from_samples(values: Sequence[int], cutoff: int | None = None) -> "EmpiricalPmf":
        v = np.asarray(values)
        if v.size == 0:
            raise ValueError("empty sample")
        if np.any(v < 0):
            raise ValueError("values must be nonnegative")
        vi = np.rint(v).astype(np.int64)
        if cutoff is None:
            cutoff = int(vi.max())
        counts = np.bincount(np.minimum(vi, cutoff + 1), minlength=cutoff + 2)
        return EmpiricalPmf(counts=counts.astype(np.int64), n=int(vi.size), cutoff=int(cutoff))


# --- incomplete gamma -----------------------------------------------------

_EPS = 1e-15
_ITMAX = 800


def _gamma_p_series(a: float, x: float) -> float:
    """P(a, x) over the prefactor exp(-x) x^a / Gamma(a), by its power series."""
    ap = a
    total = term = 1.0 / a
    for _ in range(_ITMAX):
        ap += 1.0
        term *= x / ap
        total += term
        if abs(term) < abs(total) * _EPS:
            break
    return total


def _gamma_q_contfrac(a: float, x: float) -> float:
    """Q(a, x) over the prefactor exp(-x) x^a / Gamma(a), by its continued fraction."""
    tiny = 1e-300
    b = x + 1.0 - a
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    for i in range(1, _ITMAX + 1):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _EPS:
            break
    return h


def gamma_q(a: float, x: float) -> float:
    """Upper regularized incomplete gamma Q(a, x) = Gamma(a, x) / Gamma(a)."""
    if a <= 0 or x < 0:
        raise ValueError("gamma_q requires a > 0 and x >= 0")
    if x == 0.0:
        return 1.0
    prefactor = math.exp(-x + a * math.log(x) - math.lgamma(a))
    if x < a + 1.0:
        return max(0.0, min(1.0, 1.0 - prefactor * _gamma_p_series(a, x)))
    return max(0.0, min(1.0, prefactor * _gamma_q_contfrac(a, x)))


def chi2_sf(stat: float, dof: int) -> float:
    """P(Chi2_dof >= stat)."""
    if dof < 1:
        raise ValueError("dof must be >= 1")
    return gamma_q(dof / 2.0, stat / 2.0)


# --- pooling --------------------------------------------------------------

def _pool_tail(observed: np.ndarray, expected: np.ndarray):
    """Merge cells from the tail downward until expected counts reach 5: the pooled
    observed and expected counts, and the index of each pooled cell's first cell."""
    groups_o: list[float] = []
    groups_e: list[float] = []
    starts: list[int] = []
    acc_o = acc_e = 0.0
    for i in range(len(observed) - 1, -1, -1):
        acc_o += observed[i]
        acc_e += expected[i]
        if acc_e >= 5.0:
            groups_o.append(acc_o)
            groups_e.append(acc_e)
            starts.append(i)
            acc_o = acc_e = 0.0
    if acc_e > 0.0 and groups_e:
        # deficient front group joins the front-most complete group
        groups_o[-1] += acc_o
        groups_e[-1] += acc_e
        starts[-1] = 0
    elif acc_e > 0.0:
        groups_o.append(acc_o)
        groups_e.append(acc_e)
        starts.append(0)
    o = np.array(groups_o[::-1])
    e = np.array(groups_e[::-1])
    if len(o) < 2 or e.min() < 5.0:
        raise ValueError("insufficient counts: fewer than two cells with expected >= 5")
    return o, e, starts[::-1]


def _spans(starts: list[int], size: int, tail: bool) -> list[str]:
    """The values each pooled cell holds, from the first cells ``starts`` of ``size`` cells;
    with ``tail`` the last cell holds every value from its index on."""
    ends = [*(s - 1 for s in starts[1:]), size - 1]
    return [f"{lo}+" if tail and hi == size - 1 else str(lo) if lo == hi else f"{lo}..{hi}"
            for lo, hi in zip(starts, ends)]


def _worst_cell(terms: np.ndarray, values: list, observed, expected) -> dict:
    """The pooled cell count and the cell of the largest statistic term, as JSON values."""
    w = int(np.argmax(terms))
    return {"cells": int(terms.size),
            "worst_cell": {"values": values[w], "observed": np.asarray(observed)[..., w].tolist(),
                           "expected": np.asarray(expected)[..., w].tolist()}}


def chi_square_gof(emp: EmpiricalPmf,
                   expected: Callable[[int], float] | np.ndarray,
                   level: float = 0.01,
                   name: str = "chi_square_gof") -> TestResult:
    """Pearson goodness-of-fit of an empirical pmf against a reference pmf.

    ``expected`` is either a pmf callable on 0..cutoff or a probability
    vector aligned with ``emp.counts`` (the tail probability is inferred
    as the remainder in the callable case).
    """
    if callable(expected):
        probs = np.array([expected(k) for k in range(emp.cutoff + 1)], dtype=float)
        tail = max(0.0, 1.0 - probs.sum())
        probs = np.append(probs, tail)
    else:
        probs = np.asarray(expected, dtype=float)
        if probs.shape != emp.counts.shape:
            raise ValueError("expected vector must align with emp.counts")
    e = probs * emp.n
    o, e, starts = _pool_tail(emp.counts.astype(float), e)
    terms = (o - e) ** 2 / e
    stat = float(terms.sum())
    dof = len(o) - 1
    p = chi2_sf(stat, dof)
    return TestResult(name, stat, dof, p, level, p >= level,
                      _worst_cell(terms, _spans(starts, len(probs), True), o, e))


def chi_square_two_sample(counts1: np.ndarray, counts2: np.ndarray,
                          level: float = 0.01,
                          name: str = "chi_square_two_sample") -> TestResult:
    """Two-sample chi-square on aligned histograms.

    Tests whether two independent count vectors come from the same
    distribution; cells are pooled from the tail until the expected count
    of the smaller sample reaches 5 in every cell.
    """
    c1 = np.asarray(counts1, dtype=float)
    c2 = np.asarray(counts2, dtype=float)
    if c1.shape != c2.shape or c1.ndim != 1:
        raise ValueError("histograms must be aligned 1-d vectors")
    n1, n2 = c1.sum(), c2.sum()
    if n1 == 0 or n2 == 0:
        raise ValueError("empty histogram")
    pooled = (c1 + c2) / (n1 + n2)
    # pool both rows with a shared grouping driven by the smaller sample
    c1p, _, starts = _pool_tail(c1, pooled * min(n1, n2))
    c2p, _, _ = _pool_tail(c2, pooled * min(n1, n2))
    p_hat = (c1p + c2p) / (n1 + n2)
    terms1 = ((c1p - n1 * p_hat) ** 2) / (n1 * p_hat)
    terms2 = ((c2p - n2 * p_hat) ** 2) / (n2 * p_hat)
    stat = float(terms1.sum() + terms2.sum())
    dof = len(c1p) - 1
    p = chi2_sf(stat, dof)
    return TestResult(name, stat, dof, p, level, p >= level,
                      _worst_cell(terms1 + terms2, _spans(starts, len(c1), False),
                                  [c1p, c2p], [n1 * p_hat, n2 * p_hat]))


def encode_pairs(a: np.ndarray, b: np.ndarray, cutoff: int) -> np.ndarray:
    """Composite category index for value pairs, each axis tail-pooled."""
    ac = np.minimum(np.asarray(a, dtype=np.int64), cutoff)
    bc = np.minimum(np.asarray(b, dtype=np.int64), cutoff)
    return ac * (cutoff + 1) + bc


def independence_chi2(x: Sequence[int], y: Sequence[int],
                      x_cutoff: int, y_cutoff: int,
                      level: float = 0.01,
                      min_pairs: int = 100_000,
                      name: str = "independence_chi2") -> TestResult:
    """Contingency-table chi-square for independence of two discrete series.

    Values above the cutoffs are pooled into the last category of each
    axis; categories are then merged from the tail until every expected
    cell count is at least 5.
    """
    xv = np.minimum(np.asarray(x, dtype=np.int64), x_cutoff)
    yv = np.minimum(np.asarray(y, dtype=np.int64), y_cutoff)
    if xv.shape != yv.shape:
        raise ValueError("series must be aligned")
    n = xv.size
    if n < min_pairs:
        raise ValueError(f"need at least {min_pairs} pairs, got {n}")
    table = np.zeros((x_cutoff + 1, y_cutoff + 1))
    np.add.at(table, (xv, yv), 1.0)
    # drop empty categories, then merge tails until expected counts are valid
    xs, ys = (np.flatnonzero(table.sum(axis=a) > 0).tolist() for a in (1, 0))
    table = table[xs][:, ys]
    if table.shape[0] < 2 or table.shape[1] < 2:
        raise ValueError("degenerate marginals: need two categories per axis")
    while True:
        rows = table.sum(axis=1, keepdims=True)
        cols = table.sum(axis=0, keepdims=True)
        expected = rows * cols / n
        if expected.min() >= 5.0:
            break
        if table.shape[0] >= table.shape[1] and table.shape[0] > 2:
            table = np.vstack([table[:-2], table[-2] + table[-1]])
            xs.pop()
        elif table.shape[1] > 2:
            table = np.hstack([table[:, :-2], (table[:, -2] + table[:, -1])[:, None]])
            ys.pop()
        else:
            raise ValueError("insufficient counts: cannot reach expected >= 5")
    terms = (table - expected) ** 2 / expected
    stat = float(terms.sum())
    dof = (table.shape[0] - 1) * (table.shape[1] - 1)
    p = chi2_sf(stat, dof)
    # a category holds its value up to the next one's; the last, from the cutoff on
    cells = [{"x": x, "y": y} for x in _spans(xs, x_cutoff + 1, True)
             for y in _spans(ys, y_cutoff + 1, True)]
    return TestResult(name, stat, dof, p, level, p >= level,
                      _worst_cell(terms.ravel(), cells, table.ravel(), expected.ravel()))


def lag_autocorr(seq: Sequence[float], lag: int) -> tuple[float, float]:
    """Sample autocorrelation at ``lag`` with its 1/sqrt(n) standard error."""
    v = np.asarray(seq, dtype=float)
    n = v.size
    if lag <= 0 or n <= 10 * lag:
        raise ValueError("need length much greater than lag")
    centered = v - v.mean()
    denom = float((centered**2).sum())
    if denom == 0.0:
        raise ValueError("autocorrelation undefined for a constant sequence")
    rho = float((centered[:-lag] * centered[lag:]).sum()) / denom
    return rho, 1.0 / math.sqrt(n)


def batch_mean_stderr(seq: Sequence[float]) -> float:
    """Standard error of the mean of a correlated series via 100 batch means."""
    n_batches = 100
    v = np.asarray(seq, dtype=float)
    if v.size < 10 * n_batches:
        raise ValueError("series too short for 100 batches")
    m = v.size // n_batches
    batches = v[: m * n_batches].reshape(n_batches, m).mean(axis=1)
    return float(batches.std(ddof=1) / math.sqrt(n_batches))


def ks_distance(samples: Sequence[float], cdf: Callable[[float], float]) -> float:
    """Two-sided Kolmogorov-Smirnov distance against a continuous cdf."""
    s = np.sort(np.asarray(samples, dtype=float))
    n = s.size
    if n == 0:
        raise ValueError("empty sample")
    f = np.array([cdf(x) for x in s])
    dplus = (np.arange(1, n + 1) / n - f).max()
    dminus = (f - np.arange(0, n) / n).max()
    return float(max(dplus, dminus))


def _kolmogorov_sf(t: float) -> float:
    """P(K > t) for the Kolmogorov distribution, t > 0.

    The alternating series 2 sum_j (-1)^(j-1) exp(-2 j^2 t^2) is summed until
    a term drops below 1e-16, which 100 terms reach only for t above about
    0.043.  Below that t it is one minus the cdf's small-t series
    sqrt(2 pi)/t sum_j exp(-(2j-1)^2 pi^2 / (8 t^2)), which converges there.
    """
    small = 2.0 * math.exp(-2.0 * 100 * 100 * t * t) >= 1e-16
    total = 0.0
    for j in range(1, 101):
        if small:
            term = math.sqrt(2.0 * math.pi) / t * math.exp(-((2 * j - 1) * math.pi / t) ** 2 / 8)
        else:
            term = 2.0 * (-1.0) ** (j - 1) * math.exp(-2.0 * j * j * t * t)
        total += term
        if abs(term) < 1e-16:
            break
    return max(0.0, min(1.0, 1.0 - total if small else total))


def ks_test(samples: Sequence[float], cdf: Callable[[float], float],
            level: float = 0.01, name: str = "ks_test") -> TestResult:
    """One-sample KS test with the asymptotic Kolmogorov p-value."""
    d = ks_distance(samples, cdf)
    n = len(samples)
    t = (math.sqrt(n) + 0.12 + 0.11 / math.sqrt(n)) * d
    p = _kolmogorov_sf(t)
    return TestResult(name, d, 0, p, level, p >= level)
