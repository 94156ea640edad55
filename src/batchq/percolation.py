"""Directed first-passage percolation on the lattice and its continuous twin.

A directed path visits one site per column, with weakly increasing row
indices; the first-passage value is the minimum total site weight.  Two
endpoint conventions are supported:

* pinned (the default): the path starts at the query's start row and ends
  at its end row, matching the corner-to-corner first-passage time;
* free: the path may enter and leave at any rows inside [start row,
  end row].

The free variant is what the tandem identity uses: for queues started
empty at slot ``-window`` and driven by shared draws,

    sum_r X_r(0)  ==  max over -window <= m <= 0 of
                      ( sum_{n=m}^{-1} A_n  -  G(m) ),

where G(m) is the free-endpoint first passage over service weights
S[r][n] on columns m..-1 and rows 1..R (the m = 0 term is empty and
contributes 0).  This identity is exact pathwise, which is what
:func:`tandem_identity_check` verifies: it drives the slot engine of
:mod:`batchq.queue_core` (:func:`~batchq.queue_core.simulate_series`) and
the column sweep with the same draws.  With pinned endpoints it fails
for R >= 2 on finite windows, because the optimal service path may skip
the first or last stages entirely.  Reversing the service field in both
axes turns the free paths on columns m..-1 into prefix paths, so one
column sweep of the reversed field gives G(m) for every m.
Many instances run as seeded trials: instance i on substream i of a
stream (:meth:`~batchq.streams.RandomStream.trial_failures`), each one
comparison (:meth:`IdentityCheck.comparisons`).  The continuous-time
model is the lattice model on event columns, one column per distinct
event time, so ``_sweep`` is the only copy of the DP.
:func:`sample_jump_field` draws its events at Poisson rate 1 per row
(Exp(1) ``sample_n`` gaps).  :func:`enumerate_first_passage` is the
brute-force oracle for the DP; it refuses shapes with more than a million
paths, and :meth:`PathQuery.validate` a query that no path fits.

The time-constant estimator sweeps its replicas together: one
(replicas x rows) DP steps through blocks of columns, and each replica's
stream draws its block in the order of one ``sample_n`` call per column.
A whole x-grid is read off one field per replica, at column floor(x N),
so the estimates at different x are correlated.  A large estimate uses
up to one worker process per usable CPU: the replicas split into contiguous
shards, this process sweeps the first and a forked worker each other
one (:func:`~batchq.workers.fork_map`), and the values join in replica
order, so the estimates are byte-identical for any worker count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, combinations_with_replacement, islice
from typing import Sequence

import numpy as np

from .distributions import DistSpec, exponential, sample_blocks, sample_n
from .streams import RandomStream
from .workers import fork_map, shard_spans

__all__ = [
    "WeightField",
    "PathQuery",
    "JumpField",
    "TimeConstantEstimate",
    "IdentityCheck",
    "enumerate_first_passage",
    "first_passage",
    "estimate_curve",
    "estimate_time_constant",
    "sample_jump_field",
    "continuous_first_passage",
    "tandem_identity_check",
]


@dataclass
class WeightField:
    """Site weights ``weights[r, n]`` for row r (queue) and column n (slot)."""

    weights: np.ndarray

    def __post_init__(self):
        self.weights = np.asarray(self.weights)
        if self.weights.ndim != 2 or self.weights.size == 0:
            raise ValueError("weights must be a nonempty 2-d matrix")
        if not np.all(self.weights >= 0):  # NaN fails the comparison too
            raise ValueError("weights must be nonnegative (and not NaN)")

    @property
    def rows(self) -> int:
        return self.weights.shape[0]

    @property
    def columns(self) -> int:
        return self.weights.shape[1]


@dataclass(frozen=True)
class PathQuery:
    """Endpoints (column, row) -> (column, row) of a directed-path family."""

    start: tuple[int, int]
    end: tuple[int, int]
    pinned: bool = True

    def __post_init__(self):
        i, j = self.start
        k, l = self.end
        if i > k or j > l:
            raise ValueError("need start column <= end column and start row <= end row")

    def validate(self, field: WeightField) -> None:
        """Refuse endpoints outside ``field`` and a pinned query that no path fits."""
        i, j = self.start
        k, l = self.end
        if not (0 <= i and k < field.columns and 0 <= j and l < field.rows):
            raise ValueError("query endpoints outside the field")
        if self.pinned and i == k and j != l:
            raise ValueError("no pinned path: a single column cannot span two rows")


def _sweep(columns, pinned: bool):
    """Yield after each column the least weight of a path ending at each row;
    pinned paths start at the top row of the first column, free ones anywhere.

    Rows run along the last axis of each column; leading axes index
    independent fields swept together.  Every yield is the same array,
    updated in place for the next column, so a sweep allocates no array
    per column: a caller reads a column's values before it asks for the
    next and keeps no yield (``dp.copy()`` keeps one).  The prefix minima
    are ``np.fmin.accumulate``, which skips numpy's NaN propagation; it
    gives ``np.minimum``'s bits on NaN-free weights, and the samplers,
    :class:`WeightField` and :class:`JumpField` admit no NaN.
    """
    columns = iter(columns)
    first = next(columns)
    if pinned:
        dp = np.full(first.shape, np.inf)
        dp[..., 0] = first[..., 0]
    else:
        dp = first.astype(float, copy=True)
    yield dp
    low = np.empty_like(dp)
    for col in columns:
        np.fmin.accumulate(dp, axis=-1, out=low)
        np.add(col, low, out=dp)
        yield dp


def first_passage(field: WeightField, query: PathQuery) -> float:
    """Minimum path weight via a column sweep with prefix minima.

    Runs in O(columns x rows) time.  It equals the brute-force
    enumeration exactly on integer-valued weights; on float weights the two
    can differ in the last bit, since the DP adds a path's weights left to
    right and numpy's sum adds more than 8 terms pairwise.
    """
    query.validate(field)
    i, j = query.start
    k, l = query.end
    sub = field.weights[j:l + 1, i:k + 1]
    for dp in _sweep(sub.T, query.pinned):
        pass
    out = dp[-1] if query.pinned else dp.min()
    return float(out)


# The row sequences of a shape are built _ENUM_CELLS index cells at a time
# (512 KB), and the sequences of shapes that fit one such block are kept,
# for at most 64 shapes (32 MB).
_ENUM_CELLS = 1 << 16


def _row_sequences(n_cols: int, span: int):
    """Yield (paths, n_cols) index arrays whose rows are, in lexicographic
    order, the weakly increasing sequences of n_cols rows in range(span)."""
    seqs = combinations_with_replacement(range(span), n_cols)
    per = max(1, _ENUM_CELLS // n_cols)
    while True:
        flat = np.fromiter(chain.from_iterable(islice(seqs, per)), dtype=np.intp)
        if not flat.size:
            return
        yield flat.reshape(-1, n_cols)


@lru_cache(maxsize=64)
def _small_row_sequences(n_cols: int, span: int) -> tuple[np.ndarray, ...]:
    blocks = tuple(_row_sequences(n_cols, span))
    for b in blocks:
        b.flags.writeable = False  # every later call of the shape shares them
    return blocks


def enumerate_first_passage(field: WeightField, query: PathQuery) -> float:
    """Brute-force oracle: enumerate every monotone row sequence.

    Row sequences are weakly increasing, one per column; refuses when the
    binomial path count exceeds a million.  Each path's weight is summed
    on its own (numpy's sum of the path's weights), with no DP.
    """
    query.validate(field)
    i, j = query.start
    k, l = query.end
    n_cols = k - i + 1
    span = l - j + 1
    paths = math.comb(n_cols + span - 1, span - 1)
    if paths > 1_000_000:
        raise ValueError("too many paths for brute-force enumeration")
    if paths * n_cols <= _ENUM_CELLS:
        blocks = _small_row_sequences(n_cols, span)
    else:
        blocks = _row_sequences(n_cols, span)
    best = np.inf
    cols = np.arange(i, k + 1)
    for seqs in blocks:
        if query.pinned:
            seqs = seqs[(seqs[:, 0] == 0) & (seqs[:, -1] == span - 1)]
        if len(seqs):
            best = min(best, field.weights[j + seqs, cols].sum(axis=1).min())
    if not np.isfinite(best):
        raise ValueError("empty path set")
    return float(best)


@dataclass(frozen=True)
class TimeConstantEstimate:
    """Replica mean of F((0,0),(floor(x N), N)) / N with a 95% CI."""

    x: float
    n: int
    mean: float
    ci_lo: float
    ci_hi: float
    replicas: int


# A group of replicas draws _BLOCK_COLUMNS columns per replica into one
# (replicas, columns, rows) block (``sample_blocks``), whose buffer the
# group's whole sweep reuses.  A group's block holds at most _BLOCK_CELLS
# weights, so the buffer is 4 MB of uniforms (8 MB for the Bernoulli-mixed
# kinds, two uniforms per weight) and a group is one replica once N exceeds
# 32767: memory grows with neither the replica count nor the columns.  On 2
# vCPUs (Python 3.11, numpy 2.4.6), blocks of 8, 16 and 32 columns swept
# the README estimate (Exp(1), N=400, 100 replicas, x up to 4) equally
# fast, 0.53-0.55 s in the median; 16 takes half of 8's stream fills.
_BLOCK_COLUMNS = 16
_BLOCK_CELLS = 1 << 19

# Replicas are split into contiguous shards, at most one per _SHARD_CELLS
# weights (replicas x rows x columns), per usable CPU and per replica,
# each but the first run in a forked worker; an estimate below
# 2 * _SHARD_CELLS weights is one shard, in-process.  Measured on 2 vCPUs
# (Python 3.11, numpy 2.4.6): one process sweeps 3-5e7 weights/s, and a
# fork_map of two empty tasks costs about 4 ms (os.fork of the imported
# CLI, a pipe and a wait).  Two shards break even near 6e5 weights (19 ms
# either way), save 4 ms of 39 at 1.5e6 and half the time from 6e6 on.
# Basing the count on the weights keeps shards of about 2**19 weights or
# more on any number of CPUs; more than two were not measured.
_SHARD_CELLS = 1 << 19


def _shard(weight_spec: DistSpec, stream: RandomStream, n: int, cols: Sequence[int],
           lo: int, hi: int) -> dict[int, np.ndarray]:
    """F((0,0),(c, N)) / N at every column c of ``cols`` for replicas lo..hi-1.

    Replica r draws from ``stream.substream(r)``, column by column (row-major
    within a column) in the order of one ``sample_n`` call per column, so
    fields are reproducible without being stored; the replicas are swept
    in groups of at most ``_BLOCK_CELLS`` weights per block.  The DP is
    elementwise across replicas, so a replica's values do not depend on
    the shard or group it is swept in.
    """
    rows, n_cols = n + 1, max(cols) + 1
    vals = {c: np.empty(hi - lo) for c in cols}
    group = max(1, _BLOCK_CELLS // (_BLOCK_COLUMNS * rows))
    for g in range(lo, hi, group):
        g_hi = min(g + group, hi)
        streams = [stream.substream(r) for r in range(g, g_hi)]
        blocks = sample_blocks(weight_spec, streams, n_cols, rows, _BLOCK_COLUMNS)
        # each (replicas, columns, rows) block yields its (replicas, rows) columns
        sweep = _sweep(chain.from_iterable(b.swapaxes(0, 1) for b in blocks), pinned=True)
        for c, dp in enumerate(sweep):
            if c in vals:
                vals[c][g - lo:g_hi - lo] = dp[:, -1] / n
    return vals


def _replica_values(weight_spec: DistSpec, stream: RandomStream, n: int, cols: Sequence[int],
                    replicas: int) -> dict[int, np.ndarray]:
    """:func:`_shard` over all replicas, joined in replica order: the
    contiguous shards of :func:`shard_spans`, at most one per
    ``_SHARD_CELLS`` weights, through :func:`fork_map`."""
    cells = replicas * (n + 1) * (max(cols) + 1)
    parts = fork_map(_shard, [(weight_spec, stream, n, cols, lo, hi)
                              for lo, hi in shard_spans(replicas, cells, _SHARD_CELLS)])
    return {c: np.concatenate([p[c] for p in parts]) for c in cols}


def estimate_curve(weight_spec: DistSpec, xs: Sequence[float], n: int, replicas: int,
                   stream: RandomStream) -> list[TimeConstantEstimate]:
    """Monte Carlo estimates of the time constant at every aspect ratio in ``xs``.

    Replica r draws one field from ``stream.substream(r)``, with
    floor(max(xs) N) + 1 columns, and every grid point reads its value off
    that field at column floor(x N); so estimates at different x are
    correlated.  One sweep advances a (replicas x rows) DP through blocks
    of columns, each replica's block drawn in the order of one
    ``sample_n`` call per column.  A field's first columns do not depend
    on its length, so each estimate equals that of a one-point grid, and
    of one replica at a time.  Large estimates split the replicas into
    contiguous shards, at most one per usable CPU, each but the first swept in a
    forked worker process; the values, and so the estimates, are bit for
    bit those of one process.  Estimates come back in the order of ``xs``; repeated
    and unsorted values are allowed.
    """
    if len(xs) == 0:
        raise ValueError("empty x grid: need at least one aspect ratio")
    if n < 10:
        raise ValueError("N must be at least 10")
    if replicas < 2:
        raise ValueError("need at least 2 replicas for a confidence interval")
    cols = []
    for x in xs:
        if not (x > 0 and math.isfinite(x)):
            raise ValueError(f"aspect ratio x={x!r} must be positive and finite")
        c = int(math.floor(x * n))
        if c == 0:
            raise ValueError(f"aspect ratio x={x!r} is too small for N={n}: floor(x*N) = 0 "
                             "leaves one column, which no path from row 0 to row N fits")
        cols.append(c)
    vals = _replica_values(weight_spec, stream, n, sorted(set(cols)), replicas)
    out = []
    for x, c in zip(xs, cols):
        v = vals[c]
        m = float(v.mean())
        half = 1.96 * float(v.std(ddof=1)) / math.sqrt(replicas)
        out.append(TimeConstantEstimate(x=x, n=n, mean=m, ci_lo=m - half, ci_hi=m + half,
                                        replicas=replicas))
    return out


def estimate_time_constant(weight_spec: DistSpec, x: float, n: int, replicas: int,
                           stream: RandomStream, threads: int | None = None) -> TimeConstantEstimate:
    """Monte Carlo estimate of the time constant at aspect ratio ``x``.

    The one-point case of :func:`estimate_curve`: replica r draws its
    field from ``stream.substream(r)``, so the estimate equals the row at
    ``x`` of any grid estimated on the same stream.  Like it, a large
    estimate uses up to one worker process per usable CPU and is bit for bit
    the one-process estimate.  ``threads`` is accepted and still ignored.
    """
    return estimate_curve(weight_spec, [x], n, replicas, stream)[0]


@dataclass
class JumpField:
    """Per-row jump processes: sorted event times in (0, horizon] with weights."""

    times: list[np.ndarray]
    weights: list[np.ndarray]
    horizon: float

    def __post_init__(self):
        if len(self.times) != len(self.weights) or not self.times:
            raise ValueError("need aligned nonempty times/weights lists")
        for t, w in zip(self.times, self.weights):
            if len(t) != len(w):
                raise ValueError("each row needs aligned times and weights")
            if len(t) and (np.any(np.diff(t) <= 0)):
                raise ValueError("event times must be strictly increasing per row")
            if len(t) and (t[0] <= 0 or t[-1] > self.horizon):
                raise ValueError("event times must lie in (0, horizon]")
            if not np.all(np.asarray(w) > 0):  # NaN fails the comparison too
                raise ValueError("event weights must be positive (and not NaN)")

    @property
    def rows(self) -> int:
        return len(self.times)


def sample_jump_field(n_rows: int, horizon: float, weight_spec: DistSpec,
                      stream: RandomStream) -> JumpField:
    """Rows of rate-1 Poisson event times carrying i.i.d. weights."""
    if n_rows < 1 or horizon <= 0:
        raise ValueError("need n_rows >= 1 and horizon > 0")
    times, weights = [], []
    for _ in range(n_rows):
        # exponential gaps, drawn in blocks until the horizon is passed
        t, acc = [], 0.0
        while acc <= horizon:
            for g in sample_n(exponential(1.0), stream, 64):
                acc += g
                if acc > horizon:
                    break
                t.append(acc)
        t = np.array(t)
        w = sample_n(weight_spec, stream, len(t)).astype(float)
        if np.any(w <= 0):
            raise ValueError("weight spec must produce strictly positive weights")
        times.append(t)
        weights.append(w)
    return JumpField(times=times, weights=weights, horizon=horizon)


def continuous_first_passage(field: JumpField, s: float, t: float, j: int, l: int) -> float:
    """Infimum path cost when the column direction is continuous time.

    The path occupies row j just after time ``s``, switches upward at
    freely chosen increasing times, and occupies row ``l`` through time
    ``t``; it pays each event landing on its occupied row.  The infimum is
    attained with switch times in the open gaps between events, so this is
    the free-endpoint lattice first passage on event columns: a zero column,
    then one column per distinct event time in (s, t] holding that time's
    event weights on their rows (a row has at most one event per time).
    """
    if not 0 <= s < t <= field.horizon:
        raise ValueError("need 0 <= s < t <= horizon")
    if not 0 <= j <= l < field.rows:
        raise ValueError("row range out of bounds")
    rows = range(j, l + 1)
    masks = [(field.times[r] > s) & (field.times[r] <= t) for r in rows]
    times = np.unique(np.concatenate([field.times[r][m] for r, m in zip(rows, masks)]))
    cols = np.zeros((1 + len(times), len(rows)))
    for k, (r, m) in enumerate(zip(rows, masks)):
        cols[1 + np.searchsorted(times, field.times[r][m]), k] = field.weights[r][m]
    for dp in _sweep(cols, pinned=False):
        pass
    return float(dp.min())


@dataclass(frozen=True)
class IdentityCheck:
    """Result of one pathwise tandem-versus-percolation comparison."""

    lhs: float
    rhs: float
    equal: bool
    best_m: int

    def comparisons(self) -> list[tuple[float, float, dict]]:
        """This check as the one comparison of a seeded trial
        (:meth:`~batchq.streams.RandomStream.trial_failures`): it fails when
        the sides differ, and names ``lhs``, ``rhs`` and ``best_m``."""
        return [(float(not self.equal), 0.0,
                 {"lhs": self.lhs, "rhs": self.rhs, "best_m": self.best_m})]


def tandem_identity_check(arrival: DistSpec, services: Sequence[DistSpec],
                          window: int, stream: RandomStream) -> IdentityCheck:
    """Drive a tandem and the percolation DP with shared draws and compare.

    Queues start empty ``window`` slots before time 0.  The left side is
    the total queue length at time 0 summed over stages; the right side is
    the max over window starts m of (arrivals in [m, 0) minus the
    free-endpoint first passage of the service weights on columns m..-1).
    Costs O(window x R).  Equality is exact when arrivals and services are
    both integer-valued, and to 1e-9 otherwise.  The slot engine refuses a
    ``window`` below 1.
    """
    from .queue_core import simulate_series  # only the identity check runs the slot engine

    stages = simulate_series(arrival, services, window, stream)
    total = sum(tr.final_x for tr in stages)
    a = stages[0].a
    w = np.stack([tr.s for tr in stages])
    # g[k] = G(m) for window start m = window-1-k: the first k+1 reversed columns
    g = np.fromiter((dp.min() for dp in _sweep(w[::-1, ::-1].T, pinned=False)),
                    float, count=window)
    # vals[i] is for m = window-i (0 for the empty m = window); ties keep the largest m
    vals = np.concatenate(([0], np.cumsum(a[::-1]) - g))
    i = int(np.argmax(vals))
    lhs, rhs = total, vals[i]
    discrete = np.issubdtype(np.result_type(a, w), np.integer)
    equal = (lhs == rhs) if discrete else bool(abs(float(lhs) - float(rhs)) <= 1e-9)
    return IdentityCheck(lhs=float(lhs), rhs=float(rhs), equal=bool(equal), best_m=-i)
