"""Single-queue slot dynamics, stationary laws, and exact numeric checks.

A slot processes an arrival batch A and an offered service S:

    Y = X + A            queue length after the arrival
    D = min(Y, S)        departures
    U = S - D            unused service
    X' = Y - D           queue length at the start of the next slot
    T = U + A            unused service plus the same slot's arrival
    I = U + A'           unused service plus the next slot's arrival

For Bernoulli-geometric arrivals BerGeom(p, alpha) and services
BerGeom(q, beta), the queue is reversible in equilibrium exactly when

    [alpha/(1-alpha)] * [p/(1-p)] == [beta/(1-beta)] * [q/(1-q)],

in which case departures are distributed like arrivals (a Burke-type
theorem), the queue length is independent of past departures, and the
stationary law of X is BerGeom(c, gamma) with

    c = [beta/(1-beta)] * [(1-alpha)/alpha],   gamma = (alpha-beta)/(1-beta).

This module provides the simulator, the one-parameter-family solver, a
detailed-balance residual check, busy-period likelihoods, and an
independent truncated-Markov-chain oracle for stationary laws.  One
Lindley kernel (X_j = c_j + max(X_0, M_j), c the prefix sums of A - S
and M the running maximum of -c) serves the slot engine, which runs
queues in series (the single queue is its one-stage case), and the
queue scan.  Whole traces (:func:`simulate`, :func:`simulate_series`)
are one block of all the slots; :func:`simulate_blocks` streams the same
draws and values in blocks of 2**16 slots, so its memory is bounded by
the block, and :func:`tee_csv` writes the CSV as blocks pass.  The
summary means divide four exact integers by one private formula, summed
by :func:`block_means` over blocks and by :func:`scan_means` in a Lindley
scan of the same draws, sharded by :func:`~batchq.workers.shard_spans` on
:func:`~batchq.workers.fork_map`, with every shard's contribution exact
for any start it is later given.  Simulations draw from a
:class:`~batchq.streams.RandomStream` the caller passes in; a
:class:`Trace` keeps the driving sequences and the queue lengths, and
derives the other per-slot quantities from them.  One check refuses a
run of no slots, a start below empty or a burn-in outside [0, slots) for
the engine, :func:`scan_means` and :func:`block_means`; CSV integers are >= 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from .distributions import (DistSpec, ber_geom, mean, pmf, pmf_vector, sample_chunks, sf,
                            tail_cutoff)
from .streams import RandomStream
from .workers import fork_map, shard_spans

__all__ = [
    "QueueParams",
    "StationaryLaw",
    "Trace",
    "write_csv",
    "tee_csv",
    "step",
    "simulate_blocks",
    "simulate_series",
    "simulate",
    "block_means",
    "scan_means",
    "path_max_X",
    "check_condition",
    "condition_holds",
    "match_arrival_bernoulli",
    "solve_arrival",
    "stationary_law",
    "verify_detailed_balance",
    "excursion_loglik",
    "markov_oracle",
]


@dataclass(frozen=True)
class QueueParams:
    """The four-parameter BerGeom queue: arrivals (p, alpha), services (q, beta)."""

    p: float
    alpha: float
    q: float
    beta: float

    def __post_init__(self):
        for name in ("p", "alpha", "q", "beta"):
            v = getattr(self, name)
            if not 0.0 < v < 1.0:
                raise ValueError(f"{name} must lie strictly in (0, 1), got {v}")

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


def step(x, a, s):
    """One slot update: returns (x_next, departures, unused service)."""
    if x < 0 or a < 0 or s < 0:
        raise ValueError("queue length, arrival and service must be nonnegative")
    y = x + a
    d = min(y, s)
    return y - d, d, s - d


def _prefix(a: np.ndarray, s: np.ndarray, c0, m0, dtype) -> tuple[np.ndarray, np.ndarray]:
    """Lindley kernel: c_0 = c0, M_0 = m0, c_j = c_{j-1} + A_j - S_j, M_j = max(M_{j-1}, -c_j).

    A queue started at X_0 = h has X_j = c_j + max(h, M_j).  A block started
    from the previous block's last (c, M) adds in the one-shot order, so its
    values, its first X among them, are the one-shot ones bit for bit.
    """
    c = np.empty(len(a) + 1, dtype=dtype)
    c[0] = c0
    np.subtract(a, s, out=c[1:])
    np.cumsum(c, out=c)
    m = np.negative(c)
    m[0] = m0
    np.maximum.accumulate(m, out=m)
    return c, m


_CSV_BLOCK_ROWS = 1 << 14
_DIGIT, _COMMA, _NEWLINE = (np.uint8(ord(ch)) for ch in "0,\n")


def _int_cells(col: np.ndarray) -> np.ndarray:
    """Decimal text of integer cells >= 0: character position by cell, NUL where shorter."""
    if not len(col):
        return np.zeros((0, 0), dtype=np.uint8)
    if col.min() < 0:
        raise ValueError(f"integer CSV cells must be >= 0, got {col.min()}")
    mag = col.astype(np.uint64)
    width = len(str(int(mag.max())))
    chars = np.zeros((width, len(col)), dtype=np.uint8)
    ten = np.uint64(10)
    for j in range(1, width + 1):
        # the j-th digit from the right; NUL where the number is shorter
        q = mag // ten
        digit = chars[-j]
        np.subtract(mag, q * ten, out=digit, casting="unsafe")
        digit += _DIGIT
        if j > 1:
            digit *= mag != 0
        mag = q
    return chars


def _float_cells(col: np.ndarray) -> np.ndarray:
    """``.17g`` text of float cells: character position by cell, NUL where a cell is shorter."""
    text = np.array(list(map("{:.17g}".format, col.tolist())), dtype=bytes)
    return text.view(np.uint8).reshape(len(col), text.itemsize if len(col) else 0).T


def _write_rows(fh, columns: Sequence[np.ndarray]) -> None:
    """Append one CSV row per entry of the first column, as bytes.

    A block of rows is laid out in one byte array, a NUL-padded field per
    cell followed by its separator; dropping the NULs leaves the rows.  A
    column shorter than the first one leaves its trailing cells empty.
    """
    for lo in range(0, len(columns[0]), _CSV_BLOCK_ROWS):
        rows = len(columns[0][lo:lo + _CSV_BLOCK_ROWS])
        fields = [(_int_cells if np.issubdtype(c.dtype, np.integer) else _float_cells)(
            c[lo:lo + _CSV_BLOCK_ROWS]) for c in columns]
        # character position by row, so that each field is written contiguously
        chars = np.zeros((sum(len(f) + 1 for f in fields), rows), dtype=np.uint8)
        pos = 0
        for f in fields:
            chars[pos:pos + len(f), :f.shape[1]] = f
            chars[pos + len(f)] = _COMMA
            pos += len(f) + 1
        chars[-1] = _NEWLINE
        fh.write(chars.T.tobytes().translate(None, b"\0"))


def write_csv(path, header: Sequence[str], columns: Sequence[np.ndarray]) -> None:
    """Write per-slot columns as CSV to a file name or an open binary file.

    Integer columns are exact and must be >= 0 (``ValueError`` otherwise),
    others have 17 digits.  A column shorter than the first leaves its
    trailing cells empty.  Cells are rendered a block of rows at a time,
    integers by numpy digit arithmetic.
    """
    if not hasattr(path, "write"):
        with open(path, "wb") as fh:
            return write_csv(fh, header, columns)
    path.write((",".join(header) + "\n").encode())
    _write_rows(path, columns)


@dataclass
class Trace:
    """A simulated queue path: driving sequences plus derived per-slot data.

    ``x`` holds X_n at the start of each slot; ``final_x`` is the queue
    length after the last slot.  ``i[n] = u[n] + a[n+1]`` exists for all
    but the final slot.
    """

    a: np.ndarray
    s: np.ndarray
    x_full: np.ndarray

    _csv_header = "n,A,S,X,Y,D,U,I,T".split(",")

    @property
    def x(self) -> np.ndarray:
        return self.x_full[:-1]

    @property
    def final_x(self):
        return self.x_full[-1]

    @property
    def y(self) -> np.ndarray:
        return self.x + self.a

    @property
    def d(self) -> np.ndarray:
        return np.minimum(self.y, self.s)

    @property
    def u(self) -> np.ndarray:
        return self.s - self.d

    @property
    def t(self) -> np.ndarray:
        return self.u + self.a

    @property
    def i(self) -> np.ndarray:
        """Unused service plus next arrival; one entry shorter than the trace."""
        return self.u[:-1] + self.a[1:]

    def __len__(self) -> int:
        return len(self.a)

    def check_invariants(self) -> None:
        """Raise unless every X is nonnegative and every slot has X' = Y - D.

        Y, D, U, T and I are defined from A, S and X, so only these can fail.
        An integer trace holds them exactly; a float trace to 8 ulp of
        max(1, X_0, the running max of |c|), c the prefix sums of A - S at
        whose size the kernel rounds X.  A float block of
        :func:`simulate_blocks` after the first is rounded at the c carried
        into it, which this bound does not see.
        """
        x, y = self.x_full, self.y
        if not np.all(x >= 0):  # NaN fails the comparison too
            raise ValueError(f"trace invariant violated: X >= 0 (min {np.min(x)})")
        err = np.abs(x[1:] - (y - np.minimum(y, self.s)))
        tol = 0
        if not np.issubdtype(err.dtype, np.integer):
            size = np.maximum.accumulate(np.abs(np.cumsum(self.a - self.s)))
            tol = 8 * np.finfo(float).eps * np.maximum(size, max(1.0, float(x[0])))
        if np.any(err > tol):
            raise ValueError(f"trace invariant violated: X' = Y - D (max error {err.max()})")

    def _columns(self, first_n: int, nxt) -> list[np.ndarray]:
        """CSV columns of these slots, numbered from ``first_n``; the next block completes I."""
        u = self.u
        i = self.i if nxt is None else u + np.append(self.a[1:], nxt.a[0])
        return [np.arange(first_n, first_n + len(self)), self.a, self.s, self.x, self.y,
                self.d, u, i, self.t]

    def to_csv(self, path) -> None:
        """Write the per-slot table with header n,A,S,X,Y,D,U,I,T (I empty on the final slot)."""
        write_csv(path, self._csv_header, self._columns(0, None))


def tee_csv(blocks: Iterable, path) -> Iterator:
    """Pass Trace or TandemTrace blocks on unchanged, writing their joint ``to_csv`` file.

    A block's rows are written when the next block arrives, whose first
    arrival completes the I cell of a queue block's last row.
    """
    with open(path, "wb") as fh:
        prev, first_n = None, 0
        for blk in blocks:
            if prev is None:
                fh.write((",".join(blk._csv_header) + "\n").encode())
            else:
                _write_rows(fh, prev._columns(first_n, blk))
                first_n += len(prev)
            yield blk
            prev = blk
        if prev is not None:
            _write_rows(fh, prev._columns(first_n, None))


_BLOCK_SLOTS = 1 << 16


def _check_run(n_slots: int, init_x=0, burn_in: int = 0) -> None:
    """Refuse a queue of no slots, one started below empty, or a burn-in outside its slots."""
    if n_slots < 1:
        raise ValueError("n_slots must be >= 1")
    if init_x < 0:
        raise ValueError("init_x must be nonnegative")
    if not 0 <= burn_in < n_slots:
        raise ValueError(f"burn_in must lie in [0, {n_slots}), got {burn_in}")


def _series(arrival: DistSpec, services: Sequence[DistSpec], n_slots: int,
            stream: RandomStream, init_x, block: int) -> Iterator[list[Trace]]:
    """The slot engine: queues in series, one trace per stage for each block of slots.

    Arrivals are drawn first, then each stage's services in stage order,
    each one ``sample_n`` call read in slices of ``block``.  Stage r's
    departures are stage r+1's arrivals; stage 1 starts at ``init_x``, the
    others empty.  A stage whose arrival and service dtypes differ runs in
    float.  A series needs at least one stage.
    """
    _check_run(n_slots, init_x)
    if not services:
        raise ValueError("need at least one stage")
    draws = [sample_chunks(spec, stream, n_slots, block) for spec in (arrival, *services)]
    return _run_series(zip(*draws), [init_x] + [0] * len(services))


def _run_series(blocks, inits) -> Iterator[list[Trace]]:
    carries = [(0, 0)] * len(inits)  # each stage's last (c, M) of _prefix
    for a, *services in blocks:
        stages = []
        for r, s in enumerate(services):
            a = stages[-1].d if stages else a
            if a.dtype != s.dtype:
                a, s = a.astype(float), s.astype(float)
            c, m = _prefix(a, s, *carries[r], a.dtype)
            carries[r] = c[-1], m[-1]
            stages.append(Trace(a=a, s=s, x_full=c + np.maximum(inits[r], m)))
        yield stages


def simulate_blocks(arrival: DistSpec, services: Sequence[DistSpec], n_slots: int,
                    stream: RandomStream, init_x=0) -> Iterator[list[Trace]]:
    """:func:`simulate_series` in blocks of at most 2**16 slots, with the same draws and values.

    The stream moves past all the draws at the call; memory is bounded by the block.
    """
    return _series(arrival, services, n_slots, stream, init_x, _BLOCK_SLOTS)


def simulate_series(arrival: DistSpec, services: Sequence[DistSpec], n_slots: int,
                    stream: RandomStream, init_x=0) -> list[Trace]:
    """Whole traces of queues in series, one per stage: the engine's one block of all slots."""
    return next(_series(arrival, services, n_slots, stream, init_x, n_slots))


def simulate(arrival: DistSpec, service: DistSpec, n_slots: int, stream: RandomStream,
             init_x=0) -> Trace:
    """One queue: the one-stage :func:`simulate_series`; unstable parameters are allowed."""
    return simulate_series(arrival, [service], n_slots, stream, init_x)[0]


def _slot_means(sum_x: int, sum_a: int, x_burn: int, x_end: int, count: int) -> dict[str, float]:
    """Means of X, Y and D over ``count`` slots from four exact integers.

    ``sum_x`` and ``sum_a`` sum X and A over the slots, ``x_burn`` is X at
    the first of them and ``x_end`` X after the last, so that
    sum Y = sum X + sum A and sum D = sum A + x_burn - x_end.  Each mean is
    an exact integer sum divided once: numpy's mean while a sum is below 2**53.
    """
    return {"x": sum_x / count, "y": (sum_x + sum_a) / count,
            "d": (sum_a + x_burn - x_end) / count}


def block_means(blocks: Iterable, burn_in: int, out=None) -> list[dict[str, float]]:
    """Per stage, the means of X, Y and D after burn-in of Trace or TandemTrace blocks.

    With ``out`` the blocks' joint CSV is written as they pass (:func:`tee_csv`).
    Each stage sums X and A exactly and keeps X at the burn-in slot and at the end.
    A burn-in outside [0, slots) raises ``ValueError`` once the blocks have passed.
    """
    if out:
        blocks = tee_csv(blocks, out)
    sums, first = [], 0
    for blk in blocks:
        stages = getattr(blk, "stages", [blk])
        if not sums:
            sums = [[0, 0, 0, 0] for _ in stages]  # sum X, sum A, X at burn-in, X at the end
        k = max(burn_in - first, 0)
        for tr, acc in zip(stages, sums):
            acc[0] += int(tr.x[k:].sum())
            acc[1] += int(tr.a[k:].sum())
            if k < len(tr) and burn_in >= first:
                acc[2] = int(tr.x[k])
            acc[3] = int(tr.final_x)
        first += len(blk)
    _check_run(first, burn_in=burn_in)
    return [_slot_means(*acc, first - burn_in) for acc in sums]


# scan_means splits a queue into shards of at least _SHARD_SLOTS slots, at
# most one per usable CPU, and runs each but the first in a forked worker;
# a queue below 2 * _SHARD_SLOTS slots is one shard, in-process.  Measured
# on 2 vCPUs (Python 3.11, numpy 2.4.6): one process scans about 1.5e7
# slots/s and a fork_map of two empty tasks costs about 4 ms.  Two shards
# take 11.5 ms against 5.3 ms for one at 2**16 slots, 34 ms against 35 ms
# at 2**19 (the break-even) and 44 ms against 70 ms at 2**20.  Basing the
# count on the slots per shard keeps a shard of at least 2**18 slots,
# about 17 ms of scanning, on any number of CPUs; more than two were not
# measured.
_SHARD_SLOTS = 1 << 18
# A shard other than the first records its level counts up to _LEVEL_CAP
# (512 KB of int64); a later start above that reruns the shard.
_LEVEL_CAP = 1 << 16


@dataclass(frozen=True)
class _ShardScan:
    """What a shard of slots lo..hi-1 knows of its queue before it knows X_lo.

    With c_j the shard's prefix sums of A - S (c_0 = 0) and
    M_j = max_{i<=j} -c_i, the queue started at X_lo = h has
    X_{lo+j} = c_j + max(h, M_j).  The sums run over the counted slots,
    those from the burn-in on; ``levels[v-1]`` counts the counted slots
    with M_j < v for v = 1..min(top, cap), ``top`` being M at the last
    counted slot (0 without one), and every counted slot has M_j < v above top.
    """

    sum_c: int
    sum_m: int
    sum_a: int
    count: int
    end: tuple[int, int]  # (c, M) after the shard's last slot
    at_burn: tuple[int, int] | None  # (c, M) at the burn-in slot, if it is in the shard
    top: int
    levels: np.ndarray

    def exact_for(self, h: int) -> bool:
        """The recorded levels cover a start at X_lo = h."""
        return h <= len(self.levels) or self.top <= len(self.levels)

    def sum_x(self, h: int) -> int:
        """Sum of X over the counted slots: sum c + sum M + sum_{v=1..h} #{j : M_j < v}."""
        below = int(self.levels[:h].sum()) + max(h - len(self.levels), 0) * self.count
        return self.sum_c + self.sum_m + below


def _scan_shard(arrival: DistSpec, service: DistSpec, n_slots: int, stream: RandomStream,
                lo: int, hi: int, burn: int, cap: int) -> _ShardScan:
    """Scan slots lo..hi-1 of an ``n_slots``-slot queue, reading ``simulate_blocks``' draws.

    The stream moves past all the queue's draws, as ``simulate_blocks`` moves it.
    """
    draws = [sample_chunks(spec, stream, n_slots, _BLOCK_SLOTS, lo, hi)
             for spec in (arrival, service)]
    sum_c = sum_m = sum_a = count = top = c0 = m0 = have = 0
    at_burn, levels = None, []
    first = lo
    for a, s in zip(*draws):
        m = len(a)
        c, mx = _prefix(a, s, c0, m0, np.int64)
        k = max(burn - first, 0)
        if k < m:
            if burn >= first:
                at_burn = int(c[k]), int(mx[k])
            cc, mc = c[k:m], mx[k:m]
            sum_c += int(cc.sum())
            sum_m += int(mc.sum())
            sum_a += int(a[k:].sum())
            # M never decreases, so a level at or below M is final once M reaches it
            top = int(mc[-1])
            if have < min(top, cap):
                levels.append(np.searchsorted(mc, np.arange(have + 1, min(top, cap) + 1),
                                              side="left") + count)
                have = min(top, cap)
            count += m - k
        c0, m0 = int(c[m]), int(mx[m])
        first += m
    return _ShardScan(sum_c, sum_m, sum_a, count, (c0, m0), at_burn, top,
                      np.concatenate(levels) if levels else np.zeros(0, dtype=np.int64))


def scan_means(arrival: DistSpec, service: DistSpec, n_slots: int, stream: RandomStream,
               init_x: int = 0, burn_in: int = 0) -> dict[str, float]:
    """The means of X, Y and D over slots burn_in.. of ``simulate_blocks``' single queue, sharded.

    The slots split into the contiguous shards of :func:`~batchq.workers.shard_spans`,
    of at least ``_SHARD_SLOTS`` slots each, run through :func:`~batchq.workers.fork_map`;
    each shard reads its part of the same draws from cursors and is
    scanned without its start (:class:`_ShardScan`).  The start then
    carries through the shards in order, and a shard whose recorded
    levels stop below it is rescanned here with every level.  The four
    integers, and so the means, are those of the slot engine, and the
    stream moves as ``simulate_blocks`` moves it.  The batches must be
    integer-valued.
    """
    if not (arrival.is_discrete and service.is_discrete):
        raise ValueError("the queue scan needs integer-valued arrivals and services")
    _check_run(n_slots, init_x, burn_in)
    spans = shard_spans(n_slots, n_slots, _SHARD_SLOTS)
    start = stream.ahead(0)
    # the first shard starts at init_x, known: it needs no level above it
    tasks = [(arrival, service, n_slots, stream, 0, spans[0][1], burn_in, init_x)]
    tasks += [(arrival, service, n_slots, start.ahead(0), lo, hi, burn_in, _LEVEL_CAP)
              for lo, hi in spans[1:]]
    h, sum_x, sum_a, x_burn = init_x, 0, 0, 0
    for (lo, hi), part in zip(spans, fork_map(_scan_shard, tasks)):
        if not part.exact_for(h):
            part = _scan_shard(arrival, service, n_slots, start.ahead(0), lo, hi, burn_in, h)
        if part.at_burn is not None:
            x_burn = part.at_burn[0] + max(h, part.at_burn[1])
        sum_x += part.sum_x(h)
        sum_a += part.sum_a
        h = part.end[0] + max(h, part.end[1])
    return _slot_means(sum_x, sum_a, x_burn, h, n_slots - burn_in)


def path_max_X(arrivals: Sequence[float], services: Sequence[float]):
    """Queue length after the window, from the window-maximum formula.

    For aligned driving sequences over slots m..n-1 this returns
    max over m <= k <= n of sum_{r=k}^{n-1} (A_r - S_r) (empty sum = 0),
    which equals X_n obtained by iterating :func:`step` from X_m = 0.
    The suffix sums are one cumulative sum of the reversed A - S, so this
    oracle shares no code with the slot engine's Lindley kernel.  An
    integer drive gives an int, a float drive a float.
    """
    a = np.asarray(arrivals)
    s = np.asarray(services)
    if a.shape != s.shape or a.ndim != 1:
        raise ValueError("arrivals and services must be aligned 1-d sequences")
    # the suffix sums for k = n-1 down to m; initial=0 is the empty one, k = n
    return np.cumsum((a - s)[::-1]).max(initial=0).item()


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
    in (b, 1); the fixed point is unique for 0 < lam < q/b.
    """
    if not (0 < q < 1 and 0 < b < 1):
        raise ValueError("q and b must lie strictly in (0, 1)")
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
        raise ValueError("no admissible alpha in (beta, 1); check parameters")
    alpha = min(valid)  # uniqueness makes this a single element
    p = lam * alpha
    if not 0.0 < p < 1.0:
        raise ValueError("derived p outside (0, 1); check parameters")
    return p, alpha


def _c_gamma(params: QueueParams) -> tuple[float, float]:
    """(c, gamma) of the BerGeom(c, gamma) stationary law of X."""
    c = params.beta / (1.0 - params.beta) * (1.0 - params.alpha) / params.alpha
    gamma = (params.alpha - params.beta) / (1.0 - params.beta)
    return c, gamma


def stationary_law(params: QueueParams) -> StationaryLaw:
    """Stationary BerGeom law of the queue under the reversibility condition.

    Raises when the condition fails: the stationary law is then not
    Bernoulli-geometric in general; use :func:`markov_oracle` instead.
    """
    if not params.is_stable:
        raise ValueError("unstable parameters: need p*beta < q*alpha")
    if not condition_holds(params):
        raise ValueError(
            "reversibility condition violated (residual "
            f"{check_condition(params):.3g}); the stationary law is not "
            "Bernoulli-geometric in general, use markov_oracle")
    c, gamma = _c_gamma(params)
    y_b = params.p + c - params.p * c
    return StationaryLaw(c=c, gamma=gamma, y_bernoulli=y_b)


def verify_detailed_balance(params: QueueParams) -> float:
    """Max residual of the detailed-balance identity on states up to K = 30.

    Checks, for all 0 <= k, r <= m <= K,

        pi(k) P(Y=m|X=k) P(X'=r|Y=m) == pi(r) P(Y=m|X=r) P(X'=k|Y=m)

    with pi the BerGeom(c, gamma) formula law.  Under the reversibility
    condition the residual is at rounding level; when the condition fails
    the identity genuinely breaks and the residual is macroscopic.
    """
    c, gamma = _c_gamma(params)
    if not (0 < c < 1 and 0 < gamma < 1):
        raise ValueError("formula law undefined for these parameters (need beta < alpha)")
    K = 30
    ks = np.arange(K + 1)
    pi = pmf_vector(ber_geom(c, gamma), K)
    s_spec = params.service_spec
    # arr[k, m] = P(A = m - k) for m >= k
    diff = ks[None, :] - ks[:, None]
    a_pmf = pmf_vector(params.arrival_spec, K)
    arr = np.where(diff >= 0, a_pmf[np.clip(diff, 0, K)], 0.0)
    # srv[m, r] = P(X' = r | Y = m): pmf of S at m - r for r >= 1, tail at r = 0
    s_pmf = pmf_vector(s_spec, K)
    s_sf = np.array([sf(s_spec, j) for j in range(K + 1)])
    srv = np.where(diff.T >= 0, s_pmf[np.clip(diff.T, 0, K)], 0.0)
    srv[:, 0] = s_sf
    # term[k, m, r] = pi(k) P(Y=m|X=k) P(X'=r|Y=m)
    term = pi[:, None, None] * arr[:, :, None] * srv[None, :, :]
    return float(np.abs(term - term.transpose(2, 1, 0)).max())


def _log_pmf_bergeom(p: float, a: float, k: int) -> float:
    if k == 0:
        return math.log1p(-p)
    return math.log(p) + math.log(a) + (k - 1) * math.log1p(-a)


def _log_sf_bergeom(p: float, a: float, k: int) -> float:
    # log P(X >= k) for k >= 1
    return math.log(p) + (k - 1) * math.log1p(-a)


def excursion_loglik(params: QueueParams, a_seq: Sequence[int], d_seq: Sequence[int]) -> float:
    """Log-likelihood of a busy-period excursion of the BerGeom queue.

    The excursion starts from an empty queue; arrivals a_1..a_n and
    departures d_1..d_n must satisfy sum(a) == sum(d) with all strict
    partial-sum inequalities, so the queue stays positive in between.
    The value is log P(A=a_seq, S_1..S_{n-1}=d_1..d_{n-1}, S_n >= d_n)
    given the empty start; the final service only needs to cover d_n, so
    its term is a tail probability.
    """
    a = np.asarray(a_seq, dtype=np.int64)
    d = np.asarray(d_seq, dtype=np.int64)
    n = len(a)
    if n == 0 or len(d) != n:
        raise ValueError("invalid excursion shape: need aligned nonempty sequences")
    if np.any(a < 0) or np.any(d < 0):
        raise ValueError("invalid excursion shape: negative entries")
    if a[0] == 0 or d[-1] == 0:
        raise ValueError("invalid excursion shape: need a_1 > 0 and d_n > 0")
    ca, cd = np.cumsum(a), np.cumsum(d)
    if ca[-1] != cd[-1]:
        raise ValueError("invalid excursion shape: total arrivals must equal departures")
    if n > 1 and not np.all(ca[:-1] > cd[:-1]):
        raise ValueError("invalid excursion shape: queue must stay positive before the end")
    ll = sum(_log_pmf_bergeom(params.p, params.alpha, int(k)) for k in a)
    ll += sum(_log_pmf_bergeom(params.q, params.beta, int(k)) for k in d[:-1])
    ll += _log_sf_bergeom(params.q, params.beta, int(d[-1]))
    return ll


def _pmf_table(spec, tol: float) -> np.ndarray:
    """pmf of a discrete spec on 0..tail_cutoff(spec, tol), or a checked explicit pmf vector."""
    if isinstance(spec, DistSpec):
        if not spec.is_discrete:
            raise ValueError("markov_oracle needs discrete specs")
        return pmf_vector(spec, tail_cutoff(spec, tol))
    v = np.asarray(spec, dtype=float)
    if v.ndim != 1 or np.any(v < 0) or abs(v.sum() - 1.0) > 1e-12:
        raise ValueError("explicit pmf must be a nonnegative vector summing to 1")
    return v


def markov_oracle(arrival: DistSpec, service, K: int = 200) -> np.ndarray:
    """Stationary pmf of the queue-length chain on {0..K}, brute force.

    Builds the exact one-slot kernel from pmfs and tails (``service`` may
    be a DistSpec or an explicit finite pmf vector), then solves pi P = pi
    by GTH elimination (Grassmann, Taksar & Heyman 1985): states are
    censored out from K down to 1, each exit rate is the sum of the
    remaining off-diagonal row entries, and no step subtracts, so every
    entry of the result carries a small relative error.  Arrival batches
    are truncated where their tail drops below 1e-14 and the lost kernel
    mass is left unreflected, so the result is honest about truncation:
    if the law leaves more than 1e-12 mass near the truncation boundary
    the call fails asking for a larger K, and otherwise it fails when the
    residual of pi P = pi exceeds 1e-13.
    """
    a_pmf = _pmf_table(arrival, 1e-14)
    s_pmf = _pmf_table(service, 1e-14)
    service_mean = float(np.arange(len(s_pmf)) @ s_pmf)
    if mean(arrival) >= service_mean:
        raise ValueError("unstable queue: oracle needs mean service > mean arrival")
    a_max = len(a_pmf) - 1
    m_max = K + a_max
    # service kernel: srv[m, r] = P(X' = r | Y = m) for r in 0..K
    js = np.arange(m_max + 1)[:, None] - np.arange(K + 1)[None, :]
    srv = np.where((js >= 0) & (js < len(s_pmf)), s_pmf[np.clip(js, 0, len(s_pmf) - 1)], 0.0)
    s_sf = np.concatenate((np.cumsum(s_pmf[::-1])[::-1], np.zeros(m_max + 1)))
    srv[:, 0] = s_sf[:m_max + 1]
    kernel = np.zeros((K + 1, K + 1))
    for a, w in enumerate(a_pmf):
        kernel += w * srv[a:a + K + 1, :]
    # GTH: censor state k out of the chain on {0..k}, from k = K down to 1;
    # a slot raises the queue by at most a_max, so only rows lo..k-1 reach k
    g = kernel.copy()
    for k in range(K, 0, -1):
        lo = max(0, k - a_max)
        col = g[lo:k, k] / g[k, :k].sum()
        g[lo:k, k] = col
        g[lo:k, :k] += col[:, None] * g[k, :k]
    pi = np.zeros(K + 1)
    pi[0] = 1.0
    for k in range(1, K + 1):
        pi[k] = pi[:k] @ g[:k, k]
    pi /= pi.sum()
    boundary = pi[-5:].sum()
    if not boundary <= 1e-12:
        raise RuntimeError(
            f"increase K: mass {boundary:.3g} sits near the truncation boundary")
    nxt = pi @ kernel
    residual = float(np.abs(nxt / nxt.sum() - pi).max())
    if not residual <= 1e-13:
        raise RuntimeError(f"residual {residual:.3g} of pi P = pi exceeds 1e-13; "
                           "check stability or increase K")
    return pi

