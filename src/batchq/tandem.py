"""Queues in series: departures feed the next stage within the same slot.

The update order inside a slot is fixed: stage 1 receives the external
arrival and serves; its departures are the stage-2 arrivals of the same
slot, and so on down the line.  For Bernoulli-geometric stages whose
(q_r, beta_r) all sit on the arrival's one-parameter family, the stage
queue lengths at a fixed time are independent with the single-queue
stationary marginals (the product-form theorem), and every stage's
departure process is distributed like the external arrival process.

:func:`simulate_tandem` draws from a stream the caller passes in and runs
the stages on the slot engine of :mod:`batchq.queue_core` in one block;
:func:`verify_product_form` tests the product form on the resulting trace.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .distributions import DistSpec
from .queue_core import QueueParams, Trace, simulate_series, stationary_law, write_csv
from .streams import RandomStream

if TYPE_CHECKING:
    from .stats import TestResult

__all__ = ["TandemConfig", "TandemTrace", "simulate_tandem", "verify_product_form"]


@dataclass(frozen=True)
class TandemConfig:
    """R queues in series: one arrival spec and one service spec per stage."""

    arrival: DistSpec
    services: tuple[DistSpec, ...]

    def __init__(self, arrival: DistSpec, services: Sequence[DistSpec]):
        object.__setattr__(self, "arrival", arrival)
        object.__setattr__(self, "services", tuple(services))

    @property
    def stages(self) -> int:
        return len(self.services)

    @staticmethod
    def bergeom(params: QueueParams, stages: int) -> "TandemConfig":
        """Homogeneous Bernoulli-geometric tandem from one parameter set."""
        return TandemConfig(params.arrival_spec, [params.service_spec] * stages)

    def stage_params(self, r: int) -> QueueParams:
        """BerGeom 4-tuple for stage r (arrival side is the external arrival)."""
        if self.arrival.kind != "ber_geom" or self.services[r].kind != "ber_geom":
            raise ValueError("stage_params requires Bernoulli-geometric specs")
        sv = self.services[r]
        return QueueParams(p=self.arrival.p, alpha=self.arrival.alpha, q=sv.p, beta=sv.alpha)


@dataclass
class TandemTrace:
    """Aligned per-stage traces; stage r's arrivals equal stage r-1's departures."""

    config: TandemConfig
    stages: list[Trace]

    def __len__(self) -> int:
        return len(self.stages[0])

    @property
    def R(self) -> int:
        return len(self.stages)

    def check_feed_forward(self) -> tuple[int, tuple[int, int] | None]:
        """Exact conservation, departures of stage r are arrivals of stage r+1:
        the number of slots, over every pair of consecutive stages, where
        stage r's D differs from stage r+1's A, and the first such (r, slot)
        in stage order, stages numbered from 1 (None when there is none)."""
        slots = [np.flatnonzero(self.stages[r].d != self.stages[r + 1].a)
                 for r in range(self.R - 1)]
        first = next(((r + 1, int(s[0])) for r, s in enumerate(slots) if s.size), None)
        return sum(s.size for s in slots), first

    @property
    def _csv_header(self) -> list[str]:
        return ["n", "A"] + [f"X{r+1}" for r in range(self.R)] + [f"D{r+1}" for r in range(self.R)]

    def _columns(self, first_n: int, nxt) -> list[np.ndarray]:
        """CSV columns of these slots, numbered from ``first_n``; no cell needs the next block."""
        return [np.arange(first_n, first_n + len(self)), self.stages[0].a,
                *(tr.x for tr in self.stages), *(tr.d for tr in self.stages)]

    def to_csv(self, path) -> None:
        """One row per slot: n, A, then per-stage X1..XR and D1..DR (cells as in Trace.to_csv)."""
        write_csv(path, self._csv_header, self._columns(0, None))


def simulate_tandem(config: TandemConfig, n_slots: int, stream: RandomStream) -> TandemTrace:
    """Simulate the tandem for ``n_slots`` slots, all stages starting empty.

    Stream discipline: the external arrival sequence is drawn first, then
    the stage service sequences in stage order, so the stream's seed pins
    the whole system.
    """
    return TandemTrace(config, simulate_series(config.arrival, config.services, n_slots, stream))


def verify_product_form(trace: TandemTrace, burn_in: int = 10_000,
                        level: float = 0.01, stride: int = 9) -> list[TestResult]:
    """Product-form checks on a stationary portion of a tandem trace.

    Runs (a) a marginal goodness-of-fit of each stage's queue length
    against its BerGeom stationary law, (b) pairwise cross-stage
    independence of the X's at a common slot, and (c) pairwise
    independence of the staggered Y's (Y1_n, Y2_{n-1}, ..., YR_{n-R+1}).
    Queue lengths along one trace are autocorrelated, so slots are thinned
    by ``stride`` after the first ``burn_in`` slots before testing;
    queue-length cells are truncated at 8 with pooled tails.
    """
    from .stats import EmpiricalPmf, chi_square_gof, independence_chi2  # only the checks test

    n = len(trace)
    cut = 8
    if n - burn_in < 100_000:
        raise ValueError("trace too short: need at least 1e5 post-burn-in slots")
    laws = [stationary_law(trace.config.stage_params(r)) for r in range(trace.R)]
    results: list[TestResult] = []
    for r, tr in enumerate(trace.stages):
        emp = EmpiricalPmf.from_samples(tr.x[burn_in::stride], cutoff=cut)
        results.append(chi_square_gof(emp, laws[r].x_pmf, level=level,
                                      name=f"stage{r+1}_x_marginal"))
    for r1 in range(trace.R):
        for r2 in range(r1 + 1, trace.R):
            x1 = trace.stages[r1].x[burn_in::stride]
            x2 = trace.stages[r2].x[burn_in::stride]
            results.append(independence_chi2(
                x1, x2, cut, cut, level=level, min_pairs=10_000,
                name=f"x_independence_stages_{r1+1}_{r2+1}"))
    # staggered Y's: component r uses slot n - r
    if trace.R > 1:
        y = [tr.y for tr in trace.stages]
        length = n - (trace.R - 1)
        for r1 in range(trace.R):
            for r2 in range(r1 + 1, trace.R):
                y1 = y[r1][trace.R - 1 - r1: trace.R - 1 - r1 + length]
                y2 = y[r2][trace.R - 1 - r2: trace.R - 1 - r2 + length]
                results.append(independence_chi2(
                    y1[burn_in::stride], y2[burn_in::stride],
                    cut, cut, level=level, min_pairs=10_000,
                    name=f"staggered_y_independence_{r1+1}_{r2+1}"))
    return results
