"""Tandem feed-forward dynamics and product-form verification."""

from __future__ import annotations

import numpy as np
import pytest

from batchq import distributions as dist
from batchq import queue_core
from batchq.queue_core import QueueParams, simulate
from batchq.tandem import TandemConfig, TandemTrace, simulate_tandem, verify_product_form
from batchq.streams import RandomStream

MAIN = QueueParams(p=1 / 3, alpha=2 / 3, q=1 / 2, beta=1 / 2)


def test_single_stage_matches_plain_simulation():
    config = TandemConfig.bergeom(MAIN, 1)
    tt = simulate_tandem(config, 5000, stream=RandomStream(17))
    tr = simulate(MAIN.arrival_spec, MAIN.service_spec, 5000, stream=RandomStream(17))
    assert np.array_equal(tt.stages[0].a, tr.a)
    assert np.array_equal(tt.stages[0].x, tr.x)
    assert np.array_equal(tt.stages[0].d, tr.d)


def test_deterministic_tandem_stays_empty():
    config = TandemConfig(dist.deterministic(1), [dist.deterministic(1)] * 3)
    tt = simulate_tandem(config, 200, stream=RandomStream(0))
    for tr in tt.stages:
        assert np.all(tr.x == 0)


def miswired(tt: TandemTrace, stages) -> TandemTrace:
    """``tt`` with each stage index in ``stages`` fed the external arrivals,
    serving its own services from empty."""
    a = tt.stages[0].a
    return TandemTrace(tt.config, [next(queue_core._run_series([(a, tr.s)], [0]))[0]
                                   if r in stages else tr for r, tr in enumerate(tt.stages)])


def test_feed_forward_identity_and_window_conservation():
    config = TandemConfig.bergeom(MAIN, 4)
    tt = simulate_tandem(config, 20_000, stream=RandomStream(23))
    assert tt.check_feed_forward() == (0, None)
    for r in range(3):
        lo, hi = 500, 12_000
        assert tt.stages[r].d[lo:hi].sum() == tt.stages[r + 1].a[lo:hi].sum()
    for tr in tt.stages:
        tr.check_invariants()


def test_feed_forward_counts_the_slots_a_miswired_stage_breaks():
    tt = simulate_tandem(TandemConfig.bergeom(MAIN, 3), 2000, stream=RandomStream(5))
    # only the last pair breaks: stage 2's D against the external A fed to stage 3
    broken = np.flatnonzero(tt.stages[1].d != tt.stages[0].a)
    assert broken.size and miswired(tt, {2}).check_feed_forward() == (broken.size,
                                                                     (2, int(broken[0])))
    # every pair breaks: stage 1's D against A first
    first = np.flatnonzero(tt.stages[0].d != tt.stages[0].a)
    count, where = miswired(tt, {1, 2}).check_feed_forward()
    assert where == (1, int(first[0])) and count > first.size


def test_config_validation():
    # the slot engine, not the config, refuses a series of no stages
    with pytest.raises(ValueError, match="need at least one stage"):
        simulate_tandem(TandemConfig(dist.bernoulli(0.5), []), 10, RandomStream(1))
    config = TandemConfig(dist.bernoulli(0.2), [dist.geom_plus(0.5), dist.deterministic(1)])
    assert config.stages == 2
    with pytest.raises(ValueError, match="Bernoulli-geometric"):
        config.stage_params(0)


def test_stage_params_and_condition():
    config = TandemConfig(MAIN.arrival_spec,
                          [dist.ber_geom(0.5, 0.5), dist.ber_geom(0.55, 0.45)])
    from batchq.queue_core import check_condition
    for r in range(2):
        assert abs(check_condition(config.stage_params(r))) <= 1e-12


def test_tandem_csv(tmp_path):
    config = TandemConfig.bergeom(MAIN, 2)
    tt = simulate_tandem(config, 10, stream=RandomStream(2))
    path = tmp_path / "tandem.csv"
    tt.to_csv(path)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "n,A,X1,X2,D1,D2"
    assert len(lines) == 11


def test_tandem_csv_keeps_float_values(tmp_path):
    tt = simulate_tandem(TandemConfig(dist.exponential(2.0), [dist.exponential(1.0)]), 50, stream=RandomStream(3))
    path = tmp_path / "tandem.csv"
    tt.to_csv(path)
    table = np.loadtxt(path, delimiter=",", skiprows=1)
    tr = tt.stages[0]
    assert np.array_equal(table[:, 0], np.arange(50))
    # 17 significant digits read back to the same doubles
    assert np.array_equal(table[:, 1], tr.a)
    assert np.array_equal(table[:, 2], tr.x)
    assert np.array_equal(table[:, 3], tr.d)


def test_verify_product_form_rejects_short_traces():
    config = TandemConfig.bergeom(MAIN, 2)
    tt = simulate_tandem(config, 50_000, stream=RandomStream(3))
    with pytest.raises(ValueError, match="too short"):
        verify_product_form(tt)


def test_single_stage_product_form_is_marginal_only():
    config = TandemConfig.bergeom(MAIN, 1)
    tt = simulate_tandem(config, 200_000, stream=RandomStream(29))
    results = verify_product_form(tt, burn_in=10_000)
    assert [r.name for r in results] == ["stage1_x_marginal"]
    assert results[0].passed


def test_two_stage_product_form():
    config = TandemConfig.bergeom(MAIN, 2)
    tt = simulate_tandem(config, 400_000, stream=RandomStream(32))
    results = verify_product_form(tt, burn_in=10_000)
    names = {r.name for r in results}
    assert "x_independence_stages_1_2" in names
    assert "staggered_y_independence_1_2" in names
    for r in results:
        assert r.passed, r


def test_heterogeneous_services_keep_marginals():
    from batchq.queue_core import stationary_law
    from batchq.stats import EmpiricalPmf, chi_square_gof
    config = TandemConfig(MAIN.arrival_spec,
                          [dist.ber_geom(0.5, 0.5), dist.ber_geom(0.55, 0.45)])
    tt = simulate_tandem(config, 400_000, stream=RandomStream(38))
    for r in range(2):
        law = stationary_law(config.stage_params(r))
        emp = EmpiricalPmf.from_samples(tt.stages[r].x[10_000::25], cutoff=20)
        res = chi_square_gof(emp, law.x_pmf, level=0.01)
        assert res.passed, (r, res)
        # every stage's departures still look like the external arrivals
        emp_d = EmpiricalPmf.from_samples(tt.stages[r].d[10_000:], cutoff=20)
        res_d = chi_square_gof(emp_d, lambda k: dist.pmf(MAIN.arrival_spec, k), level=0.01)
        assert res_d.passed, (r, res_d)
