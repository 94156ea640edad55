"""Time constants: variational forms, closed forms, and their limits."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from batchq import timeconstants as tc


def test_golden_max_quadratic():
    xm, val = tc.golden_max(lambda x: -(x - 2.0) ** 2 + 5.0, 0.0, 10.0)
    assert xm == pytest.approx(2.0, abs=1e-9)
    assert val == pytest.approx(5.0, abs=1e-12)
    with pytest.raises(ValueError):
        tc.golden_max(lambda x: x, 1.0, 1.0)


def test_golden_max_ends_where_float_spacing_exceeds_tol():
    # near 5e5 neighbouring doubles are 1.2e-10 apart, so the bracket cannot reach tol
    xm, val = tc.golden_max(lambda x: -(x - 5e5) ** 2, 0.0, 9e5)
    assert xm == pytest.approx(5e5, rel=1e-12) and val <= 0.0
    assert tc.f_legendre(0.9, 1e-6, 3.0) == pytest.approx(tc.f_bergeom(0.9, 1e-6, 3.0), rel=1e-9)


def test_scan_unimodality():
    assert tc.scan_is_unimodal(lambda x: -(x - 1) ** 2, 0.0, 2.0)
    assert not tc.scan_is_unimodal(lambda x: math.sin(5 * x), 0.0, 3.0)


@pytest.mark.parametrize("fn", [lambda x: math.nan,
                                lambda x: math.nan if 0.4 < x < 0.6 else -(x - 0.5) ** 2],
                         ids=["nan-everywhere", "nan-on-0.4-0.6"])
def test_a_nan_objective_is_not_unimodal(fn):
    assert not tc.scan_is_unimodal(fn, 0.0, 1.0)


def test_h_of_lambda_examples():
    assert tc.h_of_lambda(0.5, 0.5, 0.5) == pytest.approx(1.5, abs=1e-10)
    assert tc.h_of_lambda(0.5, 0.5, 1e-8) < 1e-6
    mu = 1.0
    h_near = tc.h_of_lambda(0.5, 0.5, 0.99 * mu)
    assert np.isfinite(h_near) and h_near > 50
    grid = [tc.h_of_lambda(0.5, 0.5, f) for f in np.linspace(0.05, 0.99, 30)]
    assert all(b > a for a, b in zip(grid, grid[1:]))
    with pytest.raises(ValueError):
        tc.h_of_lambda(0.5, 0.5, 1.0)
    with pytest.raises(ValueError):
        tc.h_of_lambda(0.5, 0.5, -0.1)


def test_h_forms_agree_across_grid():
    # h_of_lambda already cross-checks its two forms to 1e-10 internally
    for q in (0.3, 0.5, 0.8):
        for b in (0.2, 0.5, 0.7):
            mu = q / b
            for f in (0.1, 0.4, 0.7, 0.95):
                assert np.isfinite(tc.h_of_lambda(q, b, f * mu))


def test_bergeom_reduces_to_geometric_closed_form():
    # q = 1 - beta collapses to Geom0(beta) weights
    assert tc.f_bergeom(0.5, 0.5, 3.0) == pytest.approx(6 - 4 * math.sqrt(2), abs=1e-8)
    assert tc.f_bergeom(0.5, 0.5, 3.0) == pytest.approx(tc.f_geometric(0.5, 3.0), abs=1e-8)
    for x in (1.2, 2.0, 4.5):
        assert tc.f_bergeom(0.6, 0.4, x) == pytest.approx(tc.f_geometric(0.4, x), abs=1e-8)


def test_bergeom_flat_region():
    assert tc.f_bergeom(0.5, 0.5, 0.9) == 0.0
    assert tc.f_bergeom(0.5, 0.5, 1.0) == 0.0
    assert tc.f_bergeom(0.5, 0.5, 1.01) > 0.0


def test_bergeom_bernoulli_limit():
    assert tc.f_bergeom(0.5, 1 - 1e-6, 3.0) == pytest.approx(tc.f_bernoulli(0.5, 3.0), abs=1e-2)


def test_closed_forms():
    assert tc.f_exponential(3.0) == 1.0
    assert tc.f_bernoulli(0.5, 1.0) == 0.0
    assert tc.f_bernoulli(0.5, 3.0) == pytest.approx((math.sqrt(1.5) - math.sqrt(0.5)) ** 2,
                                                     abs=1e-15)
    assert tc.f_geometric(0.5, 1.0) == 0.0
    assert tc.f_geometric(0.5, 3.0) == pytest.approx(2 * (math.sqrt(2) - 1) ** 2, abs=1e-15)
    with pytest.raises(ValueError):
        tc.f_exponential(0.0)
    with pytest.raises(ValueError):
        tc.f_bernoulli(1.0, 2.0)


def test_berexp_limits():
    assert tc.f_berexp(1 - 1e-6, 3.0) == pytest.approx(tc.f_exponential(3.0), abs=1e-3)
    assert tc.f_berexp(0.5, 0.2) == 0.0
    scaled = 1e-4 * tc.f_bergeom(0.5, 1e-4, 5.0)
    assert scaled == pytest.approx(tc.f_berexp(0.5, 5.0), abs=1e-3)


def test_tilde_exp_closed_form_vs_sup():
    assert tc.ftilde_exp(1.0) == 0.0
    assert tc.ftilde_exp(2.0) == pytest.approx(0.0567003, abs=1e-6)
    for y in np.linspace(0.4, 5.0, 24):
        assert tc.ftilde_exp_sup(float(y)) == pytest.approx(tc.ftilde_exp(float(y)), abs=1e-10)
    # the maximizer solves the stationarity quadratic: r = 1 - s
    s = (1 + math.sqrt(17.0)) / 8.0
    pt = tc.curve("cont_exp", {}, [2.0]).points[0]
    assert pt.maximizer == pytest.approx(1 - s, abs=1e-6)
    assert pt.maximizer == pytest.approx(0.35961, abs=1e-5)


def test_tilde_geom_poisson_limit():
    assert tc.ftilde_geom(1 - 1e-4, 4.0) == pytest.approx(tc.ftilde_poisson(4.0), abs=1e-2)
    assert tc.ftilde_poisson(4.0) == 1.0
    assert tc.ftilde_poisson(0.8) == 0.0


def test_legendre_equals_variational():
    for (q, b), xs in {(0.5, 0.5): (0.6, 1.0, 2.0, 3.0, 5.0),
                       (0.6, 0.3): (0.4, 1.5, 4.0),
                       (0.35, 0.25): (1.0, 3.0, 7.0)}.items():
        for x in xs:
            assert tc.f_legendre(q, b, x) == pytest.approx(tc.f_bergeom(q, b, x), abs=1e-8)
            assert tc.f_bergeom_alpha(q, b, x) == pytest.approx(tc.f_bergeom(q, b, x), abs=1e-8)


def test_legendre_flat_region():
    assert tc.f_legendre(0.5, 0.5, 0.7) == 0.0


def test_objectives_are_unimodal_on_scans():
    # the objectives golden_max maximizes, at parameters of each variational form
    for variant, params, x in (("ber_geom", {"q": 0.5, "beta": 0.5}, 3.0),
                               ("ber_geom", {"q": 0.35, "beta": 0.25}, 6.0),
                               ("ber_exp", {"q": 0.5}, 3.0), ("cont_geom", {"beta": 0.5}, 4.0),
                               ("cont_exp", {}, 2.0), ("legendre", {"q": 0.5, "beta": 0.5}, 3.0)):
        assert tc.scan_is_unimodal(*tc.objective(variant, params, x)), variant
    assert tc.scan_is_unimodal(*tc._bergeom_alpha(0.5, 0.5, 3.0))


def test_closed_forms_have_no_objective():
    for variant in ("ber", "geom", "exp", "cont_poisson"):
        with pytest.raises(ValueError, match="closed form"):
            tc.objective(variant, {"q": 0.5, "beta": 0.5}, 2.0)
    with pytest.raises(ValueError, match="needs parameters"):
        tc.objective("ber_geom", {"q": 0.5}, 2.0)


def test_curves_are_nonnegative_nondecreasing_convex():
    grids = np.linspace(0.4, 6.0, 25)
    for variant, params in (("ber", {"q": 0.5}), ("geom", {"beta": 0.5}), ("exp", {}),
                            ("ber_geom", {"q": 0.5, "beta": 0.5}), ("ber_exp", {"q": 0.5}),
                            ("cont_geom", {"beta": 0.5}), ("cont_exp", {}),
                            ("cont_poisson", {}), ("legendre", {"q": 0.5, "beta": 0.5})):
        vals = np.array([p.f for p in tc.curve(variant, params, grids).points])
        assert vals.min() >= 0.0
        assert np.diff(vals).min() >= -1e-9, variant
        assert np.diff(vals, 2).min() >= -1e-9, variant


def test_curve_validation_and_rows():
    with pytest.raises(ValueError, match="unknown variant"):
        tc.curve("nope", {}, [1.0])
    with pytest.raises(ValueError, match="needs parameters"):
        tc.curve("ber_geom", {"q": 0.5}, [1.0])
    with pytest.raises(ValueError, match="empty"):
        tc.curve("exp", {}, [])
    rows = tc.curve("ber", {"q": 0.5}, [2.0]).csv_rows()
    assert rows[0].startswith("ber,q=0.5,2,")


# variant -> (public function of (*params, x), its parameter names in order)
PUBLIC = {
    "ber": (tc.f_bernoulli, ("q",)),
    "geom": (tc.f_geometric, ("beta",)),
    "exp": (tc.f_exponential, ()),
    "ber_geom": (tc.f_bergeom, ("q", "beta")),
    "ber_exp": (tc.f_berexp, ("q",)),
    "cont_geom": (tc.ftilde_geom, ("beta",)),
    "cont_exp": (tc.ftilde_exp_sup, ()),
    "cont_poisson": (tc.ftilde_poisson, ()),
    "legendre": (tc.f_legendre, ("q", "beta")),
}


VARIATIONAL = ("ber_geom", "ber_exp", "cont_geom", "cont_exp", "legendre")


@settings(derandomize=True, deadline=None, max_examples=200)
@given(variant=st.sampled_from(tc.VARIANTS), q=st.floats(0.02, 0.98), beta=st.floats(0.02, 0.98),
       x=st.floats(0.01, 12.0))
def test_curve_points_are_the_public_values(variant, q, beta, x):
    fn, names = PUBLIC[variant]
    params = {"q": q, "beta": beta}
    try:
        expect = fn(*(params[k] for k in names), x)
    except ArithmeticError:
        with pytest.raises(ArithmeticError):
            tc.curve(variant, params, [x])
        return
    assert tc.curve(variant, params, [x]).points[0].f == expect
    if variant in VARIATIONAL:
        # the objective the checks scan is the one the value maximizes
        assert max(0.0, tc.golden_max(*tc.objective(variant, params, x))[1]) == expect


BAD_PROB = st.one_of(st.floats(max_value=0.0), st.floats(min_value=1.0), st.just(math.nan))
BAD_X = st.one_of(st.floats(max_value=0.0), st.just(math.nan))


@settings(derandomize=True, deadline=None, max_examples=150)
@given(variant=st.sampled_from(tc.VARIANTS), data=st.data())
def test_out_of_range_inputs_raise_on_every_path(variant, data):
    fn, names = PUBLIC[variant]
    params, x = {"q": 0.5, "beta": 0.5}, 2.0
    target = data.draw(st.sampled_from(["x", *names]))
    if target == "x":
        x = data.draw(BAD_X)
    else:
        params[target] = data.draw(BAD_PROB)
    with pytest.raises(ValueError):
        tc.curve(variant, params, [x])
    with pytest.raises(ValueError):
        fn(*(params[k] for k in names), x)
