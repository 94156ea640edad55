"""Distribution pmf/moments/samplers against independent series oracles."""

from __future__ import annotations

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from batchq import distributions as dist
from batchq.stats import EmpiricalPmf, chi_square_gof, ks_test
from batchq.streams import RandomStream, mix64

ALL_DISCRETE = [
    dist.bernoulli(0.3),
    dist.geom_plus(0.4),
    dist.geom_zero(0.25),
    dist.ber_geom(1 / 3, 2 / 3),
    dist.ber_geom(0.2, 0.4),
    dist.deterministic(7),
]


def test_pmf_values():
    bg = dist.ber_geom(1 / 3, 2 / 3)
    assert dist.pmf(bg, 0) == pytest.approx(2 / 3, abs=1e-15)
    assert dist.pmf(bg, 2) == pytest.approx(2 / 27, abs=1e-15)
    assert dist.pmf(dist.deterministic(7), 7) == 1.0
    assert dist.pmf(dist.deterministic(7), 6) == 0.0


def test_bergeom_matches_geom_zero_when_p_is_1_minus_a():
    a, b = dist.ber_geom(0.5, 0.5), dist.geom_zero(0.5)
    for k in range(51):
        assert dist.pmf(a, k) == pytest.approx(dist.pmf(b, k), abs=1e-15)


def test_pmf_rejects_continuous_variants():
    for spec in (dist.exponential(1.0), dist.ber_exp(0.4, 2.0)):
        with pytest.raises(ValueError, match="discrete-only"):
            dist.pmf(spec, 0)
    with pytest.raises(ValueError, match="discrete-only"):
        dist.pmf(dist.deterministic(2.5), 2)


@pytest.mark.parametrize("spec", ALL_DISCRETE)
def test_pmf_sums_to_one_with_analytic_tail(spec):
    total = sum(dist.pmf(spec, k) for k in range(1001)) + dist.sf(spec, 1001)
    assert abs(total - 1.0) <= 1e-12


def test_mean_values_and_series_oracle():
    assert dist.mean(dist.ber_geom(1 / 3, 2 / 3)) == pytest.approx(0.5, abs=1e-15)
    assert dist.mean(dist.deterministic(7)) == 7
    # truncated series oracle for the Geom+ mean
    series = sum(k * dist.pmf(dist.geom_plus(0.25), k) for k in range(1, 10_001))
    assert abs(series - 4.0) <= 1e-10
    assert dist.mean(dist.geom_plus(0.25)) == pytest.approx(series, abs=1e-10)


@pytest.mark.parametrize("spec", ALL_DISCRETE)
def test_variance_against_series(spec):
    m = dist.mean(spec)
    second = sum(k * k * dist.pmf(spec, k) for k in range(4001))
    assert dist.variance(spec) == pytest.approx(second - m * m, abs=1e-9)


def test_pgf_normalization_and_atom():
    for spec in ALL_DISCRETE:
        assert dist.pgf(spec, 1.0) == pytest.approx(1.0, abs=1e-12)
    bg = dist.ber_geom(0.3, 0.6)
    assert dist.pgf(bg, 0.0) == pytest.approx(1 - 0.3, abs=1e-15)


def test_pgf_against_truncated_series():
    spec = dist.ber_geom(0.5, 0.5)
    series = sum(dist.pmf(spec, k) * 0.5**k for k in range(201))
    assert dist.pgf(spec, 0.5) == pytest.approx(series, abs=1e-12)
    assert dist.pgf(spec, 0.5) == pytest.approx(2 / 3, abs=1e-12)


@pytest.mark.parametrize("spec", ALL_DISCRETE)
def test_mean_is_pgf_derivative(spec):
    h = 1e-6
    deriv = (dist.pgf(spec, 1 + h) - dist.pgf(spec, 1 - h)) / (2 * h)
    assert abs(deriv - dist.mean(spec)) <= 1e-5


def test_pgf_rejects_continuous_and_bad_z():
    with pytest.raises(ValueError, match="discrete-only"):
        dist.pgf(dist.exponential(1.0), 0.5)
    with pytest.raises(ValueError):
        dist.pgf(dist.bernoulli(0.5), -0.1)
    with pytest.raises(ValueError):
        dist.pgf(dist.bernoulli(0.5), 1.5)


def test_conditional_nonzero_is_geom_plus():
    bg = dist.ber_geom(1 / 3, 2 / 3)
    gp = dist.geom_plus(2 / 3)
    for k in range(1, 101):
        assert dist.pmf(bg, k) / bg.p == pytest.approx(dist.pmf(gp, k), abs=1e-12)


def test_bergeom_degenerates_to_bernoulli():
    near = dist.ber_geom(0.3, 1 - 1e-9)
    ref = dist.bernoulli(0.3)
    for k in range(4):
        assert abs(dist.pmf(near, k) - dist.pmf(ref, k)) <= 1e-8


def test_cdf_sf_consistency():
    for spec in ALL_DISCRETE:
        acc = 0.0
        for k in range(60):
            acc += dist.pmf(spec, k)
            assert dist.cdf(spec, k) == pytest.approx(acc, abs=1e-12)
            assert dist.sf(spec, k + 1) == pytest.approx(1 - acc, abs=1e-12)
    be = dist.ber_exp(0.4, 1.5)
    assert dist.cdf(be, 0.0) == pytest.approx(0.6, abs=1e-15)
    assert dist.sf(be, 2.0) == pytest.approx(0.4 * math.exp(-3.0), abs=1e-15)


def test_deterministic_sampling_and_no_randomness():
    st = RandomStream(0)
    draws = dist.sample_n(dist.deterministic(3), st, 100)
    assert np.all(draws == 3)
    # no uniforms consumed
    assert st.uniform() == RandomStream(0).uniform()


def test_sampler_determinism():
    a = dist.sample_n(dist.ber_geom(1 / 3, 2 / 3), RandomStream(42), 100)
    b = dist.sample_n(dist.ber_geom(1 / 3, 2 / 3), RandomStream(42), 100)
    assert np.array_equal(a, b)


def test_sample_mean_within_3_sigma():
    spec = dist.ber_geom(1 / 3, 2 / 3)
    draws = dist.sample_n(spec, RandomStream(2024), 1_000_000)
    sigma = math.sqrt(dist.variance(spec) / 1e6)
    assert abs(draws.mean() - 0.5) <= 3 * sigma


@pytest.mark.parametrize("spec", [dist.geom_plus(0.3), dist.geom_zero(0.55),
                                  dist.ber_geom(0.25, 0.45), dist.bernoulli(0.7)])
def test_sampler_law_chi_square(spec):
    draws = dist.sample_n(spec, RandomStream(77), 400_000)
    emp = EmpiricalPmf.from_samples(draws, cutoff=30)
    res = chi_square_gof(emp, lambda k: dist.pmf(spec, k), level=0.01)
    assert res.passed, res


def test_berexp_tail_is_p_exp_minus_ax():
    be = dist.ber_exp(0.4, 1.5)
    draws = dist.sample_n(be, RandomStream(99), 200_000)
    pos = draws[draws > 0]
    res = ks_test(pos, lambda x: 1.0 - math.exp(-be.rate * x), level=0.01)
    assert res.passed, res
    z = abs(len(pos) / len(draws) - be.p) / math.sqrt(be.p * (1 - be.p) / len(draws))
    assert z <= 3.0


def test_compound_boundary_case_gives_unit_summands():
    # at a = 1 - p the Geom+ summand parameter is 1, so every W_i equals 1
    p, a = 1 / 3, 2 / 3
    zs = np.linspace(0.0, 1.0, 41)
    wpar = a / (1 - p)
    phi_w = wpar * zs / (1 - (1 - wpar) * zs)
    compound = (1 - p) / (1 - p * phi_w)
    direct = np.array([dist.pgf(dist.ber_geom(p, a), z) for z in zs])
    assert np.abs(compound - direct).max() <= 1e-12
    draws = dist.sample_compound_n(p, a, RandomStream(5), 200_000)
    emp = EmpiricalPmf.from_samples(draws, cutoff=25)
    res = chi_square_gof(emp, lambda k: dist.pmf(dist.ber_geom(p, a), k))
    assert res.passed, res


def test_compound_matches_bergeom_chi_square():
    draws = dist.sample_compound_n(0.2, 0.4, RandomStream(6), 1_000_000)
    emp = EmpiricalPmf.from_samples(draws, cutoff=25)
    res = chi_square_gof(emp, lambda k: dist.pmf(dist.ber_geom(0.2, 0.4), k), level=0.01)
    assert res.passed, res


def test_compound_empty_sum_frequency():
    # V = 0 yields the empty sum, so zeros appear with probability 1 - p
    p = 0.2
    draws = dist.sample_compound_n(p, 0.4, RandomStream(7), 200_000)
    frac0 = float((draws == 0).mean())
    assert abs(frac0 - (1 - p)) <= 3 * math.sqrt(p * (1 - p) / 200_000)


def test_compound_unavailable_when_a_exceeds_1_minus_p():
    with pytest.raises(ValueError, match="compound representation unavailable"):
        dist.sample_compound_n(0.5, 0.6, RandomStream(0), 10)


def test_spec_validation():
    for bad in (0.0, 1.0, -0.2, 1.4):
        with pytest.raises(ValueError):
            dist.bernoulli(bad)
    with pytest.raises(ValueError):
        dist.exponential(0.0)
    with pytest.raises(ValueError):
        dist.deterministic(-1)
    with pytest.raises(ValueError):
        dist.DistSpec("ber_geom", p=0.5)  # missing alpha
    with pytest.raises(ValueError):
        dist.DistSpec("nope", p=0.5)


def test_json_round_trip_and_field_names():
    spec = dist.ber_geom(1 / 3, 2 / 3)
    d = spec.to_dict()
    assert set(d) == {"kind", "p", "alpha"}
    assert dist.DistSpec.from_dict(d) == spec
    assert dist.DistSpec.from_json(spec.to_json()) == spec
    assert dist.DistSpec.from_json('{"kind": "exp", "rate": 2.0}') == dist.exponential(2.0)
    for bad in ({"kind": "ber_geom", "p": 0.5, "alpha": 0.5, "oops": 1}, [1],
                {"kind": "exp"}, {"kind": "exp", "rate": "a"},
                {"kind": "deterministic", "value": True},
                {"kind": "deterministic", "value": math.nan}):
        with pytest.raises(ValueError):
            dist.DistSpec.from_dict(bad)
    with pytest.raises(ValueError, match="JSON object"):
        dist.DistSpec.from_json("[1]")
    with pytest.raises(ValueError, match="'rate'"):
        dist.DistSpec.from_json('{"kind": "exp"}')
    parsed = json.loads(dist.ber_exp(0.4, 1.5).to_json())
    assert set(parsed) == {"kind", "p", "rate"}


_PROB = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)
_RATE = st.floats(0.0, 1e300, exclude_min=True)
_SPEC_OF_KIND = {
    "bernoulli": st.builds(dist.bernoulli, _PROB),
    "geom_plus": st.builds(dist.geom_plus, _PROB),
    "geom_zero": st.builds(dist.geom_zero, _PROB),
    "ber_geom": st.builds(dist.ber_geom, _PROB, _PROB),
    "exp": st.builds(dist.exponential, _RATE),
    "ber_exp": st.builds(dist.ber_exp, _PROB, _RATE),
    "deterministic": st.builds(dist.deterministic,
                               st.one_of(st.integers(0, 10**9), st.floats(0.0, 1e300))),
}


@pytest.mark.parametrize("kind", sorted(_SPEC_OF_KIND))
@settings(derandomize=True, deadline=None, max_examples=60)
@given(data=st.data())
def test_spec_round_trips_through_dict_and_json(kind, data):
    spec = data.draw(_SPEC_OF_KIND[kind])
    assert spec.kind == kind
    assert dist.DistSpec.from_dict(spec.to_dict()) == spec
    assert dist.DistSpec.from_json(spec.to_json()) == spec


def test_round_trip_covers_every_kind():
    assert sorted(_SPEC_OF_KIND) == sorted(dist._KINDS)


def test_tail_cutoff_bounds_the_tail():
    for spec in ALL_DISCRETE:
        k = dist.tail_cutoff(spec, 1e-12)
        assert dist.sf(spec, k + 1) <= 1e-12


def test_substreams_are_decorrelated_and_documented():
    assert mix64(1, 0) != mix64(1, 1)
    assert mix64(1, 0) == mix64(1, 0)
    s = RandomStream(9)
    a = s.substream(0).uniforms(4)
    b = s.substream(1).uniforms(4)
    assert not np.allclose(a, b)
    with pytest.raises(ValueError):
        s.substream(-1)


def test_geom_samplers_refuse_draws_beyond_int64():
    # Geom+(1e-300) draws are near 1e300: refused instead of wrapping negative
    for spec in (dist.geom_plus(1e-300), dist.geom_zero(1e-300), dist.ber_geom(0.5, 1e-300)):
        with pytest.raises(ValueError, match="int64"):
            dist.sample_n(spec, RandomStream(1), 10)
    with pytest.raises(ValueError, match="int64"):
        dist.sample_compound_n(0.5, 1e-300, RandomStream(1), 100)
    # a tiny but representable alpha still samples on the support
    draws = dist.sample_n(dist.geom_plus(1e-15), RandomStream(1), 1000)
    assert draws.dtype == np.int64 and draws.min() >= 1


PROB = st.floats(0.02, 0.98)
ALL_KINDS = st.one_of(
    st.builds(dist.bernoulli, PROB),
    st.builds(dist.geom_plus, PROB),
    st.builds(dist.geom_zero, PROB),
    st.builds(dist.ber_geom, PROB, PROB),
    st.builds(dist.exponential, st.floats(0.1, 10.0)),
    st.builds(dist.ber_exp, PROB, st.floats(0.1, 10.0)),
    st.builds(dist.deterministic, st.sampled_from([0, 1, 3, 0.5, 2.25])),
)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(spec=ALL_KINDS, k=st.integers(1, 5), n=st.integers(0, 20),
       seed=st.integers(0, 2**32 - 1))
def test_sample_block_is_k_stacked_sample_n_calls(spec, k, n, seed):
    s_block, s_calls = RandomStream(seed), RandomStream(seed)
    block = dist.sample_block(spec, s_block, k, n)
    calls = np.stack([dist.sample_n(spec, s_calls, n) for _ in range(k)])
    assert block.shape == (k, n) and block.dtype == calls.dtype
    assert np.array_equal(block, calls)
    # both leave the stream at the same place
    assert s_block.uniform() == s_calls.uniform()
    assert block.dtype == (np.int64 if spec.is_discrete else np.float64)
    assert np.all(block >= 0)
    if spec.kind == "bernoulli":
        assert np.all(block <= 1)
    elif spec.kind == "geom_plus":
        assert np.all(block >= 1)
    elif spec.kind == "deterministic":
        assert np.all(block == spec.value)


_EDGE_PROB = st.floats(1e-6, 1 - 1e-9)
_EDGE_RATE = st.floats(1e-6, 1e6)
_EDGE_SPEC_OF_KIND = {
    "bernoulli": st.builds(dist.bernoulli, _EDGE_PROB),
    "geom_plus": st.builds(dist.geom_plus, _EDGE_PROB),
    "geom_zero": st.builds(dist.geom_zero, _EDGE_PROB),
    "ber_geom": st.builds(dist.ber_geom, _EDGE_PROB, _EDGE_PROB),
    "exp": st.builds(dist.exponential, _EDGE_RATE),
    "ber_exp": st.builds(dist.ber_exp, _EDGE_PROB, _EDGE_RATE),
    "deterministic": st.builds(dist.deterministic, st.one_of(
        st.integers(0, 2**63 - 1), st.floats(0.0, 1e300), st.just(math.inf))),
}


@pytest.mark.parametrize("kind", sorted(dist._KINDS))
@settings(derandomize=True, deadline=None, max_examples=40)
@given(data=st.data())
def test_sample_n_support_dtype_and_length_at_the_edges(kind, data):
    spec = data.draw(_EDGE_SPEC_OF_KIND[kind])
    n = data.draw(st.integers(0, 200_000))
    stream = RandomStream(data.draw(st.integers(0, 2**32 - 1)))
    if kind == "deterministic" and not spec.value < 2**63:
        with pytest.raises(ValueError, match="int64"):
            dist.sample_n(spec, stream, n)
        return
    draws = dist.sample_n(spec, stream, n)
    assert len(draws) == n
    assert draws.dtype == (np.int64 if spec.is_discrete else np.float64)
    assert np.all(np.isfinite(draws))
    low = 1 if kind == "geom_plus" else 0
    assert np.all(draws >= low)
    if kind == "bernoulli":
        assert np.all(draws <= 1)


def test_stream_cursor_reads_ahead_without_moving_the_stream():
    stream, ref = RandomStream(3), RandomStream(3)
    cursor = stream.ahead(5)
    assert np.array_equal(cursor.uniforms(4), ref.uniforms(9)[5:])
    stream.skip(9)
    assert stream.uniform() == ref.uniform()
    with pytest.raises(ValueError):
        stream.ahead(-1)
    with pytest.raises(ValueError):
        stream.skip(-1)


@pytest.mark.parametrize("kind", sorted(dist._KINDS))
@settings(derandomize=True, deadline=None, max_examples=30)
@given(data=st.data())
def test_sample_chunks_concatenate_to_one_sample_n_call(kind, data):
    spec = data.draw(_EDGE_SPEC_OF_KIND[kind].filter(
        lambda s: s.kind != "deterministic" or s.value < 2**63))
    block = data.draw(st.integers(1, 40))
    # block sizes of 1, blocks that do not divide n, and n around one and two blocks
    n = data.draw(st.one_of(st.integers(0, 200),
                            st.sampled_from([block - 1, block, block + 1, 2 * block + 1])))
    seed = data.draw(st.integers(0, 2**32 - 1))
    s_one, s_chunks, s_range = RandomStream(seed), RandomStream(seed), RandomStream(seed)
    one = dist.sample_n(spec, s_one, n)
    chunks = list(dist.sample_chunks(spec, s_chunks, n, block))
    # one slice, drawn straight from the stream, whenever 0 < n <= block
    assert len(chunks) == -(-n // block)
    assert all(1 <= len(c) <= block for c in chunks)
    assert sum(map(len, chunks)) == n
    joined = np.concatenate(chunks) if chunks else one[:0]
    assert joined.dtype == one.dtype and np.array_equal(joined, one)
    # values lo..hi-1 are that part of the one call, in slices of at most block
    lo = data.draw(st.integers(0, n))
    hi = data.draw(st.integers(lo, n))
    part = list(dist.sample_chunks(spec, s_range, n, block, lo, hi))
    assert len(part) == -(-(hi - lo) // block)
    assert all(1 <= len(c) <= block for c in part)
    joined = np.concatenate(part) if part else one[:0]
    assert joined.dtype == one.dtype and np.array_equal(joined, one[lo:hi])
    # the stream is left where sample_n leaves it, whatever the range
    after = s_one.uniform()
    assert s_chunks.uniform() == after and s_range.uniform() == after


def test_sample_chunks_move_the_stream_at_the_call():
    spec = dist.ber_geom(0.5, 0.5)
    s_one, s_chunks = RandomStream(8), RandomStream(8)
    one = dist.sample_n(spec, s_one, 10)
    chunks = dist.sample_chunks(spec, s_chunks, 10, 3)
    after = s_chunks.uniform()
    assert after == s_one.uniform()
    assert np.array_equal(np.concatenate(list(chunks)), one)
    with pytest.raises(ValueError, match="int64"):
        dist.sample_chunks(dist.deterministic(2.0**63), s_chunks, 10, 3)
    # a block of Geom+ magnitudes beyond int64 is refused, as one sample_n call refuses it
    for spec in (dist.geom_plus(1e-300), dist.ber_geom(0.5, 1e-300)):
        chunks = dist.sample_chunks(spec, RandomStream(1), 10, 3)
        with pytest.raises(ValueError, match="int64"):
            next(chunks)
    with pytest.raises(ValueError):
        dist.sample_chunks(spec, s_chunks, 10, 0)
    # a range outside 0 <= lo <= hi <= n is refused at the call, with the stream unmoved
    for lo, hi in ((-1, 5), (6, 5), (0, 11), (11, 11)):
        s_bad, s_ref = RandomStream(2), RandomStream(2)
        with pytest.raises(ValueError, match="lo <= hi <= n"):
            dist.sample_chunks(spec, s_bad, 10, 3, lo, hi)
        assert s_bad.uniform() == s_ref.uniform()
