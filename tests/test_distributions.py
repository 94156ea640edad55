"""Distribution pmf/moments/samplers against independent series oracles."""

from __future__ import annotations

import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from batchq import distributions as dist
from batchq import laws
from batchq.stats import EmpiricalPmf, chi_square_gof, ks_test
from batchq.streams import RandomStream, mix64

ALL_DISCRETE = [
    laws.bernoulli(0.3),
    laws.geom_plus(0.4),
    laws.geom_zero(0.25),
    laws.ber_geom(1 / 3, 2 / 3),
    laws.ber_geom(0.2, 0.4),
    laws.deterministic(7),
]


def test_pmf_values():
    bg = laws.ber_geom(1 / 3, 2 / 3)
    assert laws.pmf(bg, 0) == pytest.approx(2 / 3, abs=1e-15)
    assert laws.pmf(bg, 2) == pytest.approx(2 / 27, abs=1e-15)
    assert laws.pmf(laws.deterministic(7), 7) == 1.0
    assert laws.pmf(laws.deterministic(7), 6) == 0.0


def test_bergeom_matches_geom_zero_when_p_is_1_minus_a():
    a, b = laws.ber_geom(0.5, 0.5), laws.geom_zero(0.5)
    for k in range(51):
        assert laws.pmf(a, k) == pytest.approx(laws.pmf(b, k), abs=1e-15)


def test_pmf_rejects_continuous_variants():
    for spec in (laws.exponential(1.0), laws.ber_exp(0.4, 2.0)):
        with pytest.raises(ValueError, match="discrete-only"):
            laws.pmf(spec, 0)
    with pytest.raises(ValueError, match="discrete-only"):
        laws.pmf(laws.deterministic(2.5), 2)


@pytest.mark.parametrize("spec", ALL_DISCRETE)
def test_pmf_sums_to_one_with_analytic_tail(spec):
    total = sum(laws.pmf(spec, k) for k in range(1001)) + laws.sf(spec, 1001)
    assert abs(total - 1.0) <= 1e-12


def test_mean_values_and_series_oracle():
    assert laws.mean(laws.ber_geom(1 / 3, 2 / 3)) == pytest.approx(0.5, abs=1e-15)
    assert laws.mean(laws.deterministic(7)) == 7
    # truncated series oracle for the Geom+ mean
    series = sum(k * laws.pmf(laws.geom_plus(0.25), k) for k in range(1, 10_001))
    assert abs(series - 4.0) <= 1e-10
    assert laws.mean(laws.geom_plus(0.25)) == pytest.approx(series, abs=1e-10)


@pytest.mark.parametrize("spec", ALL_DISCRETE)
def test_variance_against_series(spec):
    m = laws.mean(spec)
    second = sum(k * k * laws.pmf(spec, k) for k in range(4001))
    assert laws.variance(spec) == pytest.approx(second - m * m, abs=1e-9)


@pytest.mark.parametrize("spec", [laws.exponential(1.5), laws.ber_exp(0.4, 1.5)])
def test_continuous_moments_integrate_the_survival_function(spec):
    # E[X] = int sf and E[X^2] = int 2 x sf over x > 0, by the trapezoid rule
    x = np.linspace(0.0, 40.0, 400_001)
    sf = np.array([laws.sf(spec, v) for v in x[1:]])
    sf = np.concatenate(([spec.p if spec.kind == "ber_exp" else 1.0], sf))
    m = np.trapezoid(sf, x)
    assert laws.mean(spec) == pytest.approx(m, rel=1e-8)
    assert laws.variance(spec) == pytest.approx(np.trapezoid(2 * x * sf, x) - m * m, rel=1e-8)


def test_pgf_normalization_and_atom():
    for spec in ALL_DISCRETE:
        assert laws.pgf(spec, 1.0) == pytest.approx(1.0, abs=1e-12)
    bg = laws.ber_geom(0.3, 0.6)
    assert laws.pgf(bg, 0.0) == pytest.approx(1 - 0.3, abs=1e-15)


def test_pgf_against_truncated_series():
    spec = laws.ber_geom(0.5, 0.5)
    series = sum(laws.pmf(spec, k) * 0.5**k for k in range(201))
    assert laws.pgf(spec, 0.5) == pytest.approx(series, abs=1e-12)
    assert laws.pgf(spec, 0.5) == pytest.approx(2 / 3, abs=1e-12)


@pytest.mark.parametrize("spec", ALL_DISCRETE)
def test_mean_is_pgf_derivative(spec):
    h = 1e-6
    deriv = (laws.pgf(spec, 1 + h) - laws.pgf(spec, 1 - h)) / (2 * h)
    assert abs(deriv - laws.mean(spec)) <= 1e-5


def test_pgf_rejects_continuous_and_bad_z():
    with pytest.raises(ValueError, match="discrete-only"):
        laws.pgf(laws.exponential(1.0), 0.5)
    with pytest.raises(ValueError):
        laws.pgf(laws.bernoulli(0.5), -0.1)
    with pytest.raises(ValueError):
        laws.pgf(laws.bernoulli(0.5), 1.5)


def test_conditional_nonzero_is_geom_plus():
    bg = laws.ber_geom(1 / 3, 2 / 3)
    gp = laws.geom_plus(2 / 3)
    for k in range(1, 101):
        assert laws.pmf(bg, k) / bg.p == pytest.approx(laws.pmf(gp, k), abs=1e-12)


def test_bergeom_degenerates_to_bernoulli():
    near = laws.ber_geom(0.3, 1 - 1e-9)
    ref = laws.bernoulli(0.3)
    for k in range(4):
        assert abs(laws.pmf(near, k) - laws.pmf(ref, k)) <= 1e-8


def test_cdf_sf_consistency():
    for spec in ALL_DISCRETE:
        acc = 0.0
        for k in range(60):
            acc += laws.pmf(spec, k)
            assert laws.sf(spec, k + 1) == pytest.approx(1 - acc, abs=1e-12)
    be = laws.ber_exp(0.4, 1.5)
    assert laws.sf(be, 2.0) == pytest.approx(0.4 * math.exp(-3.0), abs=1e-15)


def test_deterministic_sampling_and_no_randomness():
    st = RandomStream(0)
    draws = dist.sample_n(laws.deterministic(3), st, 100)
    assert np.all(draws == 3)
    # no uniforms consumed
    assert st.uniform() == RandomStream(0).uniform()


def test_sampler_determinism():
    a = dist.sample_n(laws.ber_geom(1 / 3, 2 / 3), RandomStream(42), 100)
    b = dist.sample_n(laws.ber_geom(1 / 3, 2 / 3), RandomStream(42), 100)
    assert np.array_equal(a, b)


def test_sample_mean_within_3_sigma():
    spec = laws.ber_geom(1 / 3, 2 / 3)
    draws = dist.sample_n(spec, RandomStream(2024), 1_000_000)
    sigma = math.sqrt(laws.variance(spec) / 1e6)
    assert abs(draws.mean() - 0.5) <= 3 * sigma


@pytest.mark.parametrize("spec", [laws.geom_plus(0.3), laws.geom_zero(0.55),
                                  laws.ber_geom(0.25, 0.45), laws.bernoulli(0.7)])
def test_sampler_law_chi_square(spec):
    draws = dist.sample_n(spec, RandomStream(77), 400_000)
    emp = EmpiricalPmf.from_samples(draws, cutoff=30)
    res = chi_square_gof(emp, lambda k: laws.pmf(spec, k), level=0.01)
    assert res.passed, res


def test_berexp_tail_is_p_exp_minus_ax():
    be = laws.ber_exp(0.4, 1.5)
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
    direct = np.array([laws.pgf(laws.ber_geom(p, a), z) for z in zs])
    assert np.abs(compound - direct).max() <= 1e-12
    # 2/3 over 1 - 1/3 rounds below 1; at p = a = 0.5 it is 1 exactly, the degenerate Geom+(1)
    for p, a in ((p, a), (0.5, 0.5)):
        draws = dist.sample_compound_n(p, a, RandomStream(5), 200_000)
        emp = EmpiricalPmf.from_samples(draws, cutoff=25)
        res = chi_square_gof(emp, lambda k: laws.pmf(laws.ber_geom(p, a), k))
        assert res.passed, res


def test_compound_matches_bergeom_chi_square():
    draws = dist.sample_compound_n(0.2, 0.4, RandomStream(6), 1_000_000)
    emp = EmpiricalPmf.from_samples(draws, cutoff=25)
    res = chi_square_gof(emp, lambda k: laws.pmf(laws.ber_geom(0.2, 0.4), k), level=0.01)
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


def _compound_by_loop(p, alpha, stream, n):
    """sample_compound_n value by value: n counts V = Geom+(1-p) - 1, then the summands
    Geom+(alpha / (1-p)) of every count in turn, each value the sum of its own."""
    def geom_plus(a, m):
        if a >= 1.0:  # Geom+(1) is the constant 1 and draws nothing
            return [1] * m
        return [1 + math.floor(x) for x in np.log1p(-stream.uniforms(m)) / math.log1p(-a)]
    counts = [k - 1 for k in geom_plus(1.0 - p, n)]
    summands = iter(geom_plus(alpha / (1.0 - p), sum(counts)))
    return [sum(next(summands) for _ in range(k)) for k in counts]


@settings(derandomize=True, deadline=None, max_examples=60)
@given(p=st.one_of(st.floats(0.01, 0.95), st.just(1e-20)), share=st.floats(0.01, 1.0),
       n=st.integers(0, 300), seed=st.integers(0, 2**32 - 1))
@example(p=0.5, share=1.0, n=200, seed=1).via("the summand parameter at 1")
@example(p=1 / 3, share=1.0, n=200, seed=2).via("the summand parameter rounded below 1")
@example(p=1e-20, share=0.5, n=200, seed=3).via("the count parameter 1 - p rounded to 1")
def test_compound_equals_the_per_value_loop(p, share, n, seed):
    # share 1 puts the summand parameter alpha / (1-p) at 1, or a rounding of it, and
    # p = 1e-20 puts the count's Geom+ parameter 1 - p at 1: Geom+(1) draws nothing
    alpha = min(share * (1.0 - p), 1.0 - 2.0**-20)
    s_lib, s_loop = RandomStream(seed), RandomStream(seed)
    got = dist.sample_compound_n(p, alpha, s_lib, n)
    assert got.dtype == np.int64 and got.tolist() == _compound_by_loop(p, alpha, s_loop, n)
    assert s_lib.uniform() == s_loop.uniform()


def test_spec_validation():
    for bad in (0.0, 1.0, -0.2, 1.4):
        with pytest.raises(ValueError):
            laws.bernoulli(bad)
    with pytest.raises(ValueError):
        laws.exponential(0.0)
    # JSON reads 1e400 as inf: a rate that is not finite is refused, not used
    for rate in (math.inf, math.nan):
        for make in (laws.exponential, lambda r: laws.ber_exp(0.5, r)):
            with pytest.raises(ValueError, match="positive and finite"):
                make(rate)
    # nor is a deterministic value that is not finite, nor a JSON integer beyond every double
    for value in (-1, math.inf, math.nan, 10**400):
        with pytest.raises(ValueError, match="finite and >= 0"):
            laws.deterministic(value)
    with pytest.raises(ValueError):
        laws.DistSpec("ber_geom", p=0.5)  # missing alpha
    with pytest.raises(ValueError):
        laws.DistSpec("nope", p=0.5)


def test_json_round_trip_and_field_names():
    spec = laws.ber_geom(1 / 3, 2 / 3)
    d = spec.to_dict()
    assert set(d) == {"kind", "p", "alpha"}
    assert laws.DistSpec.from_dict(d) == spec
    assert laws.DistSpec.from_dict(json.loads(json.dumps(d, sort_keys=True))) == spec
    assert laws.DistSpec.from_dict({"kind": "exp", "rate": 2.0}) == laws.exponential(2.0)
    for bad in ({"kind": "ber_geom", "p": 0.5, "alpha": 0.5, "oops": 1}, [1],
                {"kind": "exp"}, {"kind": "exp", "rate": "a"},
                {"kind": "deterministic", "value": True},
                {"kind": "deterministic", "value": math.nan}):
        with pytest.raises(ValueError):
            laws.DistSpec.from_dict(bad)
    with pytest.raises(ValueError, match="JSON object"):
        laws.DistSpec.from_dict([1])
    with pytest.raises(ValueError, match="'rate'"):
        laws.DistSpec.from_dict({"kind": "exp"})
    assert set(laws.ber_exp(0.4, 1.5).to_dict()) == {"kind", "p", "rate"}


_PROB = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)
_RATE = st.floats(0.0, 1e300, exclude_min=True)
_SPEC_OF_KIND = {
    "bernoulli": st.builds(laws.bernoulli, _PROB),
    "geom_plus": st.builds(laws.geom_plus, _PROB),
    "geom_zero": st.builds(laws.geom_zero, _PROB),
    "ber_geom": st.builds(laws.ber_geom, _PROB, _PROB),
    "exp": st.builds(laws.exponential, _RATE),
    "ber_exp": st.builds(laws.ber_exp, _PROB, _RATE),
    "deterministic": st.builds(laws.deterministic,
                               st.one_of(st.integers(0, 10**9), st.floats(0.0, 1e300))),
}


@pytest.mark.parametrize("kind", sorted(_SPEC_OF_KIND))
@settings(derandomize=True, deadline=None, max_examples=60)
@given(data=st.data())
def test_spec_round_trips_through_dict_and_json(kind, data):
    spec = data.draw(_SPEC_OF_KIND[kind])
    assert spec.kind == kind
    assert laws.DistSpec.from_dict(spec.to_dict()) == spec
    assert laws.DistSpec.from_dict(json.loads(json.dumps(spec.to_dict(), sort_keys=True))) == spec


def test_round_trip_covers_every_kind():
    assert sorted(_SPEC_OF_KIND) == sorted(laws._KINDS)


def test_substreams_are_decorrelated_and_documented():
    assert mix64(1, 0) != mix64(1, 1)
    assert mix64(1, 0) == mix64(1, 0)
    s = RandomStream(9)
    a = s.substream(0).uniforms(4)
    b = s.substream(1).uniforms(4)
    assert not np.allclose(a, b)
    with pytest.raises(ValueError):
        s.substream(-1)


def test_trial_i_runs_on_substream_i_and_a_failure_names_it():
    seen = []

    def trial(i, st):
        seen.append((i, st.seed, st.uniform()))
        return [(1.0 if i == 5 else 0.0, 0.5, {"k": 0}),
                (math.nan if i in (3, 5) else 0.0, 0.5, {"k": 1, "drawn": seen[-1][2]})]

    stream = RandomStream(17)
    failures = stream.trial_failures(range(2, 7), trial)
    assert seen == [(i, stream.substream(i).seed, stream.substream(i).uniform())
                    for i in range(2, 7)]
    # every failing comparison (NaN fails), in trial order, keyed by its substream
    assert failures == [{"substream": 3, "k": 1, "drawn": seen[1][2]},
                        {"substream": 5, "k": 0},
                        {"substream": 5, "k": 1, "drawn": seen[3][2]}]
    assert stream.trial_failures(range(3), lambda i, st: [(0.0, 0.0, {})]) == []


def test_stream_seeds_outside_the_pcg64_range_are_refused():
    # a seed names one stream: none is reduced mod 2**64 onto another's
    for seed in (-1, 2**64, 2**64 + 1):
        with pytest.raises(ValueError, match="2\\*\\*64"):
            RandomStream(seed)
    assert RandomStream(2**64 - 1).seed == 2**64 - 1


def test_geom_samplers_refuse_draws_beyond_int64():
    # Geom+(1e-300) draws are near 1e300: refused instead of wrapping negative
    for spec in (laws.geom_plus(1e-300), laws.geom_zero(1e-300), laws.ber_geom(0.5, 1e-300)):
        with pytest.raises(ValueError, match="int64"):
            dist.sample_n(spec, RandomStream(1), 10)
    with pytest.raises(ValueError, match="int64"):
        dist.sample_compound_n(0.5, 1e-300, RandomStream(1), 100)
    # a tiny but representable alpha still samples on the support
    draws = dist.sample_n(laws.geom_plus(1e-15), RandomStream(1), 1000)
    assert draws.dtype == np.int64 and draws.min() >= 1


def test_exp_samplers_refuse_a_rate_whose_draws_overflow():
    # -log1p(-u) / rate at the largest uniform, 1 - 2**-53, is 53 ln 2 / rate: above 2e-307
    # every draw is finite, and below it the rate is refused before a draw is made
    for spec in (laws.exponential(1e-320), laws.ber_exp(0.5, 1e-320), laws.exponential(2e-307)):
        stream = RandomStream(1)
        for draw in (lambda: dist.sample_n(spec, stream, 10),
                     lambda: next(dist.sample_blocks(spec, [stream], 2, 10, 1)),
                     lambda: next(dist.sample_chunks(spec, stream, 10, 4))):
            with pytest.raises(ValueError, match="overflow"):
                draw()
    for spec in (laws.exponential(2.1e-307), laws.ber_exp(0.5, 2.1e-307)):
        draws = dist.sample_n(spec, RandomStream(1), 1000)
        assert np.isfinite(draws).all() and draws.max() > 1e307
    largest = np.array([1.0 - 2.0**-53])
    assert dist._values(laws.exponential(1.0), [largest], 1)[0] == dist._EXP1_MAX


def test_geom_plus_values_floor_before_they_add_1():
    # here x = log1p(-u) / log1p(-alpha) is the double just below 2, and x + 1 rounds to 3:
    # the Geom+ value is floor(x) + 1 = 2, which a cast of x + 1 to an integer would miss
    alpha, u = np.nextafter(0.5, 0.0), np.nextafter(0.75, 0.0)
    x = np.log1p(-np.array([u])) / math.log1p(-alpha)
    assert x[0] == np.nextafter(2.0, 0.0) and x[0] + 1 == 3.0
    # ber_geom reads its Bernoulli, here 0 < p, from a row before its magnitude
    for spec, rows, want in ((laws.geom_plus(alpha), [[u]], 2), (laws.geom_zero(alpha), [[u]], 1),
                             (laws.ber_geom(0.5, alpha), [[0.0], [u]], 2)):
        assert dist._values(spec, np.array(rows), 1).tolist() == [want]


_EDGE_PROB = st.floats(1e-6, 1 - 1e-9)
_EDGE_RATE = st.floats(1e-6, 1e6)
_EDGE_SPEC_OF_KIND = {
    "bernoulli": st.builds(laws.bernoulli, _EDGE_PROB),
    "geom_plus": st.builds(laws.geom_plus, _EDGE_PROB),
    "geom_zero": st.builds(laws.geom_zero, _EDGE_PROB),
    "ber_geom": st.builds(laws.ber_geom, _EDGE_PROB, _EDGE_PROB),
    "exp": st.builds(laws.exponential, _EDGE_RATE),
    "ber_exp": st.builds(laws.ber_exp, _EDGE_PROB, _EDGE_RATE),
    "deterministic": st.builds(laws.deterministic, st.one_of(
        st.integers(0, 2**63 - 1), st.floats(0.0, 1e300), st.just(2.0**63))),
}


@pytest.mark.parametrize("kind", sorted(laws._KINDS))
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


@pytest.mark.parametrize("kind", sorted(laws._KINDS))
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
    spec = laws.ber_geom(0.5, 0.5)
    s_one, s_chunks = RandomStream(8), RandomStream(8)
    one = dist.sample_n(spec, s_one, 10)
    chunks = dist.sample_chunks(spec, s_chunks, 10, 3)
    after = s_chunks.uniform()
    assert after == s_one.uniform()
    assert np.array_equal(np.concatenate(list(chunks)), one)
    with pytest.raises(ValueError, match="int64"):
        dist.sample_chunks(laws.deterministic(2.0**63), s_chunks, 10, 3)
    # a block of Geom+ magnitudes beyond int64 is refused, as one sample_n call refuses it
    for spec in (laws.geom_plus(1e-300), laws.ber_geom(0.5, 1e-300)):
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


@settings(derandomize=True, deadline=None, max_examples=100)
@given(shape=st.lists(st.integers(0, 6), min_size=1, max_size=3), before=st.integers(0, 9),
       seed=st.integers(0, 2**32 - 1))
def test_fill_is_uniforms_in_memory_order(shape, before, seed):
    s_fill, s_draw = RandomStream(seed), RandomStream(seed)
    s_fill.skip(before)
    s_draw.skip(before)
    out = np.empty(shape)
    s_fill.fill(out)
    assert np.array_equal(out.reshape(-1), s_draw.uniforms(out.size))
    # the stream moves past the doubles it wrote, as uniforms(out.size) moves it
    assert s_fill.uniform() == s_draw.uniform()
    # a contiguous slice of a larger buffer takes the same doubles
    buf = np.zeros((3, *shape))
    RandomStream(seed).ahead(before).fill(buf[1])
    assert np.array_equal(buf[1], out) and not buf[0].any() and not buf[2].any()


@pytest.mark.parametrize("kind", sorted(laws._KINDS))
@settings(derandomize=True, deadline=None, max_examples=30)
@given(data=st.data())
def test_sample_blocks_are_stacked_sample_n_calls(kind, data):
    spec = data.draw(_EDGE_SPEC_OF_KIND[kind].filter(
        lambda s: s.kind != "deterministic" or s.value < 2**63))
    streams = data.draw(st.integers(1, 4))
    block = data.draw(st.integers(1, 5))
    # calls that fill whole blocks, and calls that end in a short last block
    calls = data.draw(st.one_of(st.integers(1, 12), st.sampled_from([block, 2 * block + 1])))
    n = data.draw(st.integers(0, 20))
    root = RandomStream(data.draw(st.integers(0, 2**32 - 1)))
    s_blocks = [root.substream(i) for i in range(streams)]
    s_calls = [root.substream(i) for i in range(streams)]
    # every block is written over one buffer: keep a copy of each
    blocks = [b.copy() for b in dist.sample_blocks(spec, s_blocks, calls, n, block)]
    assert [b.shape for b in blocks] == [(streams, min(block, calls - c), n)
                                         for c in range(0, calls, block)]
    calls_ = np.stack([np.stack([dist.sample_n(spec, s, n) for _ in range(calls)])
                       for s in s_calls])
    joined = np.concatenate(blocks, axis=1)
    assert joined.dtype == calls_.dtype == (np.int64 if spec.is_discrete else np.float64)
    assert np.array_equal(joined, calls_)
    # each stream is left where its sample_n calls leave it
    assert [s.uniform() for s in s_blocks] == [s.uniform() for s in s_calls]
    assert np.all(joined >= (1 if kind == "geom_plus" else 0))
    if kind == "bernoulli":
        assert np.all(joined <= 1)
    elif kind == "deterministic":
        assert np.all(joined == spec.value)


def test_sample_blocks_validation_and_no_calls():
    spec = laws.exponential(1.0)
    stream, ref = RandomStream(4), RandomStream(4)
    assert list(dist.sample_blocks(spec, [stream], 0, 5, 3)) == []
    assert stream.uniform() == ref.uniform()
    for calls, n, block in ((-1, 5, 3), (2, -1, 3), (2, 5, 0)):
        with pytest.raises(ValueError):
            dist.sample_blocks(spec, [stream], calls, n, block)


@pytest.mark.parametrize("kind", sorted(laws._KINDS))
@settings(derandomize=True, deadline=None, max_examples=25)
@given(data=st.data())
def test_every_face_makes_the_values_of_one_sample_n_call(kind, data):
    spec = data.draw(_EDGE_SPEC_OF_KIND[kind].filter(
        lambda s: s.kind != "deterministic" or s.value < 2**63))
    n = data.draw(st.integers(0, 60))
    seed = data.draw(st.integers(0, 2**32 - 1))
    calls = data.draw(st.integers(1, 4))
    s_calls = RandomStream(seed)
    want = [dist.sample_n(spec, s_calls, n) for _ in range(calls)]
    assert want[0].dtype == (np.int64 if spec.is_discrete else np.float64)
    # a range of the first call's values in slices, and every call in blocks
    block = data.draw(st.integers(1, n + 2))
    lo = data.draw(st.integers(0, n))
    hi = data.draw(st.integers(lo, n))
    chunks = list(dist.sample_chunks(spec, RandomStream(seed), n, block, lo, hi))
    blocks = np.concatenate([b.copy() for b in dist.sample_blocks(
        spec, [RandomStream(seed)], calls, n, data.draw(st.integers(1, 3)))], axis=1)[0]
    faces = {"sample_chunks": (np.concatenate(chunks) if chunks else want[0][:0], want[0][lo:hi]),
             **{f"sample_blocks call {j}": (blocks[j], want[j]) for j in range(calls)}}
    for face, (got, ref) in faces.items():
        assert got.dtype == ref.dtype and got.tobytes() == ref.tobytes(), face


@pytest.mark.parametrize("value, dtype", [(3, np.int64), (2.5, np.float64)])
def test_a_constant_batch_is_one_read_only_value(value, dtype):
    spec = laws.deterministic(value)
    faces = [("sample_n", dist.sample_n(spec, RandomStream(1), 9))]
    # successive yields, each taken before the next is asked for
    faces += [(f"sample_blocks yield {j}", b) for j, b in enumerate(
        dist.sample_blocks(spec, [RandomStream(1), RandomStream(2)], 5, 7, 2))]
    faces += [(f"sample_chunks slice {j}", c) for j, c in enumerate(
        dist.sample_chunks(spec, RandomStream(1), 20, 6, 1, 19))]
    assert len(faces) == 1 + 3 + 3
    for face, got in faces:
        assert got.dtype == dtype and (got == value).all(), face
        # zero strides: every element is the one value's memory, whatever the shape
        assert not got.flags.writeable and set(got.strides) == {0}, face


def test_every_face_refuses_an_unusable_spec_at_the_call_with_the_stream_unmoved():
    faces = {"sample_n": lambda spec, s: dist.sample_n(spec, s, 10),
             "sample_chunks": lambda spec, s: dist.sample_chunks(spec, s, 10, 3),
             "sample_chunks one slice": lambda spec, s: dist.sample_chunks(spec, s, 10, 10),
             "sample_chunks range": lambda spec, s: dist.sample_chunks(spec, s, 10, 3, 2, 7),
             "sample_blocks": lambda spec, s: dist.sample_blocks(spec, [s], 2, 10, 1)}
    for spec, refusal in ((laws.deterministic(2**63), "does not fit in int64"),
                          (laws.deterministic(2.0**63), "does not fit in int64"),
                          (laws.exponential(1e-320), "overflow float64"),
                          (laws.ber_exp(0.5, 1e-320), "overflow float64")):
        for face, call in faces.items():
            stream = RandomStream(3)
            # the refusal comes from the call itself, before any value is asked for
            with pytest.raises(ValueError, match=refusal):
                call(spec, stream)
            assert stream.uniform() == RandomStream(3).uniform(), (spec, face)


def _values_out_of_place(spec, u, v):
    """Reference: each kind's transform written out of place, as numpy expressions."""
    def geom_plus(alpha, x):
        return (1 + np.floor(np.log1p(-x) / math.log1p(-alpha))).astype(np.int64)
    return {"bernoulli": lambda: (u < spec.p).astype(np.int64),
            "geom_plus": lambda: geom_plus(spec.alpha, u),
            "geom_zero": lambda: geom_plus(spec.alpha, u) - 1,
            "ber_geom": lambda: geom_plus(spec.alpha, v) * (u < spec.p),
            "exp": lambda: -np.log1p(-u) / spec.rate,
            "ber_exp": lambda: np.where(u < spec.p, -np.log1p(-v) / spec.rate, 0.0)}[spec.kind]()


@pytest.mark.parametrize("kind", sorted(set(laws._KINDS) - {"deterministic"}))
@settings(derandomize=True, deadline=None, max_examples=40)
@given(data=st.data(), shape=st.sampled_from([(0,), (7,), (3, 5), (2, 3, 4)]),
       strided=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_values_are_the_transforms_written_over_the_uniforms(kind, data, shape, strided, seed):
    spec = data.draw(_EDGE_SPEC_OF_KIND[kind])
    # contiguous uniforms, or every other row of a larger block as the block path reads them
    size = math.prod(shape) * (2 if strided else 1)
    u, v = (RandomStream(seed).substream(j).uniforms(size) for j in range(2))
    if strided:
        u, v = (x.reshape(*shape[:-1], 2, shape[-1])[..., 0, :] for x in (u, v))
    else:
        u, v = u.reshape(shape), v.reshape(shape)
    want = _values_out_of_place(spec, u, v)
    got = dist._values(spec, [u, v] if kind.startswith("ber_") else [u], shape)
    assert got.dtype == want.dtype and np.array_equal(got, want)
    # the values are a view of the uniforms they were written over
    assert got.shape == shape
    assert got.size == 0 or np.shares_memory(got, v if kind.startswith("ber_") else u)
