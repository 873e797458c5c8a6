import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from oracles import abs_variance
from scipy import stats

from privgraph.noise import (
    NoiseSpec,
    bounded_power,
    custom,
    discrete_laplace,
    dp_ratio_satisfied,
    expected_abs,
    noise_from_json,
    pmf,
    sample,
    zero_noise,
)


def test_pmf_discrete_laplace_at_mode():
    for eps in (0.3, 1.0, 2.5):
        p = math.exp(-eps)
        assert pmf(discrete_laplace(eps), 0) == pytest.approx((1 - p) / (1 + p), rel=1e-14)


def test_pmf_bounded_power_hand_normalized():
    # weights |k|^1 over {-2,-1,1,2} sum to 6
    spec = bounded_power(1.0, 2)
    assert pmf(spec, 2) == pytest.approx(1.0 / 3.0, rel=1e-14)
    assert pmf(spec, 1) == pytest.approx(1.0 / 6.0, rel=1e-14)
    assert pmf(spec, 0) == 0.0
    assert pmf(spec, 3) == 0.0


def test_pmf_custom_off_support():
    assert pmf(zero_noise(), 1) == 0.0
    assert pmf(zero_noise(), 0) == 1.0


def test_pmf_sums_to_one():
    for spec in (bounded_power(0.7, 4), custom({-1: 0.25, 0: 0.5, 1: 0.25})):
        total = sum(pmf(spec, int(k)) for k in spec.finite_support)
        assert total == pytest.approx(1.0, abs=1e-12)
    # discrete Laplace: truncated sum plus the analytic geometric tail
    eps = 0.8
    p = math.exp(-eps)
    truncated = sum(pmf(discrete_laplace(eps), k) for k in range(-200, 201))
    tail = 2 * (1 - p) / (1 + p) * p**201 / (1 - p)
    assert truncated + tail == pytest.approx(1.0, abs=1e-12)


def test_expected_abs_closed_form_vs_direct_sum():
    spec = discrete_laplace(1.0)
    closed = expected_abs(spec)
    assert closed == pytest.approx(2 * math.exp(-1) / (1 - math.exp(-2)), rel=1e-14)
    direct = sum(abs(k) * pmf(spec, k) for k in range(-200, 201))
    assert closed == pytest.approx(direct, abs=1e-10)
    assert closed == pytest.approx(0.850918, abs=1e-6)


def test_expected_abs_finite_specs():
    assert expected_abs(zero_noise()) == 0.0
    assert expected_abs(bounded_power(1.0, 2)) == pytest.approx(10.0 / 6.0, rel=1e-14)


def test_sampling_discrete_laplace_goodness_of_fit():
    rng = np.random.default_rng(42)
    spec = discrete_laplace(1.0)
    draws = sample(spec, rng, size=1_000_000)
    lo, hi = -8, 8
    clipped = np.clip(draws, lo, hi)
    observed = np.bincount(clipped - lo, minlength=hi - lo + 1)
    expected = np.array([pmf(spec, k) for k in range(lo, hi + 1)])
    # the two clipped bins carry the exact geometric tail mass
    p = math.exp(-1.0)
    expected[0] = expected[-1] = pmf(spec, hi) / (1 - p)
    expected = expected * draws.size
    chi2 = float(((observed - expected) ** 2 / expected).sum())
    pval = stats.chi2.sf(chi2, df=expected.size - 1)
    assert pval > 0.01


def test_sampling_bounded_power_support():
    rng = np.random.default_rng(1)
    draws = sample(bounded_power(0.5, 3), rng, size=5000)
    assert np.all((np.abs(draws) >= 1) & (np.abs(draws) <= 3))


def test_sampling_custom_point_mass():
    rng = np.random.default_rng(2)
    assert np.all(sample(zero_noise(), rng, size=100) == 0)


def test_empirical_abs_mean_within_4_sigma():
    rng = np.random.default_rng(9)
    spec = discrete_laplace(1.0)
    n = 1_000_000
    draws = np.abs(sample(spec, rng, size=n))
    sigma = math.sqrt(abs_variance(spec))
    assert abs(draws.mean() - expected_abs(spec)) < 4 * sigma / math.sqrt(n)


def test_dp_ratio_discrete_laplace_exact():
    for eps in (0.01, 0.1, 1.0, 10.0):
        report = dp_ratio_satisfied(discrete_laplace(eps), eps)
        assert report.satisfied
        assert report.worst_ratio == pytest.approx(math.exp(eps), rel=1e-14)
    assert not dp_ratio_satisfied(discrete_laplace(1.0), 0.5).satisfied


def _release_prob(spec, counts, output):
    """P(noisy counts == output | true counts), the cells' noise iid."""
    return math.prod(pmf(spec, o - c) for o, c in zip(output, counts))


def test_replacing_one_point_moves_two_counts_so_the_joint_ratio_is_exp_2eps():
    # With n public, neighbouring datasets replace one point: one count loses
    # a point and another gains it. The unit-shift check covers one count.
    counts, replaced = (10, 10, 10, 10), (9, 11, 10, 10)
    shifts = [tuple(c + a * (k == i) for k, c in enumerate(counts)) for i in range(4) for a in (-1, 1)]
    outputs = list(itertools.product(*(range(c - 3, c + 4) for c in counts)))
    for eps in (0.5, 1.0):
        spec = discrete_laplace(eps)
        ratio = _release_prob(spec, counts, counts) / _release_prob(spec, replaced, counts)
        assert ratio == pytest.approx(math.exp(2 * eps), rel=1e-12)
        for neighbour, bound in [(replaced, math.exp(2 * eps))] + [(s, math.exp(eps)) for s in shifts]:
            for out in outputs:
                p, q = _release_prob(spec, counts, out), _release_prob(spec, neighbour, out)
                assert max(p / q, q / p) <= bound * (1 + 1e-12)


def test_dp_ratio_bounded_power_scan():
    for eps in (0.5, 1.0, 2.0):
        report = dp_ratio_satisfied(bounded_power(eps, 4), eps)
        assert report.satisfied
        # worst case is the step from |k|=1 to |k|=2
        assert report.worst_ratio == pytest.approx(2.0**eps, rel=1e-12)
        assert abs(report.worst_k) == 1


def test_pure_dp_only_for_full_support():
    # a finite support passes the on-support scan, yet an output just past it
    # is possible from a count c + 1 and impossible from c
    for spec in (zero_noise(), custom({-1: 0.25, 0: 0.5, 1: 0.25}), bounded_power(1.0, 2)):
        report = dp_ratio_satisfied(spec, 1.0)
        assert report.satisfied and not report.pure_dp
    assert dp_ratio_satisfied(zero_noise(), 0.1).satisfied  # the scan's meaning is unchanged
    assert dp_ratio_satisfied(discrete_laplace(1.0), 1.0).pure_dp
    assert not dp_ratio_satisfied(discrete_laplace(1.0), 0.5).pure_dp


def test_dp_ratio_violation_detected():
    eps0 = 0.5
    hot = math.exp(2 * eps0)
    table = {0: 1.0 / (1.0 + hot), 1: hot / (1.0 + hot)}
    report = dp_ratio_satisfied(custom(table), eps0)
    assert not report.satisfied
    assert report.worst_k == 0 and report.worst_shift == 1


def test_noise_from_json(tmp_path):
    path = tmp_path / "pmf.json"
    path.write_text(json.dumps({"pmf": {"0": 1.0}}))
    assert pmf(noise_from_json(str(path)), 0) == 1.0
    path.write_text(json.dumps({"nope": {}}))
    with pytest.raises(ValueError):
        noise_from_json(str(path))


@pytest.mark.parametrize(
    "text, message",
    [("1", '"pmf" object'), ("[0.5, 0.5]", '"pmf" object'), ('{"pmf": 1}', '"pmf" object'),
     ('{"pmf": [0.5, 0.5]}', '"pmf" object'), ('{"pmf": {"0": [1.0]}}', "map integers to probabilities"),
     ('{"pmf": {"zero": 1.0}}', "invalid literal")],
)
def test_malformed_pmf_files_are_refused(tmp_path, text, message):
    # the argument is always a path: a file named "1" holds a pmf, not the JSON text 1
    path = tmp_path / "1"
    path.write_text(text)
    with pytest.raises(ValueError, match=message):
        noise_from_json(str(path))
    path.write_text(json.dumps({"pmf": {"-1": 0.25, "0": 0.5, "1": 0.25}}))
    assert pmf(noise_from_json(str(path)), -1) == 0.25


def test_a_spec_is_laplace_or_a_table():
    assert discrete_laplace(0.5) == NoiseSpec(eps=0.5)
    assert zero_noise() == NoiseSpec(table={0: 1.0})
    with pytest.raises(ValueError, match="not both"):
        NoiseSpec(eps=0.5, table={0: 1.0})
    with pytest.raises(ValueError, match="finite eps > 0"):
        NoiseSpec()


def test_custom_table_validation():
    with pytest.raises(ValueError):
        custom({0: 0.5, 1: 0.6})
    with pytest.raises(ValueError):
        custom({0: -0.1, 1: 1.1})


def test_nan_parameters_rejected():
    with pytest.raises(ValueError, match="eps > 0"):
        discrete_laplace(float("nan"))
    with pytest.raises(ValueError, match="eps > 0"):
        bounded_power(float("nan"), 2)
    with pytest.raises(ValueError, match="NaN"):
        custom({-1: 0.5, 1: 0.5, 0: float("nan")})
    with pytest.raises(ValueError):
        custom({0: float("nan")})


@pytest.mark.parametrize("eps", [math.inf, -math.inf, math.nan])
def test_non_finite_eps_rejected(eps):
    # an infinite eps would sample p = exp(-eps) = 0: every draw 0, no privacy
    with pytest.raises(ValueError, match="finite eps > 0"):
        discrete_laplace(eps)
    with pytest.raises(ValueError, match="finite eps > 0"):
        bounded_power(eps, 2)


def _parent_bounded_power_pmf(eps, A, k):
    # the closed form every bounded-power pmf value is computed by
    return abs(k) ** eps / (2 * sum(j**eps for j in range(1, A + 1))) if 1 <= abs(k) <= A else 0.0


@st.composite
def finite_specs(draw):
    """A random finite table (zeros allowed, one positive mass at least), or bounded_power(eps, A <= 50)."""
    if draw(st.booleans()):
        return bounded_power(draw(st.floats(0.01, 5.0)), draw(st.integers(1, 50)))
    keys = draw(st.lists(st.integers(-30, 30), min_size=1, max_size=15, unique=True))
    weights = [draw(st.one_of(st.just(0.0), st.floats(1e-3, 1e3))) for _ in keys]
    weights[0] = weights[0] or 1.0
    total = math.fsum(weights)
    return custom({k: w / total for k, w in zip(keys, weights)})


@settings(max_examples=200, deadline=None)
@given(spec=finite_specs(), seed=st.integers(0, 2**32 - 1))
def test_finite_specs_against_direct_computation(spec, seed):
    support = spec.finite_support.tolist()
    assert math.fsum(pmf(spec, k) for k in support) == pytest.approx(1.0, abs=1e-12)
    assert all(pmf(spec, k) == 0.0 for k in range(min(support) - 2, max(support) + 3) if k not in support)
    draws = sample(spec, np.random.default_rng(seed), size=300)
    assert draws.dtype == np.int64 and draws.shape == (300,) and np.isin(draws, support).all()
    # the scan's worst ratio is the brute-force max over support points and unit shifts
    report = dp_ratio_satisfied(spec, 1.0)
    brute = max(pmf(spec, k + a) / pmf(spec, k) for k in support for a in (-1, 1))
    assert report.worst_ratio == brute
    assert pmf(spec, report.worst_k + report.worst_shift) / pmf(spec, report.worst_k) == brute
    assert report.satisfied == (brute <= math.e * (1 + 1e-12)) and not report.pure_dp
    assert expected_abs(spec) == pytest.approx(math.fsum(abs(k) * pmf(spec, k) for k in support), rel=1e-12)


@settings(max_examples=100, deadline=None)
@given(eps=st.floats(0.01, 5.0), A=st.integers(1, 50))
def test_bounded_power_values_are_the_closed_form(eps, A):
    spec = bounded_power(eps, A)
    for k in range(-A - 2, A + 3):
        assert pmf(spec, k) == _parent_bounded_power_pmf(eps, A, k)


def test_bounded_power_table_at_a_large_A():
    # a million weights summed left to right: the table must still pass the pmf check
    A = 10**6
    spec = bounded_power(2, A)
    assert spec.finite_support.size == 2 * A
    norm = 2 * sum(j**2.0 for j in range(1, A + 1))
    assert pmf(spec, -A) == pmf(spec, A) == A**2.0 / norm
    assert pmf(spec, 1) == 1 / norm


@pytest.mark.parametrize("eps, A", [(300.0, 11), (1023.9, 2)])
def test_bounded_power_weights_that_overflow_are_refused(eps, A):
    with pytest.raises(ValueError, match="overflow"):
        bounded_power(eps, A)
