import itertools
import math

import numpy as np
import pytest
from oracles import abs_variance
from scipy import stats

from privgraph.noise import NoiseSpec, discrete_laplace, dp_ratio_satisfied, expected_abs, pmf, sample


def test_pmf_discrete_laplace_at_mode():
    for eps in (0.3, 1.0, 2.5):
        p = math.exp(-eps)
        assert pmf(discrete_laplace(eps), 0) == pytest.approx((1 - p) / (1 + p), rel=1e-14)


def test_pmf_sums_to_one():
    # truncated sum plus the analytic geometric tail
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


def test_pure_dp_only_for_full_support():
    # the support is all of Z, so passing the unit-shift check is pure DP
    for eps, level in ((1.0, 1.0), (0.5, 1.0), (1.0, 0.5)):
        report = dp_ratio_satisfied(discrete_laplace(eps), level)
        assert report.pure_dp == report.satisfied == (eps <= level)


def test_dp_ratio_violation_detected():
    # noise at eps = 1 checked at level 0.5: the step from |k| = 1 to 0 breaks it
    spec = discrete_laplace(1.0)
    report = dp_ratio_satisfied(spec, 0.5)
    assert not report.satisfied
    assert report.worst_k == 1 and report.worst_shift == -1
    assert pmf(spec, 0) / pmf(spec, 1) == pytest.approx(report.worst_ratio, rel=1e-14)


def test_a_spec_is_discrete_laplace_at_eps():
    assert discrete_laplace(0.5) == NoiseSpec(eps=0.5)
    with pytest.raises(ValueError, match="finite eps > 0"):
        NoiseSpec(eps=None)


def test_nan_parameters_rejected():
    with pytest.raises(ValueError, match="eps > 0"):
        discrete_laplace(float("nan"))
    with pytest.raises(ValueError, match="eps > 0"):
        NoiseSpec(eps=float("nan"))


@pytest.mark.parametrize("eps", [math.inf, -math.inf, math.nan])
def test_non_finite_eps_rejected(eps):
    # an infinite eps would sample p = exp(-eps) = 0: every draw 0, no privacy
    with pytest.raises(ValueError, match="finite eps > 0"):
        discrete_laplace(eps)
