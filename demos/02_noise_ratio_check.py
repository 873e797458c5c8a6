"""Check the likelihood ratios of discrete-Laplace noise on counts.

One count shifted by 1 moves its pmf by at most exp(eps). With n public,
neighbouring datasets replace one point, which moves two counts, so the
ratio of a whole release is exp(2*eps): the release is 2*eps-DP under
replacement.
"""

import math

from privgraph import discrete_laplace, dp_ratio_satisfied, pmf


def release_prob(noise, true, output):
    """P(noisy counts == output | true counts), the cells' noise iid."""
    return math.prod(pmf(noise, o - c) for o, c in zip(output, true))


counts, replaced = (10, 10, 10, 10), (9, 11, 10, 10)  # one point moved from cell 0 to cell 1

for eps in (0.5, 1.0, 2.0):
    noise = discrete_laplace(eps)
    rep = dp_ratio_satisfied(noise, eps)
    print(
        f"discrete_laplace(eps={eps}): unit-shift ratio {rep.worst_ratio:.4f} "
        f"vs bound {math.exp(eps):.4f} -> satisfied={rep.satisfied}, pure_dp={rep.pure_dp}"
    )
    ratio = release_prob(noise, counts, counts) / release_prob(noise, replaced, counts)
    print(f"  replacing one point: joint ratio {ratio:.4f} vs exp(2*eps) = {math.exp(2 * eps):.4f}")

rep = dp_ratio_satisfied(discrete_laplace(1.0), 0.5)
print(f"discrete_laplace(eps=1) at level 0.5: satisfied={rep.satisfied} (ratio {rep.worst_ratio:.3f})")
