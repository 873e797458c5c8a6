"""Check the unit-shift likelihood-ratio condition for the built-in noise
distributions and for a custom table that violates it. Only discrete Laplace
is pure epsilon-DP: a finite support passes at most the on-support scan."""

import math

from privgraph import bounded_power, custom, discrete_laplace, dp_ratio_satisfied, pmf

for eps in (0.5, 1.0, 2.0):
    rep = dp_ratio_satisfied(discrete_laplace(eps), eps)
    print(
        f"discrete_laplace(eps={eps}): worst ratio {rep.worst_ratio:.4f} "
        f"vs bound {math.exp(eps):.4f} -> satisfied={rep.satisfied}, pure_dp={rep.pure_dp}"
    )

rep = dp_ratio_satisfied(bounded_power(1.0, 3), 1.0)
print(
    f"bounded_power(eps=1, A=3): worst ratio {rep.worst_ratio:.4f} at "
    f"k={rep.worst_k}, shift={rep.worst_shift} (the |k|=1 -> |k|=2 step); "
    f"satisfied={rep.satisfied} on the support, pure_dp={rep.pure_dp} (P(3)/P(4) is unbounded)"
)
print("pmf over the support:", {k: round(pmf(bounded_power(1.0, 3), k), 4) for k in range(-3, 4)})

hot = math.exp(2 * 0.5)
bad = custom({0: 1 / (1 + hot), 1: hot / (1 + hot)})
rep = dp_ratio_satisfied(bad, 0.5)
print(f"custom steep table at level 0.5: satisfied={rep.satisfied} (ratio {rep.worst_ratio:.3f})")
