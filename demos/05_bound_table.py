"""Regenerate the explicit bound table and show the parameter-selection rule.

Columns pair the coupling-form bound with the distribution-form bound for
each dataset size; rows are privacy levels. Both shrink as n grows; the
coupling form wins once the privacy level is large.
"""

from privgraph import bound_table, optimal_params, rate_bounds

table = bound_table()  # d=2, alpha=1/2, C=L=1, eps rows x n in {100, 1000, 10000}
print(table.to_csv())

print("optimal parameters at eps=1:")
for d in (1, 2):
    for n in (100, 1000, 10000):
        opt = optimal_params(1.0, n, d)
        rates = rate_bounds(1.0, n, d)
        print(
            f"  d={d} n={n:>6}: m={opt.m:>4} (request {opt.m_request}), "
            f"a={opt.a:,.0f}, coupling rate {rates.coupling:.4f}, "
            f"distribution rate {rates.stein:.4f}"
        )
