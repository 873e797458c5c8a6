import math

import numpy as np
import pytest
from oracles import grid_bounds_unrounded

from privgraph.bounds import (
    BoundInputs,
    BoundTerms,
    bound_report,
    bound_table,
    cost_rates,
    distribution_bound,
    distribution_bound_grid,
    expected_fgw_bound,
    expected_fgw_bound_grid,
    laplace_noise_factor,
    log_plus,
    optimal_params,
    rate_bounds,
    stein_constants,
)


def test_cost_rates_examples():
    r = cost_rates(alpha=0.5, C=1.0, L_kappa=1.0, diam=1.0)
    assert r.matched_rate == pytest.approx(1.5)
    assert r.worst_cost == pytest.approx(0.5 + 0.5 * min(1.0, 2.0))
    r0 = cost_rates(alpha=0.0, C=1.0, L_kappa=1.0, diam=0.7)
    assert r0.matched_rate == 1.0
    assert r0.worst_cost == pytest.approx(0.7)


def test_expected_fgw_bound_equal_sizes():
    inp = BoundInputs(a=50, b=50, n=1000, m=32, eps=1.0, d=1)
    out = expected_fgw_bound(inp)
    assert out["size_mismatch"] == 0.0
    # independent recomputation from the printed formula
    e_abs = 2 * math.exp(-1) / (1 - math.exp(-2))
    expected = 1.5 * (1 / 32) + 4 * 1.0 * (32 / 1000) * e_abs
    assert out.total == pytest.approx(expected, abs=1e-12)
    assert out.total == pytest.approx(0.15579252, abs=1e-7)


def test_expected_fgw_bound_mismatch_factors():
    inp = BoundInputs(a=200, b=100, n=1000, m=32, eps=1.0, d=1)
    out = expected_fgw_bound(inp)
    # a^b = 100, |a-b| = 100: factor 1/(1+1) and 1 - 1/4
    assert out["matched_cell"] == pytest.approx(1.5 * (1 / 32) * 0.5)
    assert out["size_mismatch"] == pytest.approx(1.0 * 0.75)


def test_grid_bound_examples():
    inp = BoundInputs(a=100, b=100, n=1000, m=100, eps=1.0, d=2)
    out = expected_fgw_bound_grid(inp)
    g = math.exp(-1) / (1 - math.exp(-2))
    assert out.total == pytest.approx(1.5 * 0.1 + 4 * 1.0 * 0.1 * g, abs=1e-12)
    assert out.total == pytest.approx(0.3202, abs=1e-4)
    # large privacy level: noise term vanishes, cell term remains
    big = expected_fgw_bound_grid(BoundInputs(a=100, b=100, n=1000, m=100, eps=60.0, d=2))
    assert big["noise"] < 1e-20
    assert big.total == pytest.approx(big["cell"])


def test_grid_bound_preconditions():
    for grid_form in (expected_fgw_bound_grid, distribution_bound_grid):
        with pytest.raises(ValueError, match="a = b"):
            grid_form(BoundInputs(a=2, b=3, n=100, m=4, eps=1.0, d=1))
        with pytest.raises(ValueError, match="m\\^\\(-1/d\\)"):
            grid_form(BoundInputs(a=2, b=2, n=100, m=4, eps=1.0, d=1, max_cell_diam=0.4))
        # a euclidean grid: cells sqrt(2)/10 wide, not the printed 0.1
        with pytest.raises(ValueError, match="m\\^\\(-1/d\\)"):
            grid_form(BoundInputs(a=100, b=100, n=1000, m=100, eps=1.0, d=2, max_cell_diam=math.sqrt(2) / 10))
    report = bound_report(BoundInputs(a=100, b=100, n=1000, m=100, eps=1.0, d=2, max_cell_diam=math.sqrt(2) / 10))
    assert set(report) == {"expected_fgw", "distribution", "rates"}
    assert {"expected_fgw_grid", "distribution_grid"} < set(bound_report(BoundInputs(a=100, b=100, n=1000, m=100, eps=1.0, d=2)))


def test_grid_vs_general_relationship():
    # with equal sizes the cell terms agree and the printed grid noise term is
    # exactly half the general one (mean |noise| = 2 * laplace factor)
    inp = BoundInputs(a=100, b=100, n=1000, m=100, eps=1.0, d=2)
    general = expected_fgw_bound(inp)
    grid = expected_fgw_bound_grid(inp)
    assert grid["cell"] == pytest.approx(general["matched_cell"], abs=1e-15)
    assert general["noise"] == pytest.approx(2 * grid["noise"], abs=1e-15)
    assert grid.total <= general.total


def test_stein_constants_examples():
    inp = BoundInputs(a=10, b=10, n=100, m=4, eps=1.0, d=1, alpha=0.5, C=1.0)
    sc = stein_constants(1.0, inp)
    assert sc.c_alpha == pytest.approx(1.0)
    # log+ at 1 is zero, so the second branch equals c_alpha
    assert sc.c_v == pytest.approx(1.0)
    vals = [stein_constants(c, inp).c_v for c in np.linspace(1.0, 500.0, 200)]
    assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))
    assert vals[-1] < 0.02  # ~ (log c / c) decay
    with pytest.raises(ValueError):
        stein_constants(0.0, inp)


def test_distribution_bound_equal_sizes_plugin():
    inp = BoundInputs(a=10, b=10, n=1000, m=100, eps=1.0, d=2, alpha=0.5, C=1.0, L_kappa=1.0)
    out = distribution_bound(inp)
    assert out["size_mismatch"] == 0.0
    # independent recomputation
    e_abs = 2 * math.exp(-1) / (1 - math.exp(-2))
    c_v = min(1.0, (1 / 10) * (1 + (1 - math.exp(-10)) * math.log(10)))
    c_e = min(1.0, (2 - math.exp(-10)) / 10 - (1.5 - math.exp(-10)) / 100) * 0.5
    expected = (
        2 * 0.5 * 0.1
        + 2 * c_v * (10 / 1000) * 1.0 * e_abs
        + c_e * 2 * 1.0 * 0.1**3 * 100
    )
    assert out.total == pytest.approx(expected, abs=1e-12)
    assert out.total == pytest.approx(0.124119874, abs=1e-8)


def test_distribution_bound_edge_term_vanishes_without_lipschitz():
    inp = BoundInputs(a=10, b=10, n=1000, m=100, eps=1.0, d=2, L_kappa=0.0)
    assert distribution_bound(inp)["edge_probability"] == 0.0


def test_distribution_bound_mismatch_coefficient():
    inp_eq = BoundInputs(a=10, b=10, n=1000, m=100, eps=1.0, d=2)
    assert distribution_bound(inp_eq)["resample"] == pytest.approx(2 * 0.5 * 0.1)
    inp_ne = BoundInputs(a=20, b=10, n=1000, m=100, eps=1.0, d=2)
    out = distribution_bound(inp_ne)
    assert out["resample"] == pytest.approx((1 + 0.5) * 0.5 * 0.1)
    assert out["size_mismatch"] > 0


def test_distribution_grid_examples():
    inp = BoundInputs(a=100, b=100, n=1000, m=100, eps=1.0, d=2)
    out = distribution_bound_grid(inp)
    g = math.exp(-1) / (1 - math.exp(-2))
    expected = 0.1 + (2 * (1 + math.log(100)) / 1000) * 1.0 * 1.0 * g + 0.2
    assert out.total == pytest.approx(expected, abs=1e-12)
    assert out.total == pytest.approx(0.304769545, abs=1e-8)
    # a = 1 drops the log term; alpha = 1 drops the cell term
    small_a = distribution_bound_grid(BoundInputs(a=1, b=1, n=1000, m=100, eps=1.0, d=2))
    assert small_a["noise"] == pytest.approx((2 / 1000) * 1.0 * g)
    alpha1 = distribution_bound_grid(
        BoundInputs(a=100, b=100, n=1000, m=100, eps=1.0, d=2, alpha=1.0)
    )
    assert alpha1["cell"] == 0.0


@pytest.mark.parametrize("eps", [math.inf, math.nan, 0.0])
def test_optimal_params_rejects_eps_that_is_not_finite_and_positive(eps):
    with pytest.raises(ValueError, match="eps must be finite and positive"):
        optimal_params(eps, 1000, 1)


def test_optimal_params_examples():
    opt1 = optimal_params(1.0, 1000, 1)
    assert opt1.f_n == pytest.approx(1000 ** -0.5)
    assert opt1.m == 32
    assert opt1.a == pytest.approx(32**2)
    opt2 = optimal_params(1.0, 1000, 2)
    assert opt2.f_n == pytest.approx(0.1)
    assert opt2.m == 100
    assert opt2.a == pytest.approx(100.0)
    # scaling law in eps
    f1 = optimal_params(1.0, 1000, 2).f_n
    f2 = optimal_params(0.1, 1000, 2).f_n
    assert f1 / f2 == pytest.approx(10 ** (2 / 3))


def test_rate_bounds_examples():
    r = rate_bounds(1.0, 1, 1)
    assert r.coupling == pytest.approx(1.5 + 2.0)
    assert r.stein == pytest.approx(2 * 0.5 + 4 * 0.5 + 1.0)  # log+ term zero at eps*n=1
    r2 = rate_bounds(1.0, 1000, 2)
    assert r2.coupling == pytest.approx(3.5 * 1000 ** (-1 / 3))
    assert r2.coupling == pytest.approx(0.35)
    # doubling n at fixed eps
    d = 2
    ratio = rate_bounds(1.0, 2000, d).coupling / rate_bounds(1.0, 1000, d).coupling
    assert ratio == pytest.approx(2 ** (-1 / (d + 1)))


def test_bounds_nonnegative_finite_monotone():
    for d in (1, 2):
        for eps in (0.1, 1.0, 5.0):
            prev_n = None
            for n in (100, 1000, 10000):
                inp = BoundInputs(a=25, b=25, n=n, m=16, eps=eps, d=d)
                t1, t2 = expected_fgw_bound(inp).total, distribution_bound(inp).total
                assert np.isfinite(t1) and np.isfinite(t2) and t1 >= 0 and t2 >= 0
                if prev_n is not None:
                    assert t1 <= prev_n[0] + 1e-15
                    assert t2 <= prev_n[1] + 1e-15
                prev_n = (t1, t2)
    # monotone in eps at fixed n (mean |noise| decreases in eps)
    totals = [
        expected_fgw_bound(BoundInputs(a=25, b=25, n=500, m=16, eps=e, d=1)).total
        for e in (0.1, 0.5, 1.0, 2.0, 5.0)
    ]
    assert all(b <= a + 1e-15 for a, b in zip(totals, totals[1:]))


def test_bound_terms_refuse_a_total_that_overflows():
    # each term is finite, but their sum is not
    with pytest.raises(ValueError, match=r"bound term x\.total is inf"):
        BoundTerms(name="x", terms={"p": 1e308, "q": 1e308})


def test_half_bound_inequality_dense_scan():
    eps = np.linspace(1e-6, 100.0, 200_000)
    vals = eps * np.exp(-eps) / (-np.expm1(-2.0 * eps))
    assert np.all(vals <= 0.5 + 1e-12)


def test_grid_bounds_unrounded_ratio_constant_in_n():
    for d in (1, 2):
        coup = []
        stein = []
        for n in (100, 1000, 10_000, 100_000):
            c, s = grid_bounds_unrounded(1.0, n, d)
            r = rate_bounds(1.0, n, d)
            coup.append(c / r.coupling)
            stein.append(s / r.stein)
        assert np.var(coup) < 1e-12
        assert coup[0] <= 1.0 + 1e-12  # the rate form dominates its bound
        assert np.var(stein) < 1e-2  # log term decays faster than the power law


def test_bound_table_structure_and_properties():
    table = bound_table()
    assert len(table.rows) == 4
    assert len(table.rows[0]) == 1 + 2 * 3
    csv_text = table.to_csv()
    assert csv_text.splitlines()[0].count(";") == 6
    # entries decrease in n at fixed eps
    for row in table.rows:
        for j in range(2):
            assert row[1 + 2 * j] > row[3 + 2 * j]
            assert row[2 + 2 * j] > row[4 + 2 * j]
    # at the largest privacy level the coupling-form bound is the smaller one
    top = table.rows[0]
    assert top[0] == 2.0
    for j in range(3):
        assert top[1 + 2 * j] <= top[2 + 2 * j]


def test_bound_report_contents():
    inp = BoundInputs(a=100, b=100, n=1000, m=100, eps=1.0, d=2)
    rep = bound_report(inp)
    assert set(rep) == {
        "expected_fgw",
        "distribution",
        "rates",
        "expected_fgw_grid",
        "distribution_grid",
    }
    # each breakdown sums to its total
    for key in ("expected_fgw", "distribution", "expected_fgw_grid", "distribution_grid"):
        terms = rep[key]
        assert terms.total == pytest.approx(sum(terms.terms.values()), abs=1e-12)
        assert all(v >= 0 for v in terms.terms.values())
    uneq = bound_report(BoundInputs(a=100, b=50, n=1000, m=100, eps=1.0, d=2))
    assert "expected_fgw_grid" not in uneq


# float.hex of each bound_report value: an a = b input, where both grid forms
# apply and the size terms vanish, and an a != b input, where the size terms run
_REPORT_HEX = [
    (
        BoundInputs(a=20.0, b=20.0, n=1000, m=16, eps=1.0, d=2),
        {
            "expected_fgw": {"matched_cell": "0x1.8000000000000p-2", "noise": "0x1.be204c4246b45p-5",
                             "size_mismatch": "0x0.0p+0", "total": "0x1.b7c4098848d69p-2"},
            "distribution": {"resample": "0x1.0000000000000p-2", "size_mismatch": "0x0.0p+0",
                             "vertex_intensity": "0x1.bda671fcff568p-8", "edge_probability": "0x1.33fffffabe682p-1",
                             "total": "0x1.b77b4cdeb866dp-1"},
            "rates": {"coupling": "0x1.6666666666668p-2", "stein": "0x1.38f08fcdbfd45p-2"},
            "expected_fgw_grid": {"cell": "0x1.8000000000000p-2", "noise": "0x1.be204c4246b45p-6",
                                  "total": "0x1.9be204c4246b4p-2"},
            "distribution_grid": {"cell": "0x1.0000000000000p-2", "noise": "0x1.bda672088d26fp-9",
                                  "edge_probability": "0x1.4000000000000p-1", "total": "0x1.c1bda672088d2p-1"},
        },
    ),
    (
        # 1 - 1/(1 + lo/c)^2 and 1 - r*r with r = 1/(1 + lo/c) differ in the last bit here
        BoundInputs(a=20.0, b=70.0, n=1000, m=16, eps=0.5, d=2, alpha=0.3, L_kappa=2.0),
        {
            "expected_fgw": {"matched_cell": "0x1.5b6db6db6db6ep-2", "noise": "0x1.f7103dfccbc57p-4",
                             "size_mismatch": "0x1.f58d0fac687d4p-2", "total": "0x1.e75f6b038492cp-1"},
            "distribution": {"resample": "0x1.3333333333333p-2", "size_mismatch": "0x1.f58d0fac687d4p-2",
                             "vertex_intensity": "0x1.f686d6849980dp-7", "edge_probability": "0x1.719999934ae36p-1",
                             "total": "0x1.86e9eb2e9590dp+0"},
            "rates": {"coupling": "0x1.f7297d738d168p-2", "stein": "0x1.f4cb2231f096bp-2"},
        },
    ),
]


@pytest.mark.parametrize("inp, want", _REPORT_HEX, ids=["equal_sizes", "unequal_sizes"])
def test_bound_report_values_bit_for_bit(inp, want):
    got = {}
    for name, val in bound_report(inp).items():
        if isinstance(val, BoundTerms):
            got[name] = {**{key: float.hex(v) for key, v in val.terms.items()}, "total": float.hex(val.total)}
        else:
            got[name] = {"coupling": float.hex(val.coupling), "stein": float.hex(val.stein)}
    assert got == want


def test_log_plus_and_noise_factor():
    assert log_plus(0.5) == 0.0
    assert log_plus(1.0) == 0.0
    assert log_plus(math.e) == pytest.approx(1.0)
    assert laplace_noise_factor(1.0) == pytest.approx(
        math.exp(-1) / (1 - math.exp(-2)), abs=1e-15
    )


@pytest.mark.parametrize("field", ["a", "b", "n", "m", "eps", "d", "C", "L_kappa", "alpha"])
def test_bound_inputs_reject_nan(field):
    kw = dict(a=16.0, b=16.0, n=100, m=4, eps=1.0, d=1)
    BoundInputs(**kw)
    with pytest.raises(ValueError):
        BoundInputs(**{**kw, field: float("nan")})
