"""Closed-form utility bounds, rate expressions, and parameter selection.

Two families of guarantees are evaluated term by term:

* the coupling-accuracy bound on the expected FGW distance between the
  jointly generated pair, plus its simplified form for grid partitions of the
  unit cube with discrete Laplace noise and equal expected sizes;
* the distribution-distance bound on the integral probability metric between
  the two graph laws (Stein-method constants c_V, c_E), plus its simplified
  grid form.

The simplified grid forms are implemented exactly as printed, which makes
their noise terms roughly half the corresponding general-bound terms after
substituting the discrete-Laplace mean absolute noise; both versions are
valid upper bounds and the discrepancy is covered by tests rather than
"fixed" here.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass, fields

from .fgw import FgwParams, worst_pair_cost
from .graphs import Kernel
from .noise import NoiseSpec, expected_abs
from .space import Partition, SpaceConfig, _is_int, _is_real, build_grid_partition


def log_plus(x: float) -> float:
    """max(log x, 0), natural log."""
    return max(math.log(x), 0.0) if x > 0 else 0.0


def laplace_noise_factor(eps: float) -> float:
    """exp(-eps) / (1 - exp(-2 eps)); the discrete-Laplace mean |noise| is twice this."""
    return math.exp(-eps) / (1.0 - math.exp(-2.0 * eps))


@dataclass(frozen=True)
class CostRates:
    """Per-unit-mass FGW cost caps: ``matched_rate`` scales the cell diameter
    for same-cell vertex pairs; ``worst_cost`` is the flat cap for arbitrary
    pairs."""

    matched_rate: float
    worst_cost: float


def cost_rates(alpha: float, C: float, L_kappa: float, diam: float = 1.0) -> CostRates:
    matched = 1.0 - alpha + alpha * (2.0 * C * L_kappa)
    worst = worst_pair_cost(FgwParams(alpha=alpha, C=C), diam, L_kappa)
    return CostRates(matched_rate=matched, worst_cost=worst)


@dataclass(frozen=True)
class BoundInputs:
    a: float
    b: float
    n: int
    m: int
    eps: float
    d: int
    alpha: float = 0.5
    C: float = 1.0
    L_kappa: float = 1.0
    diam_omega: float = 1.0
    max_cell_diam: float | None = None
    leb_omega: float = 1.0
    expected_abs_noise: float | None = None

    def __post_init__(self):
        for f in fields(self):  # every input is a number; the two that default to None may be None
            value = getattr(self, f.name)
            if f.name in ("n", "m", "d") and not _is_int(value):
                raise ValueError(f"bound input {f.name} must be an integer, got {value!r}")
            if not (_is_real(value) or value is None and f.default is None):
                raise ValueError(f"bound input {f.name} must be a real number, got {value!r}")
        # NaN fails too; an infinite eps means no noise at all, and at
        # exp(-eps) == 1 the noise factor divides by zero
        if not 0 < self.eps < math.inf or math.exp(-self.eps) == 1.0:
            raise ValueError(f"bounds require finite eps > 0 with exp(-eps) < 1, got {self.eps}")
        if not (self.a > 0 and self.b > 0 and all(x >= 1 for x in (self.n, self.m, self.d))):  # False for NaN
            raise ValueError("sizes, n, m, d must be positive (and not NaN)")
        if not (0.0 <= self.alpha <= 1.0 and self.C > 0 and self.L_kappa >= 0):
            raise ValueError("invalid FGW/kernel parameters")
        if self.max_cell_diam is None:
            object.__setattr__(self, "max_cell_diam", self.m ** (-1.0 / self.d))
        if self.expected_abs_noise is None:
            object.__setattr__(self, "expected_abs_noise", 2.0 * laplace_noise_factor(self.eps))

    @property
    def rates(self) -> CostRates:
        return cost_rates(self.alpha, self.C, self.L_kappa, self.diam_omega)


def bound_inputs_from(
    partition: Partition,
    n: int,
    noise: NoiseSpec,
    a: float,
    b: float,
    params: FgwParams,
    kernel: Kernel,
    eps: float,
) -> BoundInputs:
    """Assemble bound inputs from the artifacts of an actual run."""
    return BoundInputs(
        a=a,
        b=b,
        n=n,
        m=partition.m,
        eps=eps,
        d=partition.d,
        alpha=params.alpha,
        C=params.C,
        L_kappa=kernel.lipschitz_constant,
        diam_omega=partition.space.diameter,
        max_cell_diam=partition.max_diam,
        leb_omega=1.0,
        expected_abs_noise=expected_abs(noise),
    )


@dataclass(frozen=True)
class BoundTerms:
    name: str
    terms: dict[str, float]

    @property
    def total(self) -> float:
        return float(sum(self.terms.values()))

    def __getitem__(self, key: str) -> float:
        return self.terms[key]


def _size_mismatch(inp: BoundInputs) -> tuple[float, float]:
    """(1 / (1 + lo/c), worst cost * (1 - 1/(1 + lo/c)^2)) for the size gap
    c = |a - b| and lo = min(a, b); (1, 0) when the expected sizes agree."""
    lo, c = min(inp.a, inp.b), abs(inp.a - inp.b)
    if c == 0:
        return 1.0, 0.0
    return 1.0 / (1.0 + lo / c), inp.rates.worst_cost * (1.0 - 1.0 / (1.0 + lo / c) ** 2)


def expected_fgw_bound(inp: BoundInputs) -> BoundTerms:
    """General bound on the expected FGW distance of the generated pair.

    Three terms: matched-cell cost, noise cost, and a size-mismatch cost that
    vanishes when the expected sizes agree.
    """
    r = inp.rates
    mismatch, size_term = _size_mismatch(inp)
    return BoundTerms(
        name="expected_fgw",
        terms={
            "matched_cell": r.matched_rate * inp.max_cell_diam * mismatch,
            "noise": 4.0 * r.worst_cost * (inp.m / inp.n) * inp.expected_abs_noise,
            "size_mismatch": size_term,
        },
    )


def _grid_cell_diam(inp: BoundInputs) -> float:
    """m^(-1/d), the cell diameter of both grid forms; refuses inputs they do not cover."""
    if inp.a != inp.b:
        raise ValueError("grid form requires equal expected sizes a = b")
    md = inp.m ** (-1.0 / inp.d)
    if abs(inp.max_cell_diam - md) > 1e-9:
        raise ValueError("grid form requires max cell diameter m^(-1/d)")
    return md


def expected_fgw_bound_grid(inp: BoundInputs) -> BoundTerms:
    """Simplified two-term form: grid partition of the unit cube, equal sizes,
    discrete Laplace noise. Preconditions are enforced."""
    md = _grid_cell_diam(inp)
    r = inp.rates
    return BoundTerms(
        name="expected_fgw_grid",
        terms={
            "cell": r.matched_rate * md,
            "noise": 4.0 * r.worst_cost * (inp.m / inp.n) * laplace_noise_factor(inp.eps),
        },
    )


@dataclass(frozen=True)
class SteinConstants:
    c_v: float
    c_e: float
    c_alpha: float


def stein_constants(c: float, inp: BoundInputs) -> SteinConstants:
    """Vertex- and edge-discrepancy constants at Poisson rate c."""
    if c <= 0:
        raise ValueError("rate must be positive")
    c_alpha = (1.0 - inp.alpha) * inp.diam_omega + inp.alpha * inp.C
    c_v = min(c_alpha, (1.0 / c) * (1.0 + (1.0 - math.exp(-c)) * log_plus(c)) * c_alpha)
    c_e = min(1.0, (2.0 - math.exp(-c)) / c - (1.5 - math.exp(-c)) / c**2) * inp.alpha * inp.C
    return SteinConstants(c_v=c_v, c_e=c_e, c_alpha=c_alpha)


def distribution_bound(inp: BoundInputs) -> BoundTerms:
    """General bound on the integral probability metric between the two graph
    distributions: resampling, size-mismatch, vertex-intensity and
    edge-probability terms."""
    lo = min(inp.a, inp.b)
    sc = stein_constants(lo, inp)
    ratio, size_term = _size_mismatch(inp)
    return BoundTerms(
        name="distribution",
        terms={
            "resample": (1.0 + ratio) * (1.0 - inp.alpha) * inp.max_cell_diam,
            "size_mismatch": size_term,
            "vertex_intensity": 2.0
            * sc.c_v
            * (lo / inp.n)
            * inp.leb_omega
            * inp.expected_abs_noise,
            "edge_probability": sc.c_e * 2.0 * inp.L_kappa * inp.max_cell_diam**3 * lo**2,
        },
    )


def distribution_bound_grid(inp: BoundInputs) -> BoundTerms:
    """Simplified three-term form of :func:`distribution_bound` on the unit
    cube with discrete Laplace noise and equal sizes. Preconditions are enforced."""
    md = _grid_cell_diam(inp)
    c_alpha = (1.0 - inp.alpha) * inp.diam_omega + inp.alpha * inp.C
    return BoundTerms(
        name="distribution_grid",
        terms={
            "cell": 2.0 * (1.0 - inp.alpha) * md,
            "noise": (2.0 * (1.0 + log_plus(inp.a)) / (inp.eps * inp.n))
            * c_alpha
            * inp.eps
            * laplace_noise_factor(inp.eps),
            "edge_probability": 4.0 * inp.alpha * inp.C * inp.L_kappa * inp.m ** (-3.0 / inp.d) * inp.a,
        },
    )


@dataclass(frozen=True)
class OptimalParams:
    f_n: float
    m_request: int
    m: int
    k_per_axis: int
    a: float


def optimal_params(eps: float, n: int, d: int) -> OptimalParams:
    """Partition size and expected graph size equalizing the bound terms:
    f = eps^(d/(d+1)) n^(-1/(d+1)), m = ceil(f n) realized on the grid,
    a = m^(2/d)."""
    if not 0 < eps < math.inf or n < 1 or d < 1:  # NaN eps fails too
        raise ValueError(f"eps must be finite and positive and n, d positive, got eps={eps}, n={n}, d={d}")
    f = eps ** (d / (d + 1.0)) * n ** (-1.0 / (d + 1.0))
    m_request = max(1, int(math.ceil(round(f * n, 9))))
    part = build_grid_partition(SpaceConfig(d=d), m_request)
    m = part.m
    a = float(m) ** (2.0 / d)
    return OptimalParams(f_n=f, m_request=m_request, m=m, k_per_axis=part.k_per_axis, a=a)


@dataclass(frozen=True)
class RateValues:
    coupling: float
    stein: float


def rate_bounds(
    eps: float, n: int, d: int, alpha: float = 0.5, C: float = 1.0, L_kappa: float = 1.0
) -> RateValues:
    """Closed-form convergence rates under the optimal parameter choice."""
    r = cost_rates(alpha, C, L_kappa, diam=1.0)
    en = eps * n
    coupling = (r.matched_rate + 2.0 * r.worst_cost) * en ** (-1.0 / (d + 1.0))
    c_alpha = (1.0 - alpha) + alpha * C
    stein = (2.0 * (1.0 - alpha) + 4.0 * alpha * C * L_kappa) * en ** (-1.0 / (d + 1.0)) + c_alpha * (
        1.0 + (2.0 / (d + 1.0)) * log_plus(en)
    ) / en
    return RateValues(coupling=coupling, stein=stein)


DEFAULT_TABLE_EPS = (2.0, 1.0, 0.1, 0.01)
DEFAULT_TABLE_N = (100, 1000, 10000)


@dataclass(frozen=True)
class BoundTable:
    eps_list: tuple
    n_list: tuple
    rows: list  # one row per eps: [eps, coupling(n0), stein(n0), coupling(n1), ...]

    def to_csv(self) -> str:
        buf = io.StringIO()
        header = ["eps"]
        for n in self.n_list:
            header += [f"coupling_n{n}", f"distribution_n{n}"]
        buf.write(";".join(header) + "\n")
        for row in self.rows:
            buf.write(";".join(f"{v:.6g}" for v in row) + "\n")
        return buf.getvalue()


def bound_table(
    eps_list=DEFAULT_TABLE_EPS,
    n_list=DEFAULT_TABLE_N,
    d: int = 2,
    alpha: float = 0.5,
    C: float = 1.0,
    L_kappa: float = 1.0,
) -> BoundTable:
    """Grid of both simplified bounds under optimal parameters; rows are
    privacy levels, column pairs are dataset sizes."""
    if not eps_list or not n_list:
        raise ValueError("eps and n lists must be nonempty")
    rows = []
    for eps in eps_list:
        row = [float(eps)]
        for n in n_list:
            opt = optimal_params(eps, n, d)
            inp = BoundInputs(
                a=opt.a, b=opt.a, n=n, m=opt.m, eps=eps, d=d, alpha=alpha, C=C, L_kappa=L_kappa
            )
            row.append(expected_fgw_bound_grid(inp).total)
            row.append(distribution_bound_grid(inp).total)
        rows.append(row)
    return BoundTable(eps_list=tuple(eps_list), n_list=tuple(n_list), rows=rows)


def bound_report(inp: BoundInputs) -> dict:
    """Per-term breakdown of every applicable bound plus the two rate values."""
    report = {
        "expected_fgw": expected_fgw_bound(inp),
        "distribution": distribution_bound(inp),
        "rates": rate_bounds(inp.eps, inp.n, inp.d, inp.alpha, inp.C, inp.L_kappa),
    }
    try:
        report["expected_fgw_grid"] = expected_fgw_bound_grid(inp)
        report["distribution_grid"] = distribution_bound_grid(inp)
    except ValueError:  # the grid forms do not cover these inputs
        pass
    return report
