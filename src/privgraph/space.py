"""Attribute space [0,1]^d with a metric and a measurable grid partition.

The attribute space is always the unit cube. Cells are axis-aligned boxes on a
regular grid with k boxes per axis, half-open except that the last box on each
axis is closed, so the cells tile [0,1]^d exactly and every point has a unique
cell index.
"""

from __future__ import annotations

import itertools
import re
import warnings
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

SUP = "sup"
EUCLIDEAN = "euclidean"
_METRICS = (SUP, EUCLIDEAN)


def _is_int(value) -> bool:
    """An integer, numpy's included, and not a bool: the one integer rule of settings and inputs."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _is_real(value) -> bool:
    return _is_int(value) or isinstance(value, (float, np.floating))


@dataclass(frozen=True)
class SpaceConfig:
    """Unit cube [0,1]^d together with the metric used for distances."""

    d: int
    metric: str = SUP

    def __post_init__(self):
        if not _is_int(self.d) or self.d < 1:
            raise ValueError(f"dimension must be an integer >= 1, got {self.d!r}")
        if self.metric not in _METRICS:
            raise ValueError(f"metric must be one of {_METRICS}, got {self.metric!r}")

    @property
    def diameter(self) -> float:
        """Diameter of the unit cube: 1 under sup-norm, sqrt(d) under euclidean."""
        return 1.0 if self.metric == SUP else float(np.sqrt(self.d))

    def distance(self, x, y) -> np.ndarray:
        """Pairwise or elementwise distance; broadcasts over leading axes."""
        diff = np.abs(np.asarray(x, dtype=float) - np.asarray(y, dtype=float))
        if self.metric == SUP:
            return diff.max(axis=-1)
        return np.sqrt((diff**2).sum(axis=-1))


def pairwise_distances(xs: np.ndarray, ys: np.ndarray, metric: str = SUP) -> np.ndarray:
    """(n, d) x (m, d) -> (n, m) distance matrix under the chosen metric,
    accumulated one axis at a time (no (n, m, d) intermediate)."""
    xs = np.atleast_2d(np.asarray(xs, dtype=float))
    ys = np.atleast_2d(np.asarray(ys, dtype=float))
    if metric not in _METRICS:
        raise ValueError(f"unknown metric {metric!r}")
    if xs.shape[1] != ys.shape[1]:
        raise ValueError(f"attribute dimensions differ: {xs.shape[1]} and {ys.shape[1]}")
    out = np.zeros((xs.shape[0], ys.shape[0]))
    diff = np.empty_like(out) if xs.shape[1] > 1 else None
    for j in range(xs.shape[1]):
        buf = diff if j else out  # the first axis is written in place
        np.abs(np.subtract.outer(xs[:, j], ys[:, j], out=buf), out=buf)
        if metric == EUCLIDEAN:
            np.square(buf, out=buf)
        if j:
            (np.maximum if metric == SUP else np.add)(out, diff, out=out)
    return out if metric == SUP else np.sqrt(out, out=out)


@dataclass(frozen=True)
class Partition:
    """Regular grid decomposition of [0,1]^d into m = k_per_axis^d cells.

    ``lows``/``highs`` are read-only (m, d) arrays of box corners (i/k and
    (i+1)/k per axis), derived once per partition, in C order of the per-axis
    indices, so cell index = ravel_multi_index(axis indices).
    """

    space: SpaceConfig
    k_per_axis: int

    @cached_property
    def lows(self) -> np.ndarray:
        return self._corners(0)

    @cached_property
    def highs(self) -> np.ndarray:
        return self._corners(1)

    def _corners(self, shift: int) -> np.ndarray:
        k = self.k_per_axis
        axis = np.arange(shift, k + shift, dtype=float) / k
        grids = np.meshgrid(*[axis] * self.d, indexing="ij")
        corners = np.stack([g.ravel() for g in grids], axis=1)
        corners.flags.writeable = False
        return corners

    @property
    def d(self) -> int:
        return self.space.d

    @property
    def m(self) -> int:
        return self.k_per_axis**self.d

    @property
    def max_diam(self) -> float:
        """Diameter of every cell: its side 1/k, times sqrt(d) under euclidean."""
        return (1.0 / self.k_per_axis) * self.space.diameter


def _k_for_request(m_request: int, d: int) -> int:
    """Smallest integer k with k^d >= m_request (float-fuzz safe)."""
    if m_request < 1:
        raise ValueError(f"m_request must be >= 1, got {m_request}")
    k = max(1, int(np.ceil(m_request ** (1.0 / d) - 1e-9)))
    while k**d < m_request:
        k += 1
    while k > 1 and (k - 1) ** d >= m_request:
        k -= 1
    return k


def build_grid_partition(space: SpaceConfig, m_request: int) -> Partition:
    """Grid partition with k_per_axis = ceil(m_request^(1/d)); realized m = k^d."""
    return Partition(space=space, k_per_axis=_k_for_request(m_request, space.d))


def cell_indices(partition: Partition, x: np.ndarray) -> np.ndarray:
    """Cell index in [0, m) for each point; rejects points outside [0,1]^d.

    Boundary convention: half-open boxes, except the last cell per axis is
    closed (so x=1.0 lands in the final cell). The indices have the smallest
    unsigned dtype that holds m - 1 (``np.min_scalar_type(m - 1)``: uint8 up
    to m = 256, uint16 up to 65,536) and are built one axis at a time, with
    no (n, d) temporary.
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    if x.shape[1] != partition.d:
        raise ValueError(f"points have dimension {x.shape[1]}, expected {partition.d}")
    if not ((x >= 0.0) & (x <= 1.0)).all():  # NaN fails both comparisons
        bad = np.flatnonzero(~((x >= 0.0) & (x <= 1.0)).all(axis=1))[0]
        raise ValueError(f"point {bad} outside [0,1]^d: {x[bad]}")
    k, dtype = partition.k_per_axis, np.min_scalar_type(partition.m - 1)
    flat, scaled = np.zeros(x.shape[0], dtype=dtype), np.empty(x.shape[0])
    for j in range(partition.d):
        if j:  # k fits the dtype when d > 1; at d = 1 it may not (m = k = 256 is uint8)
            flat *= k
        np.multiply(x[:, j], k, out=scaled)  # clamped, then truncated: the index truncating first gives
        flat += np.minimum(scaled, k - 1, out=scaled).astype(dtype)
    return flat


def sample_uniform_in_cells(partition: Partition, ks: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """One point uniformly distributed on cell k for each index k of ``ks``."""
    ks = np.asarray(ks, dtype=np.int64)
    if ks.size and (ks.min() < 0 or ks.max() >= partition.m):
        raise IndexError(f"cell index out of range [0, {partition.m})")
    lo = np.take(partition.lows, ks, axis=0)
    hi = np.take(partition.highs, ks, axis=0)
    return lo + rng.random((ks.size, partition.d)) * (hi - lo)


@dataclass(frozen=True)
class AttributeDataset:
    """Finite set of attribute points in [0,1]^d, held as a read-only copy so
    that the binnings cached by :meth:`bins` stay valid."""

    points: np.ndarray
    _bins: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        pts = np.array(self.points, dtype=float, ndmin=2)
        if pts.ndim != 2 or pts.shape[0] < 1:
            raise ValueError("dataset must contain at least one point")
        if not np.isfinite(pts).all():
            raise ValueError("dataset points must be finite")
        if np.any(pts < 0.0) or np.any(pts > 1.0):
            raise ValueError("dataset points must lie in [0,1]^d")
        pts.flags.writeable = False
        object.__setattr__(self, "points", pts)

    def bins(self, partition: Partition) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Read-only ``(counts, order, offsets)``: cell k holds the points
        ``order[offsets[k]:offsets[k] + counts[k]]`` in dataset order. Computed
        once per grid; concurrent first calls may each compute it, and
        ``setdefault`` hands every caller the one result it keeps."""
        key = (partition.k_per_axis, partition.d)
        cached = self._bins.get(key)
        if cached is not None:
            return cached
        idx = cell_indices(partition, self.points)
        counts = np.bincount(idx, minlength=partition.m)
        binned = (counts, np.argsort(idx, kind="stable"), np.cumsum(counts) - counts)
        for arr in binned:
            arr.flags.writeable = False
        return self._bins.setdefault(key, binned)

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def d(self) -> int:
        return self.points.shape[1]


def load_points_csv(path: str, d: int) -> AttributeDataset:
    """Read the first d comma-separated columns of a CSV file with numpy's C
    reader. Empty lines are skipped, extra columns ignored and fields may be
    double-quoted. A row with too few columns, a non-numeric field, or a value
    outside [0,1] (NaN and infinities included) is rejected with its 1-based
    line number in the file."""
    try:
        pts = _read_columns(path, d)
    except ValueError as exc:
        row, reason = _loadtxt_error(exc, d)
        if row:  # the rows before the failing one parse; an out-of-range value there comes first
            _check_unit_range(path, _read_columns(path, d, max_rows=row))
        raise ValueError(f"row {_file_line(path, row)}: {reason}") from None
    if pts.shape[0] == 0:
        raise ValueError(f"no data rows in {path}")
    _check_unit_range(path, pts)
    return AttributeDataset(points=pts)


def _read_columns(path: str, d: int, max_rows: int | None = None) -> np.ndarray:
    # loadtxt's warnings (no data; blank lines not counted in max_rows) are
    # about cases the caller handles
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        return np.loadtxt(
            path, delimiter=",", usecols=range(d), comments=None, quotechar='"',
            max_rows=max_rows, ndmin=2, dtype=float,
        )


def _check_unit_range(path: str, pts: np.ndarray) -> None:
    bad = ~((pts >= 0.0) & (pts <= 1.0))  # NaN fails both comparisons
    if bad.any():
        row, col = divmod(int(np.argmax(bad)), pts.shape[1])
        raise ValueError(f"row {_file_line(path, row)}: value {float(pts[row, col])} outside [0,1]")


# numpy counts data rows (blank lines not included), from 0
# in conversion errors and from 1 in column-count errors.
_CONVERT_ERROR = re.compile(r"could not convert (string .*) at row (\d+), column \d+")
_COLUMNS_ERROR = re.compile(r"invalid column index \d+ at row (\d+) with (\d+) columns")


def _loadtxt_error(exc: ValueError, d: int) -> tuple[int, str]:
    """(0-based data row, reason) of a loadtxt parse error."""
    msg = str(exc)
    if m := _CONVERT_ERROR.search(msg):
        return int(m.group(2)), f"non-numeric value (could not convert {m.group(1)})"
    if m := _COLUMNS_ERROR.search(msg):
        return int(m.group(1)) - 1, f"expected {d} columns, got {m.group(2)}"
    raise exc


def _file_line(path: str, row: int) -> int:
    """1-based file line of 0-based data row ``row``. Like loadtxt, read with
    universal newlines and skip empty lines."""
    with open(path) as fh:
        data = (lineno for lineno, line in enumerate(fh, start=1) if line != "\n")
        return next(itertools.islice(data, row, None))
