import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st
from oracles import load_points_csv_reference
from scipy import stats

from privgraph.space import (
    AttributeDataset,
    SpaceConfig,
    build_grid_partition,
    cell_indices,
    load_points_csv,
    sample_uniform_in_cells,
)


def test_grid_d1_two_cells():
    part = build_grid_partition(SpaceConfig(d=1), 2)
    assert part.m == 2
    assert np.allclose(part.lows.ravel(), [0.0, 0.5])
    assert np.allclose(part.highs.ravel(), [0.5, 1.0])
    assert part.max_diam == 0.5


def test_partitions_of_one_grid_compare_and_hash_equal():
    a, b = build_grid_partition(SpaceConfig(2), 16), build_grid_partition(SpaceConfig(2), 16)
    assert a == b and hash(a) == hash(b)
    assert len({a, b}) == 1
    assert a != build_grid_partition(SpaceConfig(2), 25)
    assert a != build_grid_partition(SpaceConfig(2, metric="euclidean"), 16)


@pytest.mark.parametrize("d, m", [(1, 7), (2, 16), (3, 27), (2, 4489)])
def test_cell_corners_are_i_over_k(d, m):
    # oracle: the corners built from the k + 1 grid edges i/k, axis by axis
    part = build_grid_partition(SpaceConfig(d), m)
    edges = np.arange(part.k_per_axis + 1, dtype=float) / part.k_per_axis
    for corners, axis in ((part.lows, edges[:-1]), (part.highs, edges[1:])):
        grids = np.meshgrid(*[axis] * d, indexing="ij")
        assert np.array_equal(corners, np.stack([g.ravel() for g in grids], axis=1))
        assert not corners.flags.writeable
    assert part.lows is part.lows  # derived once per partition


def test_grid_d2_request_3_rounds_up():
    part = build_grid_partition(SpaceConfig(d=2), 3)
    assert part.k_per_axis == 2
    assert part.m == 4
    assert part.max_diam == 0.5


def test_grid_d2_request_100_enumerated():
    part = build_grid_partition(SpaceConfig(d=2), 100)
    assert part.m == 100
    # oracle: measure every cell of the 10x10 grid directly
    diams = [float(np.max(part.highs[k] - part.lows[k])) for k in range(part.m)]
    assert max(diams) == pytest.approx(0.1, abs=1e-15)
    assert part.max_diam == pytest.approx(0.1, abs=1e-15)


def test_grid_realization_not_fooled_by_float_roots():
    part = build_grid_partition(SpaceConfig(d=2), 10**2)
    assert part.k_per_axis == 10
    part = build_grid_partition(SpaceConfig(d=3), 27)
    assert part.k_per_axis == 3


def test_cell_index_basics_and_closure():
    part = build_grid_partition(SpaceConfig(d=1), 2)
    assert cell_indices(part, [0.25])[0] == 0
    assert cell_indices(part, [1.0])[0] == 1
    with pytest.raises(ValueError):
        cell_indices(part, [1.2])
    with pytest.raises(ValueError, match="point 1 outside"):
        cell_indices(part, [[0.5], [np.nan]])


def test_cell_index_histogram_matches_volumes():
    rng = np.random.default_rng(7)
    part = build_grid_partition(SpaceConfig(d=2), 9)
    n = 60_000
    idx = cell_indices(part, rng.random((n, 2)))
    observed = np.bincount(idx, minlength=part.m)
    expected = np.prod(part.highs - part.lows, axis=1) * n
    chi2 = float(((observed - expected) ** 2 / expected).sum())
    assert chi2 < stats.chi2.ppf(0.99, df=part.m - 1)


def test_membership_roundtrip():
    rng = np.random.default_rng(3)
    part = build_grid_partition(SpaceConfig(d=3), 20)
    pts = rng.random((500, 3))
    idx = cell_indices(part, pts)
    assert np.all(pts >= part.lows[idx] - 1e-15)
    assert np.all(pts <= part.highs[idx] + 1e-15)


def test_cell_volumes_tile_the_cube():
    for d, m in [(1, 7), (2, 10), (3, 5)]:
        part = build_grid_partition(SpaceConfig(d=d), m)
        assert np.prod(part.highs - part.lows, axis=1).sum() == pytest.approx(1.0, abs=1e-12)
        assert part.max_diam <= 1.0 / part.k_per_axis + 1e-15


def test_sample_uniform_whole_interval_mean():
    rng = np.random.default_rng(11)
    part = build_grid_partition(SpaceConfig(d=1), 1)
    draws = sample_uniform_in_cells(part, np.zeros(4000, dtype=int), rng)[:, 0]
    sigma = 1.0 / np.sqrt(12 * draws.size)
    assert abs(draws.mean() - 0.5) < 3 * sigma


def test_sample_uniform_containment():
    rng = np.random.default_rng(5)
    part = build_grid_partition(SpaceConfig(d=1), 4)
    xs = sample_uniform_in_cells(part, np.full(200, 2), rng)[:, 0]
    assert np.all((0.5 <= xs) & (xs < 0.75))
    with pytest.raises(IndexError):
        sample_uniform_in_cells(part, [4], rng)


def test_sample_uniform_ks_per_coordinate():
    rng = np.random.default_rng(13)
    part = build_grid_partition(SpaceConfig(d=2), 4)
    draws = sample_uniform_in_cells(part, np.zeros(3000, dtype=int), rng)
    for j in range(2):
        res = stats.kstest(draws[:, j], stats.uniform(loc=0.0, scale=0.5).cdf)
        assert res.pvalue > 0.01


def test_space_diameter_and_metric():
    assert SpaceConfig(d=3, metric="sup").diameter == 1.0
    assert SpaceConfig(d=4, metric="euclidean").diameter == pytest.approx(2.0)
    sup = SpaceConfig(d=2, metric="sup")
    assert sup.distance([0.0, 0.0], [0.3, 0.4]) == pytest.approx(0.4)
    euc = SpaceConfig(d=2, metric="euclidean")
    assert euc.distance([0.0, 0.0], [0.3, 0.4]) == pytest.approx(0.5)


def test_dataset_validation():
    with pytest.raises(ValueError):
        AttributeDataset(points=np.array([[1.2]]))
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="finite"):
            AttributeDataset(points=np.array([[0.5, 0.5], [bad, 0.2]]))
    ds = AttributeDataset(points=np.array([[0.5], [0.1]]))
    assert ds.n == 2 and ds.d == 1


def test_space_config_rejects_non_integer_dimension():
    for bad in (1.5, 2.0, True, "2", None, 0, -1):
        with pytest.raises(ValueError, match="dimension"):
            SpaceConfig(d=bad)
    assert SpaceConfig(d=np.int64(3)).d == 3


def test_csv_loader(tmp_path):
    good = tmp_path / "pts.csv"
    good.write_text("0.1,0.2\n0.9,0.4\n")
    ds = load_points_csv(str(good), d=2)
    assert ds.n == 2
    header = tmp_path / "hdr.csv"
    header.write_text("x,y\n0.5,0.5\n")
    with pytest.raises(ValueError, match="^row 1: non-numeric"):  # the loader reads no header line
        load_points_csv(str(header), d=2)
    bad = tmp_path / "bad.csv"
    bad.write_text("0.1,0.2\n1.5,0.2\n")
    with pytest.raises(ValueError, match="row 2"):
        load_points_csv(str(bad), d=2)


# -- the CSV loader against the csv.reader loop it replaced -------------------

_FORMATS = (
    lambda v: f"{v:.9f}",
    repr,
    lambda v: f"{v:.6e}",
    lambda v: f"{v:.17E}",
    lambda v: f'"{v!r}"',
    lambda v: f" {v!r} ",
)
# (kind, token) of a bad field; "columns" drops the row's last field instead
_BAD = st.sampled_from([
    ("range", "1.5"), ("range", "-0.25"), ("range", "1.0000001"), ("range", "2e0"),
    ("range", "nan"), ("range", "NaN"), ("range", "inf"), ("range", "-inf"),
    ("text", "abc"), ("text", "0.5x"), ("text", "1e"), ("text", "--1"), ("columns", None),
])
_CSV_SETTINGS = settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])


@st.composite
def _points_csv(draw):
    """(d, newline, lines) of a file the reference accepts: points in
    several float formats, extra columns and blank lines."""
    d = draw(st.sampled_from([1, 2, 3]))
    lines = []
    for _ in range(draw(st.integers(1, 20))):
        lines.extend([""] * draw(st.integers(0, 2)))
        values = draw(st.lists(st.floats(0.0, 1.0), min_size=d, max_size=d))
        fields = [draw(st.sampled_from(_FORMATS))(v) for v in values]
        fields += draw(st.lists(st.sampled_from(["0.5", "7", "x", "", "note"]), max_size=2))
        lines.append(",".join(fields))
    return d, draw(st.sampled_from(["\n", "\r\n"])), lines


def _write(path, newline, lines, end):
    path.write_bytes((newline.join(lines) + end).encode())
    return str(path)


@_CSV_SETTINGS
@given(_points_csv(), st.booleans())
def test_csv_loader_matches_reference(tmp_path, case, trailing_newline):
    d, newline, lines = case
    path = _write(tmp_path / "pts.csv", newline, lines, newline if trailing_newline else "")
    got, want = load_points_csv(path, d), load_points_csv_reference(path, d)
    assert got.points.shape == want.points.shape
    assert got.points.tobytes() == want.points.tobytes()


@_CSV_SETTINGS
@given(_points_csv(), st.data())
def test_csv_loader_names_the_reference_line_of_a_bad_row(tmp_path, case, data):
    d, newline, lines = case
    rows = [i for i, line in enumerate(lines) if line]
    for i in data.draw(st.lists(st.sampled_from(rows), min_size=1, max_size=3, unique=True)):
        kind, token = data.draw(_BAD.filter(lambda b: b[0] != "columns" or d > 1))
        fields = lines[i].split(",")[:d]  # a bad row has no extra columns
        if kind == "columns":
            fields.pop()
        else:
            fields[data.draw(st.integers(0, d - 1))] = token
        lines[i] = ",".join(fields)
    path = _write(tmp_path / "bad.csv", newline, lines, newline)
    with pytest.raises(ValueError) as ref:
        load_points_csv_reference(path, d)
    with pytest.raises(ValueError) as got:
        load_points_csv(path, d)
    line = re.match(r"row (\d+): ", str(ref.value)).group(1)
    assert str(got.value).startswith(f"row {line}: ")
    assert ("outside [0,1]" in str(got.value)) == ("outside [0,1]" in str(ref.value))


def test_csv_loader_rejects_rows_the_reference_skipped(tmp_path):
    """Input classes whose handling changed with the C reader: whitespace-only
    rows and rows whose fields are all empty were skipped by the csv.reader
    loop and are now rejected as non-numeric at their line; so are digit
    underscores, which Python's float() accepted."""
    path = tmp_path / "pts.csv"
    for text, line in (
        ("0.1,0.2\n  \n0.3,0.4\n", 2),
        ("0.1,0.2\n0.3,0.4\n\t\n", 3),
        ("0.1,0.2\n,\n0.3,0.4\n", 2),
        ("\n0.1,0.2\n , \n", 3),
        ("0.1_5,0.2\n", 1),
    ):
        path.write_text(text)
        assert load_points_csv_reference(str(path), 2).n >= 1
        with pytest.raises(ValueError, match=f"^row {line}: non-numeric"):
            load_points_csv(str(path), 2)


def test_csv_loader_names_the_file_line_of_a_row_with_a_multiline_field(tmp_path):
    path = tmp_path / "pts.csv"
    path.write_text('"0.1\n",0.2\n0.3,0.4\n0.5,abc\n')  # abc is on file line 4, in the third row
    for load in (load_points_csv, load_points_csv_reference):
        with pytest.raises(ValueError, match="^row 4: non-numeric"):
            load(str(path), 2)


def test_csv_loader_does_not_read_numpys_message(tmp_path, monkeypatch):
    """The bad row is found by walking the file, whatever loadtxt's error
    says; when the walk finds none, loadtxt's own error stands."""
    def unreadable(*args, **kwargs):
        raise ValueError("unreadable")

    monkeypatch.setattr(np, "loadtxt", unreadable)
    path = tmp_path / "pts.csv"
    path.write_text("0.1,0.2\n0.3,0.4\n0.5,abc\n")
    with pytest.raises(ValueError, match="^row 3: non-numeric"):
        load_points_csv(str(path), 2)
    path.write_text("0.1,0.2\n0.3,0.4\n")
    with pytest.raises(ValueError, match="^unreadable$"):
        load_points_csv(str(path), 2)


def test_csv_loader_without_data_rows(tmp_path):
    path = tmp_path / "pts.csv"
    for text in ("", "\n\n"):
        path.write_text(text)
        with pytest.raises(ValueError, match="no data rows"):
            load_points_csv(str(path), 2)
