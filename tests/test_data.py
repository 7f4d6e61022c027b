"""Target maps, sampling grids, and dataset round trips."""

import numpy as np
import pytest

from diffeoflow import (
    custom_target,
    identity_target,
    load_dataset_csv,
    make_grid_dataset,
    make_random_testset,
    save_dataset_csv,
    square_grid,
    target_from_name,
)
from diffeoflow.data import read_table, write_table
from diffeoflow.objective import Dataset


def reference_target(points):
    """The benchmark map rebuilt from its defining pieces, for comparison."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    ang = np.pi / 3.0
    rot = np.array([[np.cos(ang), -np.sin(ang)], [np.sin(ang), np.cos(ang)]])
    z = points @ rot.T + np.array([0.3, 0.2])
    out = np.empty_like(z)
    out[:, 0] = z[:, 0] + 2.0 * z[:, 0] * np.exp(z[:, 0] ** 2 - 1.0) - 4.0
    out[:, 1] = z[:, 1] + 2.0 * z[:, 1] ** 3 - 4.5
    return out


def test_builtin_target_at_origin(target):
    # Hand value: the rotation fixes the origin, the shift moves it to
    # (0.3, 0.2), and the coordinate deformation lands on
    # (0.3 + 0.6 e^{-0.91} - 4, 0.2 + 0.016 - 4.5).
    want = np.array([0.3 + 0.6 * np.exp(-0.91) - 4.0, -4.284])
    got = target(np.array([0.0, 0.0]))
    assert np.allclose(got, want, rtol=0, atol=1e-15)


def test_builtin_target_matches_reference_everywhere(target, rng):
    pts = rng.uniform(-1.5, 1.5, size=(200, 2))
    assert np.allclose(target(pts), reference_target(pts), rtol=1e-14, atol=1e-14)


def test_builtin_jacobian_matches_finite_differences(target, rng):
    pts = rng.uniform(-1, 1, size=(25, 2))
    jac = target.jacobian(pts)
    eps = 1e-6
    for m in range(25):
        for d in range(2):
            e = np.zeros(2)
            e[d] = eps
            col = (target(pts[m] + e) - target(pts[m] - e)) / (2 * eps)
            assert np.allclose(jac[m, :, d], col, atol=2e-5)


def test_identity_target(rng):
    ident = identity_target()
    pts = rng.normal(size=(7, 2))
    assert np.array_equal(ident(pts), pts)
    assert np.allclose(ident.jacobian(pts), np.broadcast_to(np.eye(2), (7, 2, 2)))


def test_target_from_name(target):
    assert target_from_name("builtin").kind == target.kind
    assert target_from_name("identity").kind == "identity"
    with pytest.raises(ValueError):
        target_from_name("moebius")


def test_custom_target():
    double = custom_target(lambda x: 2.0 * x, lambda x: np.broadcast_to(2.0 * np.eye(2), x.shape[:-1] + (2, 2)))
    pts = np.array([[1.0, -2.0]])
    assert np.array_equal(double(pts), [[2.0, -4.0]])
    assert np.allclose(double.jacobian(pts)[0], 2.0 * np.eye(2))


def test_square_grid_layout():
    g = square_grid(1.5, 3)
    assert g.shape == (9, 2)
    coords = np.array([-0.75, 0.0, 0.75])
    want = np.array([[a, b] for a in coords for b in coords])
    assert np.allclose(g, want, atol=1e-15)
    full = square_grid(1.5, 30)
    assert full.shape == (900, 2)
    assert full.min() == -0.75 and full.max() == 0.75
    assert np.unique(full, axis=0).shape[0] == 900


def test_grid_dataset_pairs_sources_with_target_images(target):
    data = make_grid_dataset(target, side=1.5, per_axis=4)
    assert data.n_samples == 16
    assert np.array_equal(data.targets, target(data.sources))


def test_random_testset_seeded(target):
    a = make_random_testset(target, side=1.5, count=300, seed=0)
    b = make_random_testset(target, side=1.5, count=300, seed=0)
    c = make_random_testset(target, side=1.5, count=300, seed=1)
    assert np.array_equal(a.sources, b.sources)
    assert not np.array_equal(a.sources, c.sources)
    assert a.n_samples == 300
    assert np.abs(a.sources).max() <= 0.75
    assert np.array_equal(a.targets, target(a.sources))


def test_dataset_csv_round_trip(tmp_path, target):
    data = make_grid_dataset(target, side=1.5, per_axis=5)
    path = tmp_path / "pairs.csv"
    save_dataset_csv(path, data)
    back = load_dataset_csv(path)
    assert np.array_equal(back.sources, data.sources)
    assert np.array_equal(back.targets, data.targets)


def test_write_table_golden_bytes(tmp_path):
    path = tmp_path / "t.csv"
    nan, inf = float("nan"), float("inf")
    write_table(path, ["a", "b", "c"], np.array([[nan, inf, -inf], [-0.0, 1e-320, 3.0], [0.1, 1.0, -2.5e300]]))
    assert path.read_bytes() == (
        b"a,b,c\r\n"
        b"nan,inf,-inf\r\n"
        b"-0,9.9998886718268301e-321,3\r\n"
        b"0.10000000000000001,1,-2.5000000000000001e+300\r\n"
    )


def test_read_table_round_trip_is_bit_exact(tmp_path, rng):
    magnitudes = 10.0 ** rng.uniform(-300.0, 300.0, size=(200, 5))
    table = np.where(rng.uniform(size=(200, 5)) < 0.5, -magnitudes, magnitudes)
    path = tmp_path / "t.csv"
    write_table(path, ["a", "b", "c", "d", "e"], table)
    header, back = read_table(path, "test")
    assert header == ["a", "b", "c", "d", "e"]
    assert np.array_equal(back.view(np.int64), table.view(np.int64))


def test_read_table_accepts_quoted_and_padded_numbers(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text('a,b\n"1.5", 2\n\n 3 ,"-4e-3"', encoding="utf-8")
    header, table = read_table(path, "test")
    assert header == ["a", "b"]
    assert np.array_equal(table, [[1.5, 2.0], [3.0, -0.004]])


@pytest.mark.parametrize(
    "content", ["", "a,b\n", "a,b\n\n\n", "a,b\n1,x\n", "a,b\n1,2\n3\n", "a,b\n# note\n1,2\n"],
    ids=["empty", "header_only", "blank_rows", "not_a_number", "ragged", "comment"],
)
def test_read_table_rejects_a_bad_file_naming_it(tmp_path, content):
    path = tmp_path / "bad_table.csv"
    path.write_text(content, encoding="utf-8")
    with pytest.raises(ValueError, match="bad_table.csv"):
        read_table(path, "test")


def test_dataset_csv_header_validated(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("x1,x2,z1,z2\n0,0,1,1\n")
    with pytest.raises(ValueError):
        load_dataset_csv(path)


def test_dataset_csv_higher_dim_round_trip(tmp_path, rng):
    src = rng.normal(size=(6, 3))
    data = Dataset(src, src * 2.0)
    path = tmp_path / "pairs3d.csv"
    save_dataset_csv(path, data)
    back = load_dataset_csv(path)
    assert np.array_equal(back.sources, data.sources)
    assert back.dim == 3
