"""Target maps, sampling grids, and dataset round trips."""

import numpy as np
import pytest

from diffeoflow import (
    TargetMap,
    identity_target,
    load_dataset_csv,
    make_grid_dataset,
    make_random_testset,
    save_dataset_csv,
    square_grid,
    target_from_name,
    w1_grid_bound,
)
from diffeoflow.data import _EXPONENT_DECADES, _ROWS_PER_BLOCK, read_table, write_table


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
    with pytest.raises(ValueError, match="^target: expected 'builtin' or 'identity', got 'moebius'$"):
        target_from_name("moebius")


@pytest.mark.parametrize("side", [0.0, -1.0, np.nan, np.inf])
def test_side_must_be_positive_and_finite(side, target):
    # Each maker of the square refuses the side itself, before numpy can
    # make NaN points or warn about the span of an infinite square.
    makers = (
        lambda: square_grid(side, 3),
        lambda: make_grid_dataset(target, side=side),
        lambda: make_random_testset(target, side=side),
        lambda: w1_grid_bound(900, side),
    )
    for make in makers:
        with pytest.raises(ValueError, match=f"^side must be positive and finite, got {side}$"):
            make()


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


def test_target_map_takes_kind_and_two_callables_and_samples_planar_sources():
    swap = TargetMap("swap", lambda x: x[..., ::-1].copy(),
                     lambda x: np.broadcast_to([[0.0, 1.0], [1.0, 0.0]], x.shape + (2,)).copy())
    data = make_random_testset(swap, side=2.0, count=7, seed=4)
    assert data.sources.shape == data.targets.shape == (7, 2)
    assert np.array_equal(data.targets, data.sources[:, ::-1])
    assert swap.jacobian(data.sources).shape == (7, 2, 2)


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


def savetxt_bytes(path, header, table):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        np.savetxt(fh, table, fmt="%.17g", delimiter=",", header=",".join(header),
                   comments="", newline="\r\n")
    return path.read_bytes()


def assert_writes_as_savetxt(tmp_path, table):
    header = [f"c{i}" for i in range(table.shape[1])]
    write_table(tmp_path / "t.csv", header, table)
    assert (tmp_path / "t.csv").read_bytes() == savetxt_bytes(tmp_path / "ref.csv", header, table)


@pytest.mark.parametrize("n_cols", [1, 3])
def test_write_table_matches_savetxt_across_blocks(tmp_path, rng, n_cols):
    n_rows = 2 * _ROWS_PER_BLOCK + 17
    table = rng.normal(scale=1e3, size=(n_rows, n_cols))
    specials = np.array([np.nan, np.inf, -np.inf, -0.0, 1e-320, 0.1, -2.5e300])
    picks = rng.integers(0, n_rows, size=(40, n_cols))
    for col in range(n_cols):
        table[picks[:, col], col] = rng.choice(specials, size=40)
    assert_writes_as_savetxt(tmp_path, table)
    assert_writes_as_savetxt(tmp_path, table[:, :1])


def test_write_table_matches_savetxt_on_every_decade_with_both_signs(tmp_path):
    rng = np.random.default_rng(24)
    exponents = np.arange(-330, 308)[:, None] + rng.uniform(size=(638, 24))
    magnitudes = 10.0 ** exponents  # zeros and subnormals below 1e-308
    signs = np.where(rng.uniform(size=magnitudes.shape) < 0.5, -1.0, 1.0)
    assert_writes_as_savetxt(tmp_path, (signs * magnitudes).reshape(-1, 6))


def test_write_table_matches_savetxt_next_to_decades_and_half_decades(tmp_path):
    """Three neighbours on each side of 10**k and 0.5 * 10**k, k = -6..18.

    These hold the edges of the range formatted in bulk (1e-4 and 1e16) and,
    on either side of each power of ten, the values whose decade or last
    digit is easiest to get wrong.
    """
    values = []
    for base in [10.0 ** k for k in range(-6, 19)] + [0.5 * 10.0 ** k for k in range(-6, 19)]:
        below = above = base
        values.append(base)
        for _ in range(3):
            below, above = np.nextafter(below, 0.0), np.nextafter(above, np.inf)
            values += [below, above]
    values = np.array(values)
    assert_writes_as_savetxt(tmp_path, np.concatenate([values, -values]).reshape(-1, 7))


def test_exponent_decades_are_the_decades_of_powers_of_two():
    # floor(log10 2**k) is one less than the digit count of 2**k for k >= 0;
    # for k < 0, 2**-k is no power of ten, so it is minus that count.
    exact = [len(str(2 ** k)) - 1 if k >= 0 else -len(str(2 ** -k)) for k in range(-1023, 1025)]
    assert _EXPONENT_DECADES.tolist() == exact


def test_write_table_finds_every_decade_of_the_bulk_range(tmp_path):
    """10**j, its two neighbours and the largest double below 10**(j+1), j = -4..15,
    and 10**5 random bit patterns in [1e-4, 1e16), each with both signs."""
    edges = []
    for j in range(-4, 16):
        power = float(f"1e{j}")
        edges += [power, np.nextafter(power, 0.0), np.nextafter(power, np.inf),
                  np.nextafter(float(f"1e{j + 1}"), 0.0)]
    low, high = np.array([1e-4, 1e16]).view(np.uint64)
    patterns = np.random.default_rng(25).integers(low, high, size=10 ** 5, dtype=np.uint64)
    values = np.concatenate([edges, patterns.view(float)])
    values = np.concatenate([values, -values])[:, None]
    write_table(tmp_path / "t.csv", ["a"], values)
    assert (tmp_path / "t.csv").read_bytes() == b"a\r\n" + b"".join(b"%.17g\r\n" % v for v in values[:, 0].tolist())


def test_write_table_breaks_ties_in_the_18th_digit_to_even(tmp_path, rng):
    integers = rng.integers(10 ** 15, 2 * 10 ** 15, size=(500, 1)).astype(float)
    ties = integers + np.array([0.25, 0.75, -0.25, -0.75])  # |x| * 10 ends in .5
    assert_writes_as_savetxt(tmp_path, np.vstack([ties, -ties]))


@pytest.mark.parametrize("value, text", [
    (1234567890123456.25, b"1234567890123456.2"),  # a tie, kept at the even digit
    (1234567890123456.75, b"1234567890123456.8"),  # a tie, rounded up to the even digit
    (0.00010000000000000002, b"0.00010000000000000002"),
    (9999999999999998.0, b"9999999999999998"),
    (0.5, b"0.5"),
    (1e-14, b"1e-14"),  # below 10**-14, its 17 digits carry into the next decade
    (9.9999999999999995e-05, b"9.9999999999999991e-05"),  # the double below 1e-4
    (99999999999999999.0, b"1e+17"),  # the literal is 1e17
    (0.0, b"0"),
    (5e-324, b"4.9406564584124654e-324"),
    (2.2250738585072009e-308, b"2.2250738585072009e-308"),
    (float("inf"), b"inf"),
])
def test_write_table_writes_each_value_as_percent_17g(tmp_path, value, text):
    path = tmp_path / "t.csv"
    write_table(path, ["a", "b"], [[value, -value]])
    assert path.read_bytes() == b"a,b\r\n" + text + b",-" + text + b"\r\n"


def test_write_table_writes_zero_row_one_row_and_trace_shaped_tables(tmp_path):
    path = tmp_path / "t.csv"
    write_table(path, ["a", "b"], np.empty((0, 2)))
    assert path.read_bytes() == b"a,b\r\n"
    write_table(path, ["a", "b", "c"], np.reshape([], (-1, 3)))
    assert path.read_bytes() == b"a,b,c\r\n"
    write_table(path, ["a", "b", "c"], [[0.5, -3.0, 1e-5]])
    assert path.read_bytes() == b"a,b,c\r\n0.5,-3,1.0000000000000001e-05\r\n"
    columns = ["iteration", "cost", "training_error", "testing_error", "gamma", "accepted"]
    records = [(0, 1.25, 0.1, float("nan"), 1.0, True),
               (1, float("inf"), 0.2, 0.30000000000000004, 0.5, False),
               (12, 0.0030517578125, 7e-05, 1e-300, 2.0 ** -20, True)]
    write_table(path, columns, np.reshape(records, (-1, len(columns))))
    rows = [",".join(["%.17g"] * len(columns)) % record for record in records]
    assert path.read_bytes() == "\r\n".join([",".join(columns), *rows, ""]).encode()


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
