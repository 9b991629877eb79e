import numpy as np
import pytest

from netmimo.topology import (
    NodeLayout,
    cooperation_radius,
    data_sharing_sets,
    format_layout,
    grid_side,
    interference_levels,
    pairwise_distance,
    parse_layout,
    place_grid,
    place_uniform_random,
)


def test_grid_row_major_order():
    layout = place_grid(3)
    assert layout.K == 9
    np.testing.assert_array_equal(layout.positions[0], [1.0, 1.0])
    np.testing.assert_array_equal(layout.positions[1], [2.0, 1.0])
    np.testing.assert_array_equal(layout.positions[3], [1.0, 2.0])
    np.testing.assert_array_equal(layout.positions[8], [3.0, 3.0])


def test_grid_side_detection():
    assert grid_side(place_grid(4)) == 4
    assert grid_side(NodeLayout(np.array([[0.0, 0.0], [1.0, 0.0]]))) is None
    # right node count, wrong positions
    assert grid_side(NodeLayout(np.array([[0.5, 0.5]] * 4))) is None


def test_layout_validation():
    with pytest.raises(ValueError):
        NodeLayout(np.zeros((3, 3)))
    with pytest.raises(ValueError):
        NodeLayout(np.array([[np.inf, 0.0]]))
    layout = place_grid(2)
    with pytest.raises(ValueError):
        layout.positions[0, 0] = 9.0


def test_layout_rejects_distances_that_overflow():
    # finite coordinates whose distances overflow: 1.7e308 - (-1.7e308) is inf
    with pytest.raises(ValueError, match="pairwise distances must be finite"):
        NodeLayout(np.array([[0.0, 0.0], [1.7e308, 0.0], [-1.7e308, 0.0]]))
    with pytest.raises(ValueError, match="pairwise distances must be finite"):
        NodeLayout(np.array([[1.3e308, 0.0], [0.0, 1.3e308]]))
    NodeLayout(np.array([[0.0, 0.0], [1.7e308, 0.0]]))  # the largest distance still finite


def test_pairwise_distance_values():
    layout = NodeLayout(np.array([[0.0, 0.0], [3.0, 4.0]]))
    d = pairwise_distance(layout)
    assert d[0, 1] == 5.0
    assert d[1, 0] == 5.0
    assert d[0, 0] == 0.0
    grid = place_grid(2)
    dg = pairwise_distance(grid)
    assert dg[0, 3] == pytest.approx(np.sqrt(2.0), rel=1e-15)


def test_distance_is_a_metric():
    rng = np.random.default_rng(3)
    for _ in range(20):
        layout = place_uniform_random(6, 5.0, rng)
        d = pairwise_distance(layout)
        np.testing.assert_allclose(d, d.T, atol=1e-12)
        assert np.all(np.diagonal(d) == 0.0)
        # triangle inequality over all index triples
        lhs = d[:, None, :]
        rhs = d[:, :, None] + d[None, :, :]
        assert np.all(lhs <= rhs + 1e-9)


def test_interference_levels_basic():
    d = pairwise_distance(place_grid(3))
    lv = interference_levels(d, 0.6)
    assert lv[0, 0] == 1.0
    assert lv[0, 1] == pytest.approx(0.6)
    with pytest.raises(ValueError):
        lv[0, 1] = 1.0  # read-only
    np.testing.assert_array_equal(interference_levels(d, 1.0), np.ones((9, 9)))
    with pytest.raises(ValueError):
        interference_levels(d, 0.0)
    with pytest.raises(ValueError):
        interference_levels(d, 1.5)
    with pytest.raises(ValueError):
        interference_levels(np.array([[0.0, -1.0], [1.0, 0.0]]), 0.6)


def test_cooperation_radius_values():
    assert cooperation_radius(0.6) == pytest.approx(2.5)
    assert cooperation_radius(0.5) == pytest.approx(2.0)
    with pytest.raises(ValueError, match="cooperation radius is unbounded for gamma = 1.0"):
        cooperation_radius(1.0)
    with pytest.raises(ValueError):
        cooperation_radius(0.0)


def test_sharing_sets_small_cases():
    single = NodeLayout(np.array([[0.0, 0.0]]))
    assert data_sharing_sets(single, 0.6) == [{0}]
    far = NodeLayout(np.array([[0.0, 0.0], [10.0, 0.0]]))
    assert data_sharing_sets(far, 0.6) == [{0}, {1}]
    # boundary inclusion: distance exactly at the radius stays in
    edge = NodeLayout(np.array([[0.0, 0.0], [2.5, 0.0]]))
    assert data_sharing_sets(edge, 0.6) == [{0, 1}, {0, 1}]


def test_sharing_sets_gamma_one_full():
    layout = place_grid(3)
    sets = data_sharing_sets(layout, 1.0)
    assert all(s == set(range(9)) for s in sets)


def test_interior_sharing_count_6x6():
    """An interior node of the 6x6 grid at gamma=0.6 keeps 21 users.

    Re-derive by enumerating integer offsets with x^2 + y^2 <= 2.5^2.
    """
    expected = 0
    for dx in range(-2, 3):
        for dy in range(-2, 3):
            if dx * dx + dy * dy <= 6.25:
                expected += 1
    assert expected == 21
    layout = place_grid(6)
    sets = data_sharing_sets(layout, 0.6)
    # node at (3, 3): index 2*6 + 2; its disk fits inside the grid
    interior = sets[14]
    assert len(interior) == 21
    assert max(len(s) for s in sets) == 21


def test_sharing_sets_disk_bound_on_grids():
    d0 = cooperation_radius(0.6)
    bound = int(np.ceil(np.pi * (d0 + 1.0) ** 2))
    for side in (2, 4, 6, 8):
        sets = data_sharing_sets(place_grid(side), 0.6)
        assert max(len(s) for s in sets) <= bound


def test_sharing_sets_monotone_in_gamma():
    layout = place_grid(4)
    sizes = []
    for gamma in (0.3, 0.5, 0.6, 0.8, 1.0):
        sets = data_sharing_sets(layout, gamma)
        sizes.append([len(s) for s in sets])
    for lo, hi in zip(sizes, sizes[1:]):
        assert all(a <= b for a, b in zip(lo, hi))


def test_layout_file_round_trip(tmp_path):
    rng = np.random.default_rng(11)
    layout = place_uniform_random(7, 4.0, rng)
    path = tmp_path / "nodes.txt"
    path.write_text(format_layout(layout))
    back = parse_layout(path.read_text())
    np.testing.assert_array_equal(back.positions, layout.positions)


def test_layout_file_errors(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("1.0 2.0\n3.0\n")
    with pytest.raises(ValueError):
        parse_layout(path.read_text())
    empty = tmp_path / "empty.txt"
    empty.write_text("\n\n")
    with pytest.raises(ValueError):
        parse_layout(empty.read_text())
