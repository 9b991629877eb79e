import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from netmimo.allocation import (
    POLICY_KINDS,
    CsitAllocation,
    PolicySpec,
    allocation_size,
    build_allocation,
    cluster_fit,
    conventional,
    distance_exponents,
)
from netmimo.topology import (
    NodeLayout,
    cooperation_radius,
    interference_levels,
    pairwise_distance,
    place_grid,
    place_uniform_random,
)


def _grid(side):
    layout = place_grid(side)
    return layout, pairwise_distance(layout)


def _distance(layout, gamma, p, alpha=1.0):
    return build_allocation(PolicySpec("distance", alpha=alpha), layout, gamma, p)


def test_conventional_values():
    _, d = _grid(3)
    levels = interference_levels(d, 0.6)
    alloc = conventional(levels, 1e5)
    # direct links: ceil(log2(1e5)) = 17 bits
    assert alloc.bits[0, 0, 0] == 17.0
    assert alloc.bits[5, 0, 0] == 17.0
    # distance sqrt(8) > d0: exponent clamps to zero
    assert alloc.bits[0, 0, 8] == 0.0
    # every TX gets the same table
    for j in range(1, 9):
        np.testing.assert_array_equal(alloc.bits[j], alloc.bits[0])


def test_conventional_unit_distance_dyadic_p():
    _, d = _grid(2)
    levels = interference_levels(d, 0.6)
    alloc = conventional(levels, 2.0**20)
    assert alloc.bits[0, 0, 1] == 12.0  # ceil(0.6 * 20)


def test_conventional_clamp_at_distance_three():
    layout = NodeLayout(np.array([[0.0, 0.0], [3.0, 0.0]]))
    levels = interference_levels(pairwise_distance(layout), 0.6)
    alloc = conventional(levels, 1e5)
    assert alloc.bits[0, 0, 1] == 0.0
    assert alloc.bits[0, 1, 0] == 0.0


def test_distance_based_values():
    alloc = _distance(place_grid(3), 0.6, 2.0**20)
    # own direct link: both distances zero, full bits
    for j in range(9):
        assert alloc.bits[j, j, j] == 20.0
    # unit hops on both legs: ceil([1 - 0.8] * 20) = 4
    assert alloc.bits[0, 1, 2] == 4.0


def test_distance_self_link_full_bits():
    p = 10.0**4.2
    alloc = _distance(place_grid(4), 0.55, p)
    want = np.ceil(np.log2(p))
    for j in range(16):
        assert alloc.bits[j, j, j] == want


def test_distance_gamma_one_equals_conventional():
    layout, d = _grid(4)
    for p in (1e3, 2.0**20, 10.0**6.6):
        dist_alloc = _distance(layout, 1.0, p)
        conv_alloc = conventional(interference_levels(d, 1.0), p)
        np.testing.assert_array_equal(dist_alloc.bits, conv_alloc.bits)


@settings(max_examples=40, derandomize=True, deadline=None)
@given(
    layout=st.builds(
        lambda seed, k, side: place_uniform_random(k, side, np.random.default_rng(seed)),
        st.integers(0, 2**32 - 1), st.integers(1, 9), st.floats(0.1, 10.0),
    ),
    gamma=st.floats(0.0, 1.0, exclude_min=True),
    p=st.floats(1.0, 1e12, exclude_min=True),
)
@example(layout=place_grid(3), gamma=0.6, p=1e5)
def test_distance_dominated_by_conventional(layout, gamma, p):
    d = pairwise_distance(layout)
    dist_alloc = _distance(layout, gamma, p)
    conv_alloc = conventional(interference_levels(d, gamma), p)
    assert np.all(dist_alloc.bits <= conv_alloc.bits)


def test_distance_alpha_monotone():
    layout = place_grid(3)
    prev = None
    for alpha in (0.5, 0.75, 1.0, 1.5, 2.0):
        bits = _distance(layout, 0.6, 1e5, alpha=alpha).bits
        if prev is not None:
            assert np.all(bits <= prev)
        prev = bits
    for alpha in (0.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="alpha must be finite and > 0"):
            _distance(layout, 0.6, 1e5, alpha=alpha)


def test_distance_zero_radius_property():
    """No bits flow to a TX about links of receivers beyond the radius."""
    layout, d = _grid(6)
    gamma = 0.6
    d0 = cooperation_radius(gamma)
    bits = _distance(layout, gamma, 1e5).bits
    far = d > d0  # [j, k]: receiver k beyond TX j's radius
    for j in range(36):
        assert np.all(bits[j][far[j], :] == 0.0)


def test_distance_interior_size_constant_in_grid_side():
    """Interior per-TX totals stop changing once the grid out-sizes the radius."""
    gamma = 0.6
    totals = []
    for side in (7, 9, 11):
        bits = _distance(place_grid(side), gamma, 1e5).bits
        center = (side // 2) * side + side // 2
        totals.append(bits[center].sum())
    assert totals[0] == totals[1] == totals[2]


def test_exponent_tensor_orientation():
    # three colinear nodes: exponent for (j=0, k=1, i=2) uses d(0,1) + d(1,2) = 2
    layout = NodeLayout(np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]]))
    d = pairwise_distance(layout)
    e = distance_exponents(d, 0.6)
    assert e[0, 1, 2] == pytest.approx(1.0 + (0.6 - 1.0) * 2.0)
    assert e[0, 0, 2] == pytest.approx(1.0 + (0.6 - 1.0) * 2.0)
    assert e[1, 1, 1] == 1.0


@pytest.mark.parametrize("gamma, alpha", [(0.6, 1.0), (1.0, 1.0), (0.6, 1e308), (1.0, 1e308)])
def test_exponents_past_the_float_range_clamp_without_a_warning(gamma, alpha):
    """Two nodes 1.7e308 apart (a valid layout) sum to an overflowing
    d(j, k) + d(k, i), and alpha = 1e308 overflows the product: each such
    exponent is 0 below gamma = 1 and 1 at it, with no numpy warning."""
    d = pairwise_distance(NodeLayout(np.array([[0.0, 0.0], [1.7e308, 0.0]])))
    with np.errstate(all="raise"):
        e = distance_exponents(d, gamma, alpha)
    want = np.ones((2, 2, 2)) if gamma == 1.0 else np.zeros((2, 2, 2))
    want[0, 0, 0] = want[1, 1, 1] = 1.0  # j = k = i: distance sum 0
    np.testing.assert_array_equal(e, want)
    with np.errstate(all="raise"):
        grid = distance_exponents(pairwise_distance(place_grid(4)), 0.6, alpha)
    assert grid.max() == 1.0 and (alpha == 1.0 or np.count_nonzero(grid) == 16)


def test_uniform_matched_spread():
    layout = place_grid(2)
    p = 2.0**20
    budget = _distance(layout, 0.6, p).bits.sum()
    alloc = build_allocation(PolicySpec("uniform"), layout, 0.6, p)
    assert np.all(alloc.bits == budget / 4**3)
    assert alloc.bits.sum() == pytest.approx(budget)


def test_uniform_matched_support_mask():
    layout = NodeLayout(np.array([[0.0, 0.0], [5.0, 0.0], [10.0, 0.0]]))  # only the direct links are positive
    p = 2.0**20
    budget = _distance(layout, 0.6, p).bits.sum()
    alloc = build_allocation(PolicySpec("uniform", uniform_support="conventional"), layout, 0.6, p)
    for j in range(3):
        for k in range(3):
            assert alloc.bits[j, k, k] == budget / 9
    assert alloc.bits.sum() == pytest.approx(budget)


def test_cluster_geometry_6x6():
    layout = place_grid(6)
    budget = float(_distance(layout, 0.6, 1e5).bits.sum())
    alloc = build_allocation(PolicySpec("cluster", cluster_size=4), layout, 0.6, 1e5)
    positive = alloc.bits > 0
    # each TX covers exactly its own 2x2 block: 16 positive entries
    assert np.all(positive.sum(axis=(1, 2)) == 16)
    # block partners of TX 0 at (1,1): indices 1 (2,1), 6 (1,2), 7 (2,2)
    block = {0, 1, 6, 7}
    for k in range(36):
        for i in range(36):
            assert positive[0, k, i] == (k in block and i in block)
    vals = alloc.bits[positive]
    np.testing.assert_allclose(vals, budget / (36 * 16), rtol=1e-12)


def test_cluster_singletons():
    alloc = build_allocation(PolicySpec("cluster", cluster_size=1), place_grid(3), 0.6, 1e5)
    positive = np.argwhere(alloc.bits > 0)
    assert len(positive) == 9
    assert all(j == k == i for j, k, i in positive)


def test_cluster_errors():
    layout = place_grid(3)
    with pytest.raises(ValueError):
        build_allocation(PolicySpec("cluster", cluster_size=4), layout, 0.6, 1e5)  # side 3 not divisible by 2
    with pytest.raises(ValueError):
        build_allocation(PolicySpec("cluster", cluster_size=3), layout, 0.6, 1e5)  # not a perfect square
    random_layout = place_uniform_random(9, 4.0, np.random.default_rng(0))
    with pytest.raises(ValueError):
        build_allocation(PolicySpec("cluster", cluster_size=1), random_layout, 0.6, 1e5)


def test_cluster_fit_names_the_blocks_and_the_misfit():
    assert cluster_fit(_grid(6)[0], 4) == (6, 2)
    assert cluster_fit(_grid(3)[0], 9) == (3, 3)
    with pytest.raises(ValueError, match="grid side 3 is not divisible by block side 2"):
        cluster_fit(_grid(3)[0], 4)
    with pytest.raises(ValueError, match="positive perfect square, got 0"):
        cluster_fit(_grid(3)[0], 0)
    random_layout = place_uniform_random(9, 4.0, np.random.default_rng(0))
    with pytest.raises(ValueError, match="square grid layouts only"):
        cluster_fit(random_layout, 1)


def test_size_matching_within_tolerance():
    layout = place_grid(4)
    p = 1e5
    target = allocation_size(_distance(layout, 0.6, p)).total_bits
    for spec in (PolicySpec("uniform"), PolicySpec("cluster", cluster_size=4)):
        alloc = build_allocation(spec, layout, 0.6, p)
        got = allocation_size(alloc).total_bits
        assert got == pytest.approx(target, rel=1e-9)


def test_uniform_support_flag():
    layout, d = _grid(3)
    p = 1e5
    spec = PolicySpec("uniform", uniform_support="conventional")
    alloc = build_allocation(spec, layout, 0.6, p)
    conv_bits = conventional(interference_levels(d, 0.6), p).bits
    assert np.all((alloc.bits > 0) == (conv_bits > 0))
    target = _distance(layout, 0.6, p).bits.sum()
    assert alloc.bits.sum() == pytest.approx(target, rel=1e-9)


def test_allocation_size_accounting():
    p = 1e5
    log2p = np.log2(p)
    alloc = _distance(place_grid(3), 0.6, p)
    size = allocation_size(alloc)
    assert size.total_bits == alloc.bits.sum()
    np.testing.assert_allclose(size.per_tx_bits, alloc.bits.sum(axis=(1, 2)))
    assert size.prelog == pytest.approx(size.total_bits / log2p)
    assert size.prelog >= size.prelog_asymptotic
    assert size.prelog - size.prelog_asymptotic <= 9**3 / log2p


def test_allocation_size_k1_prelog():
    levels = interference_levels(np.zeros((1, 1)), 0.6)
    p = 2.0**20
    size = allocation_size(conventional(levels, p))
    assert size.prelog == 1.0
    assert size.prelog_asymptotic == 1.0


def test_zero_and_perfect_tables():
    z = build_allocation(PolicySpec("zero"), place_grid(2), 0.6, 100.0)
    assert z.bits.sum() == 0.0
    assert allocation_size(z).total_bits == 0.0
    pf = build_allocation(PolicySpec("perfect"), place_grid(2), 0.6, 100.0)
    assert np.all(np.isinf(pf.bits))


def test_negative_bits_rejected():
    """Bit tables are validated where they are built, before any estimate."""
    bits = np.zeros((3, 3, 3))
    bits[2, 2, 2] = -1.0
    with pytest.raises(ValueError):
        CsitAllocation(policy="zero", bits=bits, log2_p=1.0)
    bits[2, 2, 2] = np.nan
    with pytest.raises(ValueError):
        CsitAllocation(policy="zero", bits=bits, log2_p=1.0)
    with pytest.raises(ValueError):
        CsitAllocation(policy="zero", bits=np.zeros((3, 3)), log2_p=1.0)


def test_policy_spec_validation_and_labels():
    with pytest.raises(ValueError):
        PolicySpec("nearest")
    for alpha in (-1.0, np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="alpha must be finite and > 0"):
            PolicySpec("distance", alpha=alpha)
    with pytest.raises(ValueError):
        PolicySpec("uniform", uniform_support="half")
    assert PolicySpec("distance", alpha=0.75).label() == "distance(alpha=0.75)"
    assert PolicySpec("cluster", cluster_size=9).label() == "cluster(size=9)"
    assert PolicySpec("zero").label() == "zero"
    assert PolicySpec("uniform").label() == "uniform"
    assert PolicySpec("uniform", uniform_support="conventional").label() == "uniform(support=conventional)"


def test_build_allocation_dispatch():
    layout, d = _grid(2)
    p = 1e4
    assert build_allocation(PolicySpec("perfect"), layout, 0.6, p).policy == "perfect"
    assert build_allocation(PolicySpec("zero"), layout, 0.6, p).policy == "zero"
    conv = build_allocation(PolicySpec("conventional"), layout, 0.6, p)
    np.testing.assert_array_equal(conv.bits, conventional(interference_levels(d, 0.6), p).bits)
    dist = build_allocation(PolicySpec("distance", alpha=1.5), layout, 0.6, p)
    np.testing.assert_array_equal(dist.bits, np.ceil(distance_exponents(d, 0.6, 1.5) * np.log2(p)))


@pytest.mark.parametrize("kind", POLICY_KINDS)
def test_every_table_records_its_snr(kind):
    """Each table keeps the log2(P) it was built at, which its size reads."""
    alloc = build_allocation(PolicySpec(kind), place_grid(2), 0.6, 1e4)
    assert alloc.log2_p == np.log2(1e4)
    if kind != "perfect":
        assert allocation_size(alloc).prelog == alloc.bits.sum() / np.log2(1e4)


@pytest.mark.parametrize("kind", POLICY_KINDS)
def test_build_allocation_checks_gamma_and_snr(kind):
    layout = place_grid(2)
    for gamma in (0.0, 1.5, np.nan):
        with pytest.raises(ValueError, match="gamma must lie in"):
            build_allocation(PolicySpec(kind), layout, gamma, 1e4)
    with pytest.raises(ValueError, match=re.escape("p: nominal SNR P must be finite and > 1 (0 dB), got 1.0")):
        build_allocation(PolicySpec(kind), layout, 0.6, 1.0)
