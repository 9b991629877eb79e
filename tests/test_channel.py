import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from netmimo import channel
from netmimo.channel import (
    PURPOSE_CHANNEL,
    PURPOSE_ESTIMATE,
    PURPOSE_LAYOUT,
    ChannelRealization,
    apply_estimate_noise,
    complex_gaussian,
    draw_channel,
    pathloss_matrix,
    trial_rng,
)
from netmimo.allocation import PolicySpec, build_allocation
from netmimo.topology import interference_levels, pairwise_distance, place_grid


def _sigma(side=3, gamma=0.6, p=1e5):
    d = pairwise_distance(place_grid(side))
    return pathloss_matrix(interference_levels(d, gamma), p)


def _estimate(chan, sigma, bits, rng):
    """An estimate under a bit table of any leading shape, with fresh noise."""
    return apply_estimate_noise(chan, sigma, bits, complex_gaussian(rng, np.shape(bits)))


def test_pathloss_values():
    sigma = _sigma()
    assert not sigma.flags.writeable
    assert sigma[0, 0] == 1.0
    # unit distance at gamma 0.6, P = 1e5: variance P^(-0.4) = 1e-2
    assert sigma[0, 1] ** 2 == pytest.approx(1e-2, rel=1e-12)


def test_pathloss_two_forms_agree():
    """P^(level - 1) must equal (P^(gamma-1))^dist for every link."""
    d = pairwise_distance(place_grid(4))
    for gamma, p in ((0.6, 1e5), (0.35, 1e3), (1.0, 50.0)):
        sigma = pathloss_matrix(interference_levels(d, gamma), p)
        mu_sq = p ** (gamma - 1.0)
        np.testing.assert_allclose(sigma**2, mu_sq**d, rtol=1e-12)


def test_pathloss_monotone_and_bounded():
    sigma = _sigma()
    assert np.all(sigma**2 > 0)
    assert np.all(sigma**2 <= 1.0)
    d = pairwise_distance(place_grid(3))
    order = np.argsort(d[0])
    assert np.all(np.diff(sigma[0][order] ** 2) <= 1e-15)


def test_pathloss_rejects_low_snr():
    levels = interference_levels(pairwise_distance(place_grid(2)), 0.6)
    with pytest.raises(ValueError):
        pathloss_matrix(levels, 1.0)
    with pytest.raises(ValueError):
        pathloss_matrix(levels, 0.5)


def test_draw_channel_statistics():
    sigma = _sigma()
    rng = np.random.default_rng(7)
    n = 10_000
    acc_direct = 0.0
    acc_scaled = np.zeros((9, 9))
    for _ in range(n):
        chan = draw_channel(sigma, rng)
        acc_direct += np.abs(chan.H[0, 0]) ** 2
        acc_scaled += np.abs(chan.H) ** 2 / sigma**2
    assert acc_direct / n == pytest.approx(1.0, abs=0.05)
    np.testing.assert_allclose(acc_scaled / n, 1.0, atol=0.05)


def test_draw_channel_deterministic():
    sigma = _sigma()
    a = draw_channel(sigma, trial_rng(42, 3, PURPOSE_CHANNEL)).H
    b = draw_channel(sigma, trial_rng(42, 3, PURPOSE_CHANNEL)).H
    np.testing.assert_array_equal(a, b)
    c = draw_channel(sigma, trial_rng(42, 4, PURPOSE_CHANNEL)).H
    assert not np.array_equal(a, c)


def test_estimate_zero_bits_error_scale():
    sigma = _sigma()
    rng = np.random.default_rng(1)
    chan = draw_channel(sigma, rng)
    bits = np.zeros((9, 9))
    n = 4000
    acc = np.zeros((9, 9))
    for _ in range(n):
        est = _estimate(chan, sigma, bits, rng)
        acc += np.abs(est - chan.H) ** 2
    np.testing.assert_allclose(acc / n / sigma**2, 1.0, atol=0.1)


def test_estimate_infinite_bits_exact():
    sigma = _sigma()
    rng = np.random.default_rng(2)
    chan = draw_channel(sigma, rng)
    bits = np.full((9, 9), np.inf)
    est = _estimate(chan, sigma, bits, rng)
    np.testing.assert_array_equal(est, chan.H)
    # mixed table: only the infinite entries collapse
    bits[0, 1] = 0.0
    est2 = _estimate(chan, sigma, bits, rng)
    assert est2[0, 1] != chan.H[0, 1]
    np.testing.assert_array_equal(np.delete(est2.ravel(), 1), np.delete(chan.H.ravel(), 1))


def test_estimate_matched_bits_give_one_over_p():
    """B_ki = log2(P sigma_ki^2) leaves an error variance of 1/P."""
    p = 1e4
    sigma = _sigma(p=p)
    rng = np.random.default_rng(3)
    chan = draw_channel(sigma, rng)
    with np.errstate(divide="ignore"):
        bits = np.log2(p * sigma**2)
    bits = np.maximum(bits, 0.0)
    keep = p * sigma**2 >= 1.0  # entries where the formula is meaningful
    n = 10_000
    acc = np.zeros((9, 9))
    for _ in range(n):
        est = _estimate(chan, sigma, bits, rng)
        acc += np.abs(est - chan.H) ** 2
    np.testing.assert_allclose(acc[keep] / n, 1.0 / p, rtol=0.10)


def test_estimate_same_for_readonly_and_writable_tables():
    """An allocation's read-only table gives the same estimate on every call
    as a fresh writable copy of the table."""
    layout = place_grid(2)
    sigma = pathloss_matrix(interference_levels(pairwise_distance(layout), 0.6), 1e4)
    chan = draw_channel(sigma, np.random.default_rng(9))
    noise = complex_gaussian(np.random.default_rng(10), (4, 4, 4))
    table = build_allocation(PolicySpec("distance"), layout, 0.6, 1e4).bits
    assert not table.flags.writeable
    first = apply_estimate_noise(chan, sigma, table, noise)
    np.testing.assert_array_equal(apply_estimate_noise(chan, sigma, table, noise), first)
    np.testing.assert_array_equal(apply_estimate_noise(chan, sigma, table.copy(), noise), first)


def test_estimates_independent_across_tx():
    sigma = _sigma(side=2, p=1e4)
    rng = np.random.default_rng(5)
    bits = np.zeros((4, 4, 4))
    n = 10_000
    acc = 0.0
    for _ in range(n):
        chan = draw_channel(sigma, rng)
        est = _estimate(chan, sigma, bits, rng)
        e0 = (est[0] - chan.H)[0, 1]
        e1 = (est[1] - chan.H)[0, 1]
        acc += (e0 * np.conj(e1)).real
    assert abs(acc / n) < 0.05


def test_error_independent_of_channel():
    sigma = _sigma(side=2, p=1e4)
    rng = np.random.default_rng(6)
    bits = np.zeros((4, 4))
    n = 10_000
    acc = 0.0
    for _ in range(n):
        chan = draw_channel(sigma, rng)
        est = _estimate(chan, sigma, bits, rng)
        err = (est - chan.H)[1, 0]
        acc += (chan.H[1, 0] / sigma[1, 0] * np.conj(err)).real
    assert abs(acc / n) < 0.05


def test_complex_gaussian_unit_variance():
    rng = np.random.default_rng(8)
    z = complex_gaussian(rng, (200, 200))
    assert np.mean(np.abs(z) ** 2) == pytest.approx(1.0, abs=0.02)
    assert abs(np.mean(z)) < 0.01


def test_trial_rng_streams_disjoint():
    a = trial_rng(9, 0, PURPOSE_CHANNEL).standard_normal(8)
    b = trial_rng(9, 0, PURPOSE_ESTIMATE).standard_normal(8)
    c = trial_rng(9, 1, PURPOSE_CHANNEL).standard_normal(8)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)
    np.testing.assert_array_equal(a, trial_rng(9, 0, PURPOSE_CHANNEL).standard_normal(8))


@pytest.mark.parametrize("shape", [(8, 8), (8, 8, 8), (16, 16, 16), (3, 9, 9, 9)])
def test_complex_gaussian_equals_its_sum_formula(shape):
    """Filling real and imaginary parts in place gives the bytes of
    (x + 1j y) / sqrt(2) over the same two draws."""
    for seed in range(5):
        ref = np.random.default_rng(seed)
        want = (ref.standard_normal(shape) + 1j * ref.standard_normal(shape)) / np.sqrt(2.0)
        assert complex_gaussian(np.random.default_rng(seed), shape).tobytes() == want.tobytes()


# Seeds and trials at the edges of one entropy word; 2^32 and up take more.
_EDGE_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**63]
_EDGE_TRIALS = [0, 2**32 - 1, 2**32]
_PURPOSES = [PURPOSE_CHANNEL, PURPOSE_ESTIMATE, PURPOSE_LAYOUT]
_EDGE_CELLS = [(t, p) for t in _EDGE_TRIALS for p in _PURPOSES]


@settings(max_examples=60, derandomize=True, deadline=None)
@given(
    seed=st.sampled_from(_EDGE_SEEDS + [2**128 - 1, 2**128]) | st.integers(0, 2**130),
    cells=st.lists(
        st.tuples(st.sampled_from(_EDGE_TRIALS) | st.integers(0, 2**33), st.sampled_from(_PURPOSES)),
        max_size=24,
    ),
)
@example(seed=0, cells=[])
@example(seed=2**63, cells=[(2**32 - 1, PURPOSE_ESTIMATE)])
@example(seed=2**128, cells=_EDGE_CELLS)
@example(seed=1, cells=[(t, p) for t in range(40) for p in _PURPOSES])
@example(seed=2**32 - 1, cells=[(2**32, PURPOSE_CHANNEL)] + [(t, PURPOSE_ESTIMATE) for t in range(8)])
def test_trial_streams_equal_trial_rng(seed, cells):
    """Every cell's generator starts in trial_rng's state and draws its
    numbers, whichever trials share a pass of one purpose: none, one, many,
    and cells of a seed or trial too wide for the bulk derivation."""
    for purpose in _PURPOSES:
        trials = [t for t, p in cells if p == purpose]
        for t, rng in zip(trials, channel._trial_streams(seed, trials, purpose), strict=True):
            ref = trial_rng(seed, t, purpose)
            assert rng.bit_generator.state == ref.bit_generator.state, (seed, t, purpose)
            assert rng.standard_normal(20).tobytes() == ref.standard_normal(20).tobytes(), (seed, t, purpose)


@pytest.mark.parametrize("seed", _EDGE_SEEDS)
def test_trial_streams_derive_edge_cells_in_bulk(seed):
    """At each edge seed and purpose, each pass decides once. A pass of
    trials below 2^32, one cell or the two edge trials three times over,
    gives each cell a generator of its own whose PCG64 is seeded from the
    cell's derived words, not from a SeedSequence, so the bulk derivation
    itself is what equals trial_rng there. A pass that holds trial 2^32
    gives every cell a fresh trial_rng, with the cell as its spawn key."""
    below = [t for t in _EDGE_TRIALS if t <= 2**32 - 1]
    for purpose in _PURPOSES:
        for trials in ([2**32 - 1], below * 3, _EDGE_TRIALS * 3):
            held = []  # keeps every generator alive, so that no two share an id
            for t, rng in zip(trials, channel._trial_streams(seed, trials, purpose), strict=True):
                held.append(rng)
                ref = trial_rng(seed, t, purpose)
                assert rng.bit_generator.state == ref.bit_generator.state
                assert rng.standard_normal(20).tobytes() == ref.standard_normal(20).tobytes()
            assert len({id(g) for g in held}) == len(trials)
            seqs = [g.bit_generator.seed_seq for g in held]
            if 2**32 in trials:
                assert [s.spawn_key for s in seqs] == [(t, purpose) for t in trials]
                continue
            for t, s in zip(trials, seqs, strict=True):
                assert not isinstance(s, np.random.SeedSequence)
                want = np.random.SeedSequence(seed, spawn_key=(t, purpose)).generate_state(4, np.uint64)
                assert s.generate_state(4, np.uint64).tobytes() == want.tobytes(), (t, purpose)


def test_trial_streams_fall_back_when_the_derivation_differs():
    """A hash constant that no longer matches numpy's, as a numpy release
    with another SeedSequence hash would bring, or words that numpy's PCG64
    seeds from in another order, fails the pass's check of its first cell:
    every cell of the pass then takes trial_rng and draws the reference
    stream."""
    want = np.random.SeedSequence(5, spawn_key=(0, PURPOSE_ESTIMATE)).generate_state(4, np.uint64)
    trials = list(range(40))
    for target, value in (
        ("netmimo.channel._OUT_MUL", channel._OUT_MUL + np.uint32(2)),
        ("netmimo.channel._Words.generate_state", lambda self, n_words, dtype=np.uint32: self.words[::-1].copy()),
    ):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(target, value)
            words = channel._Words(channel._pcg64_words(5, np.arange(1), PURPOSE_ESTIMATE)[0])
            assert words.generate_state(4, np.uint64).tobytes() != want.tobytes(), target
            held = []
            for t, rng in zip(trials, channel._trial_streams(5, trials, PURPOSE_ESTIMATE), strict=True):
                held.append(rng)
                ref = trial_rng(5, t, PURPOSE_ESTIMATE)
                assert rng.bit_generator.seed_seq.spawn_key == (t, PURPOSE_ESTIMATE), (target, t)
                assert rng.bit_generator.state == ref.bit_generator.state, (target, t)
                assert rng.standard_normal(20).tobytes() == ref.standard_normal(20).tobytes(), (target, t)
            assert len({id(g) for g in held}) == len(trials), target


def test_trial_streams_cells_draw_in_any_order():
    """Each bulk cell has a generator of its own: cell 0, held while cell 1
    is taken and drawn from, still draws trial_rng's stream for cell 0."""
    streams = channel._trial_streams(3, [0, 1], PURPOSE_CHANNEL)
    first, second = next(streams), next(streams)
    second.standard_normal(4)
    assert first.standard_normal(20).tobytes() == trial_rng(3, 0, PURPOSE_CHANNEL).standard_normal(20).tobytes()


@pytest.mark.parametrize("seed", [7, 2**128], ids=["bulk", "trial_rng"])
def test_unit_stack_from_a_longer_prefix_equals_unit_draws(seed):
    """A (k, k) complex_gaussian draw takes the first 2k^2 normals of its
    stream, so a stack assembled from each stream's longer prefix is
    _unit_draws' stack of the same streams byte for byte, on the bulk
    derivation and on the trial_rng fallback alike."""
    trials = [0, 1, 5, 40, 41]

    def streams():
        return channel._trial_streams(seed, trials, PURPOSE_CHANNEL)

    for width in (32, 162):
        normals = channel._normal_draws(streams(), np.empty((len(trials), width)))
        for k in (3, 4, 9):
            if 2 * k * k > width:
                continue
            want = channel._unit_draws(streams(), np.empty((len(trials), k, k), dtype=complex))
            assert channel._unit_stack(normals, k).tobytes() == want.tobytes(), (width, k)


@pytest.mark.parametrize("per_tx", [False, True], ids=["shared", "per-tx"])
def test_estimate_batch_stacks_single_estimates(per_tx):
    sigma = _sigma(side=2, p=1e4)
    ones = [draw_channel(sigma, trial_rng(4, t, PURPOSE_CHANNEL)) for t in range(3)]
    chans = ChannelRealization(H=np.stack([one.H for one in ones]))
    bits = np.arange(64 if per_tx else 16, dtype=float).reshape((4,) * (3 if per_tx else 2)) % 7
    noise = complex_gaussian(np.random.default_rng(5), (3,) + bits.shape)
    est = apply_estimate_noise(chans, sigma, bits, noise)
    assert est.shape == (3,) + bits.shape
    for t, one in enumerate(ones):
        assert est[t].tobytes() == apply_estimate_noise(one, sigma, bits, noise[t]).tobytes()


# Few distinct values, so that ties are common, with both zeros and NaN.
_MEDIAN_VALUES = st.sampled_from([-1.5, -0.0, 0.0, 0.5, 2.0, np.inf, np.nan]) | st.floats(-1e3, 1e3)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(x=hnp.arrays(np.float64, hnp.array_shapes(min_dims=1, max_dims=3, max_side=7), elements=_MEDIAN_VALUES))
@example(x=np.array([3.0]))
@example(x=np.array([2.0, -1.0]))
@example(x=np.array([[1.0, np.nan, 2.0], [1.0, 5.0, np.nan], [1.0, 4.0, 3.0]]))
@example(x=np.array([[[np.nan, 1.0]], [[2.0, 2.0]], [[2.0, -0.0]], [[0.0, 2.0]]]))
def test_trial_median_equals_np_median(x):
    """The helper returns np.median(x, axis=0)'s type and bytes for one or
    many rows, odd or even, ties and NaN columns, in 1-D to 3-D, and for a
    1-D list as well as an array."""
    want = np.median(x, axis=0)
    inputs = [x, x.tolist()] if x.ndim == 1 else [x]
    for got in (channel._trial_median(arg) for arg in inputs):
        assert type(got) is type(want)
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes(), (got, want)
