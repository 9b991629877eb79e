import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netmimo.channel import (
    PURPOSE_CHANNEL,
    PURPOSE_ESTIMATE,
    ChannelRealization,
    apply_estimate_noise,
    complex_gaussian,
    draw_channel,
    pathloss_matrix,
    trial_rng,
)
from netmimo.precoding import (
    IllConditionedError,
    _precode,
    distributed_precoder,
    zf_precoder,
)
from netmimo.allocation import PolicySpec, build_allocation
from netmimo.evaluation import _data_mask, instantaneous_rates
from netmimo.topology import (
    NodeLayout,
    cooperation_radius,
    interference_levels,
    pairwise_distance,
    place_grid,
    place_uniform_random,
)


def test_scalar_case():
    h = np.array([[0.3 - 0.4j]])
    t = zf_precoder(h, 100.0)
    assert abs(t[0, 0]) == pytest.approx(10.0, rel=1e-12)
    assert (h @ t)[0, 0].real == pytest.approx(10.0 * 0.5, rel=1e-12)
    assert abs((h @ t)[0, 0].imag) < 1e-12


def test_diagonal_channel_decouples():
    h = np.diag([1.0 + 0.0j, 0.5j])
    t = zf_precoder(h, 4.0)
    off = t - np.diag(np.diagonal(t))
    np.testing.assert_allclose(np.abs(off), 0.0, atol=1e-14)
    np.testing.assert_allclose(np.abs(np.diagonal(t)), 2.0, rtol=1e-12)


def test_zf_exact_interference_null():
    rng = np.random.default_rng(15)
    p = 1e4
    for _ in range(25):
        h = complex_gaussian(rng, (3, 3))
        if np.linalg.cond(h) > 1e3:
            continue
        g = h @ zf_precoder(h, p)
        off = g - np.diag(np.diagonal(g))
        assert np.max(np.abs(off)) < 1e-8 * np.sqrt(p)


def test_column_norms_exact():
    rng = np.random.default_rng(16)
    h = complex_gaussian(rng, (5, 5))
    t = zf_precoder(h, 49.0)
    np.testing.assert_allclose(np.linalg.norm(t, axis=0), 7.0, rtol=1e-12)


def test_distributed_collapse_to_shared_matrix():
    rng = np.random.default_rng(17)
    p = 1e4
    h = complex_gaussian(rng, (4, 4))
    stack = np.broadcast_to(h, (4, 4, 4)).copy()
    joint = distributed_precoder(stack, p)
    single = zf_precoder(h, p)
    np.testing.assert_array_equal(joint, single)
    # shared estimate that is not the channel behaves the same way
    other = h + 0.1 * complex_gaussian(rng, (4, 4))
    np.testing.assert_array_equal(
        distributed_precoder(np.broadcast_to(other, (4, 4, 4)).copy(), p),
        zf_precoder(other, p),
    )


def test_distributed_rows_match_per_tx_solves():
    sigma = pathloss_matrix(interference_levels(pairwise_distance(place_grid(2)), 0.6), 1e4)
    chan = draw_channel(sigma, trial_rng(21, 0, PURPOSE_CHANNEL))
    bits = build_allocation(PolicySpec("distance"), place_grid(2), 0.6, 1e4).bits
    noise = complex_gaussian(trial_rng(21, 0, PURPOSE_ESTIMATE), (4, 4, 4))
    est = apply_estimate_noise(chan, sigma, bits, noise)
    t = distributed_precoder(est, 1e4)
    for j in range(4):
        row = zf_precoder(est[j], 1e4)[j]
        np.testing.assert_allclose(t[j], row, rtol=1e-12)


def test_scale_equivariance():
    rng = np.random.default_rng(18)
    h = complex_gaussian(rng, (3, 3))
    c = 0.7 - 1.9j
    a = zf_precoder(h, 25.0)
    b = zf_precoder(c * h, 25.0)
    np.testing.assert_allclose(np.abs(a), np.abs(b), rtol=1e-10)


def test_ill_conditioned_raises():
    h = np.array([[1.0, 1.0], [1.0, 1.0 + 1e-15]], dtype=complex)
    with pytest.raises(IllConditionedError):
        zf_precoder(h, 10.0)
    rng = np.random.default_rng(19)
    good = complex_gaussian(rng, (3, 3))
    stack = np.stack([good, good, np.ones((3, 3), dtype=complex)])
    with pytest.raises(IllConditionedError):
        distributed_precoder(stack, 10.0)
    with pytest.raises(IllConditionedError):
        zf_precoder(good, 10.0, cond_threshold=1e-3)


def _condition_first_t(a, p, thr):
    """T as the SVD-first check built it: np.linalg.cond, then inv, then the
    column norms; None where that check rejected the solve."""
    worst = float(np.linalg.cond(a).max())
    if not math.isfinite(worst) or worst > thr:
        return None
    inv = np.linalg.inv(a)
    if a.ndim == 2:
        return math.sqrt(p) * inv / np.linalg.norm(inv, axis=0, keepdims=True)
    diag = np.arange(a.shape[0])
    return math.sqrt(p) * inv[diag, diag, :] / np.linalg.norm(inv, axis=1)


@settings(max_examples=60, derandomize=True, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    k=st.integers(1, 8),
    stacked=st.booleans(),
    decades=st.integers(0, 17),
)
def test_screen_keeps_condition_number_decisions(seed, k, stacked, decades):
    """Rejection is kappa_2 > threshold, whether or not the kappa_F screen
    cleared the solve, and accepted T is byte-identical to the SVD-first T.
    The core's condition estimate, which the engine records as a trial's
    worst_cond, lies between kappa_2 and K kappa_2."""
    rng = np.random.default_rng(seed)
    a = complex_gaussian(rng, (k, k, k) if stacked else (k, k))
    u, _, vh = np.linalg.svd(a)
    a = (u * np.logspace(0, -decades, k)) @ vh  # singular values over `decades` decades
    kappa_2 = float(np.linalg.cond(a).max())
    inv_f = np.linalg.norm(np.linalg.inv(a), axis=(-2, -1))
    kappa_f = float((np.linalg.norm(a, axis=(-2, -1)) * inv_f).max())
    precode = distributed_precoder if stacked else zf_precoder
    p = 10.0
    for thr in (
        kappa_2 * (1 - 1e-6),
        kappa_2 * (1 + 1e-6),
        4 * kappa_f * (1 - 1e-6),
        4 * kappa_f * (1 + 1e-6),
        1e12,
    ):
        expected = _condition_first_t(a, p, thr)
        if expected is None:
            with pytest.raises(IllConditionedError) as info:
                precode(a, p, thr)
            assert info.value.cond == kappa_2
            continue
        assert precode(a, p, thr).tobytes() == expected.tobytes()
        cond = _core(a, p, thr, core=a.ndim)[1]
        # kappa_2 <= kappa_F <= K kappa_2, up to rounding of order K kappa eps
        # in either computed value; the screen only clears kappa_F < 2.5e9.
        assert kappa_2 * (1 - 1e-4) <= cond <= k * kappa_2 * (1 + 1e-4)


def _each(fn, stack, batch, p, thr, core):
    """fn applied to every batch element of stack: its result or its
    IllConditionedError, with the condition estimate the core gives that
    element alone."""
    out = {}
    for idx in np.ndindex(batch):
        try:
            got = fn(stack[idx])
        except IllConditionedError as exc:
            got = exc
        out[idx] = got, _core(stack[idx], p, thr, core)[1]
    return out


def _core(a, p, thr, core):
    """The private core over the leading batch axes of a, whose solves span
    its trailing `core` axes, with its results shaped over those axes."""
    batch = a.shape[: a.ndim - core]
    t, conds, rejected = _precode(a.reshape((-1,) + a.shape[-core:]), p, thr)
    return t.reshape(batch + t.shape[1:]), conds.reshape(batch), rejected.reshape(batch)


def _assert_batch_matches(batched_call, core_call, singles, batch):
    """A batched precoder call equals its one-element calls: the stacked T
    bytes when all pass, else one rejection with the first failing element's
    kappa_2 as cond. The private core's mask and condition estimates name
    exactly the failing elements and their kappa_2, and its T and estimate
    of every other element are that element's own, whether or not others
    fail."""
    failed = {idx: r for idx, (r, _) in singles.items() if isinstance(r, IllConditionedError)}
    t, conds, rejected = core_call()
    assert rejected.shape == conds.shape == batch
    assert sorted(zip(*np.nonzero(rejected))) == sorted(failed)
    for idx, (one, one_cond) in singles.items():
        assert conds[idx] == one_cond
        if idx in failed:
            assert conds[idx] == one.cond
        else:
            assert t[idx].tobytes() == one.tobytes()
    if failed:
        with pytest.raises(IllConditionedError) as info:
            batched_call()
        assert info.value.cond == next(iter(failed.values())).cond
        return None
    prec = batched_call()
    assert prec.shape == batch + t.shape[len(batch):]
    for idx, (one, _) in singles.items():
        assert prec[idx].tobytes() == one.tobytes()
    return prec


def _split(h, t):
    """The signal |h_i t_i|^2 and the interference sum over l != i of |h_i t_l|^2
    of every user i, from the gains instantaneous_rates forms."""
    gains = np.abs(h @ t) ** 2
    return np.diagonal(gains, axis1=-2, axis2=-1), (gains * (1.0 - np.eye(t.shape[-1]))).sum(axis=-1)


@settings(max_examples=40, derandomize=True, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    k=st.integers(1, 6),
    batch=st.lists(st.integers(1, 3), min_size=1, max_size=2).map(tuple),
    thr=st.sampled_from([1e12, 40.0, 10.0]),
)
def test_batched_kernels_equal_stacked_single_calls(seed, k, batch, thr):
    """Every kernel with leading batch axes equals its one-trial calls byte
    for byte. The lower thresholds make the kappa_F screen miss some
    elements and reject some."""
    rng = np.random.default_rng(seed)
    layout = place_uniform_random(k, 3.0, rng)
    p = 1e4
    sigma = pathloss_matrix(interference_levels(pairwise_distance(layout), 0.6), p)
    h_unit = complex_gaussian(rng, batch + (k, k))
    chan = ChannelRealization(H=sigma * h_unit)
    bits = rng.integers(0, 12, (k, k, k)).astype(float)
    noise = complex_gaussian(rng, batch + (k, k, k))

    est = apply_estimate_noise(chan, sigma, bits, noise)
    for idx in np.ndindex(batch):
        one = ChannelRealization(H=chan.H[idx])
        assert est[idx].tobytes() == apply_estimate_noise(one, sigma, bits, noise[idx]).tobytes()

    zf_singles = _each(lambda h: zf_precoder(h, p, thr), chan.H, batch, p, thr, core=2)
    zf = _assert_batch_matches(
        lambda: zf_precoder(chan.H, p, thr), lambda: _core(chan.H, p, thr, core=2), zf_singles, batch
    )
    _assert_batch_matches(
        lambda: distributed_precoder(est, p, thr),
        lambda: _core(est, p, thr, core=3),
        _each(lambda e: distributed_precoder(e, p, thr), est, batch, p, thr, core=3),
        batch,
    )
    if zf is not None:
        sample = instantaneous_rates(chan.H, zf)
        signal, interference = _split(chan.H, zf)
        for idx, (one, _) in zf_singles.items():
            want = instantaneous_rates(chan.H[idx], one)
            assert sample.rates[idx].tobytes() == want.rates.tobytes()
            want_signal, want_interference = _split(chan.H[idx], one)
            assert signal[idx].tobytes() == want_signal.tobytes()
            assert interference[idx].tobytes() == want_interference.tobytes()


@settings(max_examples=30, derandomize=True, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    k=st.integers(1, 8),
    side=st.floats(0.1, 10.0),
    gamma=st.floats(0.0, 1.0, exclude_min=True),
    snr_db=st.floats(5.0, 80.0),
)
def test_relabelling_nodes_permutes_every_index(seed, k, side, gamma, snr_db):
    """Relabelling the nodes by pi permutes the distances, the interference
    levels and all three bit-table axes exactly, and the precoders' rows and
    columns and the per-user rates up to LAPACK's pivoting."""
    rng = np.random.default_rng(seed)
    layout = place_uniform_random(k, side, rng)
    pi = rng.permutation(k)
    moved = NodeLayout(layout.positions[pi])
    ix2, ix3 = np.ix_(pi, pi), np.ix_(pi, pi, pi)
    p = 10.0 ** (snr_db / 10.0)

    d, d_moved = pairwise_distance(layout), pairwise_distance(moved)
    assert d_moved.tobytes() == d[ix2].tobytes()
    levels, levels_moved = interference_levels(d, gamma), interference_levels(d_moved, gamma)
    assert levels_moved.tobytes() == levels[ix2].tobytes()
    tables = {}
    for spec in (PolicySpec("distance", alpha=0.75), PolicySpec("distance"), PolicySpec("conventional")):
        tables[spec] = build_allocation(spec, layout, gamma, p).bits
        assert build_allocation(spec, moved, gamma, p).bits.tobytes() == tables[spec][ix3].tobytes()

    sigma, sigma_moved = pathloss_matrix(levels, p), pathloss_matrix(levels_moved, p)
    h = sigma * complex_gaussian(rng, (k, k))
    noise = complex_gaussian(rng, (k, k, k))
    bits = tables[PolicySpec("distance")]
    est = apply_estimate_noise(ChannelRealization(H=h), sigma, bits, noise)
    est_moved = apply_estimate_noise(ChannelRealization(H=h[ix2]), sigma_moved, bits[ix3], noise[ix3])
    assert est_moved.tobytes() == est[ix3].tobytes()

    for kernel, h_in, h_in_moved in ((zf_precoder, h, h[ix2]), (distributed_precoder, est, est_moved)):
        prec, prec_moved = kernel(h_in, p), kernel(h_in_moved, p)
        # Every column has norm sqrt(p), so the tolerance is relative to it.
        np.testing.assert_allclose(prec_moved, prec[ix2], rtol=1e-9, atol=1e-9 * math.sqrt(p))
        rates = instantaneous_rates(h, prec).rates
        np.testing.assert_allclose(instantaneous_rates(h[ix2], prec_moved).rates, rates[pi], rtol=1e-9, atol=1e-12)


def test_batched_call_decides_the_screen_misses_in_one_cond_call(monkeypatch):
    """np.linalg.cond runs at most once per batched call: on the elements the
    kappa_F screen missed, or on all of them after an exact zero pivot, and
    never when the screen clears the batch."""
    seen = []
    real_cond = np.linalg.cond

    def recording_cond(a, *args):
        seen.append(a.copy())
        return real_cond(a, *args)

    monkeypatch.setattr(np.linalg, "cond", recording_cond)
    rng = np.random.default_rng(22)
    good = complex_gaussian(rng, (3, 3))
    near_singular = np.array([[1.0, 1.0, 0.0], [1.0, 1.0 + 1e-9, 0.0], [0.0, 0.0, 1.0]], dtype=complex)
    batch = np.stack([good, near_singular, good, 2j * near_singular])
    zf_precoder(batch, 10.0, cond_threshold=1e12)
    assert [a.tobytes() for a in seen] == [batch[1::2].tobytes()]
    seen.clear()
    _, conds, _ = _precode(batch, 10.0, 1e12)
    assert [a.tobytes() for a in seen] == [batch[1::2].tobytes()]
    assert conds[1] == real_cond(near_singular)
    assert conds[3] == real_cond(2j * near_singular)
    assert conds[0] == conds[2] == _precode(good[None], 10.0, 1e12)[1][0]
    seen.clear()
    assert zf_precoder(np.stack([good, good]), 10.0).shape == (2, 3, 3)
    assert seen == []

    singular = np.diag([1.0, 1.0, 0.0]).astype(complex)
    pivot_batch = np.stack([good, singular, near_singular])
    with pytest.raises(IllConditionedError) as info:
        zf_precoder(pivot_batch, 10.0, cond_threshold=1e12)
    assert [a.shape for a in seen] == [(3, 3, 3)]
    _, conds, rejected = _precode(pivot_batch, 10.0, 1e12)
    assert rejected.tolist() == [False, True, False]
    assert conds[1] == info.value.cond == math.inf


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("core", [2, 3])
def test_exact_zero_pivot_solves_the_survivors_as_their_own_calls(core):
    """An exact zero pivot in a batch [good, exactly singular, near-singular]
    rejects only the singular solve. The survivors are inverted again, and
    their T and condition estimates equal their one-element calls bit for
    bit: kappa_F for the solve the screen clears, kappa_2 for the one it
    misses. No RuntimeWarning is raised on the way."""
    good = complex_gaussian(np.random.default_rng(23), (3, 3))
    singular = np.diag([1.0, 1.0, 0.0]).astype(complex)
    near_singular = np.array([[1.0, 1.0, 0.0], [1.0, 1.0 + 1e-9, 0.0], [0.0, 0.0, 1.0]], dtype=complex)
    solves = [good, singular, near_singular]
    if core == 3:
        solves = [np.stack([good, a, good]) for a in solves]
    t, conds, rejected = _precode(np.stack(solves), 10.0, 1e12)
    assert rejected.tolist() == [False, True, False]
    assert conds[1] == math.inf
    for i in (0, 2):
        t_one, cond_one, rejected_one = _precode(solves[i][None], 10.0, 1e12)
        assert not rejected_one[0]
        assert t[i].tobytes() == t_one[0].tobytes()
        assert conds[i] == cond_one[0]
    assert conds[0] < 2.5e9 <= conds[2] == np.linalg.cond(solves[2]).max()


def test_exactly_singular_reports_infinite_condition():
    singular = np.diag([1.0, 0.0]).astype(complex)
    with pytest.raises(IllConditionedError) as info:
        zf_precoder(singular, 10.0)
    assert info.value.cond == math.inf
    good = np.eye(2, dtype=complex)
    with pytest.raises(IllConditionedError) as info:
        distributed_precoder(np.stack([good, singular]), 10.0, cond_threshold=math.inf)
    assert info.value.cond == math.inf


def test_unbatched_rejection_is_a_batch_of_one():
    """A call without batch axes marks its one element rejected in the
    core's 0-d arrays, and the public call raises its kappa_2."""
    h = np.array([[1.0, 1.0], [1.0, 1.0 + 1e-6]], dtype=complex)
    with pytest.raises(IllConditionedError) as info:
        zf_precoder(h, 10.0, cond_threshold=100.0)
    _, conds, rejected = _core(h, 10.0, 100.0, core=2)
    assert rejected.shape == conds.shape == ()
    assert rejected and conds == info.value.cond == np.linalg.cond(h)
    assert info.value.threshold == 100.0


@pytest.mark.parametrize(
    "precoder, shape",
    [(zf_precoder, (0, 3, 3)), (zf_precoder, (2, 0, 3, 3)), (distributed_precoder, (0, 3, 3, 3))],
)
def test_empty_batch_gives_an_empty_precoder(precoder, shape):
    """A batch of no solves gives an empty, read-only T with the batch's
    axes, and the core empty condition estimates and mask."""
    stack = np.empty(shape, dtype=complex)
    core = 3 if precoder is distributed_precoder else 2
    got = precoder(stack, 10.0)
    batch = shape[: len(shape) - core]
    assert got.shape == batch + (3, 3) and not got.flags.writeable
    _, conds, rejected = _core(stack, 10.0, 10.0, core)
    assert conds.shape == rejected.shape == batch


def test_input_validation():
    with pytest.raises(ValueError):
        zf_precoder(np.ones((2, 3), dtype=complex), 10.0)
    with pytest.raises(ValueError):
        zf_precoder(np.eye(2, dtype=complex), 0.0)
    with pytest.raises(ValueError):
        distributed_precoder(np.ones((2, 2), dtype=complex), 10.0)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("precoder", [zf_precoder, distributed_precoder])
def test_a_nan_threshold_or_a_power_not_finite_and_positive_raises(precoder):
    """A NaN threshold would accept every solve, however ill-conditioned, and
    a power of NaN or inf would give a NaN T or warn: each raises ValueError
    naming the value. A threshold below 1 still rejects every solve."""
    u, _, vh = np.linalg.svd(complex_gaussian(np.random.default_rng(24), (3, 3)))
    bad = (u * np.array([1.0, 1e-3, 2.5e-7])) @ vh  # kappa_2 = 4e6
    assert np.linalg.cond(bad) == pytest.approx(4e6)
    core = 3 if precoder is distributed_precoder else 2
    for a in (bad, np.eye(3, dtype=complex)):
        a = np.broadcast_to(a, (3,) * core).copy()
        with pytest.raises(ValueError, match="cond_threshold must not be NaN, got nan"):
            precoder(a, 10.0, cond_threshold=math.nan)
        for p in (math.nan, math.inf, -math.inf, 0.0, -1.0):
            with pytest.raises(ValueError, match=f"power must be finite and > 0, got {p}"):
                precoder(a, p)
    with pytest.raises(IllConditionedError):
        precoder(np.broadcast_to(np.eye(3, dtype=complex), (3,) * core).copy(), 10.0, cond_threshold=0.5)


def test_mask_patterns():
    rng = np.random.default_rng(20)
    h = complex_gaussian(rng, (4, 4))
    t = zf_precoder(h, 9.0)
    # At gamma = 1 every TX keeps every user's data.
    np.testing.assert_array_equal(t * _data_mask(place_grid(2), 1.0), t)
    # Nodes 10 apart, beyond the radius 2.5 at gamma 0.6: each TX keeps only its own user's data.
    apart = NodeLayout(np.column_stack([10.0 * np.arange(4), np.zeros(4)]))
    singletons = t * _data_mask(apart, 0.6)
    np.testing.assert_array_equal(singletons, np.diag(np.diagonal(t)))


def test_mask_matches_radius_on_grid():
    layout = place_grid(6)
    gamma = 0.6
    mask = _data_mask(layout, gamma)
    assert mask.dtype == float and set(np.unique(mask).tolist()) == {0.0, 1.0}
    d = pairwise_distance(layout)
    np.testing.assert_array_equal(mask == 1.0, d <= cooperation_radius(gamma))


def _row_power(t):
    """Transmit power spent by each TX: row sums of |T|^2."""
    return np.sum(np.abs(t) ** 2, axis=1)


def test_per_tx_power_accounting():
    rng = np.random.default_rng(22)
    p = 36.0
    t = zf_precoder(np.array([[2.0 + 0j]]), p)
    np.testing.assert_allclose(_row_power(t), [p], rtol=1e-12)
    h = complex_gaussian(rng, (5, 5))
    t5 = zf_precoder(h, p)
    assert _row_power(t5).sum() == pytest.approx(5 * p, rel=1e-12)


def test_per_tx_power_near_perfect_most_trials():
    """Distributed rows stay within 2x of the perfect-CSIT power nearly always."""
    layout = place_grid(4)
    gamma = 0.6
    p = 10.0**6
    dist = pairwise_distance(layout)
    sigma = pathloss_matrix(interference_levels(dist, gamma), p)
    bits = build_allocation(PolicySpec("distance"), layout, gamma, p).bits
    scale = sigma[None] * np.exp2(-0.5 * bits)
    ok = 0
    total = 0
    for t in range(300):
        h = sigma * complex_gaussian(trial_rng(23, t, PURPOSE_CHANNEL), (16, 16))
        if np.linalg.cond(h) > 1e12:
            continue
        noise = complex_gaussian(trial_rng(23, t, PURPOSE_ESTIMATE), (16, 16, 16))
        ref = _row_power(zf_precoder(h, p))
        got = _row_power(distributed_precoder(h[None] + scale * noise, p))
        ratio = got / ref
        ok += int(((ratio >= 0.5) & (ratio <= 2.0)).sum())
        total += 16
    assert total > 0
    assert ok / total >= 0.95
