import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netmimo import oracle
from netmimo.allocation import distance_exponents
from netmimo.channel import (
    PURPOSE_CHANNEL,
    _trial_streams,
    complex_gaussian,
    draw_channel,
    pathloss_matrix,
    trial_rng,
)
from netmimo.oracle import (
    _partial_sums,
    neumann_term_matrix,
    proof_exponent_table,
    resolvent_check,
    resolvent_max_error,
    run_verification,
    term_decay_check,
    inverse_decay_estimate,
    truncation_order,
    truncation_tail_check,
)
from netmimo.precoding import _SCREEN_MARGIN, _screened_inverse
from netmimo.topology import (
    NodeLayout,
    interference_levels,
    pairwise_distance,
    place_grid,
    place_uniform_random,
)


def _line(n):
    return NodeLayout(np.column_stack([np.arange(n, dtype=float), np.zeros(n)]))


def test_resolvent_identity_a_equals_b():
    rng = np.random.default_rng(0)
    a = complex_gaussian(rng, (5, 5)) + 3.0 * np.eye(5)
    assert resolvent_check(a, a) < 1e-14


def test_resolvent_identity_scalar_closed_form():
    # a = 2b: 1/(2b) - 1/b - (1/b)(b - 2b)(1/(2b)) = 0
    b = np.array([[0.8 - 0.3j]])
    assert resolvent_check(2.0 * b, b) < 1e-15


def test_resolvent_identity_random_pairs():
    assert resolvent_max_error(pairs=200, size=8, seed=1) < 1e-10


def test_resolvent_max_error_skips_fully_rejected_stacks():
    """At seed 4 and cond_limit 8 the first four 4x4 pairs are rejected, so
    the first two stacks of pairs=2 keep nothing. The result still equals
    drawing, screening and checking one pair at a time, to the bit."""
    rng = np.random.default_rng(4)
    drawn = [(complex_gaussian(rng, (4, 4)), complex_gaussian(rng, (4, 4))) for _ in range(8)]
    ok = [max(np.linalg.cond(a), np.linalg.cond(b)) <= 8.0 for a, b in drawn]
    assert ok[:5] == [False] * 4 + [True]
    want = max(resolvent_check(a, b) for (a, b), o in zip(drawn, ok) if o)
    assert ok[5:].count(True) == 1  # the second kept pair is the last of the eight
    assert resolvent_max_error(pairs=2, size=4, seed=4, cond_limit=8.0) == want


@pytest.mark.parametrize("cond_limit", [0.5, 0.0, -1.0, float("nan")])
def test_resolvent_max_error_rejects_a_limit_no_matrix_meets(cond_limit):
    """No matrix has kappa_2 < 1, so such a limit would reject every pair."""
    with pytest.raises(ValueError, match="cond_limit must be >= 1"):
        resolvent_max_error(pairs=1, size=2, seed=0, cond_limit=cond_limit)


def test_resolvent_max_error_gives_up_after_100_draws_per_pair(monkeypatch):
    """At cond_limit 1 every random pair is rejected: the call stops after
    drawing 100 pairs per pair asked for, instead of drawing forever."""
    drawn = []
    real_cond = np.linalg.cond

    def counting_cond(ab, *args):
        drawn.append(len(ab))
        return real_cond(ab, *args)

    monkeypatch.setattr(np.linalg, "cond", counting_cond)
    with pytest.raises(RuntimeError, match="kept 0 of 3 pairs after drawing 300"):
        resolvent_max_error(pairs=3, size=2, seed=0, cond_limit=1.0)
    assert sum(drawn) == 300


def _reference_max_error(pairs, size, seed, cond_limit):
    """resolvent_max_error drawn, screened by np.linalg.cond and checked one
    pair at a time, or the RuntimeError type if 100 * pairs draws keep too few."""
    rng = np.random.default_rng(seed)
    kept = []
    for _ in range(100 * pairs):
        a, b = complex_gaussian(rng, (size, size)), complex_gaussian(rng, (size, size))
        if max(np.linalg.cond(a), np.linalg.cond(b)) <= cond_limit:
            kept.append(resolvent_check(a, b))
            if len(kept) == pairs:
                return max(kept)
    return RuntimeError


@settings(max_examples=60, derandomize=True, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    size=st.integers(2, 8),
    pairs=st.integers(1, 12),
    kappa=st.sampled_from(["kappa_2", "kappa_F", "kappa_F * margin"]),
    side=st.sampled_from([1.0 - 1e-6, 1.0 + 1e-6]),
    pick=st.integers(0, 2**16),
)
def test_screened_pairs_equal_cond_decisions(seed, size, pairs, kappa, side, pick):
    """With the limit a hair either side of one drawn matrix's kappa_2, its
    kappa_F or the screen's edge kappa_F * margin, the condition gate keeps
    the pairs np.linalg.cond keeps, at the oracle's margin and at the
    engine's, and their inverses are their own calls' bytes; at the oracle's
    margin resolvent_max_error equals checking one pair at a time to the bit."""
    ab = complex_gaussian(np.random.default_rng(seed), (pairs, 2, size, size))
    inverse = np.linalg.inv(ab)
    kappa_f = np.linalg.norm(ab, axis=(-2, -1)) * np.linalg.norm(inverse, axis=(-2, -1))
    for margin in (oracle._COND_MARGIN, _SCREEN_MARGIN):
        at = {"kappa_2": np.linalg.cond(ab), "kappa_F": kappa_f, "kappa_F * margin": kappa_f * margin}
        limit = max(1.0, float(at[kappa].flat[pick % ab[:, :, 0, 0].size]) * side)
        inv, _, _, rejected = _screened_inverse(ab, limit, margin)
        keep = ~rejected
        assert keep.tolist() == (np.linalg.cond(ab) <= limit).all(axis=-1).tolist()
        for i in np.flatnonzero(keep):
            assert inv[i].tobytes() == np.linalg.inv(ab[i]).tobytes()
        if margin != oracle._COND_MARGIN:
            continue
        want = _reference_max_error(pairs, size, seed, limit)
        if want is RuntimeError:
            with pytest.raises(RuntimeError):
                resolvent_max_error(pairs, size, seed, cond_limit=limit)
        else:
            assert resolvent_max_error(pairs, size, seed, cond_limit=limit) == want


@settings(max_examples=60, derandomize=True, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    k=st.integers(2, 9),
    bounds=st.lists(st.floats(0.5 - 1e-9, 0.5 + 1e-9) | st.floats(0.05, 3.0), min_size=1, max_size=8),
)
def test_radius_screen_equals_eigvals_decisions(seed, k, bounds):
    """On iteration matrices scaled so that min(||M||_1, ||M||_inf) lies a
    hair either side of 1/2, or anywhere up to 3, _partial_sums says an
    element converges exactly where eigvals does, and a screened element's
    radius is its norm bound, which no eigenvalue's magnitude exceeds."""
    rng = np.random.default_rng(seed)
    m = complex_gaussian(rng, (len(bounds), k, k))
    m[:, np.arange(k), np.arange(k)] = 0.0
    mag = np.abs(m)
    m *= (np.array(bounds) / np.minimum(mag.sum(axis=-2).max(axis=-1), mag.sum(axis=-1).max(axis=-1)))[:, None, None]
    d = complex_gaussian(rng, (len(bounds), k)) + 2.0
    h = d[..., :, None] * (np.eye(k) - m)
    m_used = oracle._iteration_matrix(h)[0]
    mag = np.abs(m_used)
    norm_bound = np.minimum(mag.sum(axis=-2).max(axis=-1), mag.sum(axis=-1).max(axis=-1))
    rho = np.max(np.abs(np.linalg.eigvals(m_used)), axis=-1)
    radius = _partial_sums(h, 2)[2]
    assert (radius < 1.0).tolist() == (rho < 1.0).tolist()
    screened = norm_bound < 0.5
    assert radius[screened].tolist() == norm_bound[screened].tolist()
    assert np.all(rho[screened] <= radius[screened])
    assert radius[~screened].tolist() == rho[~screened].tolist()


def test_screened_pairs_fall_back_to_cond_on_a_zero_pivot(monkeypatch):
    """An exactly singular matrix stops the stack's LU solve in the condition
    gate: cond then decides every pair at the oracle's margin, and only the
    kept pairs are inverted, each to its own call's bytes."""
    ab = complex_gaussian(np.random.default_rng(2), (3, 2, 3, 3)) + 3.0 * np.eye(3)
    ab[1, 1] = 1.0
    seen = []
    real_cond = np.linalg.cond
    monkeypatch.setattr(np.linalg, "cond", lambda x: seen.append(len(x)) or real_cond(x))
    inv, _, _, rejected = _screened_inverse(ab, 100.0, oracle._COND_MARGIN)
    assert (~rejected).tolist() == [True, False, True]
    assert seen == [3]
    for i in (0, 2):
        assert inv[i].tobytes() == np.linalg.inv(ab[i]).tobytes()


def test_run_verification_screens_most_svds_and_eigenvalue_solves(monkeypatch):
    """At the defaults, np.linalg.cond sees at most 15% of the drawn pairs
    and np.linalg.eigvals at most 15% of the tail check's draws."""
    counts = dict.fromkeys(["drawn", "cond", "tail", "eigvals"], 0)

    def counting(key, fn, counted=lambda x: len(x)):
        def wrapped(x, *args):
            counts[key] += counted(x)
            return fn(x, *args)
        return wrapped

    monkeypatch.setattr(oracle, "_screened_inverse", counting("drawn", _screened_inverse))
    monkeypatch.setattr(oracle, "_partial_sums", counting("tail", oracle._partial_sums))
    monkeypatch.setattr(np.linalg, "cond", counting("cond", np.linalg.cond))
    monkeypatch.setattr(np.linalg, "eigvals", counting("eigvals", np.linalg.eigvals, lambda a: len(a) if a.ndim == 3 else 1))
    assert all(r.passed for r in run_verification())
    assert counts["drawn"] >= 1000 and counts["tail"] >= 400
    assert counts["cond"] <= 0.15 * counts["drawn"]
    assert counts["eigvals"] <= 0.15 * counts["tail"]


def test_resolvent_singular_input():
    singular = np.ones((3, 3), dtype=complex)
    fine = np.eye(3, dtype=complex)
    with pytest.raises(np.linalg.LinAlgError):
        resolvent_check(singular, fine)


def test_truncation_order_values():
    d = pairwise_distance(place_grid(3))
    assert truncation_order(d, 0.5).n0 == 2
    assert truncation_order(d, 0.5).gamma_min == pytest.approx(0.5)
    assert truncation_order(d, 0.6).n0 == 3  # ceil(1 / 0.4)
    assert truncation_order(d, 0.1).n0 == 2  # ceil(1 / 0.9); order never drops below 2


def test_truncation_order_errors():
    with pytest.raises(ValueError):
        truncation_order(np.zeros((1, 1)), 0.5)
    coincident = pairwise_distance(NodeLayout(np.zeros((2, 2))))
    with pytest.raises(ValueError):
        truncation_order(coincident, 0.5)
    with pytest.raises(ValueError):
        truncation_order(pairwise_distance(place_grid(2)), 1.0)


def test_term_matrix_order_zero_and_one():
    rng = np.random.default_rng(2)
    h = complex_gaussian(rng, (4, 4)) + 4.0 * np.eye(4)
    d = np.diagonal(h)
    c0 = neumann_term_matrix(h, 0)
    np.testing.assert_allclose(c0, np.diag(1.0 / d), atol=1e-14)
    c1 = neumann_term_matrix(h, 1)
    np.testing.assert_array_equal(np.diagonal(c1), np.zeros(4))
    for j in range(4):
        for i in range(4):
            if i != j:
                want = -h[j, i] / (d[j] * d[i])
                assert c1[j, i] == pytest.approx(want, rel=1e-12)
    with pytest.raises(ValueError):
        neumann_term_matrix(h, -1)


def test_partial_sum_diagonal_exact():
    h = np.diag(np.array([2.0, 1.0 + 1.0j, -3.0]))
    total, resid, radius = _partial_sums(h[None], 0)
    assert radius[0] < 1.0
    np.testing.assert_allclose(total[0], np.diag(1.0 / np.diagonal(h)), atol=1e-15)
    assert resid[0] < 1e-14


def test_partial_sum_monotone_residual():
    sigma = pathloss_matrix(interference_levels(pairwise_distance(place_grid(2)), 0.5), 1e6)
    h = np.stack([sigma * complex_gaussian(trial_rng(3, t, PURPOSE_CHANNEL), (4, 4)) for t in range(40)])
    expansions = [_partial_sums(h, n) for n in range(5)]
    conv = expansions[0][2] < 1.0
    resids = np.array([resid[conv] for _, resid, _ in expansions])
    assert np.all(resids[:-1] >= resids[1:] - 1e-12)
    assert conv.sum() >= 30


def test_partial_sum_radius_marks_divergence_and_zero_diagonal():
    """A divergent element's radius is at least 1; a zero diagonal entry
    leaves the expansion undefined, with a NaN radius and NaN sums."""
    h = np.array([[[1.0, 3.0], [3.0, 1.0]], [[0.0, 1.0], [1.0, 1.0]]], dtype=complex)
    total, resid, radius = _partial_sums(h, 4)
    assert radius[0] >= 1.0
    assert np.isnan(radius[1]) and np.isnan(resid[1]) and np.all(np.isnan(total[1]))


def test_stacked_frobenius_equals_norm_per_element():
    """The oracle's stacked Frobenius norms equal np.linalg.norm of each
    element byte for byte, on an empty stack too."""
    rng = np.random.default_rng(11)
    for n in (0, 1, 50):
        for k in range(1, 10):
            for scale in (1e-8, 1.0, 1e8):
                x = scale * complex_gaussian(rng, (n, k, k))
                got = oracle._frobenius(x)
                assert got.shape == (n,)
                assert got.tobytes() == np.array([np.linalg.norm(e) for e in x], dtype=float).tobytes(), (n, k, scale)


_P2 = [1e4, 1e6]


def _count_case(fn, name, low, **kwargs):
    return pytest.param(fn, kwargs, name, low, id=f"{fn.__name__}-{name}={kwargs[name]!r}")


@pytest.mark.parametrize(
    "fn, kwargs, name, low",
    [
        _count_case(run_verification, "trials", 1, trials=0),
        _count_case(run_verification, "trials", 1, trials=2.5),
        _count_case(run_verification, "seed", 0, seed=-1),
        _count_case(run_verification, "seed", 0, seed=True),
        _count_case(term_decay_check, "trials", 1, layout=_line(3), gamma=0.6, p_list=_P2, trials=0, n=1, seed=1),
        _count_case(term_decay_check, "n", 1, layout=_line(3), gamma=0.6, p_list=_P2, trials=5, n=2.5, seed=1),
        _count_case(inverse_decay_estimate, "trials", 1, layout=_line(3), gamma=0.6, p_list=_P2, trials=0, seed=1),
        _count_case(truncation_tail_check, "trials", 1, layout=place_grid(2), gamma=0.5, p=1e6, trials=0, seed=1),
        _count_case(resolvent_max_error, "size", 1, pairs=5, size=0, seed=1),
        _count_case(resolvent_max_error, "pairs", 1, pairs=-1, size=4, seed=1),
        _count_case(resolvent_max_error, "seed", 0, pairs=5, size=4, seed=-1),
    ],
)
def test_oracle_entry_points_check_their_counts(fn, kwargs, name, low):
    """A count that is not an integer at or above its floor (a bool is not a
    count) raises ValueError naming it, before any draw."""
    value = kwargs[name]
    with pytest.raises(ValueError, match=re.escape(f"{name} must be an integer >= {low}, got {value!r}")):
        fn(**kwargs)


def test_term_decay_two_nodes_first_order():
    layout = _line(2)
    p_list = [10.0 ** (db / 10.0) for db in (40, 50, 60, 70, 80)]
    chk = term_decay_check(layout, 0.6, p_list, 600, 1, seed=4)
    assert chk.passed
    off = ~np.eye(2, dtype=bool)
    np.testing.assert_allclose(chk.slopes[off], -0.4, atol=0.1)


def test_term_decay_on_shared_draws_equals_own_draws():
    """Draws handed in as unit give the slopes the check's own draws give;
    draws of another shape are refused."""
    layout = _line(3)
    p_list = [10.0 ** (db / 10.0) for db in (40, 60, 80)]
    unit = oracle._trial_draws(5, 60, 3)
    for n in (1, 2):
        own = term_decay_check(layout, 0.6, p_list, 60, n, seed=5)
        shared = term_decay_check(layout, 0.6, p_list, 60, n, seed=5, unit=unit)
        assert own.slopes.tobytes() == shared.slopes.tobytes()
    with pytest.raises(ValueError, match="unit draws must have shape"):
        term_decay_check(layout, 0.6, p_list, 61, 1, seed=5, unit=unit)


def test_term_decay_colinear_second_order():
    layout = _line(3)
    p_list = [10.0 ** (db / 10.0) for db in (40, 50, 60, 70, 80)]
    chk = term_decay_check(layout, 0.6, p_list, 600, 2, seed=5)
    assert chk.passed
    # ends of the line talk through the middle: two unit hops
    assert chk.slopes[0, 2] == pytest.approx(-0.8, abs=0.12)
    with pytest.raises(ValueError):
        term_decay_check(layout, 0.6, p_list, 10, 0, seed=5)


def test_inverse_decay_line_layout():
    layout = _line(4)
    p_list = [10.0 ** (db / 10.0) for db in (40, 50, 60, 70, 80)]
    chk = inverse_decay_estimate(layout, 0.6, p_list, 600, seed=6)
    assert chk.passed
    # direct links keep a P-independent median magnitude
    np.testing.assert_allclose(np.diagonal(chk.slopes), 0.0, atol=0.15)
    d = pairwise_distance(layout)
    off = ~np.eye(4, dtype=bool)
    assert np.all(chk.slopes[off] <= (0.6 - 1.0) * d[off] + 0.2)


def test_truncation_tail_within_bound():
    measured, bound = truncation_tail_check(place_grid(3), 0.5, 1e6, 200, seed=7)
    assert measured <= bound
    assert measured > 0.0


class _Divergent(Exception):
    """The one-trial expansion's iteration matrix has spectral radius >= 1."""


def _one_trial_expansion(h, n_max):
    """(order-n_max partial sum, its residual) of one channel, computed the
    way a single 2-D trial is: the reference the batched helpers reproduce."""
    d = np.diagonal(h)
    if np.any(d == 0):
        raise np.linalg.LinAlgError("zero diagonal entry")
    m = (np.diag(d) - h) / d[:, None]
    radius = float(np.max(np.abs(np.linalg.eigvals(m))))
    if radius >= 1.0:
        raise _Divergent(radius)
    term = np.diag(1.0 / d)
    total = term.copy()
    for _ in range(n_max):
        term = m @ term
        total += term
    return total, float(np.linalg.norm(total - np.linalg.inv(h)))


def _one_trial_term(h, n):
    d = np.diagonal(h)
    if np.any(d == 0):
        raise np.linalg.LinAlgError("zero diagonal entry")
    return np.linalg.matrix_power((np.diag(d) - h) / d[:, None], n) / d[None, :]


def _outcome(fn, *args):
    try:
        return fn(*args)
    except (_Divergent, np.linalg.LinAlgError) as exc:
        return type(exc)


@settings(max_examples=40, derandomize=True, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    k=st.integers(1, 9),
    kinds=st.lists(st.sampled_from(["convergent", "divergent", "zero_diagonal"]), min_size=1, max_size=4),
    n=st.integers(0, 4),
)
def test_batched_neumann_helpers_equal_stacked_single_calls(seed, k, kinds, n):
    """On a stack that mixes convergent, divergent and zero-diagonal elements,
    every element's term, partial sum and residual equal its one-trial
    computation byte for byte, and a failing element fails as it does alone."""
    rng = np.random.default_rng(seed)
    h = complex_gaussian(rng, (len(kinds), k, k))
    diag = np.diag_indices(k)
    for x, kind in zip(h, kinds):
        if kind == "convergent":
            x[diag] += 2.0 * k
        elif kind == "divergent":
            x[diag] *= 1e-3
        else:
            x[(rng.integers(k),) * 2] = 0.0
    sums = [_outcome(_one_trial_expansion, x, n) for x in h]
    terms = [_outcome(_one_trial_term, x, n) for x in h]

    total, resid, radius = _partial_sums(h, n)
    for i, want in enumerate(sums):
        if want is np.linalg.LinAlgError:
            assert np.isnan(radius[i])
        elif want is _Divergent:
            assert radius[i] >= 1.0
        else:
            assert radius[i] < 1.0
            assert total[i].tobytes() == want[0].tobytes()
            assert resid[i] == want[1]
            one_total, one_resid, one_radius = _partial_sums(h[i:i + 1], n)
            assert one_radius[0] < 1.0
            assert one_total[0].tobytes() == want[0].tobytes() and one_resid[0] == want[1]

    if any(w is np.linalg.LinAlgError for w in terms):
        with pytest.raises(np.linalg.LinAlgError):
            neumann_term_matrix(h, n)
    else:
        assert neumann_term_matrix(h, n).tobytes() == np.stack(terms).tobytes()
        for x, want in zip(h, terms):
            assert neumann_term_matrix(x, n).tobytes() == want.tobytes()


def test_lapack_failure_marks_only_its_element(monkeypatch):
    """When eigvals fails on a stack, the elements are redone one at a time:
    the failing one is undefined and the others keep their one-trial bytes.
    A diagonal of 4 leaves every element's norm bound above 1/2 (0.78 to
    1.09, spectral radii 0.39 to 0.50), so all three reach eigvals."""
    real_eigvals = np.linalg.eigvals
    stacks = []

    def eigvals_failing_on_zero_corner(a):
        stacks.append(a.shape)
        if np.any(a[..., 0, 1] == 0):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        return real_eigvals(a)

    h = complex_gaussian(np.random.default_rng(8), (3, 4, 4)) + 4.0 * np.eye(4)
    h[1, 0, 1] = 0.0
    want = [_one_trial_expansion(x, 2) for x in h]
    monkeypatch.setattr(np.linalg, "eigvals", eigvals_failing_on_zero_corner)
    total, resid, radius = _partial_sums(h, 2)
    assert stacks[0] == (3, 4, 4)
    assert np.isnan(radius[1])
    for i in (0, 2):
        assert total[i].tobytes() == want[i][0].tobytes()
        assert resid[i] == want[i][1]


def _counting_trial_streams(monkeypatch):
    """Replace oracle._trial_streams with a wrapper that records each pass's
    cells and each cell as it is drawn. Returns (passes, draws)."""
    passes, draws = [], []

    def counting(seed, trials, purpose):
        passes.append([(seed, t, purpose) for t in trials])
        for t, rng in zip(trials, _trial_streams(seed, trials, purpose)):
            draws.append((seed, t, purpose))
            yield rng

    monkeypatch.setattr(oracle, "_trial_streams", counting)
    return passes, draws


def _one_trial_tail(layout, gamma, p, seed, draws):
    """Squared residuals and squared next-term norms of the convergent draws
    among the first `draws` trials, one draw and one expansion at a time."""
    dist = pairwise_distance(layout)
    n0 = truncation_order(dist, gamma).n0
    sigma = pathloss_matrix(interference_levels(dist, gamma), p)
    resid_sq, next_sq = [], []
    for t in range(draws):
        h = draw_channel(sigma, trial_rng(seed, t, PURPOSE_CHANNEL)).H
        try:
            _, resid = _one_trial_expansion(h, n0)
        except (_Divergent, np.linalg.LinAlgError):
            continue
        resid_sq.append(resid**2)
        next_sq.append(np.linalg.norm(_one_trial_term(h, n0 + 1)) ** 2)
    return resid_sq, next_sq


def test_truncation_tail_replaces_divergent_draws(monkeypatch):
    """At 10 dB a few draws of the two-node line diverge: each is skipped and
    the next trial drawn, and the medians are those of the first 40
    convergent draws in trial order."""
    passes, draws = _counting_trial_streams(monkeypatch)
    measured, bound = truncation_tail_check(_line(2), 0.5, 10.0, 40, seed=3)
    resid_sq, next_sq = _one_trial_tail(_line(2), 0.5, 10.0, 3, len(draws))
    assert passes == [[(3, t, PURPOSE_CHANNEL) for t in range(60)]]
    assert len(draws) > 40
    assert len(resid_sq) == 40
    assert draws == passes[0][: len(draws)]
    assert measured == float(np.median(resid_sq))
    assert bound == float(10.0 * float(np.median(next_sq)))


@pytest.mark.parametrize("trials, budget", [(40, 60), (300, 330)])
def test_truncation_tail_reports_the_draws_it_attempted(monkeypatch, trials, budget):
    """Too many divergent draws raise after trials + max(20, trials // 10)
    attempts, and the message counts both the convergent and the attempted
    draws."""
    passes, draws = _counting_trial_streams(monkeypatch)
    convergent = len(_one_trial_tail(place_grid(3), 0.5, 30.0, 3, budget)[0])
    assert convergent < trials
    with pytest.raises(RuntimeError, match=rf"^only {convergent} convergent draws out of {budget}$"):
        truncation_tail_check(place_grid(3), 0.5, 30.0, trials, seed=3)
    assert passes == [[(3, t, PURPOSE_CHANNEL) for t in range(budget)]]
    assert draws == passes[0]


@settings(max_examples=50, derandomize=True, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    k=st.integers(1, 10),
    side=st.floats(0.1, 10.0),
    gamma=st.floats(0.0, 1.0, exclude_min=True),
)
def test_proof_exponent_table_matches_policy(seed, k, side, gamma):
    """The case-by-case bookkeeping reproduces the policy's exponent tensor
    exactly on any layout."""
    d = pairwise_distance(place_uniform_random(k, side, np.random.default_rng(seed)))
    np.testing.assert_array_equal(proof_exponent_table(d, gamma), distance_exponents(d, gamma))


def test_proof_exponent_special_cases():
    layout = _line(4)
    d = pairwise_distance(layout)
    table = proof_exponent_table(d, 0.6)
    for j in range(4):
        assert table[j, j, j] == 1.0
    # distance sum 3 at gamma 0.6 clamps to zero
    assert table[0, 0, 3] == 0.0
    assert table[0, 3, 3] == 0.0


def test_path_sums_dominate_direct_distance():
    """Any multi-hop path between two nodes is at least as long as the
    two-hop bookkeeping the allocation charges for the pair."""
    rng = np.random.default_rng(9)
    layout = place_uniform_random(8, 5.0, rng)
    d = pairwise_distance(layout)
    for _ in range(300):
        n_hops = rng.integers(3, 6)
        nodes = rng.integers(0, 8, size=n_hops + 1)
        path_len = sum(d[a, b] for a, b in zip(nodes, nodes[1:]))
        j, i = nodes[0], nodes[-1]
        best_charged = min(d[j, k] + d[k, i] for k in range(8))
        assert path_len >= best_charged - 1e-9


def test_run_verification_all_pass():
    results = run_verification(seed=7, trials=250)
    names = [r.name for r in results]
    assert len(names) == len(set(names)) == 7
    for r in results:
        assert r.passed, f"{r.name}: measured {r.measured} vs bound {r.bound}"


def test_run_verification_draws_each_trial_once_per_check(monkeypatch):
    """Each Monte-Carlo layout's trials are drawn once and scaled per SNR
    point. The colinear triple's 200 trials serve both term decay checks and
    the zero-diagonal check; the tail check and the inverse decay check draw
    200 each (none of the tail's diverges at seed 7). Drawing per SNR point
    took 3 * 5 * 200 + 200 + 200 = 3400, drawing per check 1000. Each draw
    derives its streams in one pass, the tail check for its budget of
    200 + 20 draws."""
    passes, draws = _counting_trial_streams(monkeypatch)
    run_verification(seed=7, trials=200)
    assert len(draws) == 600
    assert [len(p) for p in passes] == [200, 220, 200]


def test_run_verification_keeps_no_state_between_calls():
    first = run_verification(seed=7, trials=120)
    run_verification(seed=1, trials=120)
    assert repr(run_verification(seed=7, trials=120)) == repr(first)
