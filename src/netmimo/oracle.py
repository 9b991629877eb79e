"""Numerical verification of the asymptotics behind the allocation formulas.

Four independent cross-checks back the distance-based policy: the resolvent
identity used to bound precoder deviations, the diagonal-anchored Neumann
expansion of the channel inverse, the distance-driven decay of the inverse's
off-diagonal entries, and the case-by-case exponent bookkeeping that must
reproduce the policy formula entry by entry.

The Monte-Carlo checks draw each trial's unit-variance channel once, through
channel.py's draw path, and scale it by the link standard deviations of
every SNR point; the inverses, powers, eigenvalues and condition numbers
then run on stacks of trials of at most _STACK_BYTES each (of pairs, twice
that). Every Monte-Carlo layout of run_verification draws trial t from the
same stream, so one stream pass per call serves them all, and each stream
is drawn once: by channel.py's prefix contract, the first 2k^2 normals of a
stream are its (k, k) draw, so the tail check's 9-node draws also hold the
first 32 normals that the 3- and 4-node lines' draws of that trial take.
Every result is bit-identical to drawing and solving one trial at a time:
each unit draw is the complex_gaussian draw that draw_channel scales by
sigma, each LAPACK and BLAS call sees the same matrix, and each stack's
Frobenius norms take the dot products np.linalg.norm takes, in one call per
stack. The expansion has one entry, _partial_sums, which gives a stack's
partial sums, residuals and convergence radii.

Two cheap norm bounds settle most of the decisions that would otherwise
take an SVD or an eigenvalue solve, and every decision comes out as the
LAPACK call would make it. The resolvent check screens each stack of pairs
through the engine's condition gate, precoding._screened_inverse, with its
own margin: a pair is kept without np.linalg.cond when both its matrices
have kappa_F = ||A||_F ||A^-1||_F a safe margin below the limit (kappa_2 <=
kappa_F), and cond runs only on the pairs this screen misses, about one in
eight at the default limit. The expansion's convergence test reads
min(||M||_1, ||M||_inf) >= rho(M) first and runs np.linalg.eigvals only
where that bound is not below 1/2, on about a tenth of the tail check's
draws.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .allocation import distance_exponents
from .channel import PURPOSE_CHANNEL, _normal_draws, _trial_median, _trial_streams, _unit_draws, _unit_stack
from .channel import pathloss_matrix
from .precoding import _screened_inverse
from .topology import NodeLayout, _check_cond_limit, _check_counts, _check_gamma, _check_slope_points
from .topology import interference_levels, pairwise_distance

__all__ = [
    "TruncationOrder",
    "DecayCheck",
    "CheckResult",
    "truncation_order",
    "resolvent_check",
    "resolvent_max_error",
    "neumann_term_matrix",
    "term_decay_check",
    "inverse_decay_estimate",
    "truncation_tail_check",
    "proof_exponent_table",
    "run_verification",
]


# One (n, K, K) complex stack of trials stays under this many bytes, so the
# working set does not grow with the trials. It is small because a partial
# sum keeps about ten such stacks alive at once. A resolvent stack holds
# _stack_len pairs, twice this. On 1,000 8x8 pairs, 16 pairs a stack took
# 27.4 ms, 32 took 24.6 ms and 64 took 23.8 ms (2-core Xeon); over 16, 64
# raised the check's peak RSS by 0.55 MB and 32 by 0.16 MB, which replacing
# each stack by its kept pairs wins back.
_STACK_BYTES = 1 << 15

# The tail check replaces divergent draws from a spare budget of one draw per
# _TAIL_TRIALS_PER_SPARE trials, and never fewer than _TAIL_MIN_SPARE draws.
_TAIL_TRIALS_PER_SPARE = 10
_TAIL_MIN_SPARE = 20

# The resolvent check keeps a pair unseen by the SVD when both its computed
# kappa_F lie below cond_limit / _COND_MARGIN. The inverse that kappa_F is read
# from and the singular values behind np.linalg.cond both carry a relative
# error of about n kappa eps (n the size, eps = 2.2e-16); under the gate's cap
# of 1e10 and at n = 8 that is below 2e-5, so true and computed kappa_2 sit within
# 1.00002 of each other and of their bounds, and a 1% margin leaves room for
# the constants and pivot growth. Wider margins cost SVDs: on 1,000 8x8 pairs
# at cond_limit 100, a margin of 4 clears 9.4% of pairs and 1.01 clears 90.6%.
_COND_MARGIN = 1.01

# run_verification's SNR points in dB; the slack each decay check allows a
# fitted slope above its bound; and how many times the median squared size of
# the first omitted term the tail check lets the median squared residual be.
_SNR_DB = (40.0, 50.0, 60.0, 70.0, 80.0)
_SLOPE_MARGIN = 0.2
_TAIL_FACTOR = 10.0

# An iteration matrix whose computed min(||M||_1, ||M||_inf) is below this
# converges without an eigenvalue solve: rho(M) is at most that bound, and the
# eigenvalues LAPACK would compute (exact for M plus a perturbation of norm
# about n eps ||M||) stay far below 1 too.
_RADIUS_SCREEN = 0.5


def _stack_len(k: int) -> int:
    """Complex (k, k) matrices per stack."""
    return max(1, _STACK_BYTES // (16 * k * k))


def _frobenius(x: np.ndarray) -> np.ndarray:
    """np.linalg.norm of each element of a complex (n, K, K) stack, bit for
    bit: the same strided real and imaginary dot products, one matmul each
    for the whole stack."""
    n, k = len(x), x.shape[-1]
    flat = x.reshape(n, k * k)  # not (n, -1): an empty stack has no -1
    re, im = flat.real, flat.imag
    return np.sqrt((re[:, None, :] @ re[:, :, None] + im[:, None, :] @ im[:, :, None]).reshape(n))


@dataclass(frozen=True)
class TruncationOrder:
    """Smallest expansion order whose tail is asymptotically negligible.

    gamma_min is the interference level of the strongest cross link; the
    expansion can be cut at n0 = ceil(1 / (1 - gamma_min)) terms.
    """

    gamma_min: float
    n0: int


@dataclass(frozen=True)
class DecayCheck:
    """Per-pair log-log slopes of a Monte-Carlo decay experiment.

    slopes[j, i] is the fitted slope of the median squared magnitude against
    log2(P); NaN marks pairs whose medians are identically zero. passed is
    True when every defined slope stays below its bound.
    """

    slopes: np.ndarray
    bounds: np.ndarray
    passed: bool


@dataclass(frozen=True)
class CheckResult:
    name: str
    measured: float
    bound: float
    passed: bool
    note: str = ""


def truncation_order(distances: np.ndarray, gamma: float) -> TruncationOrder:
    _check_gamma(gamma)
    d = np.asarray(distances, dtype=float)
    k = d.shape[0]
    if k < 2:
        raise ValueError("need at least two nodes to define a cross link")
    off = d[~np.eye(k, dtype=bool)]
    d_min = float(off.min())
    if d_min <= 0.0:
        raise ValueError("coincident nodes leave a cross link as strong as a direct one")
    gamma_min = 1.0 + (gamma - 1.0) * d_min
    if gamma_min >= 1.0:
        raise ValueError(f"no finite truncation order at gamma = {gamma}: gamma_min = {gamma_min} is not below 1")
    return TruncationOrder(gamma_min=gamma_min, n0=max(int(np.ceil(1.0 / (1.0 - gamma_min))), 1))


def _resolvent_error(a, b, a_inv, b_inv) -> float:
    err = a_inv - b_inv - b_inv @ (b - a) @ a_inv
    return float(np.max(np.abs(err)))


def resolvent_check(a: np.ndarray, b: np.ndarray) -> float:
    """Max entrywise error of inv(a) - inv(b) = inv(b) (b - a) inv(a).

    a and b may be (n, K, K) stacks of pairs; the max then runs over all n.
    """
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    return _resolvent_error(a, b, np.linalg.inv(a), np.linalg.inv(b))


def resolvent_max_error(
    pairs: int, size: int, seed: int, cond_limit: float = 100.0
) -> float:
    """Worst resolvent_check over random well-conditioned complex pairs.

    Pairs (a, b) are drawn one matrix after another from one generator; a
    pair is rejected when cond(a) or cond(b) is non-finite or above
    cond_limit. The draws, the condition gate (precoding._screened_inverse at
    margin _COND_MARGIN) and the check run on stacks of pairs; the kept
    pairs' errors come from the inverses the gate formed, bit for bit what
    resolvent_check computes, and a stack whose pairs are all rejected adds
    nothing. No matrix has a condition number below 1, so a cond_limit below
    1, infinite or NaN raises ValueError; drawing 100 * pairs pairs without
    keeping enough raises RuntimeError. pairs and size must be integers >= 1
    and seed an integer >= 0.
    """
    _check_counts(("pairs", pairs, 1), ("size", size, 1), ("seed", seed, 0))
    _check_cond_limit("cond_limit", cond_limit)
    rng = np.random.default_rng(seed)
    worst = 0.0
    done = drawn = 0
    while done < pairs:
        if drawn >= 100 * pairs:
            raise RuntimeError(f"kept {done} of {pairs} pairs after drawing {drawn} at cond_limit {cond_limit}")
        n = min(_stack_len(size), pairs - done)
        drawn += n
        # One draw per stack, in the order of complex_gaussian calls on a, then
        # b, of each pair: one row of 2 size^2 normals per matrix.
        ab = _unit_stack(rng.standard_normal((2 * n, 2 * size * size)), size).reshape(n, 2, size, size)
        inv, _, _, rejected = _screened_inverse(ab, cond_limit, _COND_MARGIN)
        if rejected.any():  # the kept pairs replace the stack, so that it is not held beside them
            ab, inv = ab[~rejected], inv[~rejected]
        if len(ab):
            worst = max(worst, _resolvent_error(ab[:, 0], ab[:, 1], inv[:, 0], inv[:, 1]))
        done += len(ab)
    return worst


def _diag_embed(d: np.ndarray) -> np.ndarray:
    """np.diag(d) for every vector of a (..., K) stack."""
    out = np.zeros(d.shape + d.shape[-1:], dtype=d.dtype)
    i = np.arange(d.shape[-1])
    out[..., i, i] = d
    return out


def _iteration_matrix(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Dinv (D - h) and the diagonal D of h, or of every element of a stack."""
    h = np.asarray(h, dtype=complex)
    d = np.diagonal(h, axis1=-2, axis2=-1)
    if np.any(d == 0):
        raise np.linalg.LinAlgError("zero diagonal entry, expansion undefined")
    return (_diag_embed(d) - h) / d[..., :, None], d


def neumann_term_matrix(h: np.ndarray, n: int) -> np.ndarray:
    """All (j, i) entries of the order-n expansion term of inv(h).

    Term n is (Dinv (D - h))^n Dinv with D = diag(h); order 0 is Dinv itself
    and every term with n >= 1 has an exactly zero diagonal at n = 1. h may
    carry leading batch axes; each element's term equals its own call.
    """
    _check_counts(("n", n, 0))
    m, d = _iteration_matrix(h)
    return np.linalg.matrix_power(m, n) / d[..., None, :]


def _each_on_failure(fn, stack: np.ndarray, fill) -> np.ndarray:
    """fn on a stack; if LAPACK fails on it, fn on one element at a time, with
    fill for each element it fails on."""
    try:
        return fn(stack)
    except np.linalg.LinAlgError:
        out = []
        for x in stack:
            try:
                out.append(fn(x))
            except np.linalg.LinAlgError:
                out.append(fill)
        return np.array(out).reshape(len(stack), *np.shape(fill))


def _partial_sums(h: np.ndarray, n_max: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Expansion of every element of an (n, K, K) complex stack up to order n_max.

    Returns the partial sums, their Frobenius residuals against the inverse,
    and a radius per element that is below 1 exactly where the spectral
    radius of the iteration matrix M is. Where min(||M||_1, ||M||_inf) is
    below _RADIUS_SCREEN the radius is that bound, an upper bound on the
    spectral radius; elsewhere it is the spectral radius from
    np.linalg.eigvals, run once on those elements only. The radius is NaN
    where the expansion is undefined: a zero diagonal entry, or a LAPACK
    failure on that element. Only the sums and residuals of elements whose
    radius is below 1 are meaningful.
    """
    n, k = h.shape[0], h.shape[-1]
    radius = np.full(n, np.nan)
    total = np.full(h.shape, np.nan, dtype=complex)
    resid = np.full(n, np.nan)
    defined = np.flatnonzero(np.all(np.diagonal(h, axis1=-2, axis2=-1) != 0, axis=-1))
    m, d = _iteration_matrix(h[defined])
    mag = np.abs(m)
    rho = np.minimum(mag.sum(axis=-2).max(axis=-1), mag.sum(axis=-1).max(axis=-1))  # >= spectral radius
    solve = ~(rho < _RADIUS_SCREEN)  # NaN included
    rho[solve] = _each_on_failure(
        lambda x: np.max(np.abs(np.linalg.eigvals(x)), axis=-1), m[solve], np.nan
    )
    radius[defined] = rho
    conv = radius[defined] < 1.0
    ok, m, d = defined[conv], m[conv], d[conv]
    term = _diag_embed(1.0 / d)
    sums = term.copy()
    for _ in range(n_max):
        term = m @ term
        sums += term
    inv = _each_on_failure(np.linalg.inv, h[ok], np.full((k, k), np.nan))
    radius[ok[np.all(np.isnan(inv), axis=(-2, -1))]] = np.nan
    total[ok] = sums
    resid[ok] = _frobenius(sums - inv)
    return total, resid, radius


def _trial_draws(seed: int, trials: int, k: int) -> np.ndarray:
    """Unit-variance (trials, k, k) channel draws of trials 0, 1, ..., trials - 1."""
    return _unit_draws(_trial_streams(seed, range(trials), PURPOSE_CHANNEL), np.empty((trials, k, k), dtype=complex))


def _median_decay_slopes(layout: NodeLayout, gamma: float, p_list, unit: np.ndarray, entry_fn) -> np.ndarray:
    """Medians of |entry_fn(h)|^2 per link across trials, slope vs log2(P).

    unit holds every trial's unit-variance channel draw, and entry_fn takes a
    stack of channels. Every SNR point scales the same draws, so each trial is
    drawn once.
    """
    k = layout.K
    dist = pairwise_distance(layout)
    p_arr = [float(p) for p in p_list]
    x = _check_slope_points("p_list", p_arr, p_arr)
    trials = len(unit)
    step = _stack_len(k)
    meds = np.empty((len(p_arr), k, k))
    acc = np.empty((trials, k, k))
    for pi, p in enumerate(p_arr):
        sigma = pathloss_matrix(interference_levels(dist, gamma), p)
        for s in range(0, trials, step):
            acc[s:s + step] = np.abs(entry_fn(sigma * unit[s:s + step])) ** 2
        meds[pi] = _trial_median(acc)
    slopes = np.full((k, k), np.nan)
    valid = np.all(meds > 0, axis=0)
    if np.any(valid):
        y = np.log2(meds[:, valid])
        slopes[valid] = np.polyfit(x, y.reshape(len(p_arr), -1), 1)[0]
    return slopes


def term_decay_check(
    layout: NodeLayout,
    gamma: float,
    p_list,
    trials: int,
    n: int,
    seed: int,
    *,
    unit: np.ndarray | None = None,
) -> DecayCheck:
    """Median |term_n[j, i]|^2 must decay at least like P^((gamma_min - 1) n).

    Pairs whose medians vanish identically (the diagonal at n = 1) are
    excluded from the fit. unit, if given, holds the (trials, K, K) unit
    draws of trials 0..trials-1 at seed, so that checks on one layout can
    share one set of draws. trials and n must be integers >= 1 and seed an
    integer >= 0.
    """
    _check_counts(("trials", trials, 1), ("n", n, 1), ("seed", seed, 0))
    if unit is None:
        unit = _trial_draws(seed, trials, layout.K)
    elif unit.shape != (trials, layout.K, layout.K):
        raise ValueError(f"unit draws must have shape {(trials, layout.K, layout.K)}, got {unit.shape}")
    slopes = _median_decay_slopes(layout, gamma, p_list, unit, lambda h: neumann_term_matrix(h, n))
    order = truncation_order(pairwise_distance(layout), gamma)
    bounds = np.full_like(slopes, (order.gamma_min - 1.0) * n + _SLOPE_MARGIN)
    valid = ~np.isnan(slopes)
    return DecayCheck(slopes=slopes, bounds=bounds, passed=bool(np.all(slopes[valid] <= bounds[valid])))


def inverse_decay_estimate(layout: NodeLayout, gamma: float, p_list, trials: int, seed: int) -> DecayCheck:
    """Median |inv(h)[j, i]|^2 must decay at least like P^((gamma - 1) dist(i, j)).

    trials must be an integer >= 1 and seed an integer >= 0.
    """
    _check_counts(("trials", trials, 1), ("seed", seed, 0))
    return _inverse_decay(layout, gamma, p_list, _trial_draws(seed, trials, layout.K))


def _inverse_decay(layout: NodeLayout, gamma: float, p_list, unit: np.ndarray) -> DecayCheck:
    """inverse_decay_estimate on the (trials, K, K) unit draws of trials 0..trials-1."""
    slopes = _median_decay_slopes(layout, gamma, p_list, unit, np.linalg.inv)
    bounds = (gamma - 1.0) * pairwise_distance(layout) + _SLOPE_MARGIN
    valid = ~np.isnan(slopes)
    return DecayCheck(slopes=slopes, bounds=bounds, passed=bool(np.all(slopes[valid] <= bounds[valid])))


def truncation_tail_check(layout: NodeLayout, gamma: float, p: float, trials: int, seed: int) -> tuple[float, float]:
    """Median squared residual of the n0-truncated expansion vs its tail bound.

    The tail past order n0 is dominated by the first omitted term, the object
    that carries the P^((gamma_min - 1)(n0 + 1)) scaling (term_decay_check
    pins the exponent itself). The residual must stay within _TAIL_FACTOR of
    the median squared Frobenius size of that term. Returns (measured median,
    _TAIL_FACTOR * prediction); divergent draws are skipped and replaced, up
    to _TAIL_MIN_SPARE or one per _TAIL_TRIALS_PER_SPARE trials, whichever is
    more. The whole budget's streams are derived in one pass; draws are made
    and expanded in stacks, in trial order. trials must be an integer >= 1
    and seed an integer >= 0.
    """
    _check_counts(("trials", trials, 1), ("seed", seed, 0))
    streams = _trial_streams(seed, range(_tail_budget(trials)), PURPOSE_CHANNEL)
    measured, bound, _ = _tail_medians(layout, gamma, p, trials, streams, np.empty((0, 0)))
    return measured, bound


def _tail_budget(trials: int) -> int:
    """The draws the tail check may make to find trials convergent ones."""
    return trials + max(_TAIL_MIN_SPARE, trials // _TAIL_TRIALS_PER_SPARE)


def _tail_medians(
    layout: NodeLayout, gamma: float, p: float, trials: int, streams, prefixes: np.ndarray
) -> tuple[float, float, int]:
    """truncation_tail_check's (measured, bound) on the draws of streams,
    which yields the cells of trials 0, 1, ..., in order, and the number of
    draws made. Each draw takes the first 2K^2 normals of its stream, whose
    first prefixes.shape[1] go to that trial's row of prefixes, if it has
    one.
    """
    dist = pairwise_distance(layout)
    order = truncation_order(dist, gamma)
    sigma = pathloss_matrix(interference_levels(dist, gamma), p)
    k = layout.K
    resid_sq = []
    next_term_sq = []
    t = 0
    budget = _tail_budget(trials)
    while len(resid_sq) < trials and t < budget:
        n = min(_stack_len(k), trials - len(resid_sq), budget - t)
        normals = _normal_draws(streams, np.empty((n, 2 * k * k)))
        rows = prefixes[t:t + n]
        rows[:] = normals[:len(rows), :prefixes.shape[1]]
        h = sigma * _unit_stack(normals, k)
        t += n
        _, resid, radius = _partial_sums(h, order.n0)
        ok = radius < 1.0
        # Scalar squares, formed by libm's pow: an array's ** 2 multiplies, and
        # x * x differs from pow(x, 2) in the last bit for 66 of the 80,000
        # residuals of seeds 1-200 at this check's verify settings.
        resid_sq += [float(r) ** 2 for r in resid[ok]]
        next_term_sq += [x ** 2 for x in _frobenius(neumann_term_matrix(h[ok], order.n0 + 1))]
    if len(resid_sq) < trials:
        raise RuntimeError(f"only {len(resid_sq)} convergent draws out of {t}")
    predicted = float(_trial_median(next_term_sq))
    return float(_trial_median(resid_sq)), float(_TAIL_FACTOR * predicted), t


def proof_exponent_table(distances: np.ndarray, gamma: float) -> np.ndarray:
    """Exponents required by the case-by-case deviation bound, per (j, k, i).

    Cases: a TX's own direct link needs a full exponent of 1; links that share
    an index with the pair (j, i) need [1 + (gamma - 1) dist(i, j)]+; generic
    links need [1 + (gamma - 1)(dist(j, k) + dist(k, i))]+. The table must
    reproduce the distance policy's exponent tensor exactly.
    """
    d = np.asarray(distances, dtype=float)
    k = d.shape[0]
    table = np.empty((k, k, k))
    for j in range(k):
        for kk in range(k):
            for i in range(k):
                if j == kk == i:
                    e = 1.0
                elif kk == i or kk == j:
                    e = 1.0 + (gamma - 1.0) * d[i, j]
                else:
                    e = 1.0 + (gamma - 1.0) * (d[j, kk] + d[kk, i])
                table[j, kk, i] = max(e, 0.0)
    return table


# ---------------------------------------------------------------------------
# verification suite
# ---------------------------------------------------------------------------

def _line_layout(n: int) -> NodeLayout:
    return NodeLayout(np.column_stack([np.arange(n, dtype=float), np.zeros(n)]))


def run_verification(seed: int = 7, trials: int = 800) -> list[CheckResult]:
    """Run the full numerical verification suite and return one row per check.

    seed must be an integer >= 0 and trials an integer >= 1.
    """
    from .topology import place_grid  # looked up per call: perfbench/spans.py wraps topology.place_grid to time it

    _check_counts(("seed", seed, 0), ("trials", trials, 1))
    results: list[CheckResult] = []
    p_list = [10.0 ** (db / 10.0) for db in _SNR_DB]

    worst = resolvent_max_error(pairs=1000, size=8, seed=seed)
    results.append(
        CheckResult("resolvent_identity", worst, 1e-10, worst < 1e-10, "1000 pairs, 8x8")
    )

    # The tail check runs first, on the 3x3 grid: its draws take the first
    # 162 normals of each trial it reaches, made and dropped stack by stack,
    # and keep the first 32 in prefixes. The trials it did not reach draw
    # those 32 alone, and the colinear triple's and the 4-node line's draws
    # are assembled from prefixes. It and the pass (its cells' derived
    # words) are then dropped, so that no more than the two stacks is held.
    line3, line4, grid3 = _line_layout(3), _line_layout(4), place_grid(3)
    tail_trials = min(trials, 400)
    streams = _trial_streams(seed, range(max(trials, _tail_budget(tail_trials))), PURPOSE_CHANNEL)
    prefixes = np.empty((trials, 2 * line4.K ** 2))
    tail_measured, tail_bound, drawn = _tail_medians(grid3, 0.5, 10.0**6.0, tail_trials, streams, prefixes)
    _normal_draws(streams, prefixes[drawn:])
    unit3, unit4 = _unit_stack(prefixes, line3.K), _unit_stack(prefixes, line4.K)
    del prefixes, streams

    gamma = 0.6
    order = truncation_order(pairwise_distance(line3), gamma)
    # Both decay orders and the zero-diagonal check run on the same trials of
    # the colinear triple.
    for n in (1, 2):
        chk = term_decay_check(line3, gamma, p_list, trials, n, seed, unit=unit3)
        valid = ~np.isnan(chk.slopes)
        measured = float(chk.slopes[valid].max())
        bound = float(chk.bounds[0, 0])
        results.append(
            CheckResult(
                f"term_decay_n{n}",
                measured,
                bound,
                chk.passed,
                f"colinear triple, gamma_min {order.gamma_min:g}",
            )
        )

    sigma = pathloss_matrix(interference_levels(pairwise_distance(line3), gamma), p_list[0])
    h = sigma * unit3[:200]  # 29 KB at most
    diag = np.abs(np.diagonal(neumann_term_matrix(h, 1), axis1=-2, axis2=-1))
    diag_max = max([0.0, *np.max(diag, axis=-1).tolist()])
    results.append(
        CheckResult("term_n1_zero_diagonal", diag_max, 0.0, diag_max == 0.0, "exact zeros")
    )

    results.append(
        CheckResult("truncation_tail", tail_measured, tail_bound, tail_measured <= tail_bound, "3x3 grid, 60 dB")
    )

    chk = _inverse_decay(line4, gamma, p_list, unit4)
    valid = ~np.isnan(chk.slopes)
    excess = float(np.max(chk.slopes[valid] - chk.bounds[valid]))
    results.append(
        CheckResult("inverse_decay", excess, 0.0, chk.passed, "4-node line, worst slope excess")
    )

    rng = np.random.default_rng(seed)
    layout = NodeLayout(rng.uniform(0.0, 6.0, size=(10, 2)))
    dist = pairwise_distance(layout)
    gap = float(np.max(np.abs(proof_exponent_table(dist, 0.7) - distance_exponents(dist, 0.7))))
    results.append(
        CheckResult("proof_exponent_table", gap, 1e-12, gap <= 1e-12, "random 10-node layout")
    )

    return results
