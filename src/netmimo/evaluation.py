"""Monte-Carlo evaluation: per-trial rates, one RatePoint per policy and SNR
point (ergodic rates and precoder-deviation statistics), curves as lists of
those points, and high-SNR slope fits.

All policies in a run are evaluated on coupled draws: trial t uses one
channel draw and one estimation-noise tensor, each policy scaling the same
noise by its own bit counts. A trial is accepted only if the true channel and
every policy's estimates pass the conditioning threshold, and rejected trials
are replaced by fresh trial indices and counted.

Trials run in chunks: each trial is drawn from its own substreams through
channel.py's draw path (one stream pass per purpose and call, from which
each chunk fills its stacks), and the channel, precoding and rate kernels
run once per chunk over a leading trial axis, one policy at a time. A trial's streams do not depend on
the SNR, so an engine call covers several SNR points at once: it draws a
chunk's unit channels and noise once, and every point of the call scales its
own rows of them by its own sigma and runs the kernels on them. The chunk
size is capped by the bytes of one policy's estimate stack, so it shrinks as
K grows (24 trials at K = 8, 3 at K = 16, one from K = 19 up). Each call
holds one workspace for its chunks' noise, estimate and squared-magnitude
stacks, which the kernels write into instead of allocating them per chunk,
point and policy. Each (chunk, point) solves each of its trials once per
policy: the precoding core returns a rejected mask instead of raising, and
a trial rejected by one solve records its kappa_2 and is dropped from the
later ones. A kernel call over a batch equals the calls on its elements bit
for bit, so per-trial results depend only on (seed, trial index, SNR
point): neither the chunking, the sharing of draws nor worker scheduling
can change any output. A sweep builds one engine before it
forks: every SNR point's sigma and allocation tables are built there, once,
and an engine call builds nothing. Each round (the first trials of every
point, then the top-ups of the points still short) gives each running point
its next index range and draws their sorted union, each index once for
every point whose range holds it. With one worker a round is one engine
call; with more, the sweep forks one pool of at most one worker per task
of its first round, whose workers inherit the engine, and sends each round
as one queue of (ranges, index block) tasks that carry only indices. The
pool is reaped before the sweep returns or raises.
"""

from __future__ import annotations

import math
import multiprocessing
from contextlib import contextmanager
from dataclasses import dataclass
from functools import partial

import numpy as np

from .allocation import PolicySpec, build_allocation, cluster_fit
from .channel import (
    PURPOSE_CHANNEL,
    PURPOSE_ESTIMATE,
    ChannelRealization,
    _trial_median,
    _trial_streams,
    _unit_draws,
    apply_estimate_noise,
    pathloss_matrix,
)
from .precoding import DEFAULT_COND_THRESHOLD, _precode
from .topology import NodeLayout, _check_cond_limit, _check_counts, _check_distinct, _check_gamma, _check_slope_points
from .topology import _check_snr, data_sharing_sets, interference_levels, pairwise_distance

__all__ = [
    "RejectionRateError",
    "RateSample",
    "RatePoint",
    "DofEstimate",
    "PointResult",
    "instantaneous_rates",
    "evaluate_point",
    "evaluate_curves",
    "dof_slope",
    "db_to_linear",
]

LN2 = float(np.log(2.0))
DEFAULT_MAX_REJECTION_RATE = 0.01


def db_to_linear(snr_db: float) -> float:
    """10^(snr_db/10), and inf where a float past 10^308 would overflow.

    A numpy scalar is read as a Python float first, so it neither warns on
    overflow nor loses precision to float32 arithmetic.
    """
    try:
        return 10.0 ** (float(snr_db) / 10.0)
    except OverflowError:
        return math.inf


class RejectionRateError(RuntimeError):
    """Too many trials were rejected for ill conditioning."""

    def __init__(self, rejected: int, attempted: int, max_rate: float, cond_stats: str):
        super().__init__(
            f"{rejected} of {attempted} trials rejected "
            f"(limit {max_rate:.2%}); condition stats: {cond_stats}"
        )
        self.rejected = int(rejected)
        self.attempted = int(attempted)


@dataclass(frozen=True)
class RateSample:
    """Per-user rates of one realization."""

    rates: np.ndarray


@dataclass(frozen=True)
class RatePoint:
    """One policy at one SNR point, over its accepted trials.

    snr_db is the value asked for and p = 10^(snr_db/10). The rates are
    ergodic means and standard errors, per user and averaged over users.
    deviation_mean and deviation_median summarize ||T - T*||_F^2, the
    distance of the policy's precoder from the perfect-CSIT one, and
    deviation_row_median holds the (K,) median squared deviation of each
    TX's row. rejections counts the trials the point replaced.
    """

    snr_db: float
    p: float
    mean_per_user: np.ndarray
    stderr_per_user: np.ndarray
    mean_avg: float
    stderr_avg: float
    trials: int
    rejections: int
    deviation_mean: float
    deviation_median: float
    deviation_row_median: np.ndarray


@dataclass(frozen=True)
class DofEstimate:
    """Least-squares slope of mean rate against log2(P) over the fit window."""

    slope: float
    fit_snr_db: tuple[float, ...]
    residual: float


@dataclass
class PointResult:
    """Coupled evaluation of several policies at one SNR point."""

    rates: dict[PolicySpec, RatePoint]
    samples: dict[PolicySpec, np.ndarray] | None = None


def instantaneous_rates(h: np.ndarray, precoder: np.ndarray) -> RateSample:
    """Per-user rates log2(1 + S_i / (1 + I_i)) for one channel and precoding matrix.

    Row i of h is receiver i's channel, column i of the precoding matrix is
    user i's beamformer; the unit noise floor is the 1 in the denominator.
    Leading axes of h and the precoder (..., K, K) are batch axes, and the
    rates gain them: (..., K).
    """
    gains = np.abs(np.asarray(h, dtype=complex) @ np.asarray(precoder, dtype=complex)) ** 2
    k = gains.shape[-1]
    diag = gains.reshape(gains.shape[:-2] + (k * k,))[..., :: k + 1]  # a view of each diagonal
    signal = diag.copy()
    diag[...] = 0.0
    interference = gains.sum(axis=-1)
    return RateSample(rates=np.log1p(signal / (1.0 + interference)) / LN2)


# ---------------------------------------------------------------------------
# trial engine
# ---------------------------------------------------------------------------

# Trials per chunk are capped so that one policy's (trials, K, K, K) complex
# estimate stack stays within this many bytes. A call's workspace holds three
# such stacks and each solve's inverses one more, so the cap trades the
# per-chunk overhead at K = 16 (3 trials a chunk) against peak memory.
_CHUNK_BYTES = 3 << 16


def _simulate_trials(
    points: list[tuple[np.ndarray, float, list[np.ndarray | None]]],
    seed: int,
    ranges: list[tuple[int, int, int]],
    trial_indices: np.ndarray,
    cond_threshold: float,
    mask: np.ndarray | None,
) -> list[tuple]:
    """Evaluate the sorted, distinct trial_indices for all policies, on
    shared draws, at the SNR point of each range, over the indices in it.

    points holds every SNR point of the sweep as (sigma, p, bits_list): its
    pathloss_matrix sigma, its nominal SNR and one entry per policy. ranges
    holds (point id, start, stop) triples; a point runs the indices of
    trial_indices in [start, stop). bits_list entries are (K, K, K) bit
    tensors, or None for perfect CSIT (whose precoder is the reference T*
    itself). A trial is rejected at a point when the kappa_2 of any of its
    solves there crosses cond_threshold. Returns, per range, per-trial rates, squared
    precoder deviations per TX row, acceptance flags and the worst condition
    estimate of every solve each trial reached; rejected trials carry NaNs.

    Trials run in chunks of at most _CHUNK_BYTES / (16 K^3). A chunk's unit
    channels and noise are drawn once; each point scales its rows of them by
    its own sigma and runs them as one batch through the kernels, in one
    _solve_chunk call that drops a rejected trial from its later solves, so
    acceptance and worst_cond are decided per trial and point, exactly as for
    a lone trial at a lone point.
    """
    k = points[0][0].shape[0]
    need_noise = any(b is not None for b in points[0][2])

    n = len(trial_indices)
    shape = (len(ranges), n, len(points[0][2]), k)
    rates = np.full(shape, np.nan)
    row_dev = np.full(shape, np.nan)
    accepted = np.zeros(shape[:2], dtype=bool)
    worst_cond = np.zeros(shape[:2])
    # A range is a contiguous run of the sorted indices: its rows [lo, hi).
    bounds = [(int(lo), int(hi)) for lo, hi in np.searchsorted(trial_indices, [r[1:] for r in ranges])]

    chunk = _chunk_trials(k)
    # The call's workspace: the noise stack, the estimate stack and the
    # condition screen's squared magnitudes, each sized for one chunk. Every
    # chunk, point and policy writes into it, instead of allocating and
    # freeing stacks this large once per chunk and policy.
    work = np.empty((3, min(chunk, n) * k**3 if need_noise else 0), dtype=complex)
    unit = np.empty((min(chunk, n), k, k), dtype=complex)
    # One pass per purpose derives the call's streams; each chunk draws the next m of each.
    channels = _trial_streams(seed, trial_indices, PURPOSE_CHANNEL)
    noises = _trial_streams(seed, trial_indices, PURPOSE_ESTIMATE) if need_noise else None
    for start in range(0, n, chunk):
        m = min(chunk, n - start)
        _unit_draws(channels, unit[:m])
        shared_noise = None if noises is None else _unit_draws(noises, work[0, : m * k**3].reshape(m, k, k, k))
        for j, ((point, _, _), (lo, hi)) in enumerate(zip(ranges, bounds)):
            # The chunk's rows of this range, as offsets a:b into the chunk.
            a, b = max(lo - start, 0), min(hi - start, m)
            if a >= b:
                continue
            rows = slice(start + a, start + b)
            noise = None if shared_noise is None else shared_noise[a:b]
            rates[j, rows], row_dev[j, rows], worst_cond[j, rows], accepted[j, rows] = _solve_chunk(
                unit[a:b], noise, work, *points[point], cond_threshold, mask
            )

    return [(rates[j, lo:hi], row_dev[j, lo:hi], accepted[j, lo:hi], worst_cond[j, lo:hi])
            for j, (lo, hi) in enumerate(bounds)]


def _solve_chunk(
    unit: np.ndarray,
    noise: np.ndarray | None,
    work: np.ndarray,
    sigma: np.ndarray,
    p: float,
    bits_list: list[np.ndarray | None],
    cond_threshold: float,
    mask: np.ndarray | None,
):
    """Rates (m, P, K), squared deviations per TX row (m, P, K), the worst
    condition estimate (m,) and the acceptance flags (m,) of m trials at one
    point, one policy at a time.

    unit holds the m unit channels, noise their (m, K, K, K) estimation
    noise. Rows 1 and 2 of work, the call's workspace, take each policy's
    estimate stack and the condition screen's scratch. A trial is rejected by
    the first of its solves (zero-forcing on its channel, then each policy's
    distributed one) whose kappa_2 crosses the threshold, and is dropped
    from every later solve, with NaN rates and deviations. Every earlier
    solve passed, so the kappa_2 that rejected it is its worst estimate; an
    accepted trial's is the worst of its zero-forcing and policy solves.
    Until a trial is rejected, no stack is indexed or copied.
    """
    h = sigma * unit  # the product draw_channel forms, so H is the point's own draw
    rates = np.full((len(h), len(bits_list), h.shape[-1]), np.nan)
    row_dev = np.full_like(rates, np.nan)
    rows = np.arange(len(h))  # the trials no solve has rejected
    t_star, worst, rejected = _precode(h, p, cond_threshold)
    if rejected.any():
        rows, h, noise, t_star = _drop(rejected, rows, h, noise, t_star)
    for pol, bits in enumerate(bits_list):
        if bits is None:
            t = t_star
        else:
            out = work[1, : noise.size].reshape(noise.shape)
            est = apply_estimate_noise(ChannelRealization(H=h), sigma, bits, noise, _out=out)
            t, cond, rejected = _precode(est, p, cond_threshold, scratch=work[2])
            worst[rows] = np.maximum(worst[rows], cond)
            if rejected.any():
                rows, h, noise, t_star, t = _drop(rejected, rows, h, noise, t_star, t)
        row_dev[rows, pol] = (np.abs(t - t_star) ** 2).sum(axis=-1)
        rates[rows, pol] = instantaneous_rates(h, t if mask is None else t * mask).rates
    accepted = np.zeros(len(worst), dtype=bool)
    accepted[rows] = True
    # A trial rejected by a later policy's solve keeps no rate of an earlier one.
    rates[~accepted] = row_dev[~accepted] = np.nan
    return rates, row_dev, worst, accepted


def _drop(rejected, *stacks):
    """Each stack (or None) without the trials the last solve rejected."""
    keep = ~rejected
    return [None if s is None else s[keep] for s in stacks]


# Tasks per worker in a round of a pooled sweep: enough that the last task to finish is short, few enough
# that each task spans several engine chunks (every engine call derives its streams and faults in its own
# workspace). At two workers, 1 to 4 read within 5% on fig1-desk (K = 16), but at K = 8 one whole-chunk block
# per worker splits fig2-desk's 100 trials 72/28 and read slower in 21 of 34 pairs (median pair +9%).
_TASKS_PER_WORKER = 3

# A pool worker's engine, the sweep's. _init_worker sets it in the forked
# child from the parent's object, so tasks carry indices only.
_worker_engine = None


def _init_worker(engine) -> None:
    global _worker_engine
    _worker_engine = engine


def _run_block(task):
    ranges, idx = task
    return _worker_engine(ranges, idx)


@contextmanager
def _worker_pool(workers: int, engine):
    """A fork pool of `workers` processes that inherit the sweep's engine,
    or None for one worker.

    The workers are closed and joined on a normal exit, terminated and
    joined when the body raises, so none outlives the block.
    """
    if workers <= 1:
        yield None
        return
    ctx = multiprocessing.get_context("fork")
    # Only workers draw, and numpy loads numpy.random (hashlib and OpenSSL with
    # it) on first use: load it once here, so the workers inherit it.
    import numpy.random  # noqa: F401
    pool = ctx.Pool(processes=workers, initializer=_init_worker, initargs=(engine,))
    try:
        yield pool
    except BaseException:
        pool.terminate()
        raise
    else:
        pool.close()
    finally:
        pool.join()


def _chunk_trials(k: int) -> int:
    return max(1, _CHUNK_BYTES // (16 * k**3))


def _round_tasks(ranges: list[tuple[int, int, int]], k: int, workers: int) -> list[tuple]:
    """The (ranges, index block) tasks of a round.

    ranges holds each running point's (point id, start, stop), and the
    round's index set is their union, sorted. One worker runs it as one
    task. More workers split it into blocks of whole engine chunks, about
    _TASKS_PER_WORKER per worker; every task carries all the ranges, and
    each point runs the indices of a block that lie in its own range.
    """
    # A boolean cover, not np.unique, whose first call imports numpy.ma.
    lo = min(r[1] for r in ranges)
    cover = np.zeros(max(r[2] for r in ranges) - lo, dtype=bool)
    for _, start, stop in ranges:
        cover[start - lo:stop - lo] = True
    union = lo + np.flatnonzero(cover)
    if workers <= 1:
        return [(ranges, union)]
    chunk = _chunk_trials(k)
    step = chunk * math.ceil(len(union) / (workers * _TASKS_PER_WORKER * chunk))
    return [(ranges, union[s:s + step]) for s in range(0, len(union), step)]


def _sweep(engine, n_points: int, k: int, trials: int, max_rejection_rate: float, workers: int):
    """Collect exactly `trials` accepted trials at every SNR point, in rounds.

    The first round runs trials 0..trials-1 of every point; each later round
    tops up the points still short of `trials` with fresh indices, each point
    over its own range. A round's index set is the union of its points'
    ranges, and each engine call draws each of its indices once for every
    point whose range holds it. With one worker a round is one engine call;
    with more, a round's (ranges, block) tasks all go to one pool.map. More
    than trials / (1 - max_rejection_rate) attempted indices would put a
    point's rejected share over the limit, so its top-ups stop there. Once
    no point is running, the first failing point in SNR order raises,
    exactly as a sweep of one point at a time would. Returns per point the
    engine results of its blocks, in index order.
    """
    max_attempts = math.ceil(trials / (1.0 - max_rejection_rate))
    blocks: list[list] = [[] for _ in range(n_points)]
    attempted = [0] * n_points
    accepted = [0] * n_points
    errors: dict[int, RejectionRateError] = {}
    running = list(range(n_points))
    # No more workers than the first round has tasks: a sweep of one task runs inline.
    procs = min(workers, len(_round_tasks([(i, 0, trials) for i in running], k, workers)))
    with _worker_pool(procs, engine) as pool:
        while running:
            ranges = [(i, attempted[i], attempted[i] + trials - accepted[i]) for i in running]
            tasks = _round_tasks(ranges, k, 1 if pool is None else workers)
            if pool is None:
                results = [engine(*task) for task in tasks]
            else:
                results = pool.map(_run_block, tasks, chunksize=1)
            for per_range in results:
                for (i, _, _), res in zip(ranges, per_range):
                    blocks[i].append(res)
                    attempted[i] += len(res[2])
                    accepted[i] += int(res[2].sum())
            still = []
            for i in running:
                short, rejected = trials - accepted[i], attempted[i] - accepted[i]
                if short and attempted[i] + short <= max_attempts:
                    still.append(i)
                elif short or rejected / attempted[i] > max_rejection_rate:
                    stats = _cond_stats(blocks[i])
                    errors[i] = RejectionRateError(rejected, attempted[i], max_rejection_rate, stats)
            # A point after a failed one can no longer change what the sweep raises.
            running = [i for i in still if not errors or i < min(errors)]
    if errors:
        raise errors[min(errors)]
    return blocks


def _cond_stats(blocks) -> str:
    conds = np.concatenate([b[3] for b in blocks])
    return (
        f"median {np.median(conds):.3e}, p99 {np.percentile(conds, 99):.3e}, "
        f"max {conds.max():.3e}"
    )


def _stderr(samples: np.ndarray) -> np.ndarray | float:
    n = samples.shape[0]
    if n < 2:
        return np.zeros(samples.shape[1:]) if samples.ndim > 1 else 0.0
    return samples.std(axis=0, ddof=1) / np.sqrt(n)


def _evaluate(
    layout: NodeLayout,
    gamma: float,
    policies: list[PolicySpec],
    points: list[tuple[float, float]],
    trials: int,
    seed: int,
    *,
    cond_threshold: float = DEFAULT_COND_THRESHOLD,
    max_rejection_rate: float = DEFAULT_MAX_REJECTION_RATE,
    data_mask: bool = False,
    workers: int = 1,
) -> list[tuple[dict[PolicySpec, RatePoint], np.ndarray]]:
    """Coupled evaluation of every policy at every (snr_db, p) point: per point, each policy's RatePoint
    and the (trials, P, K) rates of the accepted trials.

    The sweep's engine, every point's sigma and allocation tables included,
    is built before a pool forks, so the workers inherit it.
    """
    _check_sweep(layout, gamma, policies, points, trials, seed, cond_threshold, max_rejection_rate, workers)
    engine = _engine(layout, gamma, policies, [p for _, p in points], seed, cond_threshold, data_mask)
    swept = _sweep(engine, len(points), layout.K, trials, max_rejection_rate, workers)
    return [_point_result(policies, pt, blocks, trials) for pt, blocks in zip(points, swept)]


def _check_sweep(layout, gamma, policies, points, trials, seed, cond_threshold, max_rejection_rate, workers=1) -> None:
    """ValueError naming the first sweep input that breaks its rule, a cluster policy that does not fit
    the layout included; points holds (snr_db, p) pairs."""
    _check_gamma(gamma)
    if not policies:
        raise ValueError("policies must not be empty")
    if not points:
        raise ValueError("snr_db must not be empty")
    for snr_db, p in points:
        _check_snr("snr_db", p, f"{snr_db!r} dB")
    _check_distinct("policies", policies, lambda spec: spec, PolicySpec.label)
    _check_counts(("workers", workers, 1), ("trials", trials, 1), ("seed", seed, 0))
    _check_cond_limit("cond_threshold", cond_threshold)
    if not 0.0 <= max_rejection_rate < 1.0:
        raise ValueError(f"max_rejection_rate must lie in [0, 1), got {max_rejection_rate}")
    for spec in policies:
        if spec.kind == "cluster":
            try:
                cluster_fit(layout, spec.cluster_size)
            except ValueError as exc:
                raise ValueError(f"policy {spec.label()}: {exc}") from None


def _engine(layout, gamma, policies, p_list, seed, cond_threshold, data_mask) -> partial:
    """The sweep's engine: _simulate_trials bound to everything but the
    ranges and the trial indices. Each nominal SNR's link standard
    deviations and allocation tables are built here, once, from one
    interference-level matrix, so an engine call, in the parent or in a
    forked worker, builds nothing."""
    levels = interference_levels(pairwise_distance(layout), gamma)
    mask = _data_mask(layout, gamma) if data_mask else None
    points = [
        (
            pathloss_matrix(levels, p),
            p,
            [None if spec.kind == "perfect" else build_allocation(spec, layout, gamma, p).bits for spec in policies],
        )
        for p in p_list
    ]
    return partial(_simulate_trials, points, seed, cond_threshold=cond_threshold, mask=mask)


def _data_mask(layout: NodeLayout, gamma: float) -> np.ndarray:
    """The 0/1 (K, K) matrix whose entry (j, i) is 1 iff TX j keeps user i's data (data_sharing_sets)."""
    return np.array([[float(i in kept) for i in range(layout.K)] for kept in data_sharing_sets(layout, gamma)])


def _point_result(
    policies: list[PolicySpec], point: tuple[float, float], blocks: list, trials: int
) -> tuple[dict[PolicySpec, RatePoint], np.ndarray]:
    snr_db, p = point
    rates, row_dev, accepted = (np.concatenate([b[j] for b in blocks], axis=0) for j in range(3))
    keep = np.flatnonzero(accepted)
    rates, row_dev = rates[keep], row_dev[keep]
    dev = row_dev.sum(axis=-1)
    rejections = len(accepted) - trials
    rate_points: dict[PolicySpec, RatePoint] = {}
    for i, spec in enumerate(policies):
        per_user = rates[:, i, :]
        avg_series = per_user.mean(axis=1)
        rate_points[spec] = RatePoint(
            snr_db=snr_db,
            p=p,
            mean_per_user=per_user.mean(axis=0),
            stderr_per_user=np.asarray(_stderr(per_user)),
            mean_avg=float(avg_series.mean()),
            stderr_avg=float(_stderr(avg_series)),
            trials=per_user.shape[0],
            rejections=rejections,
            deviation_mean=float(dev[:, i].mean()),
            deviation_median=float(_trial_median(dev[:, i])),
            deviation_row_median=_trial_median(row_dev[:, i, :]),
        )
    return rate_points, rates


def evaluate_point(
    layout: NodeLayout,
    gamma: float,
    policies: list[PolicySpec],
    p: float,
    trials: int,
    seed: int,
    *,
    keep_samples: bool = False,
    **opts,
) -> PointResult:
    """Coupled Monte-Carlo evaluation of several policies at one SNR point.

    Every policy sees the same channel and the same estimation-noise draws
    (scaled by its own bit counts), so cross-policy comparisons share their
    randomness. Means and standard errors run over accepted trials only.
    p must be finite and > 1, else ValueError names it. PointResult.rates
    maps each policy to its RatePoint, whose snr_db is 10 log10(p).
    Options: cond_threshold, max_rejection_rate, data_mask, workers and
    keep_samples (per-trial rates in PointResult.samples).
    """
    _check_snr("p", p)  # before log10 warns on it
    [(rate_points, rates)] = _evaluate(layout, gamma, policies, [(float(10.0 * np.log10(p)), p)], trials, seed, **opts)
    return PointResult(rate_points, {spec: rates[:, i, :] for i, spec in enumerate(policies)} if keep_samples else None)


def evaluate_curves(
    layout: NodeLayout,
    gamma: float,
    policies: list[PolicySpec],
    snr_db: list[float],
    trials: int,
    seed: int,
    **opts,
) -> dict[PolicySpec, list[RatePoint]]:
    """evaluate_point over an SNR grid, every point in one sweep.

    Returns each policy's RatePoints in the order of snr_db, each holding
    the dB value it was asked for. Each round draws every index once for
    all the points whose ranges hold it: every point's first trials in the
    first round, the union of the top-up ranges of the points still short
    later. With workers > 1, one pool serves the whole sweep, and each of
    its rounds is one task queue over blocks of that index set.
    """
    results = _evaluate(layout, gamma, policies, [(db, db_to_linear(db)) for db in snr_db], trials, seed, **opts)
    return {spec: [rate_points[spec] for rate_points, _ in results] for spec in policies}


def dof_slope(points: list[RatePoint], fit_points: int = 4) -> DofEstimate:
    """Slope of mean rate per user against log2(P) over the top fit_points
    SNRs of one policy's points, in any order.

    This is the generalized-DoF estimate of the curve; residual is the RMS
    misfit of the regression line over the window, which must not repeat a
    nominal SNR.
    """
    _check_counts(("fit_points", fit_points, 2))
    pts = sorted(points, key=lambda q: q.snr_db)
    if len(pts) < fit_points:
        raise ValueError(f"curve has {len(pts)} points, need at least {fit_points}")
    window = pts[-fit_points:]
    x = _check_slope_points("fit window", [q.p for q in window], [q.snr_db for q in window])
    y = np.array([q.mean_avg for q in window])
    slope, intercept = np.polyfit(x, y, 1)
    resid = float(np.sqrt(np.mean((y - (slope * x + intercept)) ** 2)))
    return DofEstimate(
        slope=float(slope), fit_snr_db=tuple(q.snr_db for q in window), residual=resid
    )
