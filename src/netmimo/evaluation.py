"""Monte-Carlo evaluation: per-trial rates, ergodic rate points and curves,
high-SNR slope fits, and precoder-deviation statistics.

All policies in a run are evaluated on coupled draws: trial t uses one
channel draw and one estimation-noise tensor, each policy scaling the same
noise by its own bit counts. A trial is accepted only if the true channel and
every policy's estimates pass the conditioning threshold, and rejected trials
are replaced by fresh trial indices and counted.

Trials run in chunks: each trial is drawn from its own substreams, whose
states the call derives in one trial_streams pass, the draws are stacked,
and the channel, precoding and rate kernels run once per chunk over a
leading trial axis, one policy at a time. The chunk size is capped by
the bytes of one policy's estimate stack, so it shrinks as K grows (24 trials
at K = 8, 3 at K = 16, one from K = 19 up). Each call holds one workspace for
its chunks' noise, estimate and squared-magnitude stacks, which the kernels
write into instead of allocating them per chunk and policy. A chunk in which
any trial is rejected is rerun one trial at a time through the same kernels,
so each trial's acceptance and condition estimate are its own. A kernel
call over a batch equals the calls on its elements bit for bit, so
per-trial results depend only on (seed, trial index): neither the chunking
nor worker scheduling can change any output. With more than one worker, a
sweep forks one pool and keeps it warm for every SNR point and top-up; the
pool is reaped before the sweep returns or raises.
"""

from __future__ import annotations

import math
import multiprocessing
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from itertools import islice

import numpy as np

from .allocation import PolicySpec, build_allocation
from .channel import (
    PURPOSE_CHANNEL,
    PURPOSE_ESTIMATE,
    ChannelRealization,
    PathlossModel,
    apply_estimate_noise,
    complex_gaussian,
    draw_channel,
    pathloss_matrix,
    trial_streams,
)
from .precoding import (
    DEFAULT_COND_THRESHOLD,
    IllConditionedError,
    Precoder,
    distributed_precoder,
    mask_from_sets,
    zf_precoder,
)
from .topology import NodeLayout, data_sharing_sets, interference_levels, pairwise_distance

__all__ = [
    "RejectionRateError",
    "RateSample",
    "RatePoint",
    "RateCurve",
    "DofEstimate",
    "DeviationPoint",
    "PointResult",
    "ExperimentResult",
    "instantaneous_rates",
    "evaluate_point",
    "evaluate_curves",
    "dof_slope",
    "db_to_linear",
    "linear_to_db",
]

LN2 = float(np.log(2.0))


def db_to_linear(snr_db: float) -> float:
    return float(10.0 ** (snr_db / 10.0))


def linear_to_db(p: float) -> float:
    return float(10.0 * np.log10(p))


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
    """Per-user rates of one realization plus their signal/interference split."""

    rates: np.ndarray
    signal: np.ndarray
    interference: np.ndarray


@dataclass(frozen=True)
class RatePoint:
    """Ergodic rates at one SNR point, averaged over accepted trials."""

    snr_db: float
    p: float
    mean_per_user: np.ndarray
    stderr_per_user: np.ndarray
    mean_avg: float
    stderr_avg: float
    trials: int
    rejections: int


@dataclass(frozen=True)
class DeviationPoint:
    """Distance of the distributed precoder from the perfect-CSIT one.

    mean and median summarize ||T - T*||_F^2 over accepted trials;
    per_row_median holds the median squared deviation of each TX's row.
    """

    snr_db: float
    p: float
    mean: float
    median: float
    per_row_median: np.ndarray
    trials: int
    rejections: int


@dataclass
class RateCurve:
    """One policy's rate points across an SNR grid."""

    policy: PolicySpec
    points: list[RatePoint] = field(default_factory=list)


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
    deviations: dict[PolicySpec, DeviationPoint]
    samples: dict[PolicySpec, np.ndarray] | None = None


@dataclass
class ExperimentResult:
    """Curves and deviation tracks for every policy of a run."""

    curves: dict[PolicySpec, RateCurve]
    deviations: dict[PolicySpec, list[DeviationPoint]]


def instantaneous_rates(h: np.ndarray, precoder: Precoder | np.ndarray) -> RateSample:
    """Per-user rates log2(1 + S_i / (1 + I_i)) for one channel and precoder.

    Row i of h is receiver i's channel, column i of the precoding matrix is
    user i's beamformer; the unit noise floor is the 1 in the denominator.
    Leading axes of h and the precoder (..., K, K) are batch axes, and the
    results gain them: (..., K).
    """
    t = precoder.T if isinstance(precoder, Precoder) else np.asarray(precoder, dtype=complex)
    gains = np.abs(np.asarray(h, dtype=complex) @ t) ** 2
    k = gains.shape[-1]
    diag = gains.reshape(gains.shape[:-2] + (k * k,))[..., :: k + 1]  # a view of each diagonal
    signal = diag.copy()
    diag[...] = 0.0
    interference = gains.sum(axis=-1)
    rates = np.log1p(signal / (1.0 + interference)) / LN2
    return RateSample(rates=rates, signal=signal, interference=interference)


# ---------------------------------------------------------------------------
# trial engine
# ---------------------------------------------------------------------------

# Trials per chunk are capped so that one policy's (trials, K, K, K) complex
# estimate stack stays within this many bytes. A call's workspace holds three
# such stacks and each solve's inverses one more, so the cap trades the
# per-chunk overhead at K = 16 (3 trials a chunk) against peak memory.
_CHUNK_BYTES = 3 << 16


def _simulate_trials(
    positions: np.ndarray,
    gamma: float,
    p: float,
    bits_list: list[np.ndarray | None],
    seed: int,
    trial_indices: np.ndarray,
    cond_threshold: float,
    mask: np.ndarray | None,
):
    """Evaluate the given trial indices for all policies on shared draws.

    bits_list entries are (K, K, K) bit tensors, or None for perfect CSIT
    (whose precoder is the reference T* itself). A trial is rejected when any
    of its solves raises IllConditionedError. Returns per-trial rates,
    squared precoder deviations (total and per TX row), acceptance flags and
    the worst condition estimate seen per trial; rejected trials carry NaNs.

    Trials run in chunks of at most _CHUNK_BYTES / (16 K^3), each one batch
    through the kernels. A chunk with a rejected trial is rerun as chunks of
    one trial, so acceptance and worst_cond are decided per trial, exactly as
    for a lone trial.
    """
    layout = NodeLayout(positions)
    k = layout.K
    model = pathloss_matrix(interference_levels(pairwise_distance(layout), gamma), p)
    need_noise = any(b is not None for b in bits_list)

    n = len(trial_indices)
    n_pol = len(bits_list)
    rates = np.full((n, n_pol, k), np.nan)
    row_dev = np.full((n, n_pol, k), np.nan)
    accepted = np.zeros(n, dtype=bool)
    worst_cond = np.zeros(n)

    chunk = max(1, _CHUNK_BYTES // (16 * k**3))
    # The call's workspace: the noise stack, the estimate stack and the
    # condition screen's squared magnitudes, each sized for one chunk. Every
    # chunk and policy writes into it, instead of allocating and freeing
    # stacks this large once per chunk and policy.
    work = np.empty((3, min(chunk, n) * k**3 if need_noise else 0), dtype=complex)
    # Every stream of the call is derived in one pass, in the order the
    # chunks draw them: each chunk's channels, then its estimation noise.
    starts = range(0, n, chunk)
    purposes = [PURPOSE_CHANNEL, PURPOSE_ESTIMATE] if need_noise else [PURPOSE_CHANNEL]
    cells = [(t, pur) for s in starts for pur in purposes for t in trial_indices[s:s + chunk].tolist()]
    streams = trial_streams(seed, [t for t, _ in cells], [pur for _, pur in cells])
    for start in starts:
        m = min(chunk, n - start)
        chan = draw_channel(model, islice(streams, m))
        noise = None
        if need_noise:
            noise = work[0, : m * k**3].reshape(m, k, k, k)
            for i, rng in enumerate(islice(streams, m)):
                complex_gaussian(rng, (k, k, k), out=noise[i])
        parts = [(start, chan, noise)]
        while parts:
            row, chan, noise = parts.pop()
            rows = slice(row, row + len(chan.H))
            try:
                rates[rows], row_dev[rows], worst_cond[rows] = _solve_chunk(
                    chan, noise, work, model, bits_list, p, cond_threshold, mask
                )
            except IllConditionedError as exc:
                if len(chan.H) == 1:
                    # Every earlier condition estimate passed the threshold, so this one is the worst.
                    worst_cond[row] = exc.cond
                else:
                    parts += [
                        (row + i, ChannelRealization(H=chan.H[i:i + 1]), None if noise is None else noise[i:i + 1])
                        for i in range(len(chan.H))
                    ]
                continue
            accepted[rows] = True

    return rates, row_dev.sum(axis=-1), row_dev, accepted, worst_cond


def _solve_chunk(
    chan: ChannelRealization,
    noise: np.ndarray | None,
    work: np.ndarray,
    model: PathlossModel,
    bits_list: list[np.ndarray | None],
    p: float,
    cond_threshold: float,
    mask: np.ndarray | None,
):
    """Rates (m, P, K), squared deviations per TX row (m, P, K) and the worst
    policy condition estimate (m,) of m trials, one policy at a time.

    chan holds the m channels, noise the (m, K, K, K) estimation noise.
    Rows 1 and 2 of work, the call's workspace, take each policy's estimate
    stack and the condition screen's scratch. Raises IllConditionedError if
    any solve of any trial is rejected.
    """
    t_star = zf_precoder(chan.H, p, cond_threshold)
    rates = np.empty(chan.H.shape[:1] + (len(bits_list),) + chan.H.shape[-1:])
    row_dev = np.empty_like(rates)
    worst = None
    for pol, bits in enumerate(bits_list):
        if bits is None:
            prec = t_star
        else:
            est = apply_estimate_noise(chan, model, bits, noise, _out=work[1, : noise.size].reshape(noise.shape))
            prec = distributed_precoder(est, p, cond_threshold, _scratch=work[2])
        worst = prec.max_cond if worst is None else np.maximum(worst, prec.max_cond)
        row_dev[:, pol] = (np.abs(prec.T - t_star.T) ** 2).sum(axis=-1)
        t = prec.T if mask is None else prec.T * mask
        rates[:, pol] = instantaneous_rates(chan.H, t).rates
    return rates, row_dev, worst


def _block_call(payload):
    args, idx = payload
    positions, gamma, p, received, seed, cond_threshold, mask = args
    # A pool worker unpickles each table as a writable array whose dtype object
    # np.asarray(bits, dtype=float) only views, so the model's error-scale
    # cache would miss on every trial. A read-only copy per chunk hits it.
    bits_list = []
    for bits in received:
        if bits is not None:
            bits = bits.astype(float)
            bits.setflags(write=False)
        bits_list.append(bits)
    return _simulate_trials(positions, gamma, p, bits_list, seed, idx, cond_threshold, mask)


@contextmanager
def _worker_pool(workers: int, trials: int):
    """A fork pool of `workers` processes, or None when there is one worker
    or _map_trials would run every batch of at most `trials` indices inline.

    The workers are closed and joined on a normal exit, terminated and
    joined when the body raises, so none outlives the block.
    """
    if workers <= 1 or trials < 2 * workers:
        yield None
        return
    pool = multiprocessing.get_context("fork").Pool(processes=workers)
    try:
        yield pool
    except BaseException:
        pool.terminate()
        raise
    else:
        pool.close()
    finally:
        pool.join()


def _map_trials(args: tuple, idx: np.ndarray, pool, workers: int):
    """Run _simulate_trials over idx, split across the pool's workers (inline
    when pool is None or idx is short), results in index order."""
    if pool is None or len(idx) < 2 * workers:
        return [_block_call((args, idx))]
    chunks = [c for c in np.array_split(idx, workers) if len(c)]
    return pool.map(_block_call, [(args, c) for c in chunks])


def _run_point(
    layout: NodeLayout,
    gamma: float,
    p: float,
    bits_list: list[np.ndarray | None],
    seed: int,
    trials: int,
    cond_threshold: float,
    max_rejection_rate: float,
    mask: np.ndarray | None,
    pool,
    workers: int,
):
    """Collect exactly `trials` accepted trials, topping up rejected indices.

    More than trials / (1 - max_rejection_rate) attempted indices would put
    the rejected share over the limit, so the top-ups stop there.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if not 0.0 <= max_rejection_rate < 1.0:
        raise ValueError(f"max_rejection_rate must lie in [0, 1), got {max_rejection_rate}")
    args = (layout.positions, gamma, p, bits_list, seed, cond_threshold, mask)
    blocks = []
    accepted_total = 0
    next_idx = 0
    max_attempts = math.ceil(trials / (1.0 - max_rejection_rate))
    while accepted_total < trials:
        need = trials - accepted_total
        if next_idx + need > max_attempts:
            stats = _cond_stats(blocks)
            raise RejectionRateError(next_idx - accepted_total, next_idx, max_rejection_rate, stats)
        idx = np.arange(next_idx, next_idx + need)
        blocks.extend(_map_trials(args, idx, pool, workers))
        next_idx += need
        accepted_total = int(sum(b[3].sum() for b in blocks))

    rates = np.concatenate([b[0] for b in blocks], axis=0)
    dev = np.concatenate([b[1] for b in blocks], axis=0)
    row_dev = np.concatenate([b[2] for b in blocks], axis=0)
    accepted = np.concatenate([b[3] for b in blocks], axis=0)
    rejections = int(next_idx - trials)
    if rejections / next_idx > max_rejection_rate:
        raise RejectionRateError(rejections, next_idx, max_rejection_rate, _cond_stats(blocks))
    keep = np.flatnonzero(accepted)
    return rates[keep], dev[keep], row_dev[keep], rejections


def _cond_stats(blocks) -> str:
    if not blocks:
        return "none"
    conds = np.concatenate([b[4] for b in blocks])
    return (
        f"median {np.median(conds):.3e}, p99 {np.percentile(conds, 99):.3e}, "
        f"max {conds.max():.3e}"
    )


def _stderr(samples: np.ndarray) -> np.ndarray | float:
    n = samples.shape[0]
    if n < 2:
        return np.zeros(samples.shape[1:]) if samples.ndim > 1 else 0.0
    return samples.std(axis=0, ddof=1) / np.sqrt(n)


def evaluate_point(
    layout: NodeLayout,
    gamma: float,
    policies: list[PolicySpec],
    p: float,
    trials: int,
    seed: int,
    *,
    cond_threshold: float = DEFAULT_COND_THRESHOLD,
    max_rejection_rate: float = 0.01,
    data_mask: bool = False,
    workers: int = 1,
    keep_samples: bool = False,
    _pool=None,
) -> PointResult:
    """Coupled Monte-Carlo evaluation of several policies at one SNR point.

    Every policy sees the same channel and the same estimation-noise draws
    (scaled by its own bit counts), so cross-policy comparisons share their
    randomness. Means and standard errors run over accepted trials only.
    With workers > 1 the point forks its own pool unless evaluate_curves
    passes the sweep's pool as _pool.
    """
    if len(policies) != len(set(policies)):
        raise ValueError("duplicate policy specs in one run")
    allocs = [build_allocation(spec, layout, gamma, p) for spec in policies]
    bits_list = [None if spec.kind == "perfect" else alloc.bits for spec, alloc in zip(policies, allocs)]
    mask = None
    if data_mask:
        mask = mask_from_sets(data_sharing_sets(layout, gamma), layout.K)
    with _worker_pool(workers, trials) if _pool is None else nullcontext(_pool) as pool:
        rates, dev, row_dev, rejections = _run_point(
            layout, gamma, p, bits_list, seed, trials, cond_threshold, max_rejection_rate, mask,
            pool, workers,
        )
    snr_db = linear_to_db(p)
    rate_points: dict[PolicySpec, RatePoint] = {}
    dev_points: dict[PolicySpec, DeviationPoint] = {}
    samples: dict[PolicySpec, np.ndarray] = {}
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
        )
        dev_points[spec] = DeviationPoint(
            snr_db=snr_db,
            p=p,
            mean=float(dev[:, i].mean()),
            median=float(np.median(dev[:, i])),
            per_row_median=np.median(row_dev[:, i, :], axis=0),
            trials=dev.shape[0],
            rejections=rejections,
        )
        if keep_samples:
            samples[spec] = per_user
    return PointResult(rates=rate_points, deviations=dev_points, samples=samples or None)


def evaluate_curves(
    layout: NodeLayout,
    gamma: float,
    policies: list[PolicySpec],
    snr_db: list[float],
    trials: int,
    seed: int,
    **opts,
) -> ExperimentResult:
    """Sweep evaluate_point over an SNR grid, one coupled run per point.

    With workers > 1, one pool serves every point of the sweep: workers
    forked once stay warm across points, instead of each point paying for
    cold ones.
    """
    curves = {spec: RateCurve(policy=spec) for spec in policies}
    deviations: dict[PolicySpec, list[DeviationPoint]] = {spec: [] for spec in policies}
    with _worker_pool(opts.get("workers", 1), trials) as pool:
        for db in snr_db:
            point = evaluate_point(
                layout, gamma, policies, db_to_linear(db), trials, seed, **opts, _pool=pool
            )
            for spec in policies:
                curves[spec].points.append(point.rates[spec])
                deviations[spec].append(point.deviations[spec])
    return ExperimentResult(curves=curves, deviations=deviations)


def dof_slope(curve: RateCurve, fit_points: int = 4) -> DofEstimate:
    """Slope of mean rate per user against log2(P) over the top fit_points SNRs.

    This is the generalized-DoF estimate of the curve; residual is the RMS
    misfit of the regression line over the window.
    """
    if fit_points < 2:
        raise ValueError(f"fit_points must be >= 2, got {fit_points}")
    pts = sorted(curve.points, key=lambda q: q.snr_db)
    if len(pts) < fit_points:
        raise ValueError(f"curve has {len(pts)} points, need at least {fit_points}")
    window = pts[-fit_points:]
    x = np.log2([q.p for q in window])
    y = np.array([q.mean_avg for q in window])
    slope, intercept = np.polyfit(x, y, 1)
    resid = float(np.sqrt(np.mean((y - (slope * x + intercept)) ** 2)))
    return DofEstimate(
        slope=float(slope), fit_snr_db=tuple(q.snr_db for q in window), residual=resid
    )
