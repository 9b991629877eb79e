"""Correctness checks on workload outputs, and the kernel replay.

The replay re-runs sampled trials of a simulation config through the public
kernels (trial_rng -> draw_channel -> apply_estimate_noise ->
distributed_precoder / zf_precoder -> instantaneous_rates) and compares the
per-trial rates with ``evaluate_point(..., keep_samples=True)``, whose engine
keeps its own inline copy of the same steps. It is both a check (any
difference fails the run) and the timer of the precoding layer.
"""

from __future__ import annotations

import math
import time

import numpy as np

from netmimo.allocation import build_allocation
from netmimo.channel import (
    PURPOSE_CHANNEL,
    PURPOSE_ESTIMATE,
    apply_estimate_noise,
    complex_gaussian,
    draw_channel,
    pathloss_matrix,
    trial_rng,
)
from netmimo.cli import ExperimentConfig, resolve_layout
from netmimo.evaluation import db_to_linear, evaluate_point, instantaneous_rates
from netmimo.precoding import IllConditionedError, distributed_precoder, zf_precoder
from netmimo.topology import interference_levels, pairwise_distance

RATES_HEADER = "policy,alpha,snr_db,user,mean_rate_bits,stderr,trials,rejections"
VERIFY_CHECKS = 7

# Largest |difference| in bits from the seed commit's rates.csv that still
# counts as correct. A declared numerical change (say, a batched solve that
# moves the last digits) stays well inside it; a wrong result does not.
DRIFT_TOLERANCE_BITS = 1e-6


class CheckFailed(Exception):
    """A workload output failed a correctness check."""


def parse_rates(text: str, cfg: ExperimentConfig, k: int) -> list[list[str]]:
    """Split rates.csv into rows after checking its shape and values."""
    lines = text.splitlines()
    if not lines or lines[0] != RATES_HEADER:
        raise CheckFailed("rates.csv header differs from the documented one")
    rows = [line.split(",") for line in lines[1:]]
    expected = len(cfg.policies) * len(cfg.snr_db) * (k + 1)
    if len(rows) != expected:
        raise CheckFailed(f"rates.csv has {len(rows)} rows, expected {expected}")
    for row in rows:
        if len(row) != 8 or int(row[6]) != cfg.trials:
            raise CheckFailed(f"malformed rates.csv row {row}")
        if not all(math.isfinite(float(v)) for v in row[4:6]):
            raise CheckFailed(f"non-finite rate in row {row}")
    return rows


def rejected_frac(rows: list[list[str]]) -> float:
    """Rejected over attempted trials, summed over SNR points.

    Rejection is joint across policies, so every policy's row of a point
    carries the same counts.
    """
    per_point = {r[2]: (int(r[6]), int(r[7])) for r in rows if r[3] == "avg"}
    kept = sum(t for t, _ in per_point.values())
    rejected = sum(r for _, r in per_point.values())
    return rejected / (kept + rejected)


def rate_drift(text: str, reference: str) -> float:
    """Largest |difference| of any mean_rate_bits/stderr field, in bits."""
    got = [line.split(",") for line in text.splitlines()[1:]]
    ref = [line.split(",") for line in reference.splitlines()[1:]]
    if len(got) != len(ref) or any(g[:4] != r[:4] for g, r in zip(got, ref)):
        raise CheckFailed("rates.csv rows do not line up with the reference")
    return max(abs(float(g[i]) - float(r[i])) for g, r in zip(got, ref) for i in (4, 5))


def check_verify(results) -> None:
    if len(results) != VERIFY_CHECKS:
        raise CheckFailed(f"verify returned {len(results)} checks, expected {VERIFY_CHECKS}")
    failed = [r.name for r in results if not r.passed]
    if failed:
        raise CheckFailed(f"verify checks failed: {', '.join(failed)}")


def replay(cfg: ExperimentConfig, trials: int) -> tuple[float, dict[str, list[float]]]:
    """Replay trials 0..trials-1 of every SNR point through the kernels.

    Returns the largest |rate difference| against the engine and the
    per-call seconds of each kernel.
    """
    layout = resolve_layout(cfg)
    k = layout.K
    levels = interference_levels(pairwise_distance(layout), cfg.gamma)
    times: dict[str, list[float]] = {
        "zf_precoder": [], "distributed_precoder": [],
        "apply_estimate_noise": [], "instantaneous_rates": [],
    }

    def timed(name, fn, *args):
        t0 = time.perf_counter()
        out = fn(*args)
        times[name].append(time.perf_counter() - t0)
        return out

    worst = 0.0
    for db in cfg.snr_db:
        p = db_to_linear(db)
        point = evaluate_point(
            layout, cfg.gamma, cfg.policies, p, trials, cfg.seed,
            cond_threshold=cfg.cond_threshold, max_rejection_rate=cfg.max_rejection_rate,
            keep_samples=True,
        )
        model = pathloss_matrix(levels, p)
        bits = [
            None if spec.kind == "perfect" else build_allocation(spec, layout, cfg.gamma, p).bits
            for spec in cfg.policies
        ]
        row = 0
        trial = 0
        while row < trials:
            chan = draw_channel(model, trial_rng(cfg.seed, trial, PURPOSE_CHANNEL))
            noise = complex_gaussian(trial_rng(cfg.seed, trial, PURPOSE_ESTIMATE), (k, k, k))
            trial += 1
            try:
                t_star = timed("zf_precoder", zf_precoder, chan.H, p, cfg.cond_threshold)
                precoders = []
                for b in bits:
                    if b is None:
                        precoders.append(t_star)
                        continue
                    est = timed("apply_estimate_noise", apply_estimate_noise, chan, model, b, noise)
                    precoders.append(
                        timed("distributed_precoder", distributed_precoder, est, p, cfg.cond_threshold)
                    )
            except IllConditionedError:
                continue  # the engine rejects this trial too and draws a fresh index
            for spec, prec in zip(cfg.policies, precoders):
                rates = timed("instantaneous_rates", instantaneous_rates, chan.H, prec).rates
                worst = max(worst, float(np.max(np.abs(rates - point.samples[spec][row]))))
            row += 1
    return worst, times
