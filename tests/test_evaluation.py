import dataclasses
import math
import multiprocessing
import os
import re
import subprocess
import sys
import warnings
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from scipy import integrate

from netmimo import channel, evaluation
from netmimo.allocation import PolicySpec, build_allocation
from netmimo.cli import ExperimentConfig, fig2_desk_config, run_experiment
from netmimo.channel import (
    PURPOSE_CHANNEL,
    PURPOSE_ESTIMATE,
    apply_estimate_noise,
    complex_gaussian,
    draw_channel,
    pathloss_matrix,
    trial_rng,
)
from netmimo.evaluation import (
    RatePoint,
    RejectionRateError,
    db_to_linear,
    dof_slope,
    evaluate_curves,
    evaluate_point,
    instantaneous_rates,
)
from netmimo.precoding import IllConditionedError, _precode, distributed_precoder, zf_precoder
from netmimo.topology import (
    NodeLayout,
    interference_levels,
    pairwise_distance,
    place_grid,
)


def test_db_round_trip():
    assert db_to_linear(30.0) == pytest.approx(1000.0, rel=1e-12)
    # evaluate_point labels its point 10 log10(p), as numpy computes it, a Python float.
    p = db_to_linear(47.3)
    point = evaluate_point(place_grid(2), 0.6, [PolicySpec("perfect")], p, 1, 0).rates[PolicySpec("perfect")]
    assert type(point.snr_db) is float and point.snr_db == float(10.0 * np.log10(p))
    assert point.snr_db == pytest.approx(47.3, rel=1e-12)


def test_zero_precoder_zero_rates():
    rng = np.random.default_rng(0)
    h = complex_gaussian(rng, (4, 4))
    sample = instantaneous_rates(h, np.zeros((4, 4), dtype=complex))
    np.testing.assert_array_equal(sample.rates, np.zeros(4))


def test_single_user_closed_form():
    rng = np.random.default_rng(1)
    for _ in range(10):
        h = complex_gaussian(rng, (1, 1))
        prec = zf_precoder(h, 100.0)
        got = instantaneous_rates(h, prec).rates[0]
        want = np.log2(1.0 + 100.0 * abs(h[0, 0]) ** 2)
        assert got == pytest.approx(want, rel=1e-12)


def test_perfect_zf_interference_free():
    rng = np.random.default_rng(2)
    p = 1e4
    for _ in range(10):
        h = complex_gaussian(rng, (4, 4))
        if np.linalg.cond(h) > 1e4:
            continue
        t = zf_precoder(h, p)
        gains = np.abs(h @ t) ** 2
        signal = np.diagonal(gains)
        interference = (gains * (1.0 - np.eye(4))).sum(axis=-1)
        assert np.max(interference) < 1e-12 * p
        np.testing.assert_allclose(
            instantaneous_rates(h, t).rates, np.log2(1.0 + signal), rtol=1e-9
        )


def test_single_user_ergodic_matches_quadrature():
    """Mean of log2(1 + 100 X), X ~ Exp(1), against numeric integration."""
    want, quad_err = integrate.quad(
        lambda x: np.log2(1.0 + 100.0 * x) * np.exp(-x), 0.0, np.inf
    )
    assert quad_err < 1e-6
    layout = NodeLayout(np.array([[0.0, 0.0]]))
    spec = PolicySpec("perfect")
    point = evaluate_point(layout, 0.6, [spec], 100.0, 100_000, seed=33).rates[spec]
    assert point.mean_avg == pytest.approx(want, rel=0.01)


def test_rate_difference_decomposition():
    """Per-trial rate loss is bounded by the deviation-interference split."""
    layout = place_grid(3)
    gamma = 0.6
    p = db_to_linear(40.0)
    dist = pairwise_distance(layout)
    sigma = pathloss_matrix(interference_levels(dist, gamma), p)
    bits = build_allocation(PolicySpec("distance"), layout, gamma, p).bits
    checked = 0
    for t in range(60):
        chan = draw_channel(sigma, trial_rng(44, t, PURPOSE_CHANNEL))
        if np.linalg.cond(chan.H) > 1e8:
            continue
        noise = complex_gaussian(trial_rng(44, t, PURPOSE_ESTIMATE), (9, 9, 9))
        est = apply_estimate_noise(chan, sigma, bits, noise)
        t_star = zf_precoder(chan.H, p)
        t_dist = distributed_precoder(est, p)
        r_perf = instantaneous_rates(chan.H, t_star).rates
        r_pol = instantaneous_rates(chan.H, t_dist).rates
        cross = np.abs(chan.H @ (t_dist - t_star)) ** 2
        np.fill_diagonal(cross, 0.0)
        dev_interf = cross.sum(axis=1)
        sig_star = np.abs(np.diagonal(chan.H @ t_star)) ** 2
        sig_pol = np.abs(np.diagonal(chan.H @ t_dist)) ** 2
        lhs = r_perf - r_pol
        rhs = np.log2(1.0 + dev_interf) + np.log2(1.0 + sig_star) - np.log2(1.0 + sig_pol)
        assert np.all(lhs <= rhs + 1e-4)
        checked += 1
    assert checked >= 50


def test_point_statistics_and_sample_shapes():
    layout = place_grid(2)
    specs = [PolicySpec("perfect"), PolicySpec("distance")]
    point = evaluate_point(layout, 0.6, specs, 1e4, 50, seed=5, keep_samples=True)
    for spec in specs:
        rp = point.rates[spec]
        assert rp.mean_per_user.shape == (4,)
        assert rp.trials == 50
        assert rp.mean_avg == pytest.approx(rp.mean_per_user.mean(), rel=1e-12)
        assert point.samples[spec].shape == (50, 4)
        np.testing.assert_allclose(point.samples[spec].mean(axis=0), rp.mean_per_user)
    dv = point.rates[specs[0]]
    assert dv.deviation_mean == 0.0 and dv.deviation_median == 0.0  # perfect tracks itself
    np.testing.assert_array_equal(dv.deviation_row_median, np.zeros(4))
    assert point.rates[specs[1]].deviation_mean > 0.0


def test_perfect_dominates_within_noise():
    layout = place_grid(3)
    specs = [PolicySpec("perfect"), PolicySpec("distance"), PolicySpec("zero")]
    for db in (30.0, 50.0):
        point = evaluate_point(layout, 0.6, specs, db_to_linear(db), 200, seed=6)
        perf = point.rates[specs[0]]
        for spec in specs[1:]:
            other = point.rates[spec]
            slack = 2.0 * (perf.stderr_avg + other.stderr_avg)
            assert perf.mean_avg >= other.mean_avg - slack


def test_monotone_csit_paired():
    """More bits never hurt (beyond noise): alpha 1.0 vs 1.25 on coupled draws."""
    layout = place_grid(3)
    specs = [PolicySpec("distance", alpha=1.0), PolicySpec("distance", alpha=1.25)]
    point = evaluate_point(layout, 0.6, specs, 1e5, 150, seed=7)
    hi, lo = point.rates[specs[0]], point.rates[specs[1]]
    assert hi.mean_avg >= lo.mean_avg - 2.0 * (hi.stderr_avg + lo.stderr_avg)


def test_deterministic_across_calls_and_workers():
    layout = place_grid(2)
    specs = [PolicySpec("perfect"), PolicySpec("uniform")]
    kw = dict(trials=40, seed=8)
    a = evaluate_point(layout, 0.6, specs, 1e4, **kw)
    b = evaluate_point(layout, 0.6, specs, 1e4, **kw)
    c = evaluate_point(layout, 0.6, specs, 1e4, workers=3, **kw)
    for spec in specs:
        np.testing.assert_array_equal(a.rates[spec].mean_per_user, b.rates[spec].mean_per_user)
        np.testing.assert_array_equal(a.rates[spec].mean_per_user, c.rates[spec].mean_per_user)
        assert a.rates[spec].stderr_avg == c.rates[spec].stderr_avg
        assert a.rates[spec].deviation_median == c.rates[spec].deviation_median


def test_single_trial_stderr_sentinel():
    layout = place_grid(2)
    point = evaluate_point(layout, 0.6, [PolicySpec("perfect")], 1e4, 1, seed=9)
    rp = point.rates[PolicySpec("perfect")]
    assert rp.trials == 1
    assert rp.stderr_avg == 0.0
    np.testing.assert_array_equal(rp.stderr_per_user, np.zeros(4))


def test_rejection_rate_error():
    layout = place_grid(2)
    # Threshold 1 rejects every channel, so a chunk runs no distributed solve after zero-forcing.
    for policies in ([PolicySpec("perfect")], [PolicySpec("perfect"), PolicySpec("distance")]):
        with pytest.raises(RejectionRateError) as info:
            evaluate_point(layout, 0.6, policies, 1e4, 10, seed=10, cond_threshold=1.0)
        assert info.value.rejected > 0


# At 40 dB on a 3x3 grid, a condition threshold of 60 rejects about one trial
# in nine: far inside a 50% limit, yet more than the 20 extra indices the
# top-ups were once capped at.
_TOPUP_CASE = dict(
    layout=place_grid(3),
    gamma=0.6,
    policies=[PolicySpec("perfect"), PolicySpec("distance")],
    p=db_to_linear(40.0),
    trials=200,
    seed=1,
    cond_threshold=60.0,
)


def test_topups_follow_rejection_limit():
    point = evaluate_point(**_TOPUP_CASE, max_rejection_rate=0.5)
    rp = point.rates[PolicySpec("perfect")]
    assert (rp.rejections, rp.trials + rp.rejections) == (26, 226)


def test_rejection_just_over_limit_reports_attempts():
    rejected = evaluate_point(**_TOPUP_CASE, max_rejection_rate=0.5).rates[PolicySpec("perfect")].rejections
    attempted = 200 + rejected
    limit = (rejected - 0.5) / attempted  # just under the share this case rejects
    with pytest.raises(RejectionRateError) as info:
        evaluate_point(**_TOPUP_CASE, max_rejection_rate=limit)
    assert (info.value.rejected, info.value.attempted) == (rejected, attempted)
    assert f"{rejected} of {attempted} trials rejected" in str(info.value)


def test_sweep_forks_one_pool(monkeypatch):
    """A sweep forks one pool. Its first round sends blocks of every point;
    each top-up round sends the ranges of only the points still short of
    their trials, each range holding only the indices its point lacks, and
    splits the union of those ranges into blocks."""
    ctx = multiprocessing.get_context("fork")
    real_pool = ctx.Pool
    started, rounds = [], []

    def recording_pool(*args, **kwargs):
        pool = real_pool(*args, **kwargs)
        real_map = pool.map

        def recording_map(fn, tasks, *a, **kw):
            rounds.append(tasks)
            return real_map(fn, tasks, *a, **kw)

        pool.map = recording_map
        started.append(pool)
        return pool

    monkeypatch.setattr(ctx, "Pool", recording_pool)
    case = {k: v for k, v in _TOPUP_CASE.items() if k != "p"}
    res = evaluate_curves(
        **case, snr_db=[30.0, 40.0, 60.0, 80.0], max_rejection_rate=0.5, workers=2
    )
    rejections = [pt.rejections for pt in res[PolicySpec("perfect")]]
    assert len(started) == 1
    assert rejections == [63, 26, 7, 6]
    # The first round runs trials 0..199 of every point.
    assert rounds[0][0][0] == [(i, 0, 200) for i in range(4)]
    # Each round's tasks carry its ranges and split their union, sorted, so each index is sent once.
    for tasks in rounds:
        ranges = tasks[0][0]
        assert all(r is ranges for r, _ in tasks)
        union = sorted({t for _, a, b in ranges for t in range(a, b)})
        np.testing.assert_array_equal(np.concatenate([idx for _, idx in tasks]), union)
    # 60 and 80 dB are done after one top-up, 40 dB after two.
    points_sent = [[i for i, _, _ in tasks[0][0]] for tasks in rounds]
    assert points_sent == [[0, 1, 2, 3], [0, 1, 2, 3], [0, 1], [0]]
    for point, rejected in enumerate(rejections):
        sent = [idx[(a <= idx) & (idx < b)] for tasks in rounds for ranges, idx in tasks for i, a, b in ranges if i == point]
        np.testing.assert_array_equal(np.concatenate(sent), np.arange(200 + rejected))
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize(
    "snr_db, counts",
    [([80.0, 10.0, 60.0, 5.0], "21 of 40"), ([80.0, 5.0, 60.0, 10.0], "21 of 56")],
    ids=["first-fails-first", "first-fails-after-a-top-up"],
)
def test_sweep_raises_the_first_failing_point_in_snr_order(snr_db, counts):
    """Threshold 60 rejects over 30% of the trials at 10 dB and at 5 dB. 10 dB
    fails after its first 40 trials, 5 dB only after a top-up. Either way the
    sweep raises the error of the point that comes first in SNR order, as a
    sweep of one point at a time would, with the same text for one and for
    two workers."""
    case = {k: v for k, v in _TOPUP_CASE.items() if k not in ("p", "trials")}
    texts = []
    for workers in (1, 2):
        with pytest.raises(RejectionRateError) as info:
            evaluate_curves(**case, snr_db=snr_db, trials=40, max_rejection_rate=0.3, workers=workers)
        texts.append(str(info.value))
        assert multiprocessing.active_children() == []
    assert texts[0] == texts[1]
    assert texts[0].startswith(f"{counts} trials rejected")


def test_no_worker_outlives_a_failed_call():
    """A rejection error partway through a sweep, or in a standalone point,
    still reaps every pool worker."""
    case = {k: v for k, v in _TOPUP_CASE.items() if k not in ("p", "trials")}
    # 80 and 60 dB pass; 10 dB rejects more than half of its trials at threshold 60.
    with pytest.raises(RejectionRateError):
        evaluate_curves(**case, snr_db=[80.0, 60.0, 10.0], trials=40, max_rejection_rate=0.3, workers=2)
    assert multiprocessing.active_children() == []
    with pytest.raises(RejectionRateError):
        evaluate_point(**case, p=db_to_linear(10.0), trials=40, max_rejection_rate=0.3, workers=2)
    assert multiprocessing.active_children() == []


def test_rates_csv_identical_for_any_worker_count(tmp_path):
    """Top-ups of rejected trials go through the shared pool without moving a byte."""
    texts = []
    for workers in (1, 2, 3):
        cfg = ExperimentConfig(
            seed=1,
            grid_side=3,
            gamma=0.6,
            snr_db=[30.0, 40.0],
            trials=200,
            policies=_TOPUP_CASE["policies"],
            cond_threshold=60.0,
            max_rejection_rate=0.5,
            output=str(tmp_path / f"w{workers}"),
        )
        result = run_experiment(cfg, workers=workers)
        texts.append((tmp_path / f"w{workers}" / "rates.csv").read_bytes())
    assert result.curves[PolicySpec("perfect")].points[1].rejections == 26
    assert texts[1] == texts[0] and texts[2] == texts[0]


# Chunk budgets that make every chunk one trial, and one chunk hold a whole point.
_ONE_TRIAL, _WHOLE_POINT = 1, 1 << 40


@pytest.mark.parametrize("budget", [_ONE_TRIAL, _WHOLE_POINT], ids=["one-trial", "whole-point"])
def test_rates_csv_identical_for_any_chunk_size(tmp_path, monkeypatch, budget):
    """A K=8 random layout with the data mask: the default chunks of 8 trials,
    chunks of one and one chunk per point write the same bytes."""
    cfg = fig2_desk_config(seed=3, trials=21, output=str(tmp_path / "default"))
    cfg.snr_db = [20.0, 50.0, 80.0]
    cfg.data_mask = True
    run_experiment(cfg)
    monkeypatch.setattr(evaluation, "_CHUNK_BYTES", budget)
    cfg.output = str(tmp_path / "budget")
    run_experiment(cfg)
    assert (tmp_path / "budget" / "rates.csv").read_bytes() == (tmp_path / "default" / "rates.csv").read_bytes()


def test_rejections_identical_for_any_chunk_size(monkeypatch):
    """Rejection, top-ups and the error text do not depend on the chunking."""
    outcomes = []
    for budget in (_ONE_TRIAL, _WHOLE_POINT):
        monkeypatch.setattr(evaluation, "_CHUNK_BYTES", budget)
        rp = evaluate_point(**_TOPUP_CASE, max_rejection_rate=0.5).rates[PolicySpec("perfect")]
        assert (rp.rejections, rp.trials + rp.rejections) == (26, 226)
        with pytest.raises(RejectionRateError) as info:
            evaluate_point(**_TOPUP_CASE, max_rejection_rate=25.5 / 226)
        outcomes.append((rp.mean_per_user.tobytes(), str(info.value)))
    assert outcomes[0] == outcomes[1]
    assert outcomes[0][1].startswith("26 of 226 trials rejected")


_FIG1_POLICIES = [
    PolicySpec("perfect"), PolicySpec("distance"), PolicySpec("uniform"), PolicySpec("cluster", cluster_size=4)
]


def _engine_args(grid_side, dbs, trials, cond_threshold=1e12, seed=3):
    """_simulate_trials arguments for a grid at gamma 0.6, running every
    point of dbs; cluster:4 only where the grid takes it."""
    layout = place_grid(grid_side)
    specs = _FIG1_POLICIES if grid_side % 2 == 0 else _FIG1_POLICIES[:3]
    levels = interference_levels(pairwise_distance(layout), 0.6)
    points = []
    for db in dbs:
        p = db_to_linear(db)
        bits_list = [None if s.kind == "perfect" else build_allocation(s, layout, 0.6, p).bits for s in specs]
        points.append((pathloss_matrix(levels, p), p, bits_list))
    return (points, seed, [(i, 0, trials) for i in range(len(dbs))], np.arange(trials), cond_threshold, None)


def _replayed(grid_side, points, seed, ranges, trial_indices, cond_threshold, mask):
    """What _simulate_trials returns for the grid, from one public kernel call
    per point, trial and policy, none of them sharing memory with another:
    per range, the indices of trial_indices that lie in it. Each point's
    sigma is built again from the layout; only its nominal SNR and bit
    tables are taken from points."""
    positions = place_grid(grid_side).positions
    return [
        _replayed_point(positions, 0.6, *points[i][1:], seed, [t for t in trial_indices if a <= t < b], cond_threshold)
        for i, a, b in ranges
    ]


def _replayed_point(positions, gamma, p, bits_list, seed, trial_indices, cond_threshold):
    k = len(positions)
    sigma = pathloss_matrix(interference_levels(pairwise_distance(NodeLayout(positions)), gamma), p)
    n, n_pol = len(trial_indices), len(bits_list)
    rates, row_dev = np.full((n, n_pol, k), np.nan), np.full((n, n_pol, k), np.nan)
    accepted, worst = np.zeros(n, dtype=bool), np.zeros(n)
    for row, t in enumerate(trial_indices):
        chan = draw_channel(sigma, trial_rng(seed, t, PURPOSE_CHANNEL))
        noise = complex_gaussian(trial_rng(seed, t, PURPOSE_ESTIMATE), (k, k, k))
        try:
            t_star = zf_precoder(chan.H, p, cond_threshold)
            solves = [chan.H if b is None else apply_estimate_noise(chan, sigma, b, noise) for b in bits_list]
            precs = [
                t_star if b is None else distributed_precoder(a, p, cond_threshold)
                for a, b in zip(solves, bits_list)
            ]
        except IllConditionedError as exc:
            worst[row] = exc.cond
            continue
        for pol, prec in enumerate(precs):
            rates[row, pol] = instantaneous_rates(chan.H, prec).rates
            row_dev[row, pol] = (np.abs(prec - t_star) ** 2).sum(axis=-1)
        accepted[row] = True
        # The condition estimate the precoding core gives each solve alone.
        worst[row] = max(_precode(a[None], p, cond_threshold)[1][0] for a in solves)
    return rates, row_dev.sum(axis=-1), row_dev, accepted, worst


def _same_bytes(got, want):
    """Per point, the same five result arrays, byte for byte."""
    return [[a.tobytes() for a in res] for res in got] == [[b.tobytes() for b in res] for res in want]


@pytest.mark.parametrize("db", [20.0, 60.0])
def test_k16_chunks_with_rejected_trials_equal_one_trial_calls(db):
    """At K = 16 a chunk holds several trials. A low threshold rejects a few
    of them (one trial in twelve at 60 dB, a third at 20 dB) and makes the
    kappa_F screen miss on most others; every per-trial output still equals
    the kernel calls of that trial alone."""
    assert evaluation._CHUNK_BYTES // (16 * 16**3) >= 2
    args = _engine_args(4, [db], 24, cond_threshold=300.0)
    got = evaluation._simulate_trials(*args)
    assert 0 < (~got[0][3]).sum() < 12
    assert _same_bytes(got, _replayed(4, *args))


def test_multi_point_engine_call_equals_each_point_replayed():
    """One K = 16 engine call at 20 and 60 dB draws each trial once and
    equals the one-trial kernel calls at each point, though the two points
    reject different trials."""
    args = _engine_args(4, [20.0, 60.0], 24, cond_threshold=300.0)
    got = evaluation._simulate_trials(*args)
    assert not np.array_equal(got[0][3], got[1][3])
    assert _same_bytes(got, _replayed(4, *args))


def test_disjoint_ranges_equal_each_point_replayed():
    """Ranges [0, 5) at 20 dB and [9, 14) at 60 dB over their union, which
    is not contiguous: a K = 16 chunk of 3 trials straddles the gap and
    holds trials of both points. Each point returns only its own rows, which
    equal its replay byte for byte."""
    points, seed, _, _, threshold, mask = _engine_args(4, [20.0, 60.0], 0, cond_threshold=300.0)
    ranges, idx = [(0, 0, 5), (1, 9, 14)], np.r_[0:5, 9:14]
    got = evaluation._simulate_trials(points, seed, ranges, idx, threshold, mask)
    assert [len(res[3]) for res in got] == [5, 5]
    assert _same_bytes(got, _replayed(4, points, seed, ranges, idx, threshold, mask))


def test_one_worker_sweep_draws_each_index_once_per_round(monkeypatch):
    """The grid-3 four-point top-up case at one worker: each round, first
    trials and top-ups alike, is one engine call over the union of its
    points' ranges, and derives each (trial, purpose) cell once, though the
    top-up ranges of the four points overlap."""
    calls = []
    real_engine, real_streams = evaluation._simulate_trials, evaluation._trial_streams

    def recording_engine(*args, **kwargs):
        calls.append([])
        return real_engine(*args, **kwargs)

    def recording_streams(seed, trials, purpose):
        calls[-1].extend((t, purpose) for t in trials)
        return real_streams(seed, trials, purpose)

    monkeypatch.setattr(evaluation, "_simulate_trials", recording_engine)
    monkeypatch.setattr(evaluation, "_trial_streams", recording_streams)
    case = {k: v for k, v in _TOPUP_CASE.items() if k != "p"}
    res = evaluate_curves(**case, snr_db=[30.0, 40.0, 60.0, 80.0], max_rejection_rate=0.5)
    assert [pt.rejections for pt in res[PolicySpec("perfect")]] == [63, 26, 7, 6]
    # One call per round: every point, every point's top-up, then 30 and 40 dB, then 30 dB.
    assert len(calls) == 4
    for cells in calls:
        assert len(cells) == len(set(cells))


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_sweep_top_ups_equal_each_point_replayed(workers):
    """A K = 16 sweep at 20 and 60 dB with threshold 300: the points top up
    different index ranges, and each point's blocks equal its replay over
    every index it attempted, for one, two and three workers."""
    layout = place_grid(4)
    engine = evaluation._engine(layout, 0.6, _FIG1_POLICIES, [db_to_linear(20.0), db_to_linear(60.0)], 3, 300.0, False)
    blocks = evaluation._sweep(engine, 2, 16, 24, 0.5, workers)
    attempted = [sum(len(b[3]) for b in point) for point in blocks]
    assert attempted[0] > attempted[1] > 24
    for point, n in enumerate(attempted):
        got = [np.concatenate([b[j] for b in blocks[point]]) for j in range(5)]
        want = _replayed(4, *_engine_args(4, [20.0, 60.0], n, cond_threshold=300.0))[point]
        assert [a.tobytes() for a in got] == [b.tobytes() for b in want]
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("n_points", [1, 3, 8])
def test_sweep_draws_each_trial_once(monkeypatch, n_points):
    """A one-worker sweep with no rejections draws each (trial, purpose)
    cell once, whatever the number of SNR points."""
    cells, draws = [], []
    real_streams, real_draw = evaluation._trial_streams, channel.complex_gaussian

    def recording_streams(seed, trials, purpose):
        cells.extend((t, purpose) for t in trials)
        return real_streams(seed, trials, purpose)

    def counting_draw(*a, **kw):
        draws.append(a[1])
        return real_draw(*a, **kw)

    monkeypatch.setattr(evaluation, "_trial_streams", recording_streams)
    monkeypatch.setattr(channel, "complex_gaussian", counting_draw)
    snr_db = [20.0 + 10.0 * i for i in range(n_points)]
    res = evaluate_curves(place_grid(2), 0.6, _FIG1_POLICIES, snr_db, 30, seed=4)
    assert all(pt.rejections == 0 for pt in res[_FIG1_POLICIES[0]])
    assert sorted(cells) == [(t, pur) for t in range(30) for pur in (PURPOSE_CHANNEL, PURPOSE_ESTIMATE)]
    assert len(draws) == len(cells)
    assert sorted(draws) == [(4, 4)] * 30 + [(4, 4, 4)] * 30


@pytest.mark.parametrize("budget", [None, _ONE_TRIAL], ids=["default", "one-trial"])
def test_k1_engine_equals_one_trial_calls(monkeypatch, budget):
    """A one-node layout: every stack has one entry per trial, and a chunk of
    one trial makes one-element arrays, on which numpy runs other loops."""
    if budget is not None:
        monkeypatch.setattr(evaluation, "_CHUNK_BYTES", budget)
    args = _engine_args(1, [30.0], 40)
    assert _same_bytes(evaluation._simulate_trials(*args), _replayed(1, *args))


def test_interleaved_engine_calls_equal_fresh_calls(monkeypatch):
    """A K = 3 call made in the middle of a K = 16 call's chunk, between two
    of its noise draws, changes neither call's output."""
    big, small = _engine_args(4, [40.0], 9, seed=5), _engine_args(3, [40.0], 11, cond_threshold=60.0, seed=6)
    fresh_big, fresh_small = evaluation._simulate_trials(*big), evaluation._simulate_trials(*small)
    real_draw = channel.complex_gaussian
    nested = []

    def draw_with_a_nested_call(*a, **kw):
        out = real_draw(*a, **kw)
        if a[1] == (16, 16, 16) and not nested:
            nested.append(evaluation._simulate_trials(*small))
        return out

    monkeypatch.setattr(channel, "complex_gaussian", draw_with_a_nested_call)
    assert _same_bytes(evaluation._simulate_trials(*big), fresh_big)
    assert _same_bytes(nested[0], fresh_small)
    assert _same_bytes(evaluation._simulate_trials(*small), fresh_small)


def test_condition_number_sees_only_the_screen_misses(monkeypatch):
    """Each precoding core call of a rejection-heavy run makes at most one
    np.linalg.cond call, on exactly the trials of its batch whose kappa_F
    screen missed (kappa_F >= threshold / 4), and several calls decide more
    than one missed trial at once."""
    calls = []  # per precoder call: its input and the stacks np.linalg.cond saw
    real_cond = np.linalg.cond

    def recording_cond(a, *args):
        calls[-1][1].append(a.copy())
        return real_cond(a, *args)

    def recording_core(a, *args, **kwargs):
        calls.append((np.array(a), []))  # a copy: estimates live in the engine's workspace
        return _precode(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "cond", recording_cond)
    monkeypatch.setattr(evaluation, "_precode", recording_core)
    evaluate_point(**_TOPUP_CASE, max_rejection_rate=0.5)
    limit = _TOPUP_CASE["cond_threshold"] / 4
    batched = 0
    for a, seen in calls:
        assert len(seen) <= 1
        kappa_f = np.linalg.norm(a, axis=(-2, -1)) * np.linalg.norm(np.linalg.inv(a), axis=(-2, -1))
        missed = kappa_f.reshape(len(a), -1).max(axis=-1) >= limit
        assert (seen[0] if seen else a[:0]).tobytes() == a[missed].tobytes()
        batched += int(missed.sum()) > 1
    assert batched > 0
    assert {s.shape[1:] for _, seen in calls for s in seen} == {(9, 9), (9, 9, 9)}


def test_each_attempted_row_is_solved_once_per_policy(monkeypatch):
    """The grid-3 top-up case with two distributed policies (258 rows
    attempted, 58 rejected): every attempted (trial, point) row runs
    zero-forcing on its channel exactly once, and each distributed policy at
    most once, on the rows no earlier solve of its chunk rejected."""
    chunks = []  # per (chunk, point): each core call's input and rejected mask, in call order

    def recording_core(a, p, cond_threshold, scratch=None):
        out = _precode(a, p, cond_threshold, scratch)
        if a.ndim == 3:  # zero-forcing on the channels opens a (chunk, point)
            chunks.append([])
        chunks[-1].append((np.array(a), out[2].copy()))
        return out

    monkeypatch.setattr(evaluation, "_precode", recording_core)
    case = {**_TOPUP_CASE, "policies": [PolicySpec("perfect"), PolicySpec("distance"), PolicySpec("uniform")]}
    rp = evaluate_point(**case, max_rejection_rate=0.5).rates[PolicySpec("perfect")]
    attempted = rp.trials + rp.rejections
    zf_rows = [h.tobytes() for chunk in chunks for h in chunk[0][0]]
    assert len(zf_rows) == len(set(zf_rows)) == attempted
    for chunk in chunks:
        assert len(chunk) <= 3
        for (_, rejected), (later, _) in zip(chunk, chunk[1:]):
            assert len(later) == (~rejected).sum() > 0
    accepted = sum(int((~chunk[-1][1]).sum()) for chunk in chunks if len(chunk) == 3)
    assert accepted == rp.trials
    for stage in (1, 2):
        rows = [est.tobytes() for chunk in chunks if len(chunk) > stage for est in chunk[stage][0]]
        assert len(rows) == len(set(rows)) <= attempted
        # Both distributed policies reject trials here, so each drops rows from what follows.
        assert any(chunk[stage][1].any() for chunk in chunks if len(chunk) > stage)


def test_default_threshold_clears_without_svd(monkeypatch):
    """At the default threshold the kappa_F screen accepts every solve of a
    preset-like run, so np.linalg.cond never runs."""

    def no_svd(*args, **kwargs):
        raise AssertionError("np.linalg.cond was called")

    monkeypatch.setattr(np.linalg, "cond", no_svd)
    specs = [PolicySpec("perfect"), PolicySpec("distance"), PolicySpec("uniform"), PolicySpec("cluster", cluster_size=4)]
    for db in (10.0, 80.0):
        point = evaluate_point(place_grid(2), 0.6, specs, db_to_linear(db), 40, seed=11)
        assert point.rates[specs[0]].rejections == 0


def test_pool_workers_build_nothing(monkeypatch):
    """Every point's sigma and allocation tables are built before the fork:
    with the builders made to raise once _engine has returned, a pooled task
    still returns the bytes of an inline call."""
    specs = [PolicySpec("perfect"), PolicySpec("distance"), PolicySpec("uniform")]
    engine = evaluation._engine(place_grid(2), 0.6, specs, [1e4, 1e6], 12, 1e12, False)
    ranges = [(0, 0, 5), (1, 0, 5)]
    inline = engine(ranges, np.arange(5))

    def no_build(*args, **kwargs):
        raise AssertionError("an engine call built a sigma or a table")

    for name in ("pathloss_matrix", "build_allocation", "interference_levels", "pairwise_distance"):
        monkeypatch.setattr(evaluation, name, no_build)
    with evaluation._worker_pool(2, engine) as pool:
        [pooled] = pool.map(evaluation._run_block, [(ranges, np.arange(5))], chunksize=1)
    assert _same_bytes(pooled, inline)
    assert _same_bytes(engine(ranges, np.arange(5)), inline)
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("workers, trials, forked", [(5, 6, [2]), (3, 3, []), (2, 24, [2])])
def test_sweep_forks_no_more_workers_than_first_round_tasks(monkeypatch, workers, trials, forked):
    """At K = 16 a chunk holds 3 trials: 6 trials make a first round of two
    tasks, so five workers fork a pool of two, and 3 trials make one task,
    which runs inline. The bytes equal a one-worker run's."""
    ctx = multiprocessing.get_context("fork")
    real_pool, sizes = ctx.Pool, []

    def recording_pool(*args, **kwargs):
        sizes.append(kwargs["processes"])
        return real_pool(*args, **kwargs)

    monkeypatch.setattr(ctx, "Pool", recording_pool)
    specs = [PolicySpec("perfect"), PolicySpec("distance")]
    run = partial(evaluate_point, place_grid(4), 0.6, specs, 1e4, trials, seed=1, keep_samples=True)
    pooled = run(workers=workers)
    assert sizes == forked
    assert pooled.samples[specs[1]].tobytes() == run(workers=1).samples[specs[1]].tobytes()
    assert multiprocessing.active_children() == []


def test_duplicate_policy_rejected():
    layout = place_grid(2)
    with pytest.raises(ValueError, match="^policies must be distinct, got perfect twice$"):
        evaluate_point(layout, 0.6, [PolicySpec("perfect"), PolicySpec("perfect")], 1e4, 5, seed=11)
    with pytest.raises(ValueError, match=r"^policies must be distinct, got distance\(alpha=1\) twice$"):
        evaluate_curves(layout, 0.6, [PolicySpec("distance")] * 2, [20.0], 3, 1)


@pytest.mark.parametrize("workers", [0, -2, 2.5, True, "2"])
def test_workers_must_be_an_integer_of_at_least_one(workers):
    """A worker count that is not an integer >= 1 is named in a ValueError;
    numpy integers are integers."""
    with pytest.raises(ValueError, match=re.escape(f"workers must be an integer >= 1, got {workers!r}")):
        evaluate_curves(place_grid(3), 0.6, [PolicySpec("perfect")], [20.0], 60, seed=1, workers=workers)
    assert evaluate_curves(place_grid(2), 0.6, [PolicySpec("perfect")], [20.0], 3, seed=1, workers=np.int64(2))


@pytest.mark.parametrize(
    "name, value, low",
    [("trials", 0, 1), ("trials", 2.5, 1), ("trials", True, 1), ("seed", -1, 0), ("seed", 1.0, 0), ("seed", False, 0)],
)
def test_trials_and_seed_must_be_integers_in_range(monkeypatch, name, value, low):
    """trials and seed are checked like workers, before the engine is built."""
    monkeypatch.setattr(evaluation, "_engine", _no_engine)
    args = {"trials": 60, "seed": 1, name: value}
    with pytest.raises(ValueError, match=re.escape(f"{name} must be an integer >= {low}, got {value!r}")):
        evaluate_curves(place_grid(3), 0.6, [PolicySpec("perfect")], [20.0], **args)


@pytest.mark.parametrize("threshold", [0.5, 0.0, -1.0, float("nan")])
def test_cond_threshold_below_one_raises_before_anything_runs(monkeypatch, threshold):
    """No matrix has kappa_2 < 1, so such a threshold could accept no trial,
    and NaN would accept every finite one."""
    monkeypatch.setattr(evaluation, "_engine", _no_engine)
    message = f"cond_threshold must be >= 1 (every matrix has kappa_2 >= 1), got {threshold}"
    with pytest.raises(ValueError, match=re.escape(message)):
        evaluate_curves(place_grid(3), 0.6, [PolicySpec("perfect")], [20.0], 60, seed=1, cond_threshold=threshold)


@pytest.mark.parametrize("empty", ["policies", "snr_db"])
def test_empty_policies_or_snr_points_raise_before_anything_runs(monkeypatch, empty):
    monkeypatch.setattr(evaluation, "_engine", _no_engine)
    args = {"policies": [PolicySpec("perfect"), PolicySpec("distance")], "snr_db": [20.0, 40.0], empty: []}
    with pytest.raises(ValueError, match=f"^{empty} must not be empty$"):
        evaluate_curves(place_grid(3), 0.6, trials=60, seed=1, workers=2, **args)


@pytest.mark.parametrize("db", [float("nan"), float("inf"), float("-inf"), 0.0, -3.0, 4000.0])
def test_snr_points_without_a_finite_nominal_snr_above_one_raise_before_anything_runs(monkeypatch, db):
    """P = 10^(dB/10) must be finite and > 1 at every point; 4000 dB
    overflows a float. The error names the dB value, before any table is
    built."""
    monkeypatch.setattr(evaluation, "_engine", _no_engine)
    message = f"snr_db: nominal SNR P must be finite and > 1 (0 dB), got {db!r} dB"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        evaluate_curves(place_grid(2), 0.6, [PolicySpec("perfect"), PolicySpec("distance")], [20.0, db], 3, seed=1)


@pytest.mark.parametrize("p", [0.0, -1.0, float("nan"), float("inf"), float("-inf")])
def test_evaluate_point_names_a_bad_p_without_a_warning(monkeypatch, p):
    """A p with no finite dB value above 0 is refused before log10 sees it,
    and the message names the p given, not a dB value derived from it."""
    monkeypatch.setattr(evaluation, "_engine", _no_engine)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"^{re.escape(f'p: nominal SNR P must be finite and > 1 (0 dB), got {p!r}')}$"):
            evaluate_point(place_grid(2), 0.6, [PolicySpec("perfect")], p, 3, 1)


def test_db_to_linear_reads_numpy_scalars_as_floats(monkeypatch):
    """numpy scalars give the Python float result, overflow to inf without a
    warning, and an np.linspace SNR list runs like the list of its floats."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert db_to_linear(np.float64(4000.0)) == math.inf
        assert db_to_linear(np.float32(4000.0)) == math.inf
        assert db_to_linear(np.float64(47.3)) == db_to_linear(47.3)
        assert db_to_linear(np.float32(47.3)) == db_to_linear(float(np.float32(47.3)))
        layout, specs = place_grid(2), [PolicySpec("perfect"), PolicySpec("distance")]
        grid = np.linspace(20.0, 40.0, 3)
        got = evaluate_curves(layout, 0.6, specs, grid, 3, seed=1)
        want = evaluate_curves(layout, 0.6, specs, grid.tolist(), 3, seed=1)
        for spec in specs:
            for g, w in zip(got[spec], want[spec]):
                for field in dataclasses.fields(RatePoint):
                    assert np.array_equal(getattr(g, field.name), getattr(w, field.name)), field.name
        monkeypatch.setattr(evaluation, "_engine", _no_engine)
        message = f"snr_db: nominal SNR P must be finite and > 1 (0 dB), got {np.float64(4000.0)!r} dB"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            evaluate_curves(layout, 0.6, specs, np.linspace(20.0, 4000.0, 2), 3, seed=1)


def _no_engine(*args, **kwargs):
    raise AssertionError("an engine was built")


# Run in a fresh interpreter: the pooled run comes first, while the parent has
# drawn nothing, and every step must leave numpy.ma unimported.
_IMPORT_PROBE = """
import multiprocessing, sys
from netmimo import cli, evaluation, oracle

assert "numpy.random" not in sys.modules
ctx = multiprocessing.get_context("fork")
real_pool, loaded = ctx.Pool, []

def recording_pool(*args, **kwargs):
    loaded.append("numpy.random" in sys.modules)
    return real_pool(*args, **kwargs)

real_block = evaluation._run_block

def checked_block(task):
    before = set(sys.modules)
    out = real_block(task)
    assert set(sys.modules) == before, f"a task imported {sorted(set(sys.modules) - before)}"
    return out

ctx.Pool, evaluation._run_block = recording_pool, checked_block
for workers in (2, 1):
    cli.run_experiment(cli.fig1_desk_config(seed=3, trials=4, output=f"w{workers}"), workers=workers)
    assert "numpy.ma" not in sys.modules, workers
assert loaded == [True], loaded
oracle.run_verification(trials=50)
assert "numpy.ma" not in sys.modules
"""


def test_pool_workers_and_runs_import_nothing_more(tmp_path):
    """The parent loads numpy.random before it forks a pool, so a pooled
    task imports no module, and neither a run nor verify imports numpy.ma."""
    env = {**os.environ, "PYTHONPATH": str(Path(evaluation.__file__).parents[1])}
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE], cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "w1" / "rates.csv").read_bytes() == (tmp_path / "w2" / "rates.csv").read_bytes()


def test_evaluate_curves_structure():
    layout = place_grid(2)
    specs = [PolicySpec("perfect"), PolicySpec("distance")]
    snr = [20.0, 30.0, 40.0]
    res = evaluate_curves(layout, 0.6, specs, snr, 30, seed=12)
    for spec in specs:
        points = res[spec]
        assert [pt.snr_db for pt in points] == snr
        assert all(pt.deviation_row_median.shape == (4,) for pt in points)
        assert all(pt.trials == 30 for pt in points)


def _synthetic_curve(slope):
    pts = []
    for db in (20.0, 30.0, 40.0, 50.0):
        p = db_to_linear(db)
        rate = slope * np.log2(p) + 1.5
        pts.append(
            RatePoint(
                snr_db=db,
                p=p,
                mean_per_user=np.array([rate]),
                stderr_per_user=np.array([0.0]),
                mean_avg=rate,
                stderr_avg=0.0,
                trials=10,
                rejections=0,
                deviation_mean=0.0,
                deviation_median=0.0,
                deviation_row_median=np.array([0.0]),
            )
        )
    return pts


def test_dof_slope_synthetic_lines():
    assert dof_slope(_synthetic_curve(1.0), 4).slope == pytest.approx(1.0, abs=1e-12)
    est = dof_slope(_synthetic_curve(0.5), 3)
    assert est.slope == pytest.approx(0.5, abs=1e-12)
    assert est.residual == pytest.approx(0.0, abs=1e-9)
    assert est.fit_snr_db == (30.0, 40.0, 50.0)


def test_dof_slope_validation():
    curve = _synthetic_curve(1.0)
    with pytest.raises(ValueError):
        dof_slope(curve, 1)
    with pytest.raises(ValueError):
        dof_slope(curve, 5)
    # A repeated SNR inside the fit window would fit fewer x values than it claims.
    with pytest.raises(ValueError, match="repeats an SNR point"):
        dof_slope(curve + curve[-1:], 2)
    assert dof_slope(curve[:3] + curve[:1], 3).slope == pytest.approx(1.0)
