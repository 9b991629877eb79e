"""Acceptance suite: one test per shipping criterion, each printing a single
PASS/FAIL line (visible with `pytest -v -s` or in the captured output).

The heavy Monte-Carlo runs are module-scoped fixtures so the whole file costs
a couple of minutes single-worker. Every tolerance is pinned here, not
derived at runtime.
"""

import time

import numpy as np
import pytest

from netmimo.allocation import PolicySpec, allocation_size, build_allocation, conventional
from netmimo.cli import ExperimentConfig, resolve_layout, run_experiment
from netmimo.evaluation import db_to_linear, dof_slope, evaluate_curves
from netmimo.oracle import (
    inverse_decay_estimate,
    resolvent_max_error,
    term_decay_check,
    truncation_order,
    truncation_tail_check,
)
from netmimo.topology import (
    NodeLayout,
    cooperation_radius,
    data_sharing_sets,
    interference_levels,
    pairwise_distance,
    place_grid,
)

GRID_SNR_DB = [40.0, 50.0, 60.0, 70.0, 80.0]
SEED = 9001


def _report(name: str, passed: bool, detail: str) -> None:
    verdict = "PASS" if passed else "FAIL"
    print(f"[{verdict}] {name}: {detail}")
    assert passed, f"{name}: {detail}"


def _slope(result, spec, fit_points):
    return dof_slope(result[spec], fit_points).slope


def _dev_slope(points):
    x = np.log2([pt.p for pt in points])
    return float(np.polyfit(x, np.log2([pt.deviation_median for pt in points]), 1)[0])


@pytest.fixture(scope="module")
def fig1_run():
    layout = place_grid(4)
    specs = [
        PolicySpec("perfect"),
        PolicySpec("distance"),
        PolicySpec("uniform"),
        PolicySpec("cluster", cluster_size=4),
    ]
    start = time.perf_counter()
    result = evaluate_curves(layout, 0.6, specs, GRID_SNR_DB, 500, SEED)
    return specs, result, time.perf_counter() - start


@pytest.fixture(scope="module")
def deviation_run():
    layout = place_grid(4)
    specs = [PolicySpec("conventional"), PolicySpec("zero"), PolicySpec("distance")]
    result = evaluate_curves(layout, 0.6, specs, GRID_SNR_DB, 500, SEED)
    return specs, result


@pytest.fixture(scope="module")
def alpha_run():
    cfg = ExperimentConfig(seed=202, layout_kind="random", random_k=8, random_side=4.0, gamma=0.7)
    layout = resolve_layout(cfg)
    specs = [
        PolicySpec("perfect"),
        PolicySpec("distance", alpha=0.75),
        PolicySpec("distance", alpha=1.0),
        PolicySpec("distance", alpha=1.25),
    ]
    snr = [80.0, 90.0, 100.0, 110.0, 120.0]
    result = evaluate_curves(layout, 0.7, specs, snr, 500, 202)
    return specs, result


def test_criterion_01_size_ratio():
    """Distance-based feedback on the 6x6 grid costs 5-8% of conventional."""
    start = time.perf_counter()
    layout = place_grid(6)
    dist = pairwise_distance(layout)
    p = db_to_linear(50.0)
    conv = allocation_size(conventional(interference_levels(dist, 0.6), p))
    dist_size = allocation_size(build_allocation(PolicySpec("distance"), layout, 0.6, p))
    ratio = dist_size.total_bits / conv.total_bits
    ratio_asym = dist_size.prelog_asymptotic / conv.prelog_asymptotic
    elapsed = time.perf_counter() - start
    ok = 0.05 <= ratio <= 0.08 and elapsed < 1.0
    _report(
        "criterion 1 size ratio",
        ok,
        f"finite ratio {ratio:.4f} in [0.05, 0.08], asymptotic {ratio_asym:.4f}, {elapsed * 1e3:.0f} ms",
    )


def test_per_tx_csit_stays_bounded_under_distance_and_grows_with_k_under_conventional():
    """The abstract's scaling claim on grids of side 6 to 12 (K = 36 to 144),
    gamma = 0.6, 50 dB: the largest per-TX bit count under the distance
    policy stays at its side-6 value, while under conventional dissemination
    it grows at least linearly in K (its bits per node never fall)."""
    p = db_to_linear(50.0)
    dist_max, conv_per_node = [], []
    for side in (6, 8, 10, 12):
        layout = place_grid(side)
        levels = interference_levels(pairwise_distance(layout), 0.6)
        dist = build_allocation(PolicySpec("distance"), layout, 0.6, p)
        dist_max.append(float(allocation_size(dist).per_tx_bits.max()))
        conv_per_node.append(float(allocation_size(conventional(levels, p)).per_tx_bits.max()) / layout.K)
    ok = all(bits == dist_max[0] for bits in dist_max) and all(np.diff(conv_per_node) >= 0.0)
    _report(
        "scaling claim",
        ok,
        f"distance max per-TX bits {dist_max}, conventional bits per node {[round(b, 1) for b in conv_per_node]}",
    )


def test_criterion_02_dof_ordering(fig1_run):
    specs, result, elapsed = fig1_run
    perfect, dist, uniform, cluster = (_slope(result, s, 5) for s in specs)
    ok = (
        0.9 <= perfect <= 1.1
        and abs(dist - perfect) <= 0.1
        and cluster <= dist - 0.1
        and uniform <= cluster
        and elapsed <= 600.0
    )
    _report(
        "criterion 2 DoF ordering",
        ok,
        f"slopes perfect {perfect:.3f}, distance {dist:.3f}, cluster {cluster:.3f}, "
        f"uniform {uniform:.3f}; run {elapsed:.0f} s",
    )


def test_criterion_03_deviation_scaling(deviation_run):
    specs, result = deviation_run
    conv_slope = _dev_slope(result[specs[0]])
    zero_slope = _dev_slope(result[specs[1]])
    ok = abs(conv_slope) <= 0.15 and abs(zero_slope - 1.0) <= 0.15
    _report(
        "criterion 3 deviation scaling",
        ok,
        f"conventional slope {conv_slope:+.3f} (|.| <= 0.15), zero-bit slope {zero_slope:.3f} (within 0.15 of 1)",
    )


def test_criterion_04_per_row_condition(deviation_run):
    specs, result = deviation_run
    points = result[specs[2]]
    x = np.log2([pt.p for pt in points])
    rows = np.log2(np.array([pt.deviation_row_median for pt in points]))
    slopes = np.polyfit(x, rows, 1)[0]
    worst = float(np.max(np.abs(slopes)))
    ok = worst <= 0.15
    _report(
        "criterion 4 per-row deviation",
        ok,
        f"distance policy per-TX slopes in [{slopes.min():+.3f}, {slopes.max():+.3f}], max |.| {worst:.3f} <= 0.15",
    )


def test_criterion_05_alpha_variants(alpha_run):
    specs, result = alpha_run
    s075 = _slope(result, specs[1], 4)
    s100 = _slope(result, specs[2], 4)
    s125 = _slope(result, specs[3], 4)
    top075 = result[specs[1]][-1].mean_avg
    top100 = result[specs[2]][-1].mean_avg
    cfg = ExperimentConfig(seed=202, layout_kind="random", random_k=15, random_side=6.0, gamma=0.7)
    layout = resolve_layout(cfg)
    dist = pairwise_distance(layout)
    p = db_to_linear(50.0)
    conv_bits = allocation_size(conventional(interference_levels(dist, 0.7), p)).total_bits
    fractions = [
        allocation_size(build_allocation(PolicySpec("distance", alpha=a), layout, 0.7, p)).total_bits / conv_bits
        for a in (0.75, 1.0, 1.25)
    ]
    frac_ok = all(abs(f - t) <= 0.10 for f, t in zip(fractions, (0.30, 0.17, 0.10)))
    ok = s125 <= s100 - 0.1 and abs(s075 - s100) <= 0.1 and top075 >= top100 and frac_ok
    _report(
        "criterion 5 alpha variants",
        ok,
        f"slopes 0.75/1/1.25 = {s075:.3f}/{s100:.3f}/{s125:.3f}; top rates {top075:.2f} >= {top100:.2f}; "
        f"K=15 fractions {fractions[0]:.3f}/{fractions[1]:.3f}/{fractions[2]:.3f} vs 0.30/0.17/0.10 +-0.10",
    )


def test_criterion_06_resolvent_identity():
    start = time.perf_counter()
    worst = resolvent_max_error(pairs=1000, size=8, seed=7)
    elapsed = time.perf_counter() - start
    ok = worst < 1e-10 and elapsed < 5.0
    _report(
        "criterion 6 resolvent identity",
        ok,
        f"max error {worst:.2e} < 1e-10 over 1000 pairs, {elapsed:.1f} s",
    )


def test_criterion_07_series_truncation():
    line3 = NodeLayout(np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]]))
    p_list = [db_to_linear(db) for db in GRID_SNR_DB]
    n1 = term_decay_check(line3, 0.6, p_list, 600, 1, seed=7)
    n2 = term_decay_check(line3, 0.6, p_list, 600, 2, seed=7)
    grid = place_grid(3)
    order = truncation_order(pairwise_distance(grid), 0.5)
    measured, bound = truncation_tail_check(grid, 0.5, db_to_linear(60.0), 400, seed=7)
    ok = n1.passed and n2.passed and order.n0 == 2 and measured <= bound
    _report(
        "criterion 7 series truncation",
        ok,
        f"term decay n=1 {'ok' if n1.passed else 'violated'}, n=2 {'ok' if n2.passed else 'violated'}; "
        f"n0 {order.n0}, tail median {measured:.2e} <= {bound:.2e}",
    )


def test_criterion_08_inverse_decay():
    line4 = NodeLayout(np.column_stack([np.arange(4.0), np.zeros(4)]))
    p_list = [db_to_linear(db) for db in GRID_SNR_DB]
    chk = inverse_decay_estimate(line4, 0.6, p_list, 800, seed=7)
    d = pairwise_distance(line4)
    details = []
    ok = True
    for dist_val in (1.0, 2.0, 3.0):
        sel = np.isclose(d, dist_val)
        worst = float(np.max(chk.slopes[sel]))
        bound = (0.6 - 1.0) * dist_val + 0.2
        ok = ok and worst <= bound
        details.append(f"d={dist_val:g}: {worst:+.3f} <= {bound:+.2f}")
    _report("criterion 8 inverse decay", ok, "; ".join(details))


def test_criterion_09_local_data_sharing():
    layout = place_grid(4)
    spec = [PolicySpec("distance")]
    full = evaluate_curves(layout, 0.6, spec, GRID_SNR_DB, 500, SEED)
    masked = evaluate_curves(layout, 0.6, spec, GRID_SNR_DB, 500, SEED, data_mask=True)
    delta = abs(_slope(full, spec[0], 5) - _slope(masked, spec[0], 5))
    d0 = cooperation_radius(0.6)
    bound = int(np.ceil(np.pi * (d0 + 1.0) ** 2))
    sizes_ok = all(
        max(len(s) for s in data_sharing_sets(place_grid(side), 0.6)) <= bound
        for side in (4, 6, 8, 10)
    )
    ok = delta <= 0.05 and sizes_ok
    _report(
        "criterion 9 local data sharing",
        ok,
        f"slope delta {delta:.4f} <= 0.05; sharing sets <= {bound} on grids up to 10x10",
    )


def test_criterion_10_gamma_one_collapse():
    checked = 0
    for side in (2, 3, 5):
        layout = place_grid(side)
        d = pairwise_distance(layout)
        for p in (10.0**2, 2.0**20, 10.0**6.6):
            dist_bits = build_allocation(PolicySpec("distance"), layout, 1.0, p).bits
            conv_bits = conventional(interference_levels(d, 1.0), p).bits
            if not np.array_equal(dist_bits, conv_bits):
                _report("criterion 10 gamma->1 collapse", False, f"mismatch at side {side}, P {p:g}")
            checked += 1
    _report("criterion 10 gamma->1 collapse", True, f"exact equality on {checked} grid/SNR combinations")


def test_criterion_11_worker_determinism(tmp_path):
    base = dict(
        seed=31,
        layout_kind="grid",
        grid_side=3,
        gamma=0.6,
        snr_db=[40.0, 60.0],
        trials=60,
        policies=[PolicySpec("perfect"), PolicySpec("distance"), PolicySpec("uniform")],
    )
    cfg1 = ExperimentConfig(output=str(tmp_path / "w1"), **base)
    cfg3 = ExperimentConfig(output=str(tmp_path / "w3"), **base)
    run_experiment(cfg1, workers=1)
    run_experiment(cfg3, workers=3)
    b1 = (tmp_path / "w1" / "rates.csv").read_bytes()
    b3 = (tmp_path / "w3" / "rates.csv").read_bytes()
    ok = b1 == b3
    _report(
        "criterion 11 determinism",
        ok,
        f"rates.csv byte-identical across 1 and 3 workers ({len(b1)} bytes)",
    )


def test_rate_gaps_to_perfect_csit_at_high_snr():
    """The paper's claim that the distance policy keeps the DoF of perfect
    CSIT, read as a bounded rate gap where slopes are GDoF values: over
    80-200 dB, the perfect - distance and perfect - conventional gaps (bits
    per user) span less than 1 and 0.35 bits, while the cluster:4 and
    uniform gaps grow at every step. A DoF loss of d per user would add
    about 40 d bits over the window (log2 P grows by 39.9). The window ends
    well below the few hundred dB where double precision leaks zero-forcing
    interference.

    Readings, 4x4 grid, 100 trials, seeds 1-12 and 9001: distance span
    0.66-0.73 bits, conventional 0.20-0.21; the smallest growth per 10 dB
    over one 20 dB step, cluster:4 1.59-1.60 bits, uniform 1.87-1.88. The
    6x6 grid at seeds 1-2 reads 0.73-0.75, 0.23-0.24, 1.78 and 1.97."""
    specs = [
        PolicySpec("perfect"),
        PolicySpec("distance"),
        PolicySpec("conventional"),
        PolicySpec("cluster", cluster_size=4),
        PolicySpec("uniform"),
    ]
    snr_db = [80.0, 100.0, 120.0, 140.0, 160.0, 180.0, 200.0]
    result = evaluate_curves(place_grid(4), 0.6, specs, snr_db, 100, SEED)
    perfect = np.array([pt.mean_avg for pt in result[specs[0]]])
    gaps = {spec.kind: perfect - np.array([pt.mean_avg for pt in result[spec]]) for spec in specs[1:]}
    span = {kind: float(np.ptp(gaps[kind])) for kind in ("distance", "conventional")}
    growth = {kind: float(np.diff(gaps[kind]).min()) / 2.0 for kind in ("cluster", "uniform")}
    ok = span["distance"] < 1.0 and span["conventional"] < 0.35
    ok = ok and growth["cluster"] >= 1.5 and growth["uniform"] >= 1.75
    _report(
        "asymptotic rate gaps",
        ok,
        "span over 80-200 dB: distance {:.3f} < 1.0, conventional {:.3f} < 0.35 bits; "
        "growth per 10 dB: cluster:4 {:.3f} >= 1.5, uniform {:.3f} >= 1.75 bits".format(
            span["distance"], span["conventional"], growth["cluster"], growth["uniform"]
        ),
    )
