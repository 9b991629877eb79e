"""The shared input rules (topology._check_*) at every entry point that takes
the value: a bad nominal SNR, gamma, count, slope abscissa, condition limit,
random side or cluster size raises a ValueError that names the field, before
anything is drawn, and never a numpy warning, another exception type or a
passing check. The CLI runs the same rules: a bad flag exits 2 with one
error line naming it."""

import contextlib
import io
import json
import math
import numbers
import os
import re
import sys
import tempfile
import warnings
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from netmimo import cli, evaluation
from netmimo.allocation import POLICY_KINDS, PolicySpec, build_allocation, cluster_fit
from netmimo.channel import pathloss_matrix
from netmimo.evaluation import RatePoint, db_to_linear, dof_slope, evaluate_curves, evaluate_point
from netmimo.oracle import (
    CheckResult,
    DecayCheck,
    inverse_decay_estimate,
    neumann_term_matrix,
    resolvent_max_error,
    run_verification,
    term_decay_check,
    truncation_order,
    truncation_tail_check,
)
from netmimo.precoding import IllConditionedError, distributed_precoder, zf_precoder
from netmimo.topology import (
    NodeLayout,
    cooperation_radius,
    format_layout,
    interference_levels,
    pairwise_distance,
    place_grid,
    place_uniform_random,
)

NAN, INF = math.nan, math.inf


def _line(n):
    return NodeLayout(np.column_stack([np.arange(n, dtype=float), np.zeros(n)]))


def _curve(dbs):
    return [
        RatePoint(snr_db=db, p=db_to_linear(db), mean_per_user=np.array([db]), stderr_per_user=np.array([0.0]),
                  mean_avg=db, stderr_avg=0.0, trials=3, rejections=0, deviation_mean=0.0, deviation_median=0.0,
                  deviation_row_median=np.array([0.0]))
        for db in dbs
    ]


def _hole(case, field, fn, *args, **kwargs):
    return pytest.param(field, partial(fn, *args, **kwargs), id=f"{fn.__name__}-{case}")


_RNG = np.random.default_rng(0)
# Distinct nominal SNRs whose log2 values np.polyfit cannot tell apart (RankWarning).
_NEAR = [1e300, 1e300 * (1 + 2e-13)]


@pytest.mark.parametrize(
    "field, call",
    [
        _hole("nan-point", "p_list", inverse_decay_estimate, _line(4), 0.6, [NAN, 1e4], 20, 1),
        _hole("nan-points", "p_list", term_decay_check, _line(3), 0.6, [NAN, NAN], 20, 1, 1),
        _hole("inf", "p", truncation_tail_check, place_grid(3), 0.5, INF, 20, 1),
        _hole("nan", "p", truncation_tail_check, place_grid(3), 0.5, NAN, 20, 1),
        _hole("repeated-point", "p_list", term_decay_check, _line(3), 0.6, [1e4, 1e4], 5, 1, 1),
        _hole("repeated-point", "p_list", inverse_decay_estimate, _line(4), 0.6, [1e4, 1e4], 5, 1),
        _hole("distance-inf", "p", build_allocation, PolicySpec("distance"), place_grid(2), 0.6, INF),
        _hole("int-past-float", "p", build_allocation, PolicySpec("distance"), place_grid(2), 0.6, 10**400),
        _hole("zero-nan", "p", build_allocation, PolicySpec("zero"), place_grid(2), 0.6, NAN),
        _hole("perfect-nan", "p", build_allocation, PolicySpec("perfect"), place_grid(2), 0.6, NAN),
        _hole("nan", "gamma", truncation_order, pairwise_distance(place_grid(2)), NAN),
        _hole("2.9", "side", place_grid, 2.9),
        _hole("k-2.5", "k", place_uniform_random, 2.5, 4.0, _RNG),
        _hole("side-nan", "side", place_uniform_random, 3, NAN, _RNG),
        _hole("2.5", "fit_points", dof_slope, _curve([20.0, 30.0, 40.0]), 2.5),
        _hole("same-p", "fit window", dof_slope, _curve([1e-6, np.nextafter(1e-6, 1.0)]), 2),
        _hole("nan", "gamma", cooperation_radius, NAN),
        _hole("2.5", "n", neumann_term_matrix, np.eye(2, dtype=complex), 2.5),
        _hole("near-repeat", "p_list", term_decay_check, _line(3), 0.6, _NEAR, 5, 1, 1),
        _hole("near-repeat", "p_list", inverse_decay_estimate, _line(4), 0.6, _NEAR, 5, 1),
        _hole("near-repeat", "fit window", dof_slope, _curve([3000.0, np.nextafter(3000.0, 4000.0)]), 2),
        _hole("bool", "cluster_size", PolicySpec, "cluster", 1.0, True),
        _hole("4.0", "cluster_size", PolicySpec, "cluster", 1.0, 4.0),
        _hole("int-past-float", "alpha", PolicySpec, "distance", 10**400),
        _hole("bool", "cluster_size", cluster_fit, place_grid(4), True),
        _hole("0.5", "cond_limit", resolvent_max_error, 5, 3, 1, 0.5),
        _hole("nan", "cond_limit", resolvent_max_error, 5, 3, 1, NAN),
        _hole("0.5", "cond_threshold", evaluate_curves, place_grid(2), 0.6, [PolicySpec("perfect")], [20.0], 3, 1,
              cond_threshold=0.5),
        _hole("nan", "cond_threshold", evaluate_point, place_grid(2), 0.6, [PolicySpec("perfect")], 100.0, 3, 1,
              cond_threshold=NAN),
        _hole("inf", "cond_limit", resolvent_max_error, 5, 3, 1, INF),
        _hole("inf", "cond_threshold", evaluate_curves, place_grid(2), 0.6, [PolicySpec("perfect")], [20.0], 3, 1,
              cond_threshold=INF),
        _hole("minus-inf", "cond_threshold", evaluate_point, place_grid(2), 0.6, [PolicySpec("perfect")], 100.0, 3,
              1, cond_threshold=-INF),
        _hole("twice", "policies", evaluate_curves, place_grid(2), 0.6, [PolicySpec("perfect")] * 2, [20.0], 3, 1),
        _hole("cluster-misfit", "policy", evaluate_curves, place_grid(3), 0.6, [PolicySpec("cluster", cluster_size=4)],
              [20.0], 3, 1),
        _hole("past-maxsize", "trials", evaluate_curves, place_grid(2), 0.6, [PolicySpec("perfect")], [20.0], 10**400, 1),
        _hole("past-maxsize", "workers", evaluate_curves, place_grid(2), 0.6, [PolicySpec("perfect")], [20.0], 3, 1,
              workers=10**400),
        _hole("past-maxsize", "trials", run_verification, 7, 10**19),
        _hole("past-maxsize", "side", place_grid, 10**400),
        _hole("past-maxsize", "k", place_uniform_random, 10**400, 4.0, _RNG),
        _hole("int-past-float", "positions", NodeLayout, [[10**400, 0.0]]),
    ],
)
def test_bad_input_raises_a_value_error_naming_its_field(field, call):
    """Each of these inputs once gave a result, a passing check, a numpy
    warning or an error that did not name the input (a count past
    sys.maxsize, a coordinate past the float range), or met one of two
    copies of its rule (cluster_size, the condition limit, distinct policies,
    a cluster policy's fit)."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=rf"^{field}[: ]"):
            call()


def test_evaluate_curves_refuses_keep_samples(monkeypatch):
    """evaluate_curves returns no per-trial samples, so it does not take the
    option that collects them; evaluate_point does."""

    def no_engine(*args, **kwargs):
        raise AssertionError("an engine was built")

    monkeypatch.setattr(evaluation, "_engine", no_engine)
    with pytest.raises(TypeError, match="keep_samples"):
        evaluate_curves(place_grid(2), 0.6, [PolicySpec("perfect")], [20.0], 3, 1, keep_samples=True)


# Edge floats: signed zeros, subnormals, the smallest normal, infinities, NaN,
# 1e+-308, and values on either side of each rule's bounds.
_EDGE = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, INF, -INF, NAN, 1e308, -1e308, 1e-308, -1e-308,
         1.0, np.nextafter(1.0, 2.0), 0.5, 0.6, 1e4, 1e6]
_FLOATS = st.sampled_from(_EDGE) | st.floats()
# Every float, with the edge floats and each rule's valid range drawn more often.
_P = _FLOATS | st.floats(1.0, 1e308)
_GAMMA = _FLOATS | st.floats(0.0, 1.0)


def _zero_trials(ranges, idx, n_policies, k):
    """An engine call's result that accepts every trial with zero rates."""
    out = []
    for _, start, stop in ranges:
        n = int(np.count_nonzero((idx >= start) & (idx < stop)))
        zeros = np.zeros((n, n_policies, k))
        out.append((zeros, zeros.sum(axis=-1), zeros, np.ones(n, dtype=bool), np.zeros(n)))
    return out


def _stub_engine(layout, gamma, policies, p_list, seed, cond_threshold, data_mask):
    """An engine that accepts every trial with zero rates, for a sweep that
    checks its inputs and builds its result without drawing."""
    return partial(_zero_trials, n_policies=len(policies), k=layout.K)


def _stub_trials(points, seed, ranges, idx, cond_threshold, mask):
    """_simulate_trials accepting every trial with zero rates, so that the
    real engine builds every table of the sweep but draws nothing."""
    sigma, _, bits_list = points[0]
    return _zero_trials(ranges, idx, len(bits_list), len(sigma))


def _outcome(bad: set[str], fn, *args, may_fail_to_converge=False):
    """fn(*args) under warnings as errors: a result when no field in bad
    breaks its rule, else a ValueError that names one that does."""
    try:
        result = fn(*args)
    except ValueError as exc:
        assert bad, f"{fn.__name__}{args!r} refused valid input: {exc}"
        assert any(str(exc).startswith((f"{f}:", f"{f} ")) or f" {f} " in str(exc) for f in bad), (str(exc), bad)
        return None
    except RuntimeError as exc:
        # truncation_tail_check reports draws whose expansion diverges, a
        # property of valid draws near P = 1, not of its input.
        assert may_fail_to_converge and not bad and "convergent draws" in str(exc), (str(exc), bad)
        return None
    assert not bad, f"{fn.__name__}{args!r} accepted {bad}: {result!r}"
    return result


@settings(max_examples=300, derandomize=True, deadline=None)
@given(p=_P, gamma=_GAMMA)
def test_p_and_gamma_give_a_result_or_a_value_error_naming_the_field(p, gamma):
    """Every entry point that takes a nominal SNR or gamma returns a result
    or raises a ValueError naming a field that breaks its rule, with no numpy
    warning; a DecayCheck is never built from a bad SNR. The oracle checks
    run at three trials and the sweep on a stub engine. p also serves as a
    dB value, and the decay checks fit over p and 10 p."""
    p_ok = 1.0 < p < INF
    gamma_ok = 0.0 < gamma <= 1.0
    bad_p = set() if p_ok else {"p"}
    bad_list = set() if p_ok and 10.0 * p < INF else {"p_list"}
    bad_gamma = set() if gamma_ok else {"gamma"}
    # gamma = 1 leaves the expansion no finite truncation order.
    no_order = bad_gamma or ({"gamma"} if gamma == 1.0 else set())
    grid, line = place_grid(2), _line(3)
    with pytest.MonkeyPatch.context() as mp, warnings.catch_warnings():
        mp.setattr(evaluation, "_engine", _stub_engine)
        warnings.simplefilter("error")
        levels = _outcome(bad_gamma, interference_levels, pairwise_distance(grid), gamma)
        if levels is not None:
            _outcome(bad_p, pathloss_matrix, levels, p)
        for kind in POLICY_KINDS:
            _outcome(bad_gamma | bad_p, build_allocation, PolicySpec(kind), grid, gamma, p)
        for check in (
            _outcome(no_order | bad_list, term_decay_check, line, gamma, [p, 10.0 * p], 3, 1, 1),
            _outcome(bad_gamma | bad_list, inverse_decay_estimate, line, gamma, [p, 10.0 * p], 3, 1),
        ):
            assert check is None or isinstance(check, DecayCheck)
        _outcome(no_order | bad_p, truncation_tail_check, grid, gamma, p, 3, 1, may_fail_to_converge=True)
        specs = [PolicySpec("perfect"), PolicySpec("distance")]
        db_ok = 1.0 < db_to_linear(p) < INF
        _outcome(bad_gamma | (set() if db_ok else {"snr_db"}), evaluate_curves, grid, gamma, specs, [p], 3, 1)
        _outcome(bad_gamma | bad_p, evaluate_point, grid, gamma, specs, p, 3, 1)


# Scalars as Python and numpy ints and floats: seeds past 2^128 (where the
# bulk stream derivation hands over to trial_rng), ints past the float range
# (which the rules read as +-inf), bools, and the edge floats.
# Each field draws from its valid values and from every scalar equally often;
# a count drawn valid stays at most 3, so each verification run is cheap.
_PAST_FLOAT = [10**400, -(10**400)]
_INTS = st.sampled_from([0, 1, 2, 3, -1, 2**32, 2**64, 2**128, 2**140] + _PAST_FLOAT) | st.integers(-(2**70), 2**140)
_NUMPY_INTS = st.integers(-(2**63), 2**63 - 1).map(np.int64) | st.integers(0, 2**64 - 1).map(np.uint64)
_SCALARS = _INTS | _NUMPY_INTS | _FLOATS | _FLOATS.map(np.float64) | st.booleans()


def _half(valid, other):
    """valid and other drawn equally often (a union would weigh each of its branches alike)."""
    return st.booleans().flatmap(lambda ok: valid if ok else other)


_POWERS = _half(
    st.floats(5e-324, 1e308) | st.integers(1, 2**140) | st.floats(1e-6, 1e6).map(np.float64),
    _SCALARS | st.sampled_from(_PAST_FLOAT),
)
_THRESHOLDS = _half(st.floats(1.0, 1e12) | st.sampled_from([1, 3, 2**64, np.float64(1e300)]), _SCALARS)
_SEEDS = _half(st.integers(0, 2**140) | st.integers(0, 2**64 - 1).map(np.uint64), _SCALARS)
# Every count but the seed is at most sys.maxsize; a rule refuses a larger one before anything is allocated.
_PAST_MAXSIZE = [sys.maxsize + 1, 10**19, 10**400]
_TRIALS = _half(
    st.integers(1, 3) | st.integers(1, 3).map(np.int64) | st.integers(1, 3).map(np.uint8),
    st.integers(max_value=0) | _FLOATS | _FLOATS.map(np.float64) | st.booleans() | st.sampled_from(_PAST_MAXSIZE),
)
# 2x2 estimates: two clean ones (kappa_2 1 and about 2.8), and the second with a NaN or infinite diagonal.
_CLEAN = [np.eye(2, dtype=complex), np.array([[2.0, 0.5j], [0.25, 1.0 - 1.0j]])]
_ESTIMATES = _half(st.sampled_from(_CLEAN), st.sampled_from(
    [np.where(np.eye(2, dtype=bool), x, _CLEAN[1]) for x in (NAN, INF, -INF, complex(0.0, INF))]
))


def _precoded(precoder, a, p, cond_threshold):
    """The precoder's T, or "rejected" for its IllConditionedError."""
    try:
        return precoder(a, p, cond_threshold)
    except IllConditionedError:
        return "rejected"


def _read(value):
    """value as a rule compares it: a Python int past the float range reads as +-inf."""
    return value if not isinstance(value, int) or abs(value) < 2**1024 else (INF if value > 0 else -INF)


def _is_count(value, low, high=sys.maxsize) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool) and low <= value <= high


@settings(max_examples=200, derandomize=True, deadline=None)
@given(zf_est=_ESTIMATES, p=_POWERS, cond_threshold=_THRESHOLDS, seed=_SEEDS, trials=_TRIALS)
# A power or a threshold past the float range raised OverflowError.
@example(zf_est=_CLEAN[1], p=10**400, cond_threshold=1e12, seed=0, trials=1)
@example(zf_est=_CLEAN[1], p=1.0, cond_threshold=10**400, seed=10**400, trials=1)
# A trials count past sys.maxsize failed with numpy's "Maximum allowed dimension exceeded".
@example(zf_est=_CLEAN[1], p=1.0, cond_threshold=1e12, seed=0, trials=10**19)
def test_precoder_and_verification_scalars_give_a_result_or_a_value_error_naming_the_field(
    zf_est, p, cond_threshold, seed, trials
):
    """The public precoders' p, cond_threshold and estimate, and
    run_verification's seed and trials: a result, or a ValueError naming a
    field that breaks its rule, with no numpy warning and no other exception
    type. A precoder raises IllConditionedError exactly when the threshold
    lies below the estimate's kappa_2, and so for every threshold below 1."""
    stack = np.stack([zf_est, zf_est + 0.125])  # TX 2's estimate differs from TX 1's
    limit = _read(cond_threshold)
    bad = set() if 0.0 < _read(p) < INF else {"power"}  # the message names p the power
    if math.isnan(limit):
        bad.add("cond_threshold")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for precoder, a, name in ((zf_precoder, zf_est, "estimate"), (distributed_precoder, stack, "estimates")):
            fault = bad if np.isfinite(a).all() else bad | {name}
            t = _outcome(fault, _precoded, precoder, a, p, cond_threshold)
            if t is not None:
                kappa = np.linalg.cond(a).max()
                if not math.isclose(limit, kappa, rel_tol=1e-9):
                    assert isinstance(t, str) == (limit < kappa), (precoder.__name__, cond_threshold)
        counts = set() if _is_count(seed, 0, INF) else {"seed"}
        if not _is_count(trials, 1):
            counts.add("trials")
        results = _outcome(counts, run_verification, seed, trials)
        assert results is None or all(isinstance(r, CheckResult) for r in results)


# Flag tokens for main(argv), valid ones and the rest drawn equally often:
# edge integers (and tokens that are no integer) for the counts, edge floats
# for the measures. Counts stay small, so an accepted run stays cheap, and
# --workers never forks a pool: byte identity across worker counts is tested
# in test_cli.py.
_NO_COUNT = ["-9223372036854775809", "-1", "0", "2.5", "1e3", "nan"]
_HUGE = [str(n) for n in _PAST_MAXSIZE]  # counts past sys.maxsize; only the seed may be one
_NO_MEASURE = ["0", "-0", "-5e-324", "inf", "-inf", "nan", "-1e308", "-1e-308", "1e309"]
_TINY = ["5e-324", "2.2250738585072014e-308", "1e-308"]
_TOKENS = {
    "seed": (["0", "1", "4294967296", str(2**128), *_HUGE], _NO_COUNT),
    "trials": (["1", "2"], _NO_COUNT + _HUGE),
    "workers": (["1"], _NO_COUNT + _HUGE),
    "grid-side": (["1", "2"], _NO_COUNT + _HUGE),
    "random-k": (["1", "2", "3"], _NO_COUNT + _HUGE),
    "random-side": (_TINY + ["4", "1e308", "1.2e308"], _NO_MEASURE + ["1.5e308"]),
    "gamma": (_TINY + ["0.6", "1"], _NO_MEASURE + ["1e308", str(np.nextafter(1.0, 2.0))]),
}
_LAYOUT = ["seed", "grid-side", "random-k", "random-side", "gamma"]
_COMMANDS = {
    "run": ["trials", "workers", *_LAYOUT],
    "sizes": _LAYOUT,
    "layout": _LAYOUT,
    "verify": ["seed", "trials"],
    **{preset: ["seed", "trials", "workers"] for preset in ("fig1-desk", "fig1-full", "fig2-desk", "fig2-full")},
}
_MAX_SIDE = float(np.finfo(float).max) / math.sqrt(2.0)


def _refused(command: str, flags: dict[str, str], show: bool) -> set[str]:
    """The names, any of which main's one error line may give, of the flags
    that break a rule the command applies; empty when it must run."""
    bad = set()
    values = {}
    for flag, token in flags.items():
        try:
            values[flag] = float(token) if flag in ("random-side", "gamma") else int(token)
        except ValueError:
            bad.add(f"--{flag}")
    if bad:
        return bad  # argparse refuses the token before anything runs
    low = {"seed": 0, "trials": 1, "workers": 1, "grid-side": 1, "random-k": 1}
    bad = {
        flag.replace("-", "_") for flag, floor in low.items()
        if not floor <= values.get(flag, floor) <= (INF if flag == "seed" else sys.maxsize)
    }
    # Every field is checked, whatever the layout kind in use.
    if not 0.0 < values.get("random-side", 4.0) <= _MAX_SIDE:
        bad.add("random_side")
    if not 0.0 < values.get("gamma", 0.6) <= 1.0:
        bad.add("gamma")
    if command == "layout" and not show and not {"grid-side", "random-k"} & values.keys():
        bad.add("--grid-side")  # nothing to emit
    return bad


def _stub_verification(seed, trials):
    assert seed >= 0 and trials >= 1, "the suite ran on a bad count"
    return [CheckResult("stub", 0.5, 1.0, True)]


@settings(max_examples=400, derandomize=True, deadline=None)
@given(
    command=st.sampled_from(sorted(_COMMANDS)),
    drawn=st.fixed_dictionaries(
        {}, optional={flag: st.sampled_from(ok) | st.sampled_from(no) for flag, (ok, no) in _TOKENS.items()}
    ),
    show=st.booleans(),
)
# Seed 1's three nodes in a 1.2e308 square lie more than half the float range
# apart, so distance sums overflow.
@example(command="sizes", drawn={"random-k": "3", "random-side": "1.2e308"}, show=False)
@example(command="run", drawn={"random-k": "3", "random-side": "1.2e308", "trials": "1"}, show=False)
@example(command="layout", drawn={"gamma": "1e308"}, show=True)
# Counts past sys.maxsize gave a traceback or an error that named no field; a seed may be one.
@example(command="run", drawn={"trials": str(10**19)}, show=False)
@example(command="verify", drawn={"trials": str(10**19)}, show=False)
@example(command="run", drawn={"workers": str(10**400), "trials": "1"}, show=False)
@example(command="sizes", drawn={"grid-side": str(10**400)}, show=False)
@example(command="layout", drawn={"random-k": str(10**400)}, show=False)
@example(command="run", drawn={"seed": str(10**400), "random-k": "2", "trials": "1"}, show=False)
@example(command="verify", drawn={"seed": str(10**400), "trials": "1"}, show=False)
def test_main_exits_0_or_2_with_one_error_line_naming_the_field(command, drawn, show):
    """Every count and measure flag of every subcommand: main exits 0, or 2
    with exactly one error line that names a flag breaking its rule, and
    never with a traceback or a numpy warning; a refused command leaves no
    file behind. The engine and the verification suite are stubbed."""
    flags = {flag: token for flag, token in drawn.items() if flag in _COMMANDS[command]}
    show = show and command == "layout"
    bad = _refused(command, flags, show)
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp, warnings.catch_warnings():
        mp.setattr(evaluation, "_engine", _stub_engine)
        mp.setattr(cli, "run_verification", _stub_verification)
        warnings.simplefilter("error")
        shown = Path(tmp) / "shown.txt"
        shown.write_text(format_layout(place_grid(2)))
        target = Path(tmp) / "out"
        argv = [command, *(f"--{flag}={token}" for flag, token in flags.items())]  # "=": -1e308 is no option
        if command == "layout":
            argv += ["--show", str(shown)] if show else ["--out", str(target)]
        elif command != "sizes":
            argv += ["--output", str(target)]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
        errors = [line for line in err.getvalue().splitlines() if "error:" in line]
        if bad:
            assert code == 2, (argv, bad, out.getvalue())
            assert len(errors) == 1 and any(name in errors[0] for name in bad), (argv, bad, errors)
            assert out.getvalue() == "" and sorted(os.listdir(tmp)) == ["shown.txt"], argv
        else:
            assert code == 0 and errors == [], (argv, err.getvalue())
            if show:
                assert ("cooperation radius" in out.getvalue()) == (float(flags.get("gamma", 0.6)) < 1.0)
            elif command in ("verify", "layout"):
                assert target.is_file()
            elif command != "sizes":
                assert sorted(os.listdir(target)) == ["layout.txt", "metadata.json", "rates.csv"]


# ExperimentConfig fields as a --config file holds them: per field, values
# that pass its rule and values that break it (a wrong type, an edge float, a
# value past a bound), drawn equally often. A breaking value carries the names
# an error about it may give. Positions against the layout kind, and a
# cluster policy against the layout, are judged in _config_refused.
_GRID2 = [[1.0, 1.0], [2.0, 1.0], [1.0, 2.0], [2.0, 2.0]]  # place_grid(2)
_CLUSTER4 = {"kind": "cluster", "cluster_size": 4}
_UP, _DOWN = float(np.nextafter(1.0, 2.0)), float(np.nextafter(1.0, 0.0))
_CONFIG_VALUES = {
    "seed": ([0, 1, 2**64, 10**400], [-1, 2.5, 1.0, "1", True, None]),
    "layout_kind": (["grid", "random", "positions"], ["hex", "file", 1, None]),
    "grid_side": ([1, 2, 3], [0, -1, 2.0, True, NAN, *_PAST_MAXSIZE]),
    "random_k": ([1, 3], [0, -5, 3.0, False, *_PAST_MAXSIZE]),
    "random_side": ([4.0, 1, 5e-324, 2.2250738585072014e-308, 1e-308, 1e308, 1.2e308],
                    [0.0, -0.0, -5e-324, INF, -INF, NAN, -1e308, 1.5e308, "4"]),
    "positions": ([None, _GRID2, [[0.0, -0.0]], [[5e-324, 1e308], [-1e308, 0.0]]],
                  [[], [[NAN, 0.0]], [[0.0, INF]], [[1.7e308, 0.0], [-1.7e308, 0.0]], [[1.0]], [1.0, 2.0],
                   [["0", 0.0]], [[10**400, 0.0]]]),
    "gamma": ([0.6, 1, 5e-324, 2.2250738585072014e-308, _DOWN],
              [0.0, -0.0, -5e-324, INF, -INF, NAN, 1e308, _UP, "0.6"]),
    "snr_db": ([[30.0, 50.0], [20], [1e-6, 3000.0], [10.0, 20.0, 30.0, 40.0, 50.0]],
               [[], [NAN], [INF], [-INF], [0.0], [-0.0], [5e-324], [1e-308], [1e308], [-1e308], [30.0, 30.0],
                [30.0, 30.000000000001], [True], 30.0]),
    "trials": ([1, 2], [0, -1, 1.5, "1", None, *_PAST_MAXSIZE]),
    "fit_points": ([2, 4], [1, 0, 2.5, "4", *_PAST_MAXSIZE]),
    "cond_threshold": ([1.0, 1, 1e12, 1e308, _UP],
                       [0.5, 0.0, -0.0, 5e-324, NAN, INF, -INF, -1e308, *_PAST_FLOAT, "1e12", None]),
    "max_rejection_rate": ([0.0, -0.0, 5e-324, 0.01, 0.5, _DOWN],
                           [1.0, -5e-324, -1e-308, NAN, INF, -INF, 1e308, "0.01"]),
    "data_mask": ([True, False], [1, 0, "true", None]),
}
_GOOD_POLICIES = [
    [{"kind": "perfect"}, {"kind": "distance"}],
    [{"kind": "distance", "alpha": 0.75}, {"kind": "distance", "alpha": 1.25}],
    [{"kind": "uniform", "uniform_support": "conventional"}, {"kind": "zero"}, {"kind": "conventional"}],
    [{"kind": "uniform"}, {"kind": "distance", "alpha": 5e-324}, {"kind": "distance", "alpha": 1e308}],
    [{"kind": "perfect"}, _CLUSTER4],
    [{"kind": "cluster", "cluster_size": 1}],
]
_BAD_POLICIES = [  # (policies, the name an error may give besides "policies" and "policy")
    ([], "policies"), ([{"kind": "perfect"}] * 2, "policies"), ([_CLUSTER4, _CLUSTER4], "policies"),
    ([{"kind": "distance"}, {"kind": "distance", "alpha": 1.00000000001}], "policies"),
    ([{"kind": "distance", "alpha": NAN}], "alpha"), ([{"kind": "distance", "alpha": INF}], "alpha"),
    ([{"kind": "distance", "alpha": -0.0}], "alpha"), ([{"kind": "distance", "alpha": "1"}], "alpha"),
    ([{"kind": "distance", "alpha": 10**400}], "alpha"),
    ([{"kind": "cluster", "cluster_size": 3}], "cluster_size"),
    ([{"kind": "cluster", "cluster_size": 4.0}], "cluster_size"),
    ([{"kind": "hex"}], "policy"), ([{"alpha": 1.0}], "kind"), ([{"kind": "perfect", "beta": 1}], "beta"),
    ([1], "policies"), ("perfect", "policies"),
]
_NAMES = {"layout_kind": ("layout_kind", "layout kind")}
_PASSING = {name: st.sampled_from([(v, ()) for v in ok]) for name, (ok, _) in _CONFIG_VALUES.items()}
_PASSING["policies"] = st.sampled_from([(v, ()) for v in _GOOD_POLICIES])
_BREAKING = {
    name: st.sampled_from([(v, _NAMES.get(name, (name,))) for v in no]) for name, (_, no) in _CONFIG_VALUES.items()
}
_BREAKING["policies"] = st.sampled_from([(v, ("policies", "policy", name)) for v, name in _BAD_POLICIES])
# Half the configs draw only passing values, so that accepted runs are common too.
_CONFIG = st.fixed_dictionaries({}, optional=_PASSING) | st.fixed_dictionaries(
    {}, optional={name: _PASSING[name] | _BREAKING[name] for name in _PASSING}
)


def _config_refused(drawn: dict) -> set[str]:
    """The names, any of which the one error line may give, of the fields
    of a drawn config that break a rule; empty when the config must run."""
    bad = {name for _, names in drawn.values() for name in names}
    config = {key: value for key, (value, _) in drawn.items()}
    kind = config.get("layout_kind", "grid")
    if (config.get("positions") is None) == (kind == "positions"):
        bad.add("positions")
    if "policies" in drawn and not drawn["policies"][1]:
        side = {"grid": config.get("grid_side", 4), "positions": 2 if config.get("positions") == _GRID2 else None}
        blocks = [math.isqrt(p["cluster_size"]) for p in config["policies"] if p["kind"] == "cluster"]
        if any(not side.get(kind) or side[kind] % block for block in blocks):
            bad.add("policy")
    return bad


def _names_one_of(message: str, names) -> bool:
    return any(re.search(rf"\b{re.escape(name)}\b", message) for name in names)


def _refuse_constant(name):
    raise ValueError(f"not strict JSON: {name}")


def _found(**fields):
    return {name: (value, ()) for name, value in fields.items()}


@settings(max_examples=300, derandomize=True, deadline=None)
@given(drawn=_CONFIG)
# A field of an unused layout kind, and a condition limit of infinity, were
# stored unchecked: metadata.json held NaN or Infinity, which is not strict JSON.
@example(drawn={**_found(grid_side=2, snr_db=[30.0, 50.0], trials=3), "random_side": (NAN, ("random_side",))})
@example(drawn={**_found(grid_side=2, snr_db=[20.0, 40.0], trials=3), "cond_threshold": (INF, ("cond_threshold",))})
# A limit past the float range was stored as a 401-digit integer.
@example(drawn={**_found(grid_side=2, snr_db=[20.0, 40.0], trials=3), "cond_threshold": (10**400, ("cond_threshold",))})
# The library refused equal policies and a misfit cluster policy with messages that did not name them.
@example(drawn={**_found(grid_side=2, trials=3), "policies": ([{"kind": "perfect"}] * 2, ("policies",))})
@example(drawn=_found(grid_side=3, trials=3, policies=[_CLUSTER4]))
# A policy without a kind raised a TypeError.
@example(drawn={**_found(trials=3), "policies": ([{"alpha": 1.0}], ("policies", "kind"))})
# A trials count and a coordinate past their ranges raised OverflowError.
@example(drawn={**_found(grid_side=2, snr_db=[20.0]), "trials": (10**400, ("trials",))})
@example(drawn={**_found(layout_kind="positions", snr_db=[20.0], trials=3), "positions": ([[10**400, 0.0]], ("positions",))})
# A seed past 2^128 and the float range runs.
@example(drawn=_found(seed=10**400, layout_kind="random", random_k=3, snr_db=[20.0], trials=3))
def test_run_config_exits_0_with_strict_json_or_2_naming_the_field(drawn):
    """Every field of a --config file, of the right type or not: `run` exits
    0 and writes a metadata.json that strict JSON parsing accepts, or exits 2
    with exactly one error line that names a field breaking its rule, writing
    nothing; never a traceback or a numpy warning. Where the config loads and
    its layout resolves, evaluate_curves, given the config's sweep, returns or
    refuses it naming a broken field too. The engine builds its tables but
    draws no trial."""
    bad = _config_refused(drawn)
    config = {key: value for key, (value, _) in drawn.items()}
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp, warnings.catch_warnings():
        mp.setattr(evaluation, "_simulate_trials", _stub_trials)
        warnings.simplefilter("error")
        path, target = Path(tmp) / "config.json", Path(tmp) / "out"
        path.write_text(json.dumps({**config, "output": str(target)}))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(["run", "--config", str(path)])
            except SystemExit as exc:
                code = exc.code
        errors = [line.replace(str(path), "") for line in err.getvalue().splitlines() if "error:" in line]
        if bad:
            assert code == 2 and len(errors) == 1 and _names_one_of(errors[0], bad), (config, bad, err.getvalue())
            assert out.getvalue() == "" and os.listdir(tmp) == ["config.json"], config
        else:
            assert code == 0 and errors == [], (config, err.getvalue())
            assert sorted(os.listdir(target)) == ["layout.txt", "metadata.json", "rates.csv"]
            json.loads((target / "metadata.json").read_text(), parse_constant=_refuse_constant)
        try:
            cfg = cli.ExperimentConfig.from_dict(json.loads(path.read_text()))
            layout = cli.resolve_layout(cfg)
        except ValueError:
            return
        try:
            evaluate_curves(layout, cfg.gamma, cfg.policies, cfg.snr_db, cfg.trials, cfg.seed,
                            cond_threshold=cfg.cond_threshold, max_rejection_rate=cfg.max_rejection_rate,
                            data_mask=cfg.data_mask)
        except ValueError as exc:
            assert _names_one_of(str(exc), bad), (config, bad, str(exc))
