"""The shared input rules (topology._check_*) at every entry point that takes
the value: a bad nominal SNR, gamma, count or slope abscissa raises a
ValueError that names the field, before anything is drawn, and never a
numpy warning, another exception type or a passing check."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netmimo import evaluation
from netmimo.allocation import POLICY_KINDS, PolicySpec, build_allocation
from netmimo.channel import pathloss_matrix
from netmimo.evaluation import RatePoint, db_to_linear, dof_slope, evaluate_curves, evaluate_point
from netmimo.oracle import (
    DecayCheck,
    inverse_decay_estimate,
    neumann_term_matrix,
    term_decay_check,
    truncation_order,
    truncation_tail_check,
)
from netmimo.topology import (
    NodeLayout,
    cooperation_radius,
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


def _hole(case, field, fn, *args):
    return pytest.param(field, fn, args, id=f"{fn.__name__}-{case}")


_RNG = np.random.default_rng(0)


@pytest.mark.parametrize(
    "field, fn, args",
    [
        _hole("nan-point", "p_list", inverse_decay_estimate, _line(4), 0.6, [NAN, 1e4], 20, 1),
        _hole("nan-points", "p_list", term_decay_check, _line(3), 0.6, [NAN, NAN], 20, 1, 1),
        _hole("inf", "p", truncation_tail_check, place_grid(3), 0.5, INF, 20, 1),
        _hole("nan", "p", truncation_tail_check, place_grid(3), 0.5, NAN, 20, 1),
        _hole("repeated-point", "p_list", term_decay_check, _line(3), 0.6, [1e4, 1e4], 5, 1, 1),
        _hole("repeated-point", "p_list", inverse_decay_estimate, _line(4), 0.6, [1e4, 1e4], 5, 1),
        _hole("distance-inf", "p", build_allocation, PolicySpec("distance"), place_grid(2), 0.6, INF),
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
    ],
)
def test_bad_input_raises_a_value_error_naming_its_field(field, fn, args):
    """Each of these inputs once gave a result, a passing check, a numpy
    warning or an error that did not name the input."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=rf"^{field}[: ]"):
            fn(*args)


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


def _stub_engine(layout, gamma, policies, p_list, seed, cond_threshold, data_mask):
    """An engine that accepts every trial with zero rates, for a sweep that
    checks its inputs and builds its result without drawing."""

    def engine(ranges, idx):
        out = []
        for _, start, stop in ranges:
            n = int(np.count_nonzero((idx >= start) & (idx < stop)))
            zeros = np.zeros((n, len(policies), layout.K))
            out.append((zeros, zeros.sum(axis=-1), zeros, np.ones(n, dtype=bool), np.zeros(n)))
        return out

    return engine


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
