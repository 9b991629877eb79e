"""The benchmark's workloads: which public entry point each one calls, with
which generated config.

Every workload is one closed-loop call into netmimo. Simulation workloads go
through ``cli.run_experiment`` on a figure preset whose seed comes from the
benchmark's ``--seed``; ``verify`` calls ``oracle.run_verification`` with its
default checks. The program receives only the generated config.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from netmimo import cli, oracle


@dataclass(frozen=True)
class Workload:
    name: str
    preset: str | None     # figure preset, or None for the verify suite
    workers: int
    default_seed: int      # the preset's own seed, for which references are stored
    trials: int            # Monte-Carlo trials per SNR point (verify: per check)
    ref_trials: int        # trials of the reference call, small to keep checks cheap


# Trial counts keep one call near one second on two cores, so a run of a few
# tens of seconds holds enough calls for a steady median. fig1-desk-w2's
# reference call needs at least two trials per worker to use its pool.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("fig1-desk", "fig1-desk", 1, 101, 40, 8),
        Workload("fig2-desk", "fig2-desk", 1, 202, 100, 16),
        Workload("fig1-desk-w2", "fig1-desk", 2, 101, 40, 8),
        Workload("verify", None, 1, 7, 800, 200),
    )
}

_PRESETS = {"fig1-desk": cli.fig1_desk_config, "fig2-desk": cli.fig2_desk_config}

CHECK_HEADER = "check,measured,bound,passed"


def make_config(wl: Workload, seed: int, trials: int, output: Path | str) -> cli.ExperimentConfig:
    """The preset config of a simulation workload, seeded from the benchmark."""
    return _PRESETS[wl.preset](seed=seed, trials=trials, output=str(output))


def call(wl: Workload, seed: int, trials: int, output: Path, workers: int | None = None):
    """Run one workload call and return (output text, result object).

    The text is rates.csv for a simulation and the check table, in the
    format ``netmimo verify --output`` writes, for verify.
    """
    if wl.preset is None:
        results = oracle.run_verification(seed=seed, trials=trials)
        lines = [CHECK_HEADER]
        lines += [f"{r.name},{r.measured:.10g},{r.bound:.10g},{str(r.passed).lower()}" for r in results]
        return "\n".join(lines) + "\n", results
    cfg = make_config(wl, seed, trials, output)
    result = cli.run_experiment(cfg, workers=wl.workers if workers is None else workers)
    return (output / "rates.csv").read_text(), result


def reference_path(wl: Workload) -> Path:
    """Where the reference output at (default seed, ref_trials) is stored."""
    name = "verify" if wl.preset is None else wl.preset
    return (Path(__file__).resolve().parent / "reference"
            / f"{name}_seed{wl.default_seed}_trials{wl.ref_trials}.csv")
