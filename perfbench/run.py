"""netmimo benchmark: one closed-loop client running a named workload.

    python3 perfbench/run.py --workload fig1-desk --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; netmimo is imported from its ``src/``. The
client calls the workload, waits for it, checks its output and calls again
until ``--seconds`` have passed. The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``. The lines before it give the environment, the correctness
figures and every metric with its unit. Full results, and the spans of a
traced run, are written under ``.perfbench/``.

BLAS thread variables are recorded, never set.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

MIN_CALLS = 3      # timed calls per run even if --seconds is shorter
REPLAY_TRIALS = 4  # replayed trials per SNR point

# Layers with spans; precoding is timed by the kernel replay instead.
SPAN_LAYERS = ("topology", "channel", "allocation", "evaluation", "oracle", "cli")

END_TO_END = {"setup_s": "s", "run_s": "s", "trial_ms": "ms", "peak_rss_mb": "MB"}

PER_LAYER = {
    "evaluation.engine_self_ms_per_trial": "ms",
    "evaluation.evaluate_point.ms_p50": "ms",
    "evaluation.evaluate_point.ms_max": "ms",
    "evaluation.trials_attempted": "count",
    "evaluation.trials_rejected": "count",
    "evaluation.instantaneous_rates.us_per_call": "us",
    "channel.trial_rng.calls": "count",
    "channel.trial_rng.us_per_call": "us",
    "channel.complex_gaussian.calls": "count",
    "channel.complex_gaussian.us_per_call": "us",
    "channel.apply_estimate_noise.us_per_call": "us",
    "allocation.build_allocation.calls": "count",
    "allocation.build_allocation.ms": "ms",
    "allocation.build_allocation.unique_ratio": "ratio",
    "topology.calls": "count",
    "topology.ms": "ms",
    "precoding.distributed_precoder.ms_per_call": "ms",
    "precoding.zf_precoder.ms_per_call": "ms",
    "replay.max_abs_diff": "bits",
    "oracle.resolvent_max_error.ms": "ms",
    "oracle.term_decay_check.ms": "ms",
    "oracle.truncation_tail_check.ms": "ms",
    "oracle.inverse_decay_estimate.ms": "ms",
    "oracle.proof_exponent_table.ms": "ms",
    "oracle.run_verification.self_ms": "ms",
    "cli.run_experiment.self_ms": "ms",
    "cli.compute_size_table.ms": "ms",
    **{f"{layer}.self_ms": "ms" for layer in SPAN_LAYERS},
    "process.cpu_s": "s",
    "process.cpu_util": "ratio",
    "trace.overhead_frac": "ratio",
}


def environment(workers: int) -> dict:
    """Numerical environment every result is recorded with."""
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    head = ROOT / ".git" / "HEAD"
    commit = None
    if head.is_file():
        ref = head.read_text().strip()
        commit = ref
        if ref.startswith("ref: ") and (ROOT / ".git" / ref[5:]).is_file():
            commit = (ROOT / ".git" / ref[5:]).read_text().strip()
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "threads_env": {v: os.environ.get(v) for v in
                        ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "workers": workers,
        "git_commit": commit,
    }


def _cpu_s() -> float:
    """User plus system seconds of this process and its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


def _vm_hwm_kb() -> int:
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1])
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class Client:
    """Counts attempted and failed operations of one benchmark run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.tracebacks: list[str] = []

    def attempt(self, what: str, fn, *args):
        """Run fn; an exception counts as a failed operation and returns None."""
        self.attempted += 1
        try:
            return fn(*args)
        except Exception as exc:  # any failure of the program under test is counted, not fatal
            self.failed += 1
            self.errors.append(f"{what}: {type(exc).__name__}: {exc}")
            self.tracebacks.append(traceback.format_exc())
            return None


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--trials", type=int, help="override the workload's trial count (smoke test)")
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    if args.trials is not None and args.trials < 1:
        ap.error("--trials must be >= 1")

    if not (SRC / "netmimo" / "__init__.py").is_file():
        print(f"error: no netmimo sources at {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import netmimo

    if Path(netmimo.__file__).resolve().parent != SRC / "netmimo":
        print(f"error: imported netmimo from {netmimo.__file__}, not {SRC}", file=sys.stderr)
        return 2

    import checks
    import spans
    from workloads import WORKLOADS, call, make_config, reference_path

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    seed = args.seed
    trials = args.trials or wl.trials
    outdir = OUT / "out" / wl.name
    outdir.mkdir(parents=True, exist_ok=True)
    client = Client()
    simulation = wl.preset is not None
    cfg = make_config(wl, seed, trials, outdir) if simulation else None
    k = netmimo.cli.resolve_layout(cfg).K if simulation else None
    # Trials one call keeps: trials x SNR points, or verify's trials per check.
    accepted = trials * len(cfg.snr_db) if simulation else trials
    first_text: list[str] = []

    def check(text, result):
        """Correctness of one call's output; raises CheckFailed."""
        if simulation:
            checks.parse_rates(text, cfg, k)
        else:
            checks.check_verify(result)
        if not first_text:
            first_text.append(text)
        elif text != first_text[0]:
            raise checks.CheckFailed("output differs between calls with the same seed")

    def timed_call():
        c0 = _cpu_s()
        t0 = time.perf_counter()
        text, result = call(wl, seed, trials, outdir)
        wall = time.perf_counter() - t0
        cpu = _cpu_s() - c0
        check(text, result)
        return wall, cpu, result

    # Warm-up: imports, lazy set-up and caches settle before timing.
    client.attempt("warm-up call", timed_call)
    # Pool workers of the warm-up call are reaped by now, and no set-up probe
    # (also a child process) has run yet: this is the largest worker's peak.
    worker_peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss

    tracer = spans.Tracer()
    plain: list[tuple] = []
    traced: list[tuple] = []
    probes: list[float] = []
    deadline = time.perf_counter() + args.seconds
    rounds = 0
    while time.perf_counter() < deadline or rounds < MIN_CALLS:
        rounds += 1
        out = client.attempt("timed call", timed_call)
        if out is not None:
            plain.append(out)
        if args.trace:
            # Traced and untraced calls alternate, so drift hits both alike.
            tracer.run_id = len(traced)
            tracer.install()
            try:
                out = client.attempt("traced call", timed_call)
            finally:
                tracer.uninstall()
            if out is not None:
                traced.append(out)
        else:
            # Set-up probes alternate with the calls, so both sample the same
            # stretch of time on a machine whose speed drifts.
            probe = client.attempt("setup probe", _setup_probe, wl.name, seed, trials)
            if probe is not None:
                probes.append(probe)

    report: dict = {}
    replay_times: dict = {}
    ref = reference_path(wl)

    def reference_check():
        """A call at the default seed, against the stored reference and, for a
        pool workload, against a single-worker call."""
        text = call(wl, wl.default_seed, wl.ref_trials, outdir)[0]
        expected = ref.read_text()
        report["bytes_identical"] = text == expected
        if simulation:
            report["rate_drift_max"] = drift = checks.rate_drift(text, expected)
            if drift > checks.DRIFT_TOLERANCE_BITS:
                raise checks.CheckFailed(f"rate drift {drift:g} bits exceeds "
                                         f"{checks.DRIFT_TOLERANCE_BITS:g}")
        if wl.workers > 1:
            single = call(wl, wl.default_seed, wl.ref_trials, outdir, 1)[0]
            report["matches_single_worker"] = text == single
            if not report["matches_single_worker"]:
                raise checks.CheckFailed("rates.csv differs from the single-worker run")

    def replay_check():
        report["replay.max_abs_diff"] = float("nan")  # stays if the replay raises
        report["replay.max_abs_diff"], times = checks.replay(cfg, REPLAY_TRIALS)
        replay_times.update(times)
        if report["replay.max_abs_diff"] != 0.0:
            raise checks.CheckFailed("kernel replay differs from the engine")

    if not simulation:
        report["rate_drift_max"] = "not applicable: verify writes no rates.csv"
    elif not ref.is_file():
        report["rate_drift_max"] = f"unavailable: no reference {ref.name}"
    if ref.is_file():
        client.attempt("reference check", reference_check)
    if simulation:
        client.attempt("kernel replay", replay_check)
        if first_text:
            report["rejected_frac"] = checks.rejected_frac(checks.parse_rates(first_text[0], cfg, k))

    run_times = [w for w, _, _ in plain]
    run_s = statistics.median(run_times) if run_times else float("nan")
    metrics: dict[str, float] = {}
    if not args.trace:
        # Shared pages of forked workers count in each process, as in ps.
        metrics["peak_rss_mb"] = (_vm_hwm_kb() + wl.workers * worker_peak_kb) / 1024.0
        metrics["run_s"] = run_s
        metrics["trial_ms"] = 1000.0 * run_s / accepted
        metrics["setup_s"] = statistics.median(probes) if probes else float("nan")
    else:
        metrics = _layer_metrics(tracer, traced, plain, run_s, replay_times, report, accepted)

    report["failed_frac"] = client.failed / client.attempted
    units = PER_LAYER if args.trace else END_TO_END
    metrics = {name: metrics.get(name, float("nan")) for name in units}  # nan: never measured
    env = environment(wl.workers)
    print(f"env {json.dumps(env, sort_keys=True)}")
    print(f"workload {wl.name}: seed {seed}, trials {trials} per "
          f"{'SNR point' if simulation else 'check'}, {accepted} accepted "
          f"trials per call, {len(run_times)} timed calls, workers {wl.workers}, closed loop, "
          f"one client")
    if args.trace and wl.workers > 1:
        print("note: spans recorded inside forked pool workers are lost; "
              "only the parent process's spans are reported")
    for name, value in report.items():
        unit = {"rate_drift_max": "bits", "replay.max_abs_diff": "bits"}.get(name, "")
        print(f"check {name} = {value} {unit if isinstance(value, float) else ''}".rstrip())
    for err in client.errors:
        print(f"failure {err}")
    for name, unit in units.items():
        print(f"metric {name} = {metrics[name]!r} {unit}")

    OUT.mkdir(exist_ok=True)
    stem = f"{wl.name}-seed{seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(
        {"env": env, "checks": report, "errors": client.tracebacks, "metrics": metrics,
         "run_s_samples": run_times}, indent=1, default=str) + "\n")
    if args.trace:
        tracer.write(OUT / f"{stem}-spans.jsonl")

    print(json.dumps({
        "correct": client.failed == 0,
        "attempted": client.attempted,
        "failed": client.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


def median(values) -> float:
    """Median, or 0.0 for a layer that recorded nothing."""
    values = list(values)
    return statistics.median(values) if values else 0.0


def _setup_probe(workload: str, seed: int, trials: int) -> float:
    out = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), str(SRC), workload, str(seed), str(trials)],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(out.stdout.strip().splitlines()[-1])


def _layer_metrics(tracer, traced, plain, run_s, replay_times, report, accepted) -> dict:
    """Per-layer metrics: medians over traced calls of per-call figures."""
    runs = tracer.per_run()
    per_call: dict[str, list[float]] = {}

    def add(name, value):
        per_call.setdefault(name, []).append(value)

    for run_id, (_, _, result) in enumerate(traced):
        r = runs.get(run_id, {"layer_self": {}, "self": {}, "durations": {}})
        dur, self_ = r["durations"], r["self"]

        def total(name):
            return sum(dur.get(name, ()))

        def per_call_us(name):
            return 1e6 * total(name) / len(dur[name]) if dur.get(name) else 0.0

        points = dur.get("evaluation.evaluate_point", [])
        add("evaluation.engine_self_ms_per_trial",
            1e3 * self_.get("evaluation.evaluate_point", 0.0) / accepted if points else 0.0)
        add("evaluation.evaluate_point.ms_p50", 1e3 * median(points))
        add("evaluation.evaluate_point.ms_max", 1e3 * max(points, default=0.0))
        attempted = rejected = 0
        if hasattr(result, "curves"):
            first = next(iter(result.curves.values()))
            attempted = sum(pt.trials + pt.rejections for pt in first.points)
            rejected = sum(pt.rejections for pt in first.points)
        add("evaluation.trials_attempted", attempted)
        add("evaluation.trials_rejected", rejected)
        for name in ("channel.trial_rng", "channel.complex_gaussian"):
            add(f"{name}.calls", len(dur.get(name, ())))
            add(f"{name}.us_per_call", per_call_us(name))
        builds = dur.get("allocation.build_allocation", [])
        add("allocation.build_allocation.calls", len(builds))
        add("allocation.build_allocation.ms", 1e3 * sum(builds))
        keys = tracer.allocation_keys.get(run_id, [])
        add("allocation.build_allocation.unique_ratio", len(set(keys)) / len(keys) if keys else 0.0)
        topo = [n for n in dur if n.startswith("topology.")]
        add("topology.calls", sum(len(dur[n]) for n in topo))
        add("topology.ms", 1e3 * sum(total(n) for n in topo))
        for name in ("resolvent_max_error", "term_decay_check", "truncation_tail_check",
                     "inverse_decay_estimate", "proof_exponent_table"):
            add(f"oracle.{name}.ms", 1e3 * total(f"oracle.{name}"))
        add("oracle.run_verification.self_ms", 1e3 * self_.get("oracle.run_verification", 0.0))
        add("cli.run_experiment.self_ms", 1e3 * self_.get("cli.run_experiment", 0.0))
        add("cli.compute_size_table.ms", 1e3 * total("cli.compute_size_table"))
        for layer in SPAN_LAYERS:
            add(f"{layer}.self_ms", 1e3 * r["layer_self"].get(layer, 0.0))

    metrics = {name: median(values) for name, values in per_call.items()}
    for name, value in metrics.items():
        if PER_LAYER[name] == "count" and float(value).is_integer():
            metrics[name] = int(value)  # counts repeat exactly from call to call

    def kernel(name, scale):
        return scale * median(replay_times.get(name, ()))

    metrics["precoding.distributed_precoder.ms_per_call"] = kernel("distributed_precoder", 1e3)
    metrics["precoding.zf_precoder.ms_per_call"] = kernel("zf_precoder", 1e3)
    metrics["channel.apply_estimate_noise.us_per_call"] = kernel("apply_estimate_noise", 1e6)
    metrics["evaluation.instantaneous_rates.us_per_call"] = kernel("instantaneous_rates", 1e6)
    metrics["replay.max_abs_diff"] = report.get("replay.max_abs_diff", 0.0)
    cpu = median(c for _, c, _ in plain)
    metrics["process.cpu_s"] = cpu
    metrics["process.cpu_util"] = cpu / run_s
    metrics["trace.overhead_frac"] = median(w for w, _, _ in traced) / run_s - 1.0
    return metrics


if __name__ == "__main__":
    sys.exit(main())
