"""Command-line interface: experiment configs, figure presets, size tables,
layout tools, and the numerical verification suite.

Outputs are deterministic for a given config: per-trial substreams depend
only on (seed, trial index), so the CSVs are byte-identical whatever the
worker count. Nothing is written unless the whole run succeeds.
"""

from __future__ import annotations

import argparse
import contextlib
import errno
import json
import os
import sys
from dataclasses import MISSING, asdict, dataclass, field, fields, replace
from pathlib import Path
from types import UnionType
from typing import get_args, get_origin, get_type_hints

import numpy as np

from . import __version__
from .allocation import PolicySpec, allocation_size, build_allocation, conventional
from .channel import PURPOSE_CHANNEL, PURPOSE_LAYOUT, draw_channel, pathloss_matrix, trial_rng
from .evaluation import DEFAULT_MAX_REJECTION_RATE, RatePoint, RejectionRateError, _check_sweep, db_to_linear
from .evaluation import dof_slope, evaluate_curves
from .oracle import run_verification
from .precoding import DEFAULT_COND_THRESHOLD
from .topology import (
    NodeLayout,
    _check_counts,
    _check_distinct,
    _check_side,
    cooperation_radius,
    data_sharing_sets,
    format_layout,
    interference_levels,
    pairwise_distance,
    parse_layout,
    place_grid,
    place_uniform_random,
)

__all__ = [
    "ExperimentConfig",
    "resolve_layout",
    "run_experiment",
    "fig1_desk_config",
    "fig1_full_config",
    "fig2_desk_config",
    "fig2_full_config",
    "main",
]

DEFAULT_SNR_DB = [10.0, 20.0, 30.0, 40.0, 50.0, 60.0, 70.0, 80.0]


@dataclass
class ExperimentConfig:
    """Everything needed to reproduce a rate experiment exactly, node
    positions included, so a saved config or a run's metadata reruns alone.

    The worker count is deliberately not part of the config: it affects
    scheduling only, never results.
    """

    seed: int = 1
    layout_kind: str = "grid"          # grid | random | positions
    grid_side: int = 4
    random_k: int = 8
    random_side: float = 4.0
    positions: list[list[float]] | None = None  # one [x, y] per node; only for layout_kind "positions"
    gamma: float = 0.6
    snr_db: list[float] = field(default_factory=lambda: list(DEFAULT_SNR_DB))
    trials: int = 500
    policies: list[PolicySpec] = field(
        default_factory=lambda: [PolicySpec("perfect"), PolicySpec("distance")]
    )
    fit_points: int = 4
    cond_threshold: float = DEFAULT_COND_THRESHOLD
    max_rejection_rate: float = DEFAULT_MAX_REJECTION_RATE
    data_mask: bool = False
    output: str = "netmimo-out"

    def validate(self) -> NodeLayout:
        """The layout the config describes, once every field passes, whatever
        the layout kind; else ValueError naming the first invalid field. A misfit
        cluster policy, and two policies or SNR points the outputs cannot tell
        apart, are refused too."""
        if self.layout_kind not in ("grid", "random", "positions"):
            raise ValueError(f"unknown layout kind {self.layout_kind!r}")
        self._check_positions()
        # The seed before the layout: a random layout draws from it.
        _check_counts(("seed", self.seed, 0), ("grid_side", self.grid_side, 1), ("random_k", self.random_k, 1),
                      ("fit_points", self.fit_points, 2))
        _check_side("random_side", self.random_side)
        _check_distinct("policies", self.policies, _policy_key, _token)
        layout = resolve_layout(self)
        _check_sweep(layout, self.gamma, self.policies, [(db, db_to_linear(db)) for db in self.snr_db],
                     self.trials, self.seed, self.cond_threshold, self.max_rejection_rate)
        # After the sweep's SNR rule, so that a NaN point is named as NaN, not as a repeat.
        _check_distinct("snr_db points", self.snr_db, _fmt, lambda db: f"{db!r} dB")
        return layout

    def _check_positions(self) -> None:
        """Raise ValueError unless positions are set exactly for layout_kind
        "positions", and then make a valid NodeLayout."""
        if (self.positions is not None) != (self.layout_kind == "positions"):
            raise ValueError("positions must be set exactly when layout_kind is 'positions'")
        if self.positions is not None:
            NodeLayout(self.positions)

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        """The config of a to_dict form, as read back from JSON.

        Policies may be PolicySpec objects or dicts of their fields; a missing
        key keeps the default policies. Raises ValueError naming the first key
        that is not a field, or whose value does not have the field's type.
        """
        if isinstance(data, dict) and isinstance(data.get("policies"), list):
            data = {**data, "policies": [
                p if isinstance(p, PolicySpec) else PolicySpec(**_field_values(PolicySpec, p, f"policies[{i}]"))
                for i, p in enumerate(data["policies"])
            ]}
        return cls(**_field_values(cls, data, "config"))

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ExperimentConfig":
        return cls.from_dict(json.loads(text))


def _fmt(x: float) -> str:
    return f"{x:.10g}"


def _policy_key(spec: PolicySpec) -> str:
    """The policy and alpha columns of spec's rows, which also name its bit
    files; two policies with the same label() have the same key."""
    return f"{spec.kind},{_fmt(spec.alpha) if spec.kind == 'distance' else ''}"


def _token(spec: PolicySpec) -> str:
    """The --policies token of spec, alpha in full."""
    arg = {"distance": repr(spec.alpha), "cluster": spec.cluster_size, "uniform": spec.uniform_support}.get(spec.kind)
    return spec.kind if arg is None else f"{spec.kind}:{arg}"


def _field_values(cls, data, where: str) -> dict:
    """data, checked to be keyword arguments of the dataclass cls: every key
    a field, every value of the field's type (a float field takes an int),
    every field without a default given; ValueError names the first bad key."""
    if not isinstance(data, dict):
        raise ValueError(f"{where} must be a JSON object, got {data!r}")
    if missing := [f.name for f in fields(cls) if f.default is f.default_factory is MISSING and f.name not in data]:
        raise ValueError(f"{where}: missing key {missing[0]!r}")
    hints = get_type_hints(cls)
    for key, value in data.items():
        if key not in hints:
            raise ValueError(f"{where}: unknown key {key!r}")
        hint = hints[key]
        if not _has_type(value, hint):
            name = hint.__name__ if type(hint) is type else str(hint)
            raise ValueError(f"{where}: key {key!r} must be {name}, got {value!r}")
    return data


def _has_type(value, hint) -> bool:
    if hint in (int, float):
        # bool is an int subclass, never a count or a measure here.
        return isinstance(value, (int, hint)) and not isinstance(value, bool)
    if isinstance(hint, UnionType):
        return any(_has_type(value, h) for h in get_args(hint))
    if get_origin(hint) is list:
        (item,) = get_args(hint)
        return isinstance(value, list) and all(_has_type(v, item) for v in value)
    return isinstance(value, hint)


def resolve_layout(config: ExperimentConfig) -> NodeLayout:
    """The layout a config describes; random layouts derive from the seed."""
    if config.layout_kind == "grid":
        return place_grid(config.grid_side)
    if config.layout_kind == "random":
        rng = trial_rng(config.seed, 0, PURPOSE_LAYOUT)
        return place_uniform_random(config.random_k, config.random_side, rng)
    return NodeLayout(config.positions)


def compute_size_table(
    layout: NodeLayout, gamma: float, policies: list[PolicySpec], snr_db: list[float]
) -> list[dict]:
    """Allocation sizes and ratios against the conventional policy.

    The conventional reference row is always included; the perfect policy has
    no finite size and is skipped.
    """
    rows = []
    dist = pairwise_distance(layout)
    levels = interference_levels(dist, gamma)
    specs = [PolicySpec("conventional")]
    specs += [s for s in policies if s.kind not in ("perfect", "conventional")]
    for db in snr_db:
        p = db_to_linear(db)
        ref = allocation_size(conventional(levels, p))
        for spec in specs:  # the conventional row is the reference itself
            size = ref if spec.kind == "conventional" else allocation_size(build_allocation(spec, layout, gamma, p))
            rows.append(
                {
                    "policy": spec.kind,
                    "alpha": spec.alpha if spec.kind == "distance" else None,
                    "snr_db": db,
                    "total_bits": size.total_bits,
                    "prelog": size.prelog,
                    "prelog_asymptotic": size.prelog_asymptotic,
                    "ratio_to_conventional": size.total_bits / ref.total_bits if ref.total_bits else float("nan"),
                    "ratio_asymptotic": (
                        size.prelog_asymptotic / ref.prelog_asymptotic
                        if ref.prelog_asymptotic
                        else float("nan")
                    ),
                }
            )
    return rows


def _size_table_csv(rows: list[dict]) -> str:
    cols = ("snr_db", "total_bits", "prelog", "prelog_asymptotic", "ratio_to_conventional", "ratio_asymptotic")
    lines = [",".join(("policy", "alpha") + cols)]
    for r in rows:
        alpha = "" if r["alpha"] is None else _fmt(r["alpha"])
        lines.append(",".join([r["policy"], alpha, *(_fmt(r[c]) for c in cols)]))
    return "\n".join(lines) + "\n"


def _rates_csv(result: dict[PolicySpec, list[RatePoint]], policies: list[PolicySpec]) -> str:
    lines = ["policy,alpha,snr_db,user,mean_rate_bits,stderr,trials,rejections"]
    for spec in policies:
        alpha = _fmt(spec.alpha) if spec.kind == "distance" else ""
        for pt in result[spec]:
            for u in range(len(pt.mean_per_user)):
                lines.append(
                    f"{spec.kind},{alpha},{_fmt(pt.snr_db)},{u + 1},"
                    f"{_fmt(pt.mean_per_user[u])},{_fmt(pt.stderr_per_user[u])},"
                    f"{pt.trials},{pt.rejections}"
                )
            lines.append(
                f"{spec.kind},{alpha},{_fmt(pt.snr_db)},avg,"
                f"{_fmt(pt.mean_avg)},{_fmt(pt.stderr_avg)},{pt.trials},{pt.rejections}"
            )
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class _Curve:
    points: list[RatePoint]


@dataclass(frozen=True)
class _RunResult:
    """run_experiment's result: curves[spec].points is evaluate_curves'
    list for the policy. perfbench/run.py reads the run's trial and
    rejection counts in this form."""

    curves: dict[PolicySpec, _Curve]


def run_experiment(config: ExperimentConfig, workers: int = 1, dump_channel: str | None = None) -> _RunResult:
    """Run a config end to end and write rates.csv, metadata.json, layout.txt
    (and the channel dump, if asked for).

    All outputs are assembled in memory and written together by _write_all,
    so a failing run writes no file and leaves no output directory it
    created. The metadata embeds the config, which suffices to re-run the
    experiment exactly.
    """
    layout = config.validate()
    result = evaluate_curves(
        layout,
        config.gamma,
        config.policies,
        config.snr_db,
        config.trials,
        config.seed,
        cond_threshold=config.cond_threshold,
        max_rejection_rate=config.max_rejection_rate,
        data_mask=config.data_mask,
        workers=workers,
    )
    csv_text = _rates_csv(result, config.policies)
    size_rows = compute_size_table(layout, config.gamma, config.policies, config.snr_db)
    d0 = cooperation_radius(config.gamma) if config.gamma < 1.0 else None  # unbounded at gamma = 1
    metadata = {
        "tool": {"name": "netmimo", "version": __version__},
        "config": config.to_dict(),
        "cooperation_radius": d0,
        "sizes": size_rows,
        "dof": _dof_fits(config, result),
        "rejections": {spec.label(): [pt.rejections for pt in result[spec]] for spec in config.policies},
    }

    texts = [csv_text, json.dumps(metadata, indent=2, sort_keys=True) + "\n", format_layout(layout)]
    if dump_channel:
        texts.append(_channel_csv(config, layout))
    _write_all(dict(zip(_run_outputs(config.output, dump_channel), texts, strict=True)), Path(config.output))
    return _RunResult({spec: _Curve(points) for spec, points in result.items()})


def _run_outputs(output: str, dump_channel: str | None) -> list[Path]:
    """The files a run writes: rates.csv, metadata.json and layout.txt in
    output, then the channel dump, if asked for."""
    paths = [Path(output) / name for name in ("rates.csv", "metadata.json", "layout.txt")]
    return [*paths, Path(dump_channel)] if dump_channel else paths


def _dof_fits(config: ExperimentConfig, result: dict[PolicySpec, list[RatePoint]]) -> dict:
    """The metadata's dof block, the only place slopes are fitted: per policy
    label, the fit over the last fit_points SNR points (all of them, if
    fewer); a policy with fewer than 2 points has no entry."""
    dof = {}
    for spec in config.policies:
        points = result[spec]
        if len(points) >= 2:
            est = dof_slope(points, min(config.fit_points, len(points)))
            dof[spec.label()] = {"slope": est.slope, "residual": est.residual, "fit_snr_db": list(est.fit_snr_db)}
    return dof


def _channel_csv(config: ExperimentConfig, layout: NodeLayout) -> str:
    """The trial-0 channel draw at the first SNR point, the reference draw
    the engine's equals, one (rx, tx) entry per row."""
    p = db_to_linear(config.snr_db[0])
    sigma = pathloss_matrix(interference_levels(pairwise_distance(layout), config.gamma), p)
    h = draw_channel(sigma, trial_rng(config.seed, 0, PURPOSE_CHANNEL)).H
    lines = ["rx,tx,re,im"]
    lines += [f"{k + 1},{i + 1},{x.real:.17g},{x.imag:.17g}" for (k, i), x in np.ndenumerate(h)]
    return "\n".join(lines) + "\n"


def _write_all(files: dict[Path, str], directory: Path | None = None) -> None:
    """Write every file or none of them; the only place the CLI writes.

    directory, with its missing parents, is created first. Each text then
    goes to a temporary sibling, and the temporaries replace their targets
    only after every write succeeded. A target that is not a directory is
    first hard-linked to another sibling, so that each replacement stays one
    atomic rename and a failed one can put back every target replaced before
    it. A failure removes the temporaries and the directories this call
    created, and raises an OSError that names the path at fault.
    """
    temps = {path: path.with_name(f".{path.name}.tmp") for path in files}
    created = [d for d in (directory, *directory.parents) if not d.exists()] if directory else []
    replaced: list[tuple[Path, Path | None]] = []  # (target, the link to its old entry, if any)
    try:
        if directory:
            directory.mkdir(parents=True, exist_ok=True)
        for path, text in files.items():
            try:
                temps[path].write_text(text)
            except OSError as exc:
                raise OSError(exc.errno, exc.strerror, str(path)) from exc
        for path, tmp in temps.items():
            old = path.with_name(f".{path.name}.old") if path.is_symlink() or path.is_file() else None
            if old:
                with contextlib.suppress(FileNotFoundError):
                    old.unlink()  # left by a run that was killed
                os.link(path, old, follow_symlinks=False)
            replaced.append((path, old))
            tmp.replace(path)
    except BaseException:
        for path, old in reversed(replaced):
            with contextlib.suppress(OSError):
                if old:
                    old.replace(path)
                elif not path.is_dir():
                    path.unlink()
        for tmp in temps.values():
            with contextlib.suppress(OSError):
                tmp.unlink()
        for d in created:  # deepest first; rmdir removes only empty directories
            with contextlib.suppress(OSError):
                d.rmdir()
        raise
    for _, old in replaced:
        if old:
            with contextlib.suppress(OSError):
                old.unlink()


# ---------------------------------------------------------------------------
# presets
# ---------------------------------------------------------------------------

def fig1_desk_config(seed: int = 101, trials: int = 500, output: str = "fig1-desk") -> ExperimentConfig:
    """Grid-network policy comparison at desk scale: 4x4 grid, gamma 0.6."""
    return ExperimentConfig(
        seed=seed,
        layout_kind="grid",
        grid_side=4,
        gamma=0.6,
        snr_db=list(DEFAULT_SNR_DB),
        trials=trials,
        policies=[
            PolicySpec("perfect"),
            PolicySpec("distance"),
            PolicySpec("uniform"),
            PolicySpec("cluster", cluster_size=4),
        ],
        fit_points=4,
        output=output,
    )


def fig1_full_config(seed: int = 101, trials: int = 1000, output: str = "fig1-full") -> ExperimentConfig:
    """Full-scale grid comparison: 6x6 grid, gamma 0.6 (slow)."""
    return replace(fig1_desk_config(seed=seed, trials=trials, output=output), grid_side=6)


def fig2_desk_config(seed: int = 202, trials: int = 500, output: str = "fig2-desk") -> ExperimentConfig:
    """Random-network alpha sweep at desk scale: 8 nodes in a 4x4 square, gamma 0.7."""
    return ExperimentConfig(
        seed=seed,
        layout_kind="random",
        random_k=8,
        random_side=4.0,
        gamma=0.7,
        snr_db=list(DEFAULT_SNR_DB),
        trials=trials,
        policies=[
            PolicySpec("perfect"),
            PolicySpec("distance", alpha=0.75),
            PolicySpec("distance", alpha=1.0),
            PolicySpec("distance", alpha=1.25),
        ],
        fit_points=4,
        output=output,
    )


def fig2_full_config(seed: int = 202, trials: int = 1000, output: str = "fig2-full") -> ExperimentConfig:
    """Full-scale random-network alpha sweep: 15 nodes in a 6x6 square (slow)."""
    return replace(fig2_desk_config(seed=seed, trials=trials, output=output), random_k=15, random_side=6.0)


_PRESETS = {
    "fig1-desk": fig1_desk_config,
    "fig1-full": fig1_full_config,
    "fig2-desk": fig2_desk_config,
    "fig2-full": fig2_full_config,
}


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def parse_policy(token: str) -> PolicySpec:
    """Parse CLI policy tokens: perfect, conventional, zero, distance[:alpha],
    cluster[:size], uniform[:support]."""
    kind, _, arg = token.partition(":")
    try:
        if kind == "distance":
            return PolicySpec("distance", alpha=float(arg) if arg else 1.0)
        if kind == "cluster":
            return PolicySpec("cluster", cluster_size=int(arg) if arg else 4)
        if kind == "uniform":
            return PolicySpec("uniform", uniform_support=arg or "all")
        if arg:
            raise ValueError(f"policy {kind!r} takes no argument")
        return PolicySpec(kind)
    except ValueError as exc:
        # argparse reports a type function's ValueError without its message.
        raise argparse.ArgumentTypeError(f"{token!r}: {exc}") from None


class _UsageError(Exception):
    """Bad input, found before any output; main exits with a usage error."""


def _validated(cfg: ExperimentConfig | None, *counts: tuple[str, object, int]) -> NodeLayout | None:
    """cfg's layout (None without a cfg), once cfg and each (name, value, low) count pass the
    library's rules, or a usage error with the broken rule's message, which names the field."""
    try:
        layout = None if cfg is None else cfg.validate()
        _check_counts(*counts)
    except ValueError as exc:
        raise _UsageError(str(exc)) from None
    return layout


_CONFIG_FIELDS = frozenset(f.name for f in fields(ExperimentConfig))


def _config_from_args(base: ExperimentConfig, args: argparse.Namespace) -> ExperimentConfig:
    """base with every flag given applied on top of it.

    A flag whose destination names a config field sets that field; flags
    not given are None and leave the base alone. The layout flags also set
    the layout kind, --layout-file before --random-k before --grid-side; the
    file is read here, once, into the positions, and the others clear them.
    """
    given = {k: v for k, v in vars(args).items() if k in _CONFIG_FIELDS and v is not None}
    if getattr(args, "layout_file", None) is not None:
        given.update(layout_kind="positions", positions=_read_layout_file(args.layout_file))
    elif "random_k" in given or "grid_side" in given:
        given.update(layout_kind="random" if "random_k" in given else "grid", positions=None)
    return replace(base, **given)


def _read_layout_file(path: str) -> list[list[float]]:
    """The positions in a layout file, as a config holds them."""
    return _read_input("cannot load layout file", path, parse_layout).positions.tolist()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="netmimo",
        description="Network-MIMO simulator with distributed channel-knowledge allocation.",
    )
    parser.add_argument("--version", action="version", version=f"netmimo {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    # Flags shared by several subcommands, declared once. Every flag that
    # feeds the config defaults to None, so only the flags given override it.
    seed_args = argparse.ArgumentParser(add_help=False)
    seed_args.add_argument("--seed", type=int)
    layout_args = argparse.ArgumentParser(add_help=False)
    layout_args.add_argument("--grid-side", type=int, help="square grid side length")
    layout_args.add_argument("--random-k", type=int, help="number of nodes placed uniformly at random")
    layout_args.add_argument("--random-side", type=float, help="side of the random square")
    layout_args.add_argument("--layout-file", help="take the node positions from a layout file")
    model_args = argparse.ArgumentParser(add_help=False)
    model_args.add_argument("--config", help="JSON experiment config")
    model_args.add_argument(
        "--policies", nargs="+", type=parse_policy, help="policy specs, e.g. perfect distance:1.25 cluster:4"
    )
    model_args.add_argument("--gamma", type=float)
    model_args.add_argument("--snr-db", nargs="+", type=float)
    run_args = argparse.ArgumentParser(add_help=False)
    run_args.add_argument("--trials", type=int)
    run_args.add_argument("--output")
    run_args.add_argument("--workers", type=int, default=1)

    run_p = sub.add_parser(
        "run", parents=[seed_args, layout_args, model_args, run_args], help="run a rate experiment"
    )
    run_p.add_argument("--from-metadata", help="re-run the config embedded in a metadata.json")
    run_p.add_argument("--fit-points", type=int)
    run_p.add_argument(
        "--data-mask", action="store_true", default=None,
        help="zero precoder entries beyond the cooperation radius",
    )
    run_p.add_argument("--dump-channel", help="also dump one channel realization to this CSV")
    run_p.add_argument("--save-config", help="write the effective config JSON here and exit")

    sizes_p = sub.add_parser("sizes", parents=[seed_args, layout_args, model_args], help="allocation size table")
    sizes_p.add_argument("--output", help="write the table CSV here instead of stdout")
    sizes_p.add_argument("--export-bits", help="directory for per-policy (j,k,i,bits) CSV dumps")

    ver_p = sub.add_parser("verify", help="numerical verification suite")
    ver_p.add_argument("--seed", type=int, default=7)
    ver_p.add_argument("--trials", type=int, default=800)
    ver_p.add_argument("--output", help="write the check table CSV here")

    lay_p = sub.add_parser("layout", parents=[seed_args, layout_args], help="emit or inspect node layouts")
    lay_p.add_argument("--gamma", type=float, help="gamma for --show (default 0.6)")
    lay_p.add_argument("--out", help="write the layout file here")
    lay_p.add_argument("--show", help="print a summary of an existing layout file")

    for name, factory in _PRESETS.items():
        sub.add_parser(name, parents=[seed_args, run_args], help=f"preset: {factory.__doc__.splitlines()[0]}")

    args = parser.parse_args(argv)
    try:
        return _command(args)
    except _UsageError as exc:
        parser.error(str(exc))
    except OSError as exc:  # _write_all names the file it could not write, and wrote none
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:  # raised before _write_all, or undone by it
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 2


def _command(args: argparse.Namespace) -> int:
    """Run the subcommand args names; its exit code."""
    if args.command == "verify":
        return _cmd_verify(args)
    if args.command == "layout":
        return _cmd_layout(args)

    if args.command in _PRESETS:
        base = _PRESETS[args.command]()
    elif args.config:
        base = _read_input("--config:", args.config, _parse_config)
    elif args.command == "run" and args.from_metadata:
        base = _read_input("--from-metadata:", args.from_metadata, _parse_metadata)
    else:
        base = ExperimentConfig()
    cfg = _config_from_args(base, args)
    layout = _validated(cfg, ("workers", getattr(args, "workers", 1), 1))

    if args.command == "sizes":
        text = _size_table_csv(compute_size_table(layout, cfg.gamma, cfg.policies, cfg.snr_db))
        bits_dir = Path(args.export_bits) if args.export_bits else None
        files = _export_bits(cfg, layout, bits_dir) if bits_dir else {}
        table = [Path(args.output)] if args.output else []
        _check_targets([*files, *table])
        _write_all(files | dict.fromkeys(table, text), bits_dir)
        if not args.output:
            sys.stdout.write(text)
        return 0
    if args.command in _PRESETS:
        return _cmd_run(cfg, args.workers, None)
    if args.save_config:
        _check_targets([Path(args.save_config)])
        _write_all({Path(args.save_config): cfg.to_json() + "\n"})
        return 0
    return _cmd_run(cfg, args.workers, args.dump_channel)


def _check_targets(files: list[Path], directory: Path | None = None) -> None:
    """Before any work: a usage error naming the first of files that resolves to directory or an earlier
    file, so that no output of a command overwrites another, or an IsADirectoryError naming the first that
    is a directory, which a file cannot replace (a symlink to one can be: the write replaces the link)."""
    seen = {directory.resolve()} if directory else set()
    for path in files:
        key = path.resolve()
        if key in seen:
            raise _UsageError(f"two outputs of this command name the same file: {path}")
        seen.add(key)
        if path.is_dir() and not path.is_symlink():
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(path))


def _read_input(label: str, path: str, parse):
    """parse(text of the file at path); the only place the CLI reads a file.

    A file that cannot be read or parsed is a usage error,
    `{label} {path}: {reason}`.
    """
    try:
        return parse(Path(path).read_text())
    except (OSError, ValueError) as exc:
        raise _UsageError(f"{label} {path}: {exc}") from None


def _parse_config(text: str) -> ExperimentConfig:
    """The config of a --config file; an old one of kind "file" reads its layout_path."""
    data = json.loads(text)
    return _translated(data, lambda: _read_layout_file(_old_value(data, "layout_path", str)))


def _parse_metadata(text: str) -> ExperimentConfig:
    """The config a metadata.json embeds; an old one of kind "file" takes its layout_positions."""
    meta = json.loads(text)
    if not isinstance(meta, dict) or "config" not in meta:
        raise ValueError("no 'config' key; not a run's metadata.json")
    return _translated(meta["config"], lambda: _old_value(meta, "layout_positions", list))


def _old_value(data: dict, key: str, kind: type):
    """data[key], which an old config of layout_kind "file" needs."""
    if not isinstance(data.get(key), kind):
        raise ValueError(f"no {key!r} key of type {kind.__name__} for a config with layout_kind 'file'")
    return data[key]


def _translated(data, old_positions) -> ExperimentConfig:
    """The config of a JSON value, only its positions checked, so a flag can
    still repair any other field. An old config loses its layout_path key,
    and its layout_kind "file" becomes "positions", at old_positions()."""
    if isinstance(data, dict):
        data = {k: v for k, v in data.items() if k != "layout_path"}
        if data.get("layout_kind") == "file":
            data.update(layout_kind="positions", positions=old_positions())
    cfg = ExperimentConfig.from_dict(data)
    cfg._check_positions()
    return cfg


def _cmd_run(cfg: ExperimentConfig, workers: int, dump_channel: str | None) -> int:
    _check_targets(_run_outputs(cfg.output, dump_channel), Path(cfg.output))
    try:
        curves = run_experiment(cfg, workers=workers, dump_channel=dump_channel).curves
    except RejectionRateError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    result = {spec: curve.points for spec, curve in curves.items()}
    dof = _dof_fits(cfg, result)
    for spec in cfg.policies:
        top = max(result[spec], key=lambda q: q.snr_db)  # where the slope's fit window ends
        slope = dof[spec.label()]["slope"] if spec.label() in dof else float("nan")
        print(f"{spec.label():<22} top {top.snr_db:g} dB: {top.mean_avg:.3f} bits/user (slope {slope:.3f})")
    print(f"wrote {Path(cfg.output) / 'rates.csv'}")
    return 0


def _export_bits(cfg: ExperimentConfig, layout: NodeLayout, outdir: Path) -> dict[Path, str]:
    """One (j, k, i, bits) CSV per policy and SNR point, keyed by its path in outdir."""
    files = {}
    for spec in cfg.policies:
        if spec.kind == "perfect":
            continue
        for db in cfg.snr_db:
            bits = build_allocation(spec, layout, cfg.gamma, db_to_linear(db)).bits
            lines = ["j,k,i,bits"]
            lines += [f"{j + 1},{k + 1},{i + 1},{b:.10g}" for (j, k, i), b in np.ndenumerate(bits)]
            alpha = f"_a{_fmt(spec.alpha)}" if spec.kind == "distance" else ""
            files[outdir / f"bits_{spec.kind}{alpha}_{_fmt(db)}dB.csv"] = "\n".join(lines) + "\n"
    return files


def _cmd_verify(args: argparse.Namespace) -> int:
    _validated(None, ("seed", args.seed, 0), ("trials", args.trials, 1))
    _check_targets([Path(args.output)] if args.output else [])  # found before the suite runs, not after it
    if args.output and not Path(args.output).parent.is_dir():
        raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), args.output)
    results = run_verification(seed=args.seed, trials=args.trials)
    width = max(len(r.name) for r in results)
    lines = ["check,measured,bound,passed"]
    for r in results:
        verdict = "PASS" if r.passed else "FAIL"
        print(f"{r.name:<{width}}  measured {r.measured:>12.4e}  bound {r.bound:>12.4e}  {verdict}  {r.note}")
        lines.append(f"{r.name},{r.measured:.10g},{r.bound:.10g},{str(r.passed).lower()}")
    if args.output:
        _write_all({Path(args.output): "\n".join(lines) + "\n"})
    return 0 if all(r.passed for r in results) else 1


def _cmd_layout(args: argparse.Namespace) -> int:
    cfg = _config_from_args(ExperimentConfig(), args)
    layout = _validated(cfg)
    if args.show:
        layout = _read_input("--show:", args.show, parse_layout)
        dist = pairwise_distance(layout)
        print(f"nodes: {layout.K}")
        print(f"bounding box: x [{layout.positions[:, 0].min():g}, {layout.positions[:, 0].max():g}]"
              f" y [{layout.positions[:, 1].min():g}, {layout.positions[:, 1].max():g}]")
        off = dist[~np.eye(layout.K, dtype=bool)]
        if off.size:
            print(f"pair distance: min {off.min():.4g} max {off.max():.4g}")
        if cfg.gamma < 1.0:  # at gamma = 1 the radius is unbounded
            sizes = [len(s) for s in data_sharing_sets(layout, cfg.gamma)]
            print(f"cooperation radius at gamma {cfg.gamma:g}: {cooperation_radius(cfg.gamma):g}; "
                  f"sharing set sizes min {min(sizes)} max {max(sizes)}")
        return 0
    if not (args.out and (args.layout_file or args.random_k or args.grid_side)):
        print("error: to emit a layout, pass --out and --grid-side, --random-k or --layout-file", file=sys.stderr)
        return 2
    _check_targets([Path(args.out)])
    _write_all({Path(args.out): format_layout(layout)})
    print(f"wrote {args.out} ({layout.K} nodes)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
