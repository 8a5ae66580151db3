"""Experiment runner: verification suites as subcommands with JSON config,
deterministic seeding, and machine-readable reports.

Subcommands: ``simulate`` (emit trajectories), ``equiv`` (cross-construction
equivalence battery), ``rgd`` (contraction and stability), ``bridge``
(scaling solver and drift-energy battery), ``lsi`` (constant schedules), and
``report`` (re-print a previously written report).  Exit status is 0 when
every check passes, 1 when any check fails, and 2 on configuration errors.
CSV outputs are byte-identical across repeated runs with the same seed.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import MISSING, dataclass, field, fields
from pathlib import Path

import numpy as np

from . import bridge, diagnostics, localize, polchinski, rgd, suites, targets
from .sde import TimeGrid, _emit, _write_csv, generator, wiener_increments, write_paths_csv


@dataclass(frozen=True, kw_only=True)
class ExperimentConfig(suites.SuiteBudget):
    """A validated run: the suite budget plus the CLI's own settings.

    Every field but ``measure`` is a config key and holds its default;
    ``target`` is the JSON description and ``measure`` the measure built from it.
    """

    target: dict = field(
        default_factory=lambda: {"kind": "gaussian", "mean": [0.0], "cov": [[1.0]]}
    )
    samples: int = 100_000
    alpha: float = 1.0
    eta: float = 1.0
    out: str = "sloc-out"
    format: str = "json"
    measure: targets.TargetMeasure


DEFAULTS: dict = {
    f.name: f.default if f.default_factory is MISSING else f.default_factory()
    for f in fields(ExperimentConfig)
    if f.name != "measure"
}


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _validate_fields(raw: dict, errors: list[str]) -> None:
    for name in ("dt", "horizon", "alpha", "eta"):
        v = raw[name]
        if not (_is_number(v) and math.isfinite(v) and v > 0):
            errors.append(f"{name} must be a positive number, got {v!r}")
    for name, least in (("paths", 1), ("particles", 2), ("samples", 1), ("workers", 1)):
        v = raw[name]
        if not (isinstance(v, int) and not isinstance(v, bool) and v >= least):
            errors.append(f"{name} must be an integer of at least {least}, got {v!r}")
    for name in ("tau", "eps_clip", "level"):
        v = raw[name]
        if not (_is_number(v) and 0.0 < v < 1.0):
            errors.append(f"{name} must lie in (0, 1), got {v!r}")
    if raw["format"] not in ("json", "csv"):
        errors.append(f"format must be 'json' or 'csv', got {raw['format']!r}")
    if not isinstance(raw["seed"], int) or isinstance(raw["seed"], bool):
        errors.append(f"seed must be an integer, got {raw['seed']!r}")
    if not (isinstance(raw["out"], str) and raw["out"]):
        errors.append(f"out must be a non-empty string, got {raw['out']!r}")


def _step_errors(raw: dict) -> list[str]:
    """Intervals that ``dt`` leaves without a step.  Every uniform grid a run
    builds has ``round(T / dt)`` steps, with ``T`` one of these three or a
    longer interval (``1`` and ``tau / (1 - tau)``)."""
    dt = raw["dt"]
    spans = (("horizon", raw["horizon"]), ("tau", raw["tau"]), ("1 - eps_clip", 1.0 - raw["eps_clip"]))
    return [f"dt {dt!r} leaves {name} = {span!r} with no grid step" for name, span in spans if round(span / dt) < 1]


def _size_errors(raw: dict, dim: int) -> list[str]:
    """A run whose largest single array would not fit in physical memory.
    That array is a uniform grid of ``round(T / dt) + 1`` points, ``T`` the
    longest interval a run steps over, or one engine chunk's noise of
    ``min(4096, paths) x steps x d`` doubles."""
    # In floats, so that a dt too small for any grid counts as infinitely many steps.
    steps = max(raw["horizon"], 1.0, raw["tau"] / (1.0 - raw["tau"])) / raw["dt"]
    rows = min(4096, raw["paths"])
    largest = 8.0 * max(steps + 1.0, rows * steps * dim)
    memory = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if largest <= memory:
        return []
    return [f"dt {raw['dt']!r} and paths {raw['paths']!r} need an array of {largest / 2**30:.3g} GiB "
            f"({steps:.3g} steps, {rows} paths, d = {dim}), more than the {memory / 2**30:.3g} GiB of "
            "physical memory; raise dt or lower paths"]


def validate_config(
    path: str | None, overrides: dict | None = None
) -> tuple[ExperimentConfig | None, list[str], list[str]]:
    """Load, default-fill, and validate a config; errors are aggregated.

    Unknown keys produce warnings, not failures.  ``overrides`` (CLI flags)
    take precedence over file values, which take precedence over defaults.
    """
    errors: list[str] = []
    warnings: list[str] = []
    raw = dict(DEFAULTS)
    if path is not None:
        try:
            loaded = json.loads(Path(path).read_text())
        except FileNotFoundError:
            return None, [f"config file not found: {path}"], warnings
        except json.JSONDecodeError as exc:
            return None, [f"malformed JSON in {path}: {exc}"], warnings
        if not isinstance(loaded, dict):
            return None, [f"config root must be an object, got {type(loaded).__name__}"], warnings
        for key, value in loaded.items():
            if key not in DEFAULTS:
                warnings.append(f"unknown config key {key!r} ignored")
            else:
                raw[key] = value
    if overrides:
        raw.update({k: v for k, v in overrides.items() if v is not None})

    _validate_fields(raw, errors)
    fields_valid = not errors
    measure = None
    try:
        measure = targets.target_from_json(raw["target"])
    except (ValueError, TypeError, KeyError) as exc:
        errors.append(f"target: {exc}")
    if fields_valid:
        errors += _size_errors(raw, 1 if measure is None else measure.dim) or _step_errors(raw)
        if isinstance(measure, targets.GenericPotential) and raw["samples"] <= targets.DEFAULT_ESS_FLOOR:
            # The effective sample size of ``samples`` weighted draws is at most ``samples``.
            errors.append(
                f"samples must exceed the effective-sample-size floor {targets.DEFAULT_ESS_FLOOR:g} "
                f"for a generic target, got {raw['samples']!r}"
            )
    if errors:
        return None, errors, warnings
    values = {key: type(default)(raw[key]) for key, default in DEFAULTS.items()}
    return ExperimentConfig(measure=measure, **values), errors, warnings


def _suite_base(cfg: ExperimentConfig):
    """The configured target when the equivalence battery supports it."""
    t = cfg.measure
    if isinstance(t, targets.GaussianMixture) and t.dim == 1:
        return t
    sys.stderr.write(
        "warning: configured target is not a one-dimensional Gaussian/mixture; "
        "equivalence checks run on the standard normal instead\n"
    )
    return None


def _print_report(report_dict: dict) -> None:
    for check in report_dict["checks"]:
        flag = "PASS" if check["passed"] else "FAIL"
        sys.stdout.write(
            f"{flag} {check['name']}: observed={check['observed']:.6g} "
            f"tolerance={check['tolerance']:.6g}  {check['detail']}\n"
        )
    sys.stdout.write(f"global: {'PASS' if report_dict['global_pass'] else 'FAIL'}\n")


def _run_simulate(cfg: ExperimentConfig) -> int:
    """Trajectory CSVs and their manifest.  A library run-time error (one of
    ``suites._RUN_ERRORS``) writes no file: it is one ``run error:`` line on
    stderr and exit 1."""
    out_dir = Path(cfg.out)
    steps = round(cfg.horizon / cfg.dt)
    grid = TimeGrid.uniform(0.0, cfg.horizon, steps)
    n_traj = min(cfg.paths, 16)

    runs, channel_paths = {}, []
    try:
        for stream in range(n_traj):
            noise = wiener_increments(grid, cfg.measure.dim, cfg.seed, stream)
            runs[stream] = localize.tilt_sde_run(cfg.measure, grid, noise, budget=cfg.samples)
        for stream in range(n_traj):
            _, path = localize.channel_path(cfg.measure, grid, cfg.seed + 1, stream)
            channel_paths.append(path)
    except suites._RUN_ERRORS as exc:
        sys.stderr.write(f"run error: {type(exc).__name__}: {exc}\n")
        return 1
    localize.write_trajectory_csv(runs, out_dir / "tilt_trajectories.csv")
    write_paths_csv(channel_paths, out_dir / "channel_trajectories.csv")

    manifest = {
        "seed": cfg.seed,
        "dt": cfg.dt,
        "horizon": cfg.horizon,
        "trajectories": n_traj,
        "target": cfg.target,
        "files": ["tilt_trajectories.csv", "channel_trajectories.csv"],
    }
    _emit(json.dumps(manifest, indent=2, sort_keys=True) + "\n", out_dir / "simulate.json")
    sys.stdout.write(f"wrote {n_traj} trajectories to {out_dir}\n")
    return 0


def _run_lsi_tables(cfg: ExperimentConfig) -> None:
    out_dir = Path(cfg.out)
    taus = np.linspace(0.0, 0.95, 20)
    polchinski.write_schedule_csv(
        polchinski.lsi_schedule(cfg.alpha), taus, out_dir / "lsi_schedule.csv"
    )
    rows = (
        (eta, rgd.lsi_lower_bound(cfg.alpha, eta), 1.0 / (1.0 + cfg.alpha * eta) ** 2)
        for eta in (0.1, 0.25, 0.5, 1.0, 2.0, 5.0, 10.0)
    )
    _write_csv("eta,lsi_lower_bound,per_step_kl_factor", rows, out_dir / "lsi_bounds.csv")


def _write_rgd_artifacts(cfg: ExperimentConfig) -> None:
    """Chain trace CSV and stability report JSON for the configured target."""
    out_dir = Path(cfg.out)
    target = cfg.measure
    if not isinstance(target, targets.GaussianMixture):
        sys.stderr.write(
            "warning: configured target is not a Gaussian/mixture; "
            "rgd artifacts use the standard normal instead\n"
        )
        target = targets.GaussianMeasure([0.0], [[1.0]])
    d = target.dim
    chain_cfg = rgd.RgdConfig(cfg.eta, target, steps=50)
    trace = rgd.rgd_chain(np.zeros(d), chain_cfg, generator(cfg.seed, 0, 21))
    kls = None
    if isinstance(target, targets.GaussianMeasure):
        _, kls = rgd.chain_law_propagate(
            targets.GaussianMeasure(np.zeros(d) + 1.0, np.eye(d)), target, cfg.eta, 50
        )
    rgd.write_chain_csv(trace, out_dir / "chain_trace.csv", kls=kls)
    probes = generator(cfg.seed, 1, 22).standard_normal((50, d))
    # Certified for equal component covariances: within-component top
    # eigenvalue plus a quarter of the squared mean diameter, which is 0 for a
    # Gaussian, whose claim is thus its sharp constant.
    top = max(float(np.linalg.eigvalsh(c).max()) for c in target.covs)
    diam2 = max(float(np.sum((a - b) ** 2)) for a in target.means for b in target.means)
    alpha_claim = top + 0.25 * diam2
    report = rgd.entropic_stability_probe(target, probes, alpha_claim)
    _emit(report.to_json() + "\n", out_dir / "stability_report.json")


def _write_bridge_artifacts(cfg: ExperimentConfig) -> None:
    """Optimal coupling CSV and solver trace JSON for a canonical instance."""
    out_dir = Path(cfg.out)
    rng = generator(cfg.seed, 2, 23)
    w_mu, w_pi = suites._random_weights(rng, 4), suites._random_weights(rng, 5)
    mu = bridge.DiscreteMeasure(rng.standard_normal((4, 2)), w_mu)
    pi = bridge.DiscreteMeasure(rng.standard_normal((5, 2)) + 0.5, w_pi)
    ref = bridge.heat_kernel_reference(mu, pi)
    result = bridge.sinkhorn(mu, pi, ref, tol=1e-10)
    bridge.write_coupling_csv(result.coupling, out_dir / "coupling.csv")
    bridge.write_sinkhorn_trace_json(result, out_dir / "sinkhorn_trace.json")


# Suites whose checks run two-sample KS tests on ``paths`` draws a side.
_KS_SUITES = ("equiv", "rgd")

# Files a suite subcommand writes beside its report.
_ARTIFACT_WRITERS = {
    "rgd": _write_rgd_artifacts,
    "bridge": _write_bridge_artifacts,
    "lsi": _run_lsi_tables,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sloc",
        description="Simulation and verification runner for tilt-localization processes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("simulate", "emit tilt and channel trajectory CSVs"),
        ("equiv", "run the cross-construction equivalence battery"),
        ("rgd", "run chain contraction and stability checks"),
        ("bridge", "run scaling-solver and drift-energy checks"),
        ("lsi", "tabulate constant schedules and bounds"),
        ("report", "print a previously written report"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", type=str, default=None, help="JSON config path")
        p.add_argument("--seed", type=int, default=None, help="master seed (fallback: SLOC_SEED)")
        p.add_argument("--out", type=str, default=None, help="output directory")
        p.add_argument("--paths", type=int, default=None, help="path-ensemble size")
        p.add_argument("--dt", type=float, default=None, help="integration step")
        p.add_argument("--format", type=str, default=None, choices=("json", "csv"))
        p.add_argument("--workers", type=int, default=None, help="worker threads (never affects results)")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    overrides = {k: v for k, v in vars(args).items() if k in DEFAULTS}
    if args.seed is None and "SLOC_SEED" in os.environ:
        try:
            overrides["seed"] = int(os.environ["SLOC_SEED"])
        except ValueError:
            sys.stderr.write("config error: SLOC_SEED must be an integer\n")
            return 2
    cfg, errors, warnings = validate_config(args.config, overrides)
    for warning in warnings:
        sys.stderr.write(f"warning: {warning}\n")
    if cfg is None:
        for error in errors:
            sys.stderr.write(f"config error: {error}\n")
        return 2
    if args.command in _KS_SUITES and cfg.paths < diagnostics.MIN_KS_SAMPLES:
        sys.stderr.write(
            f"config error: {args.command} needs paths >= diagnostics.MIN_KS_SAMPLES "
            f"({diagnostics.MIN_KS_SAMPLES}) for its KS checks, got {cfg.paths}\n"
        )
        return 2

    out_dir = Path(cfg.out)
    if args.command == "report":
        path = out_dir / "report.json"
        if not path.exists():
            sys.stderr.write(f"config error: no report at {path}\n")
            return 2
        report_dict = json.loads(path.read_text())
        _print_report(report_dict)
        return 0 if report_dict["global_pass"] else 1

    out_dir.mkdir(parents=True, exist_ok=True)
    if args.command == "simulate":
        return _run_simulate(cfg)

    base = _suite_base(cfg) if args.command == "equiv" else None
    report = suites.run_suite(args.command, cfg, base)
    if args.command in _ARTIFACT_WRITERS:
        _ARTIFACT_WRITERS[args.command](cfg)
    report_dict = report.to_dict()
    _emit(json.dumps(report_dict, indent=2, sort_keys=True) + "\n", out_dir / "report.json")
    csv_text = "\n".join(report.csv_lines()) + "\n"
    _emit(csv_text, out_dir / "report.csv")
    if cfg.format == "csv":
        sys.stdout.write(csv_text)
    else:
        _print_report(report_dict)
    return 0 if report.global_pass else 1


if __name__ == "__main__":
    sys.exit(main())
