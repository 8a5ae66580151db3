"""Per-layer metrics of a traced run.

Each layer is a ``sloc`` module; its metrics come from the spans of that
module's public functions (self times, call counts, and per-unit costs from
the span notes below) or, for counts the spans cannot see, from the
workload's own outputs and counters.
"""
from __future__ import annotations

import statistics

import numpy as np

from spans import summarize

NOISE = ("sde.wiener_increment_array", "sde.wiener_increments")
#: Helpers whose self time belongs to the caller: the ensemble drivers run
#: their step loops in closures that ``map_chunks`` calls.
FOLDED = ("sde.map_chunks",)


def _base_kind(base) -> str:
    if hasattr(base, "weights"):
        return f"mix_d{base.dim}"
    if hasattr(base, "cov"):
        return f"gauss_d{base.dim}"
    return f"generic_d{base.dim}"


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _rows(a) -> int:
    return int(np.atleast_2d(np.asarray(a)).shape[0])


#: Span notes ``(key, amount)`` recorded after each call of these functions.
NOTES = {
    "sde.wiener_increment_array": lambda a, k, r: ("path_steps", int(r.shape[0])),
    "targets.posterior_mean_batch": lambda a, k, r: (_base_kind(_arg(a, k, 0, "base")), _rows(_arg(a, k, 1, "tilts"))),
    "targets.sample_tilted_batch": lambda a, k, r: ("draws", _rows(r)),
    "localize.particle_ensemble": lambda a, k, r: (
        "particle_steps",
        int(r[1].size) * _arg(a, k, 2, "grid").steps,
    ),
    "targets.posterior_moments": lambda a, k, r: (_base_kind(_arg(a, k, 0, "m").base).split("_")[0], 1),
    "targets.sample": lambda a, k, r: (_base_kind(_arg(a, k, 0, "m").base).split("_")[0], _rows(r)),
    "quartic.potential": lambda a, k, r: ("points", _rows(a[0])),
    "bridge.sinkhorn": lambda a, k, r: (f"n{_arg(a, k, 0, 'mu').n}", r.iterations),
}

SINKHORN_SIZES = (50, 200, 800)

#: (name, unit, better); the order is the order of BENCHMARK.json's per_layer.
PER_LAYER = [
    ("sde.noise.self_s", "s", "lower"),
    ("sde.noise.ns_per_path_step", "ns", "lower"),
    ("targets.posterior_mean_batch.self_s", "s", "lower"),
    ("targets.posterior_mean_batch.calls", "count", "lower"),
    ("targets.posterior_mean_batch.ns_per_row.gauss_d1", "ns", "lower"),
    ("targets.posterior_mean_batch.ns_per_row.mix_d1", "ns", "lower"),
    ("targets.posterior_mean_batch.ns_per_row.mix_d3", "ns", "lower"),
    ("targets.sample_tilted_batch.ns_per_draw", "ns", "lower"),
    ("localize.tilt_sde_ensemble.self_s", "s", "lower"),
    ("localize.channel_ensemble.self_s", "s", "lower"),
    ("localize.particle_ensemble.self_s", "s", "lower"),
    ("localize.particle_ensemble.ns_per_particle_step", "ns", "lower"),
    ("diffusion.backward_sde_ensemble.self_s", "s", "lower"),
    ("polchinski.polchinski_ensemble.self_s", "s", "lower"),
    ("bridge.girsanov_energy.self_s", "s", "lower"),
    ("localize.particles.min_ess", "count", "higher"),
    ("targets.tilt.calls", "count", "lower"),
    ("targets.tilt.self_s", "s", "lower"),
    ("targets.posterior_moments.calls", "count", "lower"),
    ("targets.posterior_moments.us_per_call.gauss", "us", "lower"),
    ("targets.posterior_moments.us_per_call.mix", "us", "lower"),
    ("targets.posterior_moments.us_per_call.generic", "us", "lower"),
    ("targets.sample.us_per_draw.mix", "us", "lower"),
    ("targets.sample.us_per_draw.generic", "us", "lower"),
    ("targets.rejection.tries", "count", "lower"),
    ("targets.rejection.acceptance_rate", "ratio", "higher"),
    ("targets.generic.potential_calls", "count", "lower"),
    ("targets.generic.gradient_calls", "count", "lower"),
    ("localize.tilt_sde_run.self_s", "s", "lower"),
    ("localize.particle_sl_run.self_s", "s", "lower"),
    ("diffusion.backward_sde_run.self_s", "s", "lower"),
    ("diffusion.tweedie_score.self_s", "s", "lower"),
    ("polchinski.polchinski_run.self_s", "s", "lower"),
    ("polchinski.renorm_potential.self_s", "s", "lower"),
    ("rgd.rgd_step.calls", "count", "lower"),
    ("rgd.rgd_step.self_s", "s", "lower"),
    ("rgd.heat_flow_contraction_mc.self_s", "s", "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("io.write_s", "s", "lower"),
    ("io.bytes", "bytes", "lower"),
    ("bridge.sinkhorn.self_s", "s", "lower"),
    *[(f"bridge.sinkhorn.ms_per_iter.n{n}", "ms", "lower") for n in SINKHORN_SIZES],
    *[(f"bridge.sinkhorn.iterations.n{n}.{kind}", "count", "lower")
      for n in SINKHORN_SIZES for kind in ("easy", "hard")],
    ("bridge.sinkhorn.final_residual", "ratio", "lower"),
    ("bridge.objective_pair.self_s", "s", "lower"),
    ("bridge.heat_kernel_reference.self_s", "s", "lower"),
    ("rgd.chain_law_propagate.self_s", "s", "lower"),
    ("setup.import_s", "s", "lower"),
    ("setup.build_s", "s", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
    ("trace.dominant_share", "ratio", "lower"),
    ("trace.dominant_holds", "count", "higher"),
]

_SELF = [name[: -len(".self_s")] for name, _, _ in PER_LAYER
         if name.endswith(".self_s") and not name.startswith(("sde.noise", "io."))]
_CALLS = [name[: -len(".calls")] for name, _, _ in PER_LAYER if name.endswith(".calls")]


def _pass_metrics(spans, pass_id: int, scale: float, raw_s: float, dominant) -> dict:
    """Metrics of one traced pass; times are scaled to reference seconds."""
    summary = summarize(spans, pass_id)
    names, notes = summary["names"], summary["notes"]
    folded = {}
    for s in spans:
        if s.pass_id == pass_id and s.name in FOLDED and s.parent >= 0:
            owner = spans[s.parent].name
            folded[owner] = folded.get(owner, 0.0) + s.self_s

    def self_s(name: str) -> float:
        return names.get(name, {}).get("self_s", 0.0) + folded.get(name, 0.0)

    def per_unit(name: str, key: str, factor: float, use_self: bool = False) -> float:
        agg = notes.get((name, key))
        if not agg or agg[2] == 0:
            return 0.0
        return (agg[0] if use_self else agg[1]) * scale * factor / agg[2]

    noise_s = sum(self_s(n) for n in NOISE)
    noise_s += sum(s.self_s for s in spans if s.pass_id == pass_id and s.name == "sde.generator"
                   and s.parent >= 0 and spans[s.parent].name in NOISE)
    out = {f"{n}.self_s": self_s(n) * scale for n in _SELF}
    out.update({f"{n}.calls": float(names.get(n, {}).get("calls", 0)) for n in _CALLS})
    steps = notes.get(("sde.wiener_increment_array", "path_steps"), [0, 0, 0])[2]
    out["sde.noise.self_s"] = noise_s * scale
    out["sde.noise.ns_per_path_step"] = noise_s * scale * 1e9 / steps if steps else 0.0
    for kind in ("gauss_d1", "mix_d1", "mix_d3"):
        out[f"targets.posterior_mean_batch.ns_per_row.{kind}"] = per_unit(
            "targets.posterior_mean_batch", kind, 1e9)
    out["targets.sample_tilted_batch.ns_per_draw"] = per_unit("targets.sample_tilted_batch", "draws", 1e9)
    out["localize.particle_ensemble.ns_per_particle_step"] = per_unit(
        "localize.particle_ensemble", "particle_steps", 1e9, use_self=True)
    for kind in ("gauss", "mix", "generic"):
        out[f"targets.posterior_moments.us_per_call.{kind}"] = per_unit("targets.posterior_moments", kind, 1e6)
    for kind in ("mix", "generic"):
        out[f"targets.sample.us_per_draw.{kind}"] = per_unit("targets.sample", kind, 1e6)

    # Rejection tries: potential evaluations made inside generic ``sample``
    # calls, less the one evaluation each call spends at the envelope mode.
    generic_samples = {i for i, s in enumerate(spans) if s.pass_id == pass_id
                       and s.name == "targets.sample" and s.note and s.note[0] == "generic"}
    evaluations = sum(s.note[1] for s in spans if s.pass_id == pass_id and s.name == "quartic.potential"
                      and s.parent in generic_samples)
    draws = sum(spans[i].note[1] for i in generic_samples)
    tries = evaluations - len(generic_samples)
    out["targets.rejection.tries"] = float(tries)
    out["targets.rejection.acceptance_rate"] = draws / tries if tries > 0 else 0.0

    out["io.write_s"] = (self_s("localize.write_trajectory_csv") + self_s("sde.write_paths_csv")) * scale
    for n in SINKHORN_SIZES:
        out[f"bridge.sinkhorn.ms_per_iter.n{n}"] = per_unit("bridge.sinkhorn", f"n{n}", 1e3)

    busy = sum(self_s(n) for n in dominant if n != "sde.noise")
    busy += noise_s if "sde.noise" in dominant else 0.0
    out["trace.dominant_share"] = busy / raw_s if raw_s > 0 else 0.0
    return out


def layer_metrics(workload, tracer, traced: list, untraced: list, setups: list, extra: dict) -> dict:
    """Median over traced passes of every per-layer metric, plus the set-up
    split and the tracing overhead.  ``traced``/``untraced`` hold the passes'
    ``{"pass_id", "raw_s", "ref_s"}`` records."""
    per_pass = [
        _pass_metrics(tracer.spans, p["pass_id"], p["ref_s"] / p["raw_s"], p["raw_s"], workload.dominant)
        for p in traced
    ]
    values = {name: float(statistics.median(m[name] for m in per_pass)) for name in per_pass[0]}
    values.update(extra)
    values["setup.import_s"] = statistics.median(s["import_s"] for s in setups)
    values["setup.build_s"] = statistics.median(s["build_s"] for s in setups)
    untraced_s = statistics.median(p["ref_s"] for p in untraced)
    values["trace.overhead_frac"] = statistics.median(p["ref_s"] for p in traced) / untraced_s - 1.0
    values["trace.dominant_holds"] = float(values["trace.dominant_share"] >= workload.dominant_share)
    return {name: {"value": float(values.get(name, 0.0)), "unit": unit} for name, unit, _ in PER_LAYER}
