"""Tests of the benchmark itself: tiny-size smoke runs of every workload,
planted faults that each workload's gates must catch, the span tracer, the
reference clock, and the contract of BENCHMARK.json.

Run from the root of a checkout: ``python3 -m pytest -q slocbench/tests``.
"""
from __future__ import annotations

import csv
import dataclasses
import gzip
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import sloc  # noqa: E402
import sloc.cli  # noqa: E402,F401

import clock  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402
from oracle import Gate  # noqa: E402
from spans import Tracer  # noqa: E402


def run_gated(name: str, tmp_path, seed: int = 7) -> Gate:
    workload = workloads.make(name, sloc, seed, tmp_path, tiny=True)
    out = workload.run_pass()
    workload.collect(out)
    gate = Gate()
    workload.gate(out, gate)
    return gate


def failures(gate: Gate) -> list[str]:
    return [r["name"] for r in gate.results if not r["passed"]]


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_tiny_workload_passes_every_check(name, tmp_path):
    gate = run_gated(name, tmp_path)
    assert gate.results
    assert failures(gate) == []


def test_posterior_mean_off_by_1e6_fails_ensemble(monkeypatch, tmp_path):
    original = sloc.targets.posterior_mean_batch
    monkeypatch.setattr(sloc.targets, "posterior_mean_batch", lambda *a, **k: original(*a, **k) + 1e-6)
    assert any(n.startswith("replay/") for n in failures(run_gated("ensemble", tmp_path)))


def test_one_stream_noise_swapped_fails_ensemble(monkeypatch, tmp_path):
    original = sloc.sde.wiener_increment_array

    def swapped(grid, d, seed, stream_id):
        return original(grid, d, seed, stream_id + 1 if stream_id == 3 else stream_id)

    for module in (sloc.localize, sloc.diffusion, sloc.polchinski, sloc.bridge):
        monkeypatch.setattr(module, "wiener_increment_array", swapped)
    assert any(n.startswith("replay/tilt") for n in failures(run_gated("ensemble", tmp_path)))


def test_sinkhorn_one_iteration_early_fails_transport(monkeypatch, tmp_path):
    original = sloc.bridge.sinkhorn

    def early(mu, pi, ref_kernel, tol=1e-10, max_iter=100_000):
        full = original(mu, pi, ref_kernel, tol=tol, max_iter=max_iter)
        short = original(mu, pi, ref_kernel, tol=tol, max_iter=full.iterations - 1)
        return dataclasses.replace(short, converged=True, residual=tol / 2)

    monkeypatch.setattr(sloc.bridge, "sinkhorn", early)
    assert any("sinkhorn" in n for n in failures(run_gated("transport", tmp_path)))


def test_rejection_accepting_every_proposal_fails_pointwise(monkeypatch, tmp_path):
    targets = sloc.targets

    def accept_all(m, n, rng, max_tries):
        _, _, _, _, g, center = targets._generic_envelope(m)
        return center + rng.standard_normal((n, m.dim)) / math.sqrt(g)

    monkeypatch.setattr(targets, "_generic_rejection_sample", accept_all)
    assert "law/quartic-draws-vs-quadrature" in failures(run_gated("pointwise", tmp_path))


def test_tracer_patches_every_binding_and_restores_them():
    tracer = Tracer(clock=lambda: 0.0)
    original = sloc.sde.wiener_increment_array
    assert tracer.install(sloc) > 50
    try:
        for module in (sloc.sde, sloc.localize, sloc.diffusion, sloc.polchinski, sloc.bridge):
            assert module.wiener_increment_array is not original
        assert sloc.localize.posterior_moments is sloc.targets.posterior_moments
        assert sloc.bridge.renorm_potential is sloc.polchinski.renorm_potential
    finally:
        tracer.uninstall()
    assert sloc.localize.wiener_increment_array is original


def test_spans_nest_and_self_time_excludes_children(tmp_path):
    ticks = iter(range(1000))
    tracer = Tracer(clock=lambda: float(next(ticks)), notes=layers.NOTES)
    tracer.install(sloc)
    try:
        grid = sloc.sde.TimeGrid.uniform(0.0, 0.1, 10)
        sloc.sde.wiener_increments(grid, 2, 1, 0)
    finally:
        tracer.uninstall()
    names = [s.name for s in tracer.spans]
    assert names[:3] == ["sde.wiener_increments", "sde.wiener_increment_array", "sde.generator"]
    outer, inner = tracer.spans[0], tracer.spans[1]
    assert inner.parent == 0 and inner.note == ("path_steps", 10)
    assert outer.self_s == (outer.end - outer.start) - (inner.end - inner.start)
    with gzip.open(tracer.write(tmp_path / "spans.csv.gz"), "rt", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["index", "pass_id", "name", "start", "end", "parent", "self_s"]
    assert len(rows) == len(tracer.spans) + 1
    assert rows[2][2] == "sde.wiener_increment_array" and rows[2][5] == "0"


def test_work_counts_are_read_from_the_outputs(tmp_path):
    workload = workloads.make("ensemble", sloc, 3, tmp_path, tiny=True)
    workload.collect(workload.run_pass())
    steps = (3 * workload.t_grid.steps + 2 * workload.u_grid.steps + 2 * workload.tau_grid.steps
             + 2 * workload.e_grid.steps)
    assert workload.work["path_steps"] == workload.paths * steps
    assert workload.work["particle_steps"] == workload.runs * workload.particles * workload.tau_grid.steps


def test_reference_clock_scales_work_by_calibration():
    ref = clock.ReferenceClock()
    cal = clock.REFERENCE_CAL_S["interpreter"]
    ref.calibrations = [clock.Calibration(0.0, cal), clock.Calibration(1.0 + cal, 1.0 + 3 * cal)]
    raw, scaled = ref.reference_between(cal, 1.0 + cal)
    assert raw == pytest.approx(1.0)
    assert scaled == pytest.approx(1.0 / 1.5)
    raw, scaled = ref.reference_between(0.0, 2.0)
    assert raw == pytest.approx(2.0 - 3 * cal)


def test_benchmark_json_matches_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == layers.PER_LAYER
    e2e = {m["name"]: m for m in spec["end_to_end"]}
    assert set(e2e) == {"verdict_s", "setup_s", "peak_rss_mb"}
    assert e2e["setup_s"]["bound"] == max(m["bound"] for m in spec["end_to_end"]) <= 0.25


def test_refuses_to_run_without_the_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "slocbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "slocbench/run.py", "--workload", "transport", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_lattice_supports_keep_sinkhorn_work_steady():
    iterations = []
    for seed in range(3):
        transport = workloads.Transport(sloc, seed, tiny=True)
        mu, pi = transport.instances[(40, "hard")]
        ref = sloc.bridge.heat_kernel_reference(mu, pi)
        iterations.append(sloc.bridge.sinkhorn(mu, pi, ref, tol=1e-10).iterations)
    assert max(iterations) - min(iterations) <= 0.1 * np.median(iterations)
