"""The three workloads: inputs drawn from the workload seed, one timed pass
of calls into ``sloc``, and the untimed gates that check the pass's outputs.

A workload seed changes the drawn inputs and noise streams, never the amount
of work: grids, path counts, support sizes and probe counts are fixed, and
Sinkhorn supports are randomly shifted low-discrepancy lattices, whose
iteration counts barely move with the shift.
"""
from __future__ import annotations

import contextlib
import io
import json
import math
from pathlib import Path

import numpy as np

from oracle import (
    LAW_Z,
    Gate,
    MixtureOracle,
    euler_backward_scaled_variance,
    euler_drift_energy,
    euler_tilt_variance,
    gaussian_kl,
    marginal_residual,
    normal_mean_z,
    normal_var_z,
    quadrature_moments,
    replay_backward,
    replay_flow,
    replay_particles,
    replay_tilt,
)

_U63 = 2**63
#: Coefficient ``a`` of the quartic well ``|x|^2 / 2 + a sum x^4``.
QUARTIC = 0.1


def _seeds(rng: np.random.Generator, names) -> dict:
    return {name: int(rng.integers(0, _U63)) for name in names}


def _noise(sloc, grid, d: int, seed: int, streams) -> np.ndarray:
    return np.stack([sloc.sde.wiener_increment_array(grid, d, seed, int(s)) for s in streams])


def _min_ess(log_weights: np.ndarray) -> float:
    """Smallest effective sample size over clouds of normalised log-weights."""
    return float((1.0 / np.sum(np.exp(2.0 * log_weights), axis=-1)).min())


def _rows(a) -> int:
    return int(np.atleast_2d(np.asarray(a)).shape[0])


def _index(grid, t: float) -> int:
    return int(np.argmin(np.abs(grid.times - t)))


class CountingQuartic:
    """The quartic well ``|x|^2 / 2 + a sum x^4`` with call counters.

    Counts are of points evaluated, so a batched ``(n, d)`` call counts n.
    ``traced`` routes the calls through span wrappers.
    """

    def __init__(self):
        self.potential_calls = 0
        self.gradient_calls = 0
        self._potential, self._gradient = self._count_potential, self._count_gradient

    def potential(self, x):
        return self._potential(x)

    def gradient(self, x):
        return self._gradient(x)

    def traced(self, wrap) -> None:
        self._potential = wrap("quartic.potential", self._count_potential)
        self._gradient = wrap("quartic.gradient", self._count_gradient)

    def _count_potential(self, x):
        x = np.asarray(x, dtype=float)
        self.potential_calls += 1 if x.ndim <= 1 else x.shape[0]
        return 0.5 * np.sum(x * x, axis=-1) + QUARTIC * np.sum(x**4, axis=-1)

    def _count_gradient(self, x):
        x = np.asarray(x, dtype=float)
        self.gradient_calls += 1 if x.ndim <= 1 else x.shape[0]
        return x + 4.0 * QUARTIC * x**3

    def log_density(self, xs: np.ndarray) -> np.ndarray:
        return -(0.5 * xs**2 + QUARTIC * xs**4)


def _test_mixture(sloc):
    return sloc.targets.GaussianMixture([0.5, 0.5], [[-1.0], [1.0]], [[[1.0]], [[1.0]]])


class Workload:
    """Inputs built once from the seed; ``run_pass`` is the timed unit."""

    #: Span names whose self time makes up the predicted dominant layers, and
    #: the share of a traced pass they are predicted to take at least.
    dominant: tuple = ()
    dominant_share = 0.5
    #: The ``clock.ReferenceClock`` calibration loop matching the pass's work.
    calibration = "interpreter"
    #: Work counts read from counters outside the pass's outputs; the others
    #: are derived from the outputs, so the pass digests already cover them.
    counted: tuple = ()

    def __init__(self, sloc):
        self.sloc = sloc
        #: Work counts of the latest pass.
        self.work: dict = {}

    def run_pass(self) -> dict:
        raise NotImplementedError

    def collect(self, out: dict) -> None:
        """Untimed: turn what the pass returned or left on disk into the
        outputs the gates check, and read the pass's work counts."""

    def traced(self, wrap) -> None:
        """Route the benchmark's own callables through ``wrap(name, fn)`` spans."""

    def counts(self, out: dict) -> dict:
        """Per-layer metrics read from the outputs and counters, not from spans."""
        return {}

    def gate(self, out: dict, gate: Gate) -> None:
        raise NotImplementedError


class Ensemble(Workload):
    """Batched closed-form path ensembles, as acceptance criteria 1-5 and 8 run them."""

    dominant = (
        "sde.noise",
        "targets.posterior_mean_batch",
        "localize.tilt_sde_ensemble",
        "localize.channel_ensemble",
        "localize.particle_ensemble",
        "diffusion.backward_sde_ensemble",
        "polchinski.polchinski_ensemble",
        "bridge.girsanov_energy",
    )

    def __init__(self, sloc, seed: int, tiny: bool = False):
        super().__init__(sloc)
        t, sde = sloc.targets, sloc.sde
        rng = np.random.default_rng(seed)
        self.paths = 24 if tiny else 1000
        self.runs, self.particles = (8, 16) if tiny else (1000, 128)
        self.gauss = t.GaussianMeasure([0.0], [[1.0]])
        self.mix = _test_mixture(sloc)
        covs = []
        for _ in range(2):
            a = 0.6 * rng.standard_normal((3, 3))
            covs.append(a @ a.T + 0.4 * np.eye(3))
        w = float(rng.uniform(0.3, 0.7))
        self.mix3 = t.GaussianMixture([w, 1.0 - w], 1.5 * rng.standard_normal((2, 3)), np.stack(covs))
        self.shifted = t.GaussianMeasure([2.0], [[1.0]])
        self.wide = t.GaussianMeasure([0.0], [[2.0]])
        self.t_grid = sde.TimeGrid.uniform(0.0, 1.0, 1000)
        self.u_grid = sde.TimeGrid.geometric(1e-3, 1.0, 2500).including(0.5, 1.0)
        self.tau_grid = sde.TimeGrid.uniform(0.0, 0.5, 500)
        self.e_grid = sde.TimeGrid.uniform(0.0, 0.999, 999)
        self.x0 = np.array([float(rng.uniform(-1.0, 1.0))])
        self.eta = float(rng.uniform(0.5, 2.0))
        self.s = _seeds(
            rng,
            ["tilt_g", "tilt_m", "tilt_m3", "chan_g", "chan_m", "back_g", "back_m", "flow_g",
             "flow_m", "energy_shift", "energy_var", "particles", "rgd_g", "kern_g", "rgd_m",
             "kern_m", "replay"],
        )

    def run_pass(self) -> dict:
        loc, dif, pol, br, rgd, sde = (self.sloc.localize, self.sloc.diffusion, self.sloc.polchinski,
                                       self.sloc.bridge, self.sloc.rgd, self.sloc.sde)
        s, n = self.s, self.paths
        u0 = float(self.u_grid.times[0])
        out = {
            "tilt/gauss": loc.tilt_sde_ensemble(self.gauss, self.t_grid, s["tilt_g"], n, (0.5,)),
            "tilt/mix": loc.tilt_sde_ensemble(self.mix, self.t_grid, s["tilt_m"], n, (0.5,)),
            "tilt/mix3": loc.tilt_sde_ensemble(self.mix3, self.t_grid, s["tilt_m3"], n, (0.5,)),
            "channel/gauss": loc.channel_ensemble(self.gauss, (0.5, 1.0), s["chan_g"], n),
            "channel/mix": loc.channel_ensemble(self.mix, (0.5, 1.0), s["chan_m"], n),
            "backward/gauss": dif.backward_sde_ensemble(self.gauss, self.u_grid, s["back_g"], n, (u0, 0.5)),
            "backward/mix": dif.backward_sde_ensemble(self.mix, self.u_grid, s["back_m"], n, (u0, 0.5)),
            "flow/gauss": pol.polchinski_ensemble(self.gauss, self.tau_grid, s["flow_g"], n, (0.25,)),
            "flow/mix": pol.polchinski_ensemble(self.mix, self.tau_grid, s["flow_m"], n, (0.25,)),
            "energy/shift": br.girsanov_energy(br.FollmerDrift(self.shifted), self.e_grid, n, s["energy_shift"]),
            "energy/var": br.girsanov_energy(br.FollmerDrift(self.wide), self.e_grid, n, s["energy_var"]),
            "particles": loc.particle_ensemble(self.gauss, self.particles, self.tau_grid, s["particles"], self.runs),
        }
        for label, target in (("gauss", self.gauss), ("mix", self.mix)):
            cfg = rgd.RgdConfig(self.eta, target)
            out[f"rgd/{label}"] = rgd.rgd_transition_batch(self.x0, cfg, n, sde.generator(s[f"rgd_{label[0]}"], 0))
            out[f"kernel/{label}"] = rgd.channel_transition_batch(self.x0, cfg, n, sde.generator(s[f"kern_{label[0]}"], 0))
        return out

    def collect(self, out: dict) -> None:
        """Work counts read from the returned arrays: rows times steps of each
        path ensemble.  ``girsanov_energy`` returns only an estimate, so its
        paths are the requested count, which the replayed standard error checks."""
        grids = {"tilt": self.t_grid, "backward": self.u_grid, "flow": self.tau_grid}
        path_steps = sum(_rows(snaps[max(snaps)]) * grids[key.split("/")[0]].steps
                         for key, snaps in out.items() if key.split("/")[0] in grids)
        _, log_w, _ = out["particles"]
        self.work = {
            "path_steps": path_steps + 2 * self.paths * self.e_grid.steps,
            "particle_steps": int(log_w.size) * self.tau_grid.steps,
            "transition_draws": sum(_rows(out[k]) for k in ("rgd/gauss", "rgd/mix", "kernel/gauss", "kernel/mix")),
        }

    def gate(self, out: dict, gate: Gate) -> None:
        sloc, s, n = self.sloc, self.s, self.paths
        streams = range(n)
        t_times = self.t_grid.times
        i_half, i_end = _index(self.t_grid, 0.5), self.t_grid.steps

        # Oracle replays of every stream.
        for label, base, key in (("gauss", self.gauss, "tilt_g"), ("mix", self.mix, "tilt_m"),
                                 ("mix3", self.mix3, "tilt_m3")):
            noise = _noise(sloc, self.t_grid, base.dim, s[key], streams)
            ref = replay_tilt(MixtureOracle.of(base), t_times, noise, {i_half, i_end})
            gate.close(f"replay/tilt-{label}/t=0.5", out[f"tilt/{label}"][0.5], ref[i_half])
            gate.close(f"replay/tilt-{label}/t=1", out[f"tilt/{label}"][1.0], ref[i_end])
        u_times = self.u_grid.times
        u0 = float(u_times[0])
        keep = {_index(self.u_grid, 0.5), self.u_grid.steps}
        for label, base in (("gauss", self.gauss), ("mix", self.mix)):
            snaps = out[f"backward/{label}"]
            noise = _noise(sloc, self.u_grid, 1, s[f"back_{label[0]}"], streams)
            ref = replay_backward(MixtureOracle.of(base), u_times, snaps[u0], noise, keep)
            gate.close(f"replay/backward-{label}/u=0.5", snaps[0.5], ref[_index(self.u_grid, 0.5)])
            gate.close(f"replay/backward-{label}/u=1", snaps[1.0], ref[self.u_grid.steps])
            z = normal_var_z(snaps[u0][:, 0], 1.0)
            gate.check(f"law/backward-{label}/start-variance", abs(z) <= LAW_Z, f"z={z:.2f}")
        tau = self.tau_grid
        for label, base in (("gauss", self.gauss), ("mix", self.mix)):
            noise = _noise(sloc, tau, 1, s[f"flow_{label[0]}"], streams)
            ref, _ = replay_flow(MixtureOracle.of(base), tau.times, noise, {_index(tau, 0.25), tau.steps})
            gate.close(f"replay/flow-{label}/tau=0.25", out[f"flow/{label}"][0.25], ref[_index(tau, 0.25)])
            gate.close(f"replay/flow-{label}/tau=0.5", out[f"flow/{label}"][0.5], ref[tau.steps])
        energies = {}
        for label, base in (("shift", self.shifted), ("var", self.wide)):
            noise = _noise(sloc, self.e_grid, 1, s[f"energy_{label}"], streams)
            _, e = replay_flow(MixtureOracle.of(base), self.e_grid.times, noise)
            energies[label] = e
            se = float(e.std(ddof=1) / math.sqrt(n))
            gate.close(f"replay/energy-{label}", out[f"energy/{label}"], (float(e.mean()), se))
        pts, log_w, log_mass = out["particles"]
        rng = np.random.default_rng(s["replay"])
        runs = np.sort(rng.choice(self.runs, size=min(64, self.runs), replace=False))
        noise = _noise(sloc, tau, 1, s["particles"], runs)
        ref_w, ref_m = replay_particles(pts[runs], tau.times, noise)
        gate.close("replay/particles/log-weights", log_w[runs], ref_w)
        gate.close("replay/particles/log-mass", log_mass[runs], ref_m)

        # Channel: the observation noise is the stream's Wiener noise on the
        # snapshot grid, and both snapshots see one hidden draw.
        chan_grid = sloc.sde.TimeGrid(np.array([0.0, 0.5, 1.0]))
        for label in ("gauss", "mix"):
            b = np.cumsum(_noise(sloc, chan_grid, 1, s[f"chan_{label[0]}"], streams), axis=1)
            x_half = (out[f"channel/{label}"][0.5] - b[:, 0, :]) / 0.5
            x_end = out[f"channel/{label}"][1.0] - b[:, 1, :]
            gate.close(f"replay/channel-{label}/hidden-draw", x_half, x_end)

        # Law-level bounds.
        var_e = euler_tilt_variance(1.0, t_times)[-1]
        gate.check("law/tilt-gauss/euler-variance-is-2", abs(var_e - 2.0) <= 0.01 * 2.0, f"{var_e:.5f}")
        z = normal_var_z(out["tilt/gauss"][1.0][:, 0], var_e)
        gate.check("law/tilt-gauss/var(c_1)=2", abs(z) <= LAW_Z, f"z={z:.2f}")
        z = normal_var_z(out["channel/gauss"][1.0][:, 0], 2.0)
        gate.check("law/channel-gauss/var(c_1)=2", abs(z) <= LAW_Z, f"z={z:.2f}")
        scaled_var = euler_backward_scaled_variance(1.0, u_times)
        for u in (0.5, 1.0):
            k = _index(self.u_grid, u)
            exact = u * u + u
            gate.check(f"law/backward-gauss/euler-u^2+u/u={u}", abs(scaled_var[k] - exact) <= 0.01 * exact,
                       f"{scaled_var[k]:.5f} vs {exact:.5f}")
            scaled = math.sqrt(u * (u + 1.0)) * out["backward/gauss"][u][:, 0]
            z = normal_var_z(scaled, scaled_var[k])
            gate.check(f"law/backward-gauss/rescaled-u^2+u/u={u}", abs(z) <= LAW_Z, f"z={z:.2f}")
        for label, base, kl in (("shift", self.shifted, 2.0), ("var", self.wide, 0.5 * (1.0 - math.log(2.0)))):
            expected = euler_drift_energy(float(base.mean[0]), float(base.cov[0, 0]), self.e_grid.times)
            gate.check(f"law/energy-{label}/euler-vs-kl", abs(expected - kl) <= 0.01 * kl, f"{expected:.5f} vs {kl:.5f}")
            est = out[f"energy/{label}"][0]
            se = float(energies[label].std(ddof=1) / math.sqrt(n))
            gate.check(f"law/energy-{label}/estimate", abs(est - expected) <= LAW_Z * se + 1e-9 * expected,
                       f"{est:.5f} vs {expected:.5f} (se {se:.2g})")
        flat = pts[:, :, 0].ravel()
        z = normal_mean_z(flat, 0.0, 1.0)
        gate.check("law/particles/start-mean", abs(z) <= LAW_Z, f"z={z:.2f}")
        for label, target in (("gauss", self.gauss), ("mix", self.mix)):
            a, b = out[f"rgd/{label}"][:, 0], out[f"kernel/{label}"][:, 0]
            if label == "gauss":
                prec = 1.0 + 1.0 / self.eta
                mean = (self.x0[0] / self.eta) / prec
                var = 1.0 / prec + 1.0 / (prec * prec * self.eta)
                for name, x in (("rgd", a), ("channel", b)):
                    zm, zv = normal_mean_z(x, mean, var), normal_var_z(x, var)
                    gate.check(f"law/{name}-transition-gauss", max(abs(zm), abs(zv)) <= LAW_Z,
                               f"mean z={zm:.2f}, var z={zv:.2f}")
            else:
                z = (a.mean() - b.mean()) / math.sqrt((a.var(ddof=1) + b.var(ddof=1)) / n)
                gate.check("law/kernel-identity-mix/mean", abs(z) <= LAW_Z, f"z={z:.2f}")

        # Worker count and chunk size never change the result.
        again = sloc.localize.tilt_sde_ensemble(
            self.mix, self.t_grid, s["tilt_m"], n, (0.5,), chunk=max(1, n // 3 + 1), workers=2
        )
        same = all(np.array_equal(again[k], out["tilt/mix"][k]) for k in (0.5, 1.0))
        gate.check("determinism/workers=2-chunked-bitwise", same)

    def counts(self, out: dict) -> dict:
        return {"localize.particles.min_ess": _min_ess(out["particles"][1])}


class Pointwise(Workload):
    """The same math one point at a time, through the single-path drivers,
    the n=1 kernel, generic potentials and the CLI."""

    dominant = (
        "targets.tilt",
        "targets.posterior_moments",
        "targets.sample",
        "targets.log_partition",
        "quartic.potential",
        "quartic.gradient",
    )
    counted = ("rejection_tries", "potential_calls", "gradient_calls")

    def __init__(self, sloc, seed: int, scratch: Path, tiny: bool = False):
        super().__init__(sloc)
        t, sde = sloc.targets, sloc.sde
        rng = np.random.default_rng(seed)
        self.scratch = Path(scratch)
        self.mix = _test_mixture(sloc)
        self.gauss = t.GaussianMeasure([float(rng.uniform(-1, 1))], [[float(rng.uniform(0.5, 2.0))]])
        a = rng.standard_normal((3, 3))
        self.gauss3 = t.GaussianMeasure(np.zeros(3), a @ a.T + 0.25 * np.eye(3))
        self.quartic = CountingQuartic()
        self.generic = t.GenericPotential(1, self.quartic.potential, self.quartic.gradient,
                                          strong_convexity=1.0, smoothness=40.0)
        self.init = t.GaussianMeasure([2.0], [[1.0]])
        scale = 4 if tiny else 1
        self.t_grid = sde.TimeGrid.uniform(0.0, 1.0, 1000 // scale)
        self.p_grid = sde.TimeGrid.uniform(0.0, 0.5, 500 // scale)
        self.u_grid = sde.TimeGrid.geometric(1e-3, 1.0, 1000 // scale)
        self.q_grid = sde.TimeGrid.uniform(0.0, 1.0, 50)
        self.streams = {"tilt": 4, "particles": 4, "backward": 3, "flow": 4}
        self.n_particles = 200 if tiny else 1000
        self.probes = 20 if tiny else 100
        self.contraction_paths = 40 if tiny else 400
        self.draws = 2000
        self.s = _seeds(rng, ["tilt", "particles", "backward", "flow", "chain", "contraction",
                              "quartic", "quartic_rng", "draws", "cli"])
        self.eta = float(rng.uniform(0.5, 1.0))
        self.draw_tilt = (float(rng.uniform(-1.0, 1.0)), float(rng.uniform(0.0, 0.3)))
        self.tweedie = [
            (float(rng.uniform(0.1, 2.0)), rng.standard_normal(1) * 1.5) for _ in range(2 * self.probes)
        ]
        self.renorm = [(float(rng.uniform(0.05, 0.8)), rng.uniform(-3.0, 3.0, 1)) for _ in range(2 * self.probes)]
        self.probe_y3 = rng.standard_normal((50, 3))
        self.probe_y1 = 2.0 * rng.standard_normal((50, 1))
        self.chain_steps = 250 if tiny else 1000
        self.config = self.scratch / "config.json"
        self.cli_out = self.scratch / "simulate"
        self.scratch.mkdir(parents=True, exist_ok=True)
        spec = {"kind": "mixture", "components": [
            {"weight": 0.5, "mean": [-1.0], "cov": [[1.0]]},
            {"weight": 0.5, "mean": [1.0], "cov": [[1.0]]},
        ]}
        self.config.write_text(json.dumps({"target": spec, "samples": 64}))
        self.cli_args = ["simulate", "--config", str(self.config), "--seed", str(self.s["cli"] % 2**31),
                         "--out", str(self.cli_out), "--paths", "4", "--dt", "0.01"]
        self.quartic.potential_calls = self.quartic.gradient_calls = 0

    def run_pass(self) -> dict:
        sl = self.sloc
        loc, dif, pol, rgd, tg, sde = sl.localize, sl.diffusion, sl.polchinski, sl.rgd, sl.targets, sl.sde
        s, out = self.s, {}
        calls = (self.quartic.potential_calls, self.quartic.gradient_calls)
        out["tilt/runs"] = [
            loc.tilt_sde_run(self.mix, self.t_grid, sde.wiener_increments(self.t_grid, 1, s["tilt"], k))
            for k in range(self.streams["tilt"])]
        out["particles/runs"] = [
            loc.particle_sl_run(self.mix, self.n_particles, self.p_grid,
                                sde.wiener_increments(self.p_grid, 1, s["particles"], k))
            for k in range(self.streams["particles"])]
        out["backward/runs"] = [
            dif.backward_sde_run(self.mix, self.u_grid, sde.wiener_increments(self.u_grid, 1, s["backward"], k))
            for k in range(self.streams["backward"])]
        out["flow/runs"] = [
            pol.polchinski_run(self.mix, self.p_grid, sde.wiener_increments(self.p_grid, 1, s["flow"], k)).states
            for k in range(self.streams["flow"])]
        out["tweedie"] = np.array([
            dif.tweedie_score(self.mix if i % 2 else self.gauss, dif.NoisyChannelSpec(*dif.ou_marginal_params(t)), y)
            for i, (t, y) in enumerate(self.tweedie)])
        out["renorm"] = [pol.renorm_potential(self.mix, tau, x) for tau, x in self.renorm]
        sharp = float(np.linalg.eigvalsh(self.gauss3.cov).max())
        top = np.linalg.eigh(self.gauss3.cov)[1][:, -1]
        out["stability/gauss3"] = rgd.entropic_stability_probe(self.gauss3, self.probe_y3, sharp)
        out["stability/top"] = rgd.entropic_stability_probe(self.gauss3, top[None, :], sharp)
        out["stability/mix"] = rgd.entropic_stability_probe(self.mix, self.probe_y1, 2.0)
        out["chain"] = rgd.rgd_chain(np.zeros(1), rgd.RgdConfig(self.eta, self.mix, steps=self.chain_steps),
                                     sde.generator(s["chain"], 0, 21))
        out["contraction"] = rgd.heat_flow_contraction_mc(
            self.generic, self.init, self.eta, n_paths=self.contraction_paths, seed=s["contraction"])
        out["quartic/run"] = loc.tilt_sde_run(
            self.generic, self.q_grid, sde.wiener_increments(self.q_grid, 1, s["quartic"], 0),
            budget=256, rng=sde.generator(s["quartic_rng"], 0, 31))
        before = self.quartic.potential_calls
        out["quartic/draws"] = tg.sample(tg.tilt(self.generic, [self.draw_tilt[0]], self.draw_tilt[1]),
                                         self.draws, sde.generator(s["draws"], 0, 32))
        tries = self.quartic.potential_calls - before - 1
        with contextlib.redirect_stdout(io.StringIO()):
            out["cli/exit"] = sl.cli.main(list(self.cli_args))
        self.work = {
            "rejection_tries": tries,
            "potential_calls": self.quartic.potential_calls - calls[0],
            "gradient_calls": self.quartic.gradient_calls - calls[1],
        }
        return out

    def collect(self, out: dict) -> None:
        # Step counts are read from the returned paths: a path of k states made k - 1 steps.
        cloud_runs, backward_runs, flow_runs = (out.pop(k) for k in ("particles/runs", "backward/runs", "flow/runs"))
        clouds = [run[-1] for run in cloud_runs]
        self.work.update(
            path_steps=sum(len(run) - 1 for run in (*out["tilt/runs"], *backward_runs, *flow_runs)),
            particle_steps=sum(c.log_weights.size * (len(run) - 1) for c, run in zip(clouds, cloud_runs)),
        )
        out["particles"] = (np.array([c.log_weights for c in clouds]), np.array([c.log_mass for c in clouds]))
        out["backward"] = np.array([run[-1].x for run in backward_runs])
        out["flow"] = np.array([states[-1] for states in flow_runs])
        runs = out.pop("tilt/runs")
        out["tilt"] = np.array([[st.c[0] for st in run] for run in runs])
        out["tilt/m"] = np.array([[st.m[0] for st in run] for run in runs])
        out["quartic/tilt"] = np.array([[st.c[0], st.m[0]] for st in out.pop("quartic/run")])
        out["cli/files"] = {p.name: p.read_bytes() for p in sorted(self.cli_out.iterdir())}

    def traced(self, wrap) -> None:
        self.quartic.traced(wrap)

    def gate(self, out: dict, gate: Gate) -> None:
        sl, s = self.sloc, self.s
        mix_oracle = MixtureOracle.of(self.mix)

        # Single-path drivers are the n=1 rows of the ensembles on the same streams.
        ens = sl.localize.tilt_sde_ensemble(self.mix, self.t_grid, s["tilt"], self.streams["tilt"])[1.0]
        gate.close("single-vs-ensemble/tilt", out["tilt"][:, -1:], ens, rtol=1e-12)
        end = float(self.u_grid.times[-1])
        ens = sl.diffusion.backward_sde_ensemble(self.mix, self.u_grid, s["backward"], self.streams["backward"])[end]
        gate.close("single-vs-ensemble/backward", out["backward"], ens, rtol=1e-12)
        ens = sl.polchinski.polchinski_ensemble(self.mix, self.p_grid, s["flow"], self.streams["flow"])[0.5]
        gate.close("single-vs-ensemble/flow", out["flow"], ens, rtol=1e-12)
        _, ens_w, ens_m = sl.localize.particle_ensemble(self.mix, self.n_particles, self.p_grid, s["particles"],
                                                        self.streams["particles"])
        gate.close("single-vs-ensemble/particle-log-weights", out["particles"][0], ens_w, rtol=1e-12)
        gate.close("single-vs-ensemble/particle-log-mass", out["particles"][1], ens_m, rtol=1e-12)

        # The n=1 kernel against the oracle's closed forms.
        gate.close("oracle/tilt-run-means", out["tilt/m"], self._tilt_means(mix_oracle, out["tilt"]))
        want = []
        for i, (t, y) in enumerate(self.tweedie):
            oracle = mix_oracle if i % 2 else MixtureOracle.of(self.gauss)
            sc, v = math.exp(-t), -math.expm1(-2.0 * t)
            want.append((sc * oracle.posterior_mean(sc / v * y, sc * sc / v)[0] - y) / v)
        gate.close("oracle/tweedie-score", out["tweedie"], np.array(want))
        values = np.array([v for v, _ in out["renorm"]])
        grads = np.array([g for _, g in out["renorm"]])
        gate.close("oracle/renorm-value", values, np.array([mix_oracle.renorm_value(tau, x) for tau, x in self.renorm]))
        gate.close("oracle/renorm-gradient", grads, np.array([
            (x - mix_oracle.posterior_mean(x / (1.0 - tau), tau / (1.0 - tau))[0]) / (1.0 - tau)
            for tau, x in self.renorm]))

        top = out["stability/top"]
        gap = abs(float(top.lhs[0] - top.rhs[0]))
        scale = max(1.0, float(top.rhs[0]))
        gate.check("identity/stability-sharp-gap", gap <= 1e-10 * scale, f"gap {gap:.2e}")
        gate.check("identity/stability-gauss-probes", out["stability/gauss3"].all_pass)
        gate.check("identity/stability-mixture-probes", out["stability/mix"].all_pass)

        chain = out["chain"]
        gate.check("health/rgd-chain-finite", bool(np.all(np.isfinite(chain))), f"{chain.shape[0]} states")
        ratio, se = out["contraction"]
        gate.check("health/quartic-contraction", math.isfinite(ratio) and math.isfinite(se) and 0.0 < ratio < 1.0,
                   f"ratio {ratio:.4f} (se {se:.4f})")
        gate.check("health/quartic-tilt-finite", bool(np.all(np.isfinite(out["quartic/tilt"]))))

        c, t = self.draw_tilt
        mean, var, m4 = quadrature_moments(lambda xs: self.quartic.log_density(xs) + c * xs - 0.5 * t * xs**2)
        draws = out["quartic/draws"][:, 0]
        zm = (draws.mean() - mean) / math.sqrt(var / draws.size)
        zv = (np.mean((draws - mean) ** 2) - var) / math.sqrt((m4 - var * var) / draws.size)
        gate.check("law/quartic-draws-vs-quadrature", max(abs(zm), abs(zv)) <= LAW_Z,
                   f"mean z={zm:.2f}, variance z={zv:.2f}")

        gate.check("cli/exit-code", out["cli/exit"] == 0, f"exit {out['cli/exit']}")
        files = out.get("cli/files", {})
        self._gate_cli_csv(files, gate, mix_oracle)

    @staticmethod
    def _tilt_means(oracle: MixtureOracle, c_paths: np.ndarray) -> np.ndarray:
        """Posterior means along one-dimensional tilt paths on a uniform grid over [0, 1]."""
        times = np.linspace(0.0, 1.0, c_paths.shape[1])
        return np.stack([oracle.posterior_mean(c_paths[:, k, None], float(t))[:, 0]
                         for k, t in enumerate(times)], axis=1)

    def _gate_cli_csv(self, files: dict, gate: Gate, oracle: MixtureOracle) -> None:
        sl = self.sloc
        tilt_csv = files.get("tilt_trajectories.csv")
        chan_csv = files.get("channel_trajectories.csv")
        if tilt_csv is None or chan_csv is None:
            gate.check("cli/files-written", False, f"found {sorted(files)}")
            return
        rows = np.array([[float(v) for v in line.split(",")] for line in tilt_csv.decode().splitlines()[1:]])
        grid = sl.sde.TimeGrid.uniform(0.0, 1.0, 100)
        seed = self.s["cli"] % 2**31
        ok = rows.shape == (4 * len(grid), 4)
        gate.check("cli/tilt-csv-shape", ok, f"shape {rows.shape}")
        if not ok:
            return
        rows = rows.reshape(4, len(grid), 4)
        noise = np.diff(np.cumsum(np.concatenate([np.zeros((4, 1, 1)), _noise(sl, grid, 1, seed, range(4))], axis=1),
                                  axis=1), axis=1)
        ref = replay_tilt(oracle, grid.times, noise, set(range(len(grid))))
        gate.close("cli/tilt-csv-replay", rows[:, :, 2], np.stack([ref[k][:, 0] for k in range(len(grid))], axis=1))
        gate.close("cli/tilt-csv-means", rows[:, :, 3], self._tilt_means(oracle, rows[:, :, 2]))
        chan = np.array([[float(v) for v in line.split(",")] for line in chan_csv.decode().splitlines()[1:]])
        chan = chan.reshape(4, len(grid), 3)
        b = np.cumsum(_noise(sl, grid, 1, seed + 1, range(4)), axis=1)[:, :, 0]
        hidden = (chan[:, 1:, 2] - b) / grid.times[1:]
        gate.close("cli/channel-csv-hidden-draw", hidden, np.repeat(hidden[:, -1:], hidden.shape[1], axis=1))

    def counts(self, out: dict) -> dict:
        return {
            "localize.particles.min_ess": _min_ess(out["particles"][0]),
            "targets.generic.potential_calls": float(self.work["potential_calls"]),
            "targets.generic.gradient_calls": float(self.work["gradient_calls"]),
            "io.bytes": float(sum(len(b) for name, b in out["cli/files"].items() if name.endswith(".csv"))),
        }


def _lattice_support(sloc, n: int, shift: np.ndarray, half: float, offset: float):
    """A Fibonacci-type lattice on the torus, randomly shifted, mapped to a box."""
    golden = (math.sqrt(5.0) - 1.0) / 2.0
    i = np.arange(n)
    unit = (np.stack([(i + 0.5) / n, (i * golden) % 1.0], axis=1) + shift) % 1.0
    pts = half * (2.0 * unit - 1.0) + offset
    w = 1.0 + 0.5 * np.cos(pts[:, 0] + 0.5 * pts[:, 1])
    w = w / w.sum()
    w[-1] = 1.0 - float(w[:-1].sum())
    return sloc.bridge.DiscreteMeasure(pts, w)


class Transport(Workload):
    """Static bridges: heat-kernel references, Sinkhorn, objective shift,
    chain-law propagation and the constant schedules."""

    dominant = ("bridge.sinkhorn",)
    dominant_share = 0.75
    calibration = "memory"
    #: (half-width of mu, half-width of pi, offset of pi): about 25 and 145 iterations.
    SUPPORTS = {"easy": (1.7, 1.7, 1.0), "hard": (4.0, 4.0, 2.5)}
    TOL = 1e-10

    def __init__(self, sloc, seed: int, tiny: bool = False):
        super().__init__(sloc)
        rng = np.random.default_rng(seed)
        self.sizes = (20, 40) if tiny else (50, 200, 800)
        self.instances = {}
        for n in self.sizes:
            for label, (h_mu, h_pi, off) in self.SUPPORTS.items():
                mu = _lattice_support(sloc, n, rng.random(2), h_mu, 0.0)
                pi = _lattice_support(sloc, n, rng.random(2), h_pi, off)
                self.instances[(n, label)] = (mu, pi)
        self.lambdas = rng.uniform(0.1, 0.9, 3)
        self.eta = float(rng.uniform(0.25, 2.0))
        self.target = sloc.targets.GaussianMeasure(rng.standard_normal(3), np.eye(3))
        shift = rng.standard_normal(3)
        # |shift| = 3 keeps KL(start || target) = 4.5, so several steps stay
        # far above the KL values where rounding would blur the ratio.
        self.init = sloc.targets.GaussianMeasure(self.target.mean + 3.0 * shift / np.linalg.norm(shift), np.eye(3))
        self.alphas = rng.uniform(0.05, 20.0, 20)
        self.taus = np.linspace(0.0, 0.95, 20)

    def run_pass(self) -> dict:
        br, rgd, pol = self.sloc.bridge, self.sloc.rgd, self.sloc.polchinski
        out = {}
        iterations = 0
        for (n, label), (mu, pi) in self.instances.items():
            ref = br.heat_kernel_reference(mu, pi)
            res = br.sinkhorn(mu, pi, ref, tol=self.TOL)
            iterations += res.iterations
            independent = np.outer(mu.weights, pi.weights)
            pairs = [br.objective_pair(res.coupling, mu, pi, ref)]
            pairs += [br.objective_pair((1.0 - lam) * res.coupling.gamma + lam * independent, mu, pi, ref)
                      for lam in self.lambdas]
            out[f"{n}/{label}"] = {
                "result": res,
                "pairs": np.array(pairs),
                "system": br.schrodinger_residual(res, mu, pi, ref),
                "ref": ref,
            }
        out["chain"] = rgd.chain_law_propagate(self.init, self.target, self.eta, 8)
        sched = []
        for alpha in self.alphas:
            schedule = pol.lsi_schedule(alpha)
            sched.append(float(schedule.gamma(1.0)))
            sched.append(pol.stability_factor(alpha, 0.5))
        buf = io.StringIO()
        pol.write_schedule_csv(pol.lsi_schedule(self.alphas[0]), self.taus, buf)
        out["lsi"] = np.array(sched)
        out["lsi/csv"] = buf.getvalue().encode()
        self.work = {"sinkhorn_iterations": iterations}
        return out

    def gate(self, out: dict, gate: Gate) -> None:
        for (n, label), (mu, pi) in self.instances.items():
            entry = out[f"{n}/{label}"]
            res = entry["result"]
            gamma = res.coupling.gamma
            resid = marginal_residual(gamma, mu.weights, pi.weights)
            gate.check(f"identity/sinkhorn-{n}-{label}/converged", res.converged and resid <= self.TOL,
                       f"{res.iterations} iterations, recomputed residual {resid:.2e}")
            shifts = entry["pairs"][:, 1] - entry["pairs"][:, 0]
            spread = float(np.ptp(shifts))
            gate.check(f"identity/objective-shift-{n}-{label}", spread <= 1e-8 * (1.0 + float(np.abs(shifts).max())),
                       f"spread {spread:.2e}")
            ref = entry["ref"]
            floor = min(float(ref.sum(axis=1).min()), float(ref.sum(axis=0).min()))
            gate.check(f"identity/schrodinger-residual-{n}-{label}",
                       entry["system"] <= resid / floor + 1e-12, f"{entry['system']:.2e}")
        laws, kls = out["chain"]
        want = 1.0 / (1.0 + self.eta) ** 2
        ratios = [kls[k + 1] / kls[k] for k in range(len(kls) - 1) if kls[k + 1] > 1e-5]
        dev = max(abs(r / want - 1.0) for r in ratios)
        gate.check("identity/chain-law-kl-ratio", len(ratios) >= 3 and dev <= 1e-9,
                   f"{len(ratios)} steps, max rel dev {dev:.2e} from 1/(1+eta)^2")
        mine = np.array([gaussian_kl(law.mean, law.cov, self.target.mean, self.target.cov) for law in laws])
        gate.close("oracle/chain-law-kl", kls, mine)
        gamma_one = out["lsi"][0::2]
        dev = float(np.max(np.abs(gamma_one - self.alphas) / np.maximum(1.0, self.alphas)))
        gate.check("identity/gamma(1)=alpha", dev <= 1e-12, f"max rel dev {dev:.2e}")
        factor = out["lsi"][1::2]
        gate.close("oracle/stability-factor", factor, self.alphas * 0.5 / (self.alphas * 0.5 + 0.5))

    def counts(self, out: dict) -> dict:
        metrics = {f"bridge.sinkhorn.iterations.n{n}.{label}": float(out[f"{n}/{label}"]["result"].iterations)
                   for n, label in self.instances}
        metrics["bridge.sinkhorn.final_residual"] = max(
            float(out[f"{n}/{label}"]["result"].residual) for n, label in self.instances)
        return metrics


WORKLOADS = ("ensemble", "pointwise", "transport")


def make(name: str, sloc, seed: int, scratch: Path, tiny: bool = False) -> Workload:
    if name == "ensemble":
        return Ensemble(sloc, seed, tiny)
    if name == "pointwise":
        return Pointwise(sloc, seed, scratch, tiny)
    if name == "transport":
        return Transport(sloc, seed, tiny)
    raise ValueError(f"unknown workload {name!r}; choose one of {', '.join(WORKLOADS)}")
