import io
import math
from collections import deque
from functools import partial

import numpy as np
import pytest

from sloc import bridge, localize, sde, targets
from sloc.bridge import FollmerDrift, girsanov_energy
from sloc.diagnostics import ks_two_sample
from sloc.localize import (
    WeightCollapseError,
    anisotropic_run,
    channel_ensemble,
    channel_path,
    particle_sl_run,
    tilt_sde_ensemble,
    tilt_sde_run,
    write_trajectory_csv,
)
from sloc.sde import SamplePath, TimeGrid, wiener_increment_array, wiener_increments
from sloc.targets import GaussianMeasure, GaussianMixture, posterior_moments, tilt

from oracles import centered_particle_reweighting
from test_determinism import mixture_d3


def std_normal():
    return GaussianMeasure([0.0], [[1.0]])


class TestTiltSde:
    def test_near_point_mass_tracks_driving_noise(self):
        # With essentially no spread in the base, m_t is ~0 and c follows W.
        base = GaussianMeasure([0.0], [[1e-8]])
        grid = TimeGrid.uniform(0.0, 1.0, 1000)
        noise = wiener_increments(grid, 1, seed=0, stream_id=0)
        states = localize.tilt_sde_run(base, grid, noise)
        cs = np.array([s.c[0] for s in states])
        assert np.abs(cs - noise.states[:, 0]).max() <= 1e-2

    def test_terminal_variance_matches_channel_law(self):
        # Channel representation: c_1 = x + B_1 with x ~ N(0,1), so Var = 2.
        grid = TimeGrid.uniform(0.0, 1.0, 500)
        c1 = tilt_sde_ensemble(std_normal(), grid, seed=1, n_paths=4000)[1.0][:, 0]
        se_mean = c1.std() / math.sqrt(c1.size)
        assert abs(c1.mean()) <= 4.0 * se_mean
        var = c1.var(ddof=1)
        se_var = math.sqrt((np.mean((c1 - c1.mean()) ** 4) - var**2) / c1.size)
        assert abs(var - 2.0) <= 4.0 * se_var + 0.01

    def test_mean_growth_matches_channel(self):
        # E[c_t] = t * E[x] from the channel representation.
        mu0 = 0.8
        base = GaussianMeasure([mu0], [[1.0]])
        grid = TimeGrid.uniform(0.0, 1.0, 500)
        snaps = tilt_sde_ensemble(base, grid, seed=2, n_paths=4000, snapshot_times=(0.5, 1.0))
        for t in (0.5, 1.0):
            c = snaps[t][:, 0]
            se = c.std() / math.sqrt(c.size)
            assert abs(c.mean() - t * mu0) <= 4.0 * se + 0.01

    def test_run_requires_grid_from_zero(self):
        grid = TimeGrid.uniform(0.5, 1.0, 10)
        noise = wiener_increments(grid, 1, 0, 0)
        with pytest.raises(ValueError, match="time 0"):
            tilt_sde_run(std_normal(), grid, noise)
        # The ensemble and the control run share the check; unchecked, the
        # ensemble would start the law of time 0 at time 0.5.
        with pytest.raises(ValueError, match="time 0"):
            tilt_sde_ensemble(std_normal(), grid, seed=1, n_paths=4)
        with pytest.raises(ValueError, match="time 0"):
            anisotropic_run(std_normal(), grid, noise, np.eye(1))

    def test_ensemble_matches_per_path_runner(self):
        base = GaussianMixture([0.5, 0.5], [[-1.0], [1.0]], [[[1.0]], [[1.0]]])
        grid = TimeGrid.uniform(0.0, 0.5, 100)
        snaps = tilt_sde_ensemble(base, grid, seed=3, n_paths=3)
        for stream in range(3):
            noise = wiener_increments(grid, 1, 3, stream)
            states = tilt_sde_run(base, grid, noise)
            assert states[-1].c[0] == snaps[0.5][stream, 0]

    def test_generic_base_runs_with_sampling_budget(self):
        # A quadratic potential is the same law as the closed-form Gaussian;
        # the per-step importance-sampled drift stays close to the exact one.
        from sloc.targets import gaussian_potential

        grid = TimeGrid.uniform(0.0, 0.5, 50)
        noise = wiener_increments(grid, 1, seed=40, stream_id=0)
        rng = np.random.default_rng(41)
        approx = localize.tilt_sde_run(gaussian_potential(dim=1), grid, noise, budget=4000, rng=rng)
        exact = localize.tilt_sde_run(std_normal(), grid, noise)
        assert abs(approx[-1].c[0] - exact[-1].c[0]) < 0.15

    def test_successive_generic_estimates_have_independent_errors(self):
        # On a quadratic potential the proposal is the tilted law itself, so a
        # step's mean error is its draws' sample-mean error: one fixed key
        # would repeat it at every step (lag-1 correlation 0.9999999).
        from sloc.targets import gaussian_potential

        grid = TimeGrid.uniform(0.0, 1.0, 200)
        states = tilt_sde_run(gaussian_potential(1), grid, wiener_increments(grid, 1, 44, 0), budget=256)
        errors = np.array([s.m[0] - s.c[0] / (1.0 + s.t) for s in states[1:]])
        lag1 = float(np.corrcoef(errors[:-1], errors[1:])[0, 1])
        assert abs(lag1) <= 4.0 / math.sqrt(errors.size)

    def test_localization_shrinks_posterior_trace(self):
        # Posterior covariance trace is d / (1/sigma0^2 + t) along any path.
        base = GaussianMeasure([0.0, 0.0], 2.0 * np.eye(2))
        grid = TimeGrid.uniform(0.0, 3.0, 60)
        noise = wiener_increments(grid, 2, seed=4, stream_id=0)
        states = tilt_sde_run(base, grid, noise)
        traces = []
        for s in states:
            mom = posterior_moments(tilt(base, s.c, s.reg))
            expected = 2.0 / (0.5 + s.t)
            assert np.trace(mom.cov) == pytest.approx(expected, abs=1e-10)
            traces.append(np.trace(mom.cov))
        assert traces[-1] < traces[0]


class TestColumnState:
    """The engine steps each chunk as columns ``(w, rows)`` and hands the kernel
    row views; no bit depends on that layout.  The row-major textbook
    recursions on the ensembles' own noise reproduce them exactly."""

    @pytest.mark.parametrize("base", [GaussianMixture([0.5, 0.5], [[-1.0], [1.0]], [[[1.0]], [[0.5]]]), mixture_d3()],
                             ids=["mixture-d1", "mixture-d3"])
    def test_tilt_ensemble_is_the_row_major_recursion(self, base):
        grid, seed, n, d = TimeGrid.uniform(0.0, 1.0, 200), 31, 50, base.dim
        snaps = tilt_sde_ensemble(base, grid, seed, n, snapshot_times=(0.5,), chunk=16)
        dw = np.stack([wiener_increment_array(grid, d, seed, s) for s in range(n)])
        # The regularizer accumulates as t += dt, as the run documents.
        plan = targets.tilt_plan(base, np.cumsum(np.concatenate([[0.0], grid.dts])))
        c, want = np.zeros((n, d)), {}
        m = targets.posterior_mean_batch(base, c, plan(0))
        for k, dt in enumerate(grid.dts.tolist()):
            c = c + m * dt + dw[:, k]
            m = targets.posterior_mean_batch(base, c, plan(k + 1))
            if k + 1 == grid.index_of(0.5):
                want[0.5] = c
        want[1.0] = c
        assert snaps.keys() == want.keys()
        for t, ref in want.items():
            assert np.array_equal(snaps[t], ref), t

    def test_energy_is_the_row_major_euler_sum(self, monkeypatch):
        # The estimate and its standard error absorb an ulp moved in one
        # step's |u|^2, so the per-path end energies are compared too: they
        # pin the coordinate order of the sum, left to right.
        real, ends = bridge._integrate, []

        def integrate(*args):
            ends.append(real(*args))
            return ends[-1]

        monkeypatch.setattr(bridge, "_integrate", integrate)
        base, grid, seed, n = mixture_d3(), TimeGrid.uniform(0.0, 0.9, 120), 37, 50
        got = girsanov_energy(FollmerDrift(base), grid, n, seed, chunk=16)
        dw = np.stack([wiener_increment_array(grid, base.dim, seed, s) for s in range(n)])
        taus = grid.times[:-1]
        plan = targets.tilt_plan(base, taus / (1.0 - taus))
        v, energy = np.zeros((n, base.dim)), np.zeros(n)
        for k, (tau, dt) in enumerate(zip(taus.tolist(), grid.dts.tolist())):
            one_m = 1.0 - tau
            u = (targets.posterior_mean_batch(base, v / one_m, plan(k)) - v) / one_m
            u2 = u[:, 0] * u[:, 0]
            for j in range(1, base.dim):
                u2 = u2 + u[:, j] * u[:, j]
            energy = energy + 0.5 * u2 * dt
            v = v + u * dt + dw[:, k]
        assert got == (float(energy.mean()), float(energy.std(ddof=1) / math.sqrt(n)))
        (end,) = ends
        assert end[float(grid.times[-1])][:, base.dim].tobytes() == energy.tobytes()


class TestChannel:
    def test_near_point_mass_is_noise_only(self):
        base = GaussianMeasure([0.0], [[1e-8]])
        grid = TimeGrid.uniform(0.0, 1.0, 100)
        x, path = channel_path(base, grid, seed=5)
        assert abs(x[0]) < 1e-3
        assert np.abs(path.states[:, 0]).max() < 6.0

    def test_terminal_law_variance(self):
        snaps = channel_ensemble(std_normal(), [1.0], seed=6, n_paths=4000)
        c1 = snaps[1.0][:, 0]
        var = c1.var(ddof=1)
        se_var = math.sqrt((np.mean((c1 - c1.mean()) ** 4) - var**2) / c1.size)
        assert abs(var - 2.0) <= 4.0 * se_var

    def test_posterior_mean_formula(self):
        # Frozen from the conjugate-Gaussian oracle (quadrature cross-checked):
        # base N(0.5, 2.0), c = 1.1, t = 0.9 gives posterior mean 27/28.
        base = GaussianMeasure([0.5], [[2.0]])
        mom = posterior_moments(tilt(base, [1.1], 0.9))
        assert mom.mean[0] == pytest.approx((1.1 + 0.5 / 2.0) / (0.9 + 1.0 / 2.0), abs=1e-12)
        assert mom.mean[0] == pytest.approx(0.9642857142857143, abs=1e-12)

    def test_reproducible_per_stream(self):
        grid = TimeGrid.uniform(0.0, 1.0, 20)
        x1, p1 = channel_path(std_normal(), grid, seed=7, stream_id=3)
        x2, p2 = channel_path(std_normal(), grid, seed=7, stream_id=3)
        assert np.array_equal(x1, x2)
        assert p1.states.tobytes() == p2.states.tobytes()

    @pytest.mark.parametrize("start", [0.0, 0.3])
    @pytest.mark.parametrize(
        "base",
        [std_normal(), GaussianMixture.from_components([(0.4, [-1.0, 0.5], np.eye(2)), (0.6, [1.0, -0.5], np.eye(2))])],
        ids=["gauss-d1", "mixture-d2"],
    )
    def test_path_is_bitwise_a_row_of_the_ensemble(self, base, start):
        grid = TimeGrid.uniform(start, 1.0, 12)
        whole = channel_ensemble(base, grid.times, seed=8, n_paths=4)
        later = channel_ensemble(base, grid.times[1:], seed=8, n_paths=4)
        for r in range(4):
            x, path = channel_path(base, grid, seed=8, stream_id=r)
            assert np.array_equal(path.states, np.array([whole[t][r] for t in grid.times]))
            if start == 0.0:
                # B is 0 at time 0, so observing from the first positive time draws the same path.
                assert np.array_equal(path.states[1:], np.array([later[t][r] for t in grid.times[1:]]))

    def test_ensemble_observes_repeated_times_once(self):
        snaps = channel_ensemble(std_normal(), [1.0, 0.5, 0.5], seed=9, n_paths=3)
        assert list(snaps) == [0.5, 1.0]
        assert np.array_equal(snaps[1.0], channel_ensemble(std_normal(), [0.5, 1.0], seed=9, n_paths=3)[1.0])


class TestTiltVsChannelLaw:
    def test_two_sample_ks_gaussian_and_mixture(self):
        grid = TimeGrid.uniform(0.0, 1.0, 500)
        for base in (std_normal(), GaussianMixture([0.5, 0.5], [[-1.0], [1.0]], [[[1.0]], [[1.0]]])):
            a = tilt_sde_ensemble(base, grid, seed=80, n_paths=3000)[1.0][:, 0]
            b = channel_ensemble(base, [1.0], seed=90, n_paths=3000)[1.0][:, 0]
            assert ks_two_sample(a, b).p_value > 0.01

    def test_two_dimensional_bases_by_coordinate(self):
        gauss2 = GaussianMeasure([0.2, -0.4], [[1.0, 0.3], [0.3, 0.8]])
        mix2 = GaussianMixture.from_components(
            [(0.5, [-1.0, 0.5], np.eye(2)), (0.5, [1.0, -0.5], np.eye(2))]
        )
        grid = TimeGrid.uniform(0.0, 1.0, 500)
        for base in (gauss2, mix2):
            a = tilt_sde_ensemble(base, grid, seed=81, n_paths=3000)[1.0]
            b = channel_ensemble(base, [1.0], seed=91, n_paths=3000)[1.0]
            # Each coordinate at the Bonferroni-corrected level 0.01 / d.
            assert all(ks_two_sample(a[:, k], b[:, k]).p_value > 0.01 / 2 for k in range(2))


class TestParticles:
    def test_coincident_particles_keep_uniform_weights(self):
        # All particles at the same point: x_i - mean = 0, weights never move.
        base = GaussianMeasure([0.7], [[1e-18]])
        grid = TimeGrid.uniform(0.0, 0.3, 30)
        noise = wiener_increments(grid, 1, seed=10, stream_id=0)
        clouds = particle_sl_run(base, 50, grid, noise)
        assert np.allclose(clouds[-1].weights, 1.0 / 50.0, atol=1e-12)
        assert clouds[-1].log_mass == pytest.approx(0.0, abs=1e-9)

    def test_weights_renormalized_each_step(self):
        grid = TimeGrid.uniform(0.0, 0.5, 50)
        noise = wiener_increments(grid, 1, seed=11, stream_id=0)
        clouds = particle_sl_run(std_normal(), 200, grid, noise)
        for cloud in clouds:
            assert abs(cloud.weights.sum() - 1.0) <= 1e-10

    def test_particle_mean_tracks_exact_tilt_mean(self):
        n = 1000
        grid = TimeGrid.uniform(0.0, 0.5, 500)
        noise = wiener_increments(grid, 1, seed=12, stream_id=0)
        states = tilt_sde_run(std_normal(), grid, noise)
        clouds = particle_sl_run(std_normal(), n, grid, noise)
        assert np.linalg.norm(clouds[-1].mean() - states[-1].m) <= 5.0 / math.sqrt(n)

    def test_ess_floor_raises(self):
        grid = TimeGrid.uniform(0.0, 2.0, 400)
        noise = wiener_increments(grid, 1, seed=13, stream_id=0)
        with pytest.raises(WeightCollapseError):
            particle_sl_run(std_normal(), 3, grid, noise, ess_floor=2.9)

    @pytest.mark.parametrize("n", [-1, 0, 1])
    def test_fewer_than_two_particles_are_refused_by_run_and_ensemble(self, n):
        grid = TimeGrid.uniform(0.0, 0.5, 5)
        noise = wiener_increments(grid, 1, seed=13, stream_id=0)
        with pytest.raises(ValueError, match="need at least two particles"):
            particle_sl_run(std_normal(), n, grid, noise)
        with pytest.raises(ValueError, match="need at least two particles"):
            localize.particle_ensemble(std_normal(), n, grid, seed=13, n_runs=3)

    @pytest.mark.parametrize("name", ["gauss-d1", "pm1-mixture", "mixture-d3"])
    def test_ensemble_matches_the_centered_update(self, name):
        # log_mass is a log, so its absolute tolerance is a relative one on the mass.
        g = np.random.default_rng(5)
        base = {
            "gauss-d1": GaussianMeasure([0.4], [[1.5]]),
            "pm1-mixture": GaussianMixture([0.5, 0.5], [[-1.0], [1.0]], [[[1.0]], [[1.0]]]),
            "mixture-d3": GaussianMixture([0.35, 0.65], 1.5 * g.standard_normal((2, 3)), [np.eye(3), 0.4 * np.eye(3)]),
        }[name]
        grid = TimeGrid.uniform(0.0, 1.0, 200)
        points, log_w, log_mass = localize.particle_ensemble(base, 64, grid, seed=15, n_runs=6)
        dw = np.stack([wiener_increment_array(grid, base.dim, 15, r) for r in range(6)])
        ref_w, ref_mass = centered_particle_reweighting(points, dw, grid.dts)
        np.testing.assert_allclose(log_w, ref_w, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(log_mass, ref_mass, rtol=1e-12, atol=1e-12)

    def test_long_horizon_keeps_deep_log_weights_finite(self):
        # At T = 2000 most weights are far below exp(-745), the smallest double:
        # a cloud kept in linear weights would read them as 0 and log them as -inf.
        grid = TimeGrid.uniform(0.0, 2000.0, 2000)
        points, log_w, log_mass = localize.particle_ensemble(std_normal(), 16, grid, seed=3, n_runs=4)
        dw = np.stack([wiener_increment_array(grid, 1, 3, r) for r in range(4)])
        ref_w, ref_mass = centered_particle_reweighting(points, dw, grid.dts)
        assert np.all(np.isfinite(log_w)) and np.any(log_w < -745.0)
        np.testing.assert_allclose(log_w, ref_w, rtol=1e-12, atol=1e-12)
        # A bound that lets rounding grow with the horizon; the extended-precision
        # test below holds the log-mass to a fixed one.
        np.testing.assert_allclose(log_mass, ref_mass, atol=1e-14 * grid.times[-1])

    def test_long_horizon_log_mass_matches_extended_precision(self):
        # The log-mass is carried as order-one terms, so it stays near double
        # precision at T = 2000 against an extended-precision centred update.
        grid = TimeGrid.uniform(0.0, 2000.0, 2000)
        points, _, log_mass = localize.particle_ensemble(std_normal(), 16, grid, seed=3, n_runs=4)
        dw = np.stack([wiener_increment_array(grid, 1, 3, r) for r in range(4)])
        ld = np.longdouble
        _, ref_mass = centered_particle_reweighting(points.astype(ld), dw.astype(ld), grid.dts.astype(ld))
        assert ref_mass.dtype == ld
        assert float(np.abs(log_mass - ref_mass).max()) <= 1e-13

    @pytest.mark.parametrize("name", ["std-normal", "pm1-mixture", "mixture-d3"])
    def test_near_tie_log_mass_matches_extended_precision(self, name):
        # Two particles stay nearly tied for the top, so log sum exp(u - u_top)
        # inherits the rounding of u, about eps T: the log-mass reads up to
        # 9e-13 off on the ±1 mixture, hence a looser bound than at seed 3.
        g = np.random.default_rng(5)
        base = {
            "std-normal": std_normal(),
            "pm1-mixture": GaussianMixture([0.5, 0.5], [[-1.0], [1.0]], [[[1.0]], [[1.0]]]),
            "mixture-d3": GaussianMixture([0.35, 0.65], 1.5 * g.standard_normal((2, 3)), [np.eye(3), 0.4 * np.eye(3)]),
        }[name]
        grid = TimeGrid.uniform(0.0, 2000.0, 2000)
        points, _, log_mass = localize.particle_ensemble(base, 16, grid, seed=17, n_runs=16)
        dw = np.stack([wiener_increment_array(grid, base.dim, 17, r) for r in range(16)])
        ld = np.longdouble
        _, ref_mass = centered_particle_reweighting(points.astype(ld), dw.astype(ld), grid.dts.astype(ld))
        assert float(np.abs(log_mass - ref_mass).max()) <= 1e-12

    def test_mass_martingale_small_ensemble(self):
        grid = TimeGrid.uniform(0.0, 0.5, 250)
        _, _, logm = localize.particle_ensemble(std_normal(), 64, grid, seed=14, n_runs=400)
        mass = np.exp(logm)
        se = mass.std(ddof=1) / math.sqrt(mass.size)
        assert abs(mass.mean() - 1.0) <= 4.0 * se


def per_step_particle_runs(base, n_particles, seed, streams, dw, dts):
    """Reference particle loop that forms every log-mass at its own step: the
    top particle's centred step and change of top, summed into ``a`` per step.
    Yields ``(points, u, e, log_total, log_mass)`` at the start and after each
    step, for a bitwise comparison with ``localize``'s block bookkeeping."""
    points = sde._starts(partial(targets.sample_base, base, n_particles), seed, streams)
    coords = list(np.moveaxis(points, -1, 0))
    planes = np.stack([np.ones(points.shape[:2])] + coords + [sum(x * x for x in coords)])
    flat_points, offsets = points.reshape(-1, points.shape[-1]), np.arange(len(points)) * n_particles
    coef, log_top, log_n = np.zeros((len(points), len(planes) - 1)), np.zeros(len(points)), math.log(n_particles)
    c, half_t = coef[:, :-1], coef[:, -1:]
    u, e, x_top = np.zeros(points.shape[:2]), np.ones(points.shape[:2]), points[:, 0]
    dts = dts.tolist()
    for k in range(len(dts) + 1):
        sums = np.einsum("rn,jrn->rj", e, planes[:-1])
        log_total = np.log(sums[:, 0])
        yield points, u, e, log_total, log_top - log_n + log_total
        if k == len(dts):
            return
        dw_k, dt = dw[:, k], dts[k]
        m = sums[:, 1:] / sums[:, :1]
        dev = x_top - m
        c += dw_k + dt * m
        half_t -= 0.5 * dt
        np.einsum("jrn,rj->rn", planes[1:], coef, out=u)
        top = offsets + u.argmax(axis=1)
        x_old, x_top, u_top = x_top, flat_points.take(top, axis=0), u.take(top)
        delta = dev * (dw_k - (0.5 * dt) * dev) + (x_top - x_old) * (c + half_t * (x_top + x_old))
        log_top += np.add.reduce(delta, axis=1)
        u -= u_top[:, None]
        np.exp(u, out=e)


PM1 = GaussianMixture([0.5, 0.5], [[-1.0], [1.0]], [[[1.0]], [[1.0]]])


class TestParticleBookkeeping:
    """Every cloud of ``particle_sl_run`` and every output of
    ``particle_ensemble`` is byte for byte the per-step reference loop's, at
    the default block sizes and at sizes small enough that runs cross several
    blocks of step records and of runs, in step counts that are not multiples
    of the block length.  The block sizes are patched with ``raising=False``
    so that the same tests also run against a loop without blocks."""

    BASES = {
        # Its top particle changes often, between the two modes.
        "pm1-mixture": PM1,
        "mixture-d3": GaussianMixture([0.35, 0.65], [[0.8, -1.2, 0.3], [-1.5, 0.4, 1.1]],
                                      [np.eye(3), 0.4 * np.eye(3)]),
    }

    @staticmethod
    def grid(steps, horizon=1.0):
        # Uneven steps, so that no two step sizes round alike.
        dts = np.random.default_rng(steps).uniform(0.5, 1.5, steps) * (horizon / max(steps, 1))
        return TimeGrid(np.concatenate([[0.0], np.cumsum(dts)]))

    @staticmethod
    def ensemble_reference(base, n_particles, grid, seed, n_runs):
        dw = np.stack([wiener_increment_array(grid, base.dim, seed, r) for r in range(n_runs)])
        points, u, _, log_total, log_mass = deque(
            per_step_particle_runs(base, n_particles, seed, range(n_runs), dw, grid.dts), 1)[0]
        return points, u - log_total[:, None], log_mass

    @pytest.mark.parametrize("blocks", [(2**15, 2**10), (2**10, 2**7)], ids=["default", "small"])
    @pytest.mark.parametrize("steps", [0, 1, 250])
    @pytest.mark.parametrize("n_runs", [1, 5, 300])
    @pytest.mark.parametrize("name", BASES)
    def test_ensemble_is_bitwise_the_per_step_loop(self, monkeypatch, name, n_runs, steps, blocks):
        monkeypatch.setattr(localize, "_RUN_BLOCK", blocks[0], raising=False)
        monkeypatch.setattr(localize, "_RECORD_BLOCK", blocks[1], raising=False)
        base = self.BASES[name]
        grid = self.grid(steps)
        got = localize.particle_ensemble(base, 32, grid, 21, n_runs)
        want = self.ensemble_reference(base, 32, grid, 21, n_runs)
        assert [a.tobytes() for a in got] == [a.tobytes() for a in want]

    @pytest.mark.parametrize("records", [2**10, 2**7, 3])
    @pytest.mark.parametrize("steps", [0, 1, 250])
    @pytest.mark.parametrize("name", BASES)
    def test_single_run_clouds_are_bitwise_the_per_step_loop(self, monkeypatch, name, steps, records):
        monkeypatch.setattr(localize, "_RECORD_BLOCK", records, raising=False)
        base = self.BASES[name]
        grid = self.grid(steps)
        noise = wiener_increments(grid, base.dim, seed=22, stream_id=3)
        clouds = particle_sl_run(base, 32, grid, noise, ess_floor=0.0)
        dw = sde._noise_increments(noise, grid, base.dim)[None]
        want = per_step_particle_runs(base, 32, 22, [3], dw, grid.dts)
        assert len(clouds) == len(grid)
        for cloud, (points, u, _, log_total, log_mass) in zip(clouds, want):
            assert cloud.points.tobytes() == points[0].tobytes()
            assert cloud.log_weights.tobytes() == (u[0] - log_total[0]).tobytes()
            assert cloud.log_mass == float(log_mass[0])

    @pytest.mark.parametrize("records", [2**10, 2**7])
    def test_near_tie_is_bitwise_the_per_step_loop(self, monkeypatch, records):
        # Two particles stay nearly tied for the top over a long horizon, the
        # case where the log-mass is most sensitive to its rounding.
        monkeypatch.setattr(localize, "_RECORD_BLOCK", records, raising=False)
        grid = self.grid(2000, horizon=2000.0)
        got = localize.particle_ensemble(PM1, 16, grid, 17, 16)
        want = self.ensemble_reference(PM1, 16, grid, 17, 16)
        assert [a.tobytes() for a in got] == [a.tobytes() for a in want]


class TestAnisotropic:
    @pytest.mark.parametrize(
        "base",
        [
            GaussianMeasure(np.zeros(2), np.eye(2)),
            GaussianMixture.from_components(
                [(0.4, [-1.0, 0.5], [[1.0, 0.3], [0.3, 0.8]]), (0.6, [1.2, -0.3], [[0.6, -0.1], [-0.1, 1.5]])]
            ),
        ],
        ids=["gauss", "mixture"],
    )
    def test_identity_control_bitwise_equals_isotropic(self, base):
        grid = TimeGrid.uniform(0.0, 1.0, 50)
        noise = wiener_increments(grid, 2, seed=15, stream_id=0)
        iso = tilt_sde_run(base, grid, noise)
        run = anisotropic_run(base, grid, noise, np.eye(2))
        state = run[0]
        assert state.c.tobytes() == iso[0].c.tobytes()
        assert state.m.tobytes() == iso[0].m.tobytes()
        for k in range(grid.steps):
            state = run[k + 1]
            assert state.c.tobytes() == iso[k + 1].c.tobytes()
            assert state.m.tobytes() == iso[k + 1].m.tobytes()
            assert np.array_equal(np.diag(np.asarray(state.reg)), np.full(2, iso[k + 1].reg))

    def test_zero_control_freezes_state(self):
        base = GaussianMeasure(np.zeros(2), np.eye(2))
        noise = SamplePath(TimeGrid.uniform(0.0, 0.1, 1), [[0.0, 0.0], [1.0, 1.0]], seed=0, stream_id=0)
        state, frozen = anisotropic_run(base, noise.grid, noise, np.zeros((2, 2)))
        assert np.array_equal(frozen.c, state.c)
        assert np.array_equal(np.asarray(frozen.reg), np.asarray(state.reg))

    def test_rank_deficient_control_factorizes(self):
        # C = diag(1, 0) on a product base: coordinate 2 stays untouched and
        # coordinate 1 follows the one-dimensional run on the same noise.
        base2 = GaussianMeasure(np.zeros(2), np.eye(2))
        base1 = std_normal()
        grid = TimeGrid.uniform(0.0, 1.0, 80)
        noise2 = wiener_increments(grid, 2, seed=16, stream_id=0)
        control = np.diag([1.0, 0.0])
        run = anisotropic_run(base2, grid, noise2, control)
        state, dw2 = run[-1], noise2.increments()
        cs = np.array([s.c for s in run])
        assert np.all(cs[:, 1] == 0.0)
        assert np.allclose(np.asarray(state.reg), np.diag([grid.times[-1], 0.0]), atol=1e-12)

        # One-dimensional reference driven by the first noise coordinate.
        t = 0.0
        c = np.zeros(1)
        m = posterior_moments(tilt(base1, c, t)).mean
        for k in range(grid.steps):
            dt = float(grid.dts[k])
            c = c + m * dt + dw2[k][:1]
            t = t + dt
            m = posterior_moments(tilt(base1, c, t)).mean
        assert c[0] == pytest.approx(cs[-1, 0], abs=1e-10)

    def test_misshapen_control_rejected(self):
        grid = TimeGrid.uniform(0.0, 0.2, 2)
        noise = wiener_increments(grid, 1, seed=17, stream_id=0)
        with pytest.raises(ValueError, match="control matrix"):
            anisotropic_run(std_normal(), grid, noise, np.eye(2))




def test_trajectory_csv_schema():
    grid = TimeGrid.uniform(0.0, 0.2, 2)
    noise = wiener_increments(grid, 1, seed=17, stream_id=0)
    states = tilt_sde_run(std_normal(), grid, noise)
    buf = io.StringIO()
    write_trajectory_csv({0: states}, buf)
    lines = buf.getvalue().strip().split("\n")
    assert lines[0] == "stream_id,t,c_1,m_1"
    assert len(lines) == 1 + len(grid)
