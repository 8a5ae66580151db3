import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sloc import polchinski, sde, targets
from sloc.targets import (
    EffectiveSampleSizeError,
    GaussianMeasure,
    GaussianMixture,
    GenericPotential,
    gaussian_potential,
    log_partition,
    posterior_moments,
    quartic_potential,
    sample,
    sample_base,
    target_from_json,
    tilt,
)

from oracles import gaussian_pdf, grid_1d, quad_moments_1d, quad_moments_2d, tilt_density_1d


def std_normal():
    return GaussianMeasure([0.0], [[1.0]])


def two_mixture():
    return GaussianMixture.from_components(
        [(0.6, [-1.0], [[0.8]]), (0.4, [1.5], [[1.2]])]
    )


def rng(seed=0):
    return np.random.default_rng(seed)


class TestConstruction:
    def test_gaussian_rejects_asymmetric_cov(self):
        with pytest.raises(ValueError, match="symmetric"):
            GaussianMeasure([0.0, 0.0], [[1.0, 0.3], [0.2, 1.0]])

    def test_gaussian_rejects_indefinite_cov(self):
        with pytest.raises(ValueError, match="positive definite"):
            GaussianMeasure([0.0, 0.0], [[1.0, 2.0], [2.0, 1.0]])

    def test_mixture_weights_must_sum_to_one(self):
        with pytest.raises(ValueError, match="sum to 1"):
            GaussianMixture([0.5, 0.6], [[0.0], [1.0]], [[[1.0]], [[1.0]]])

    def test_mixture_needs_a_component(self):
        with pytest.raises(ValueError):
            GaussianMixture([], np.empty((0, 1)), np.empty((0, 1, 1)))

    @pytest.mark.parametrize(
        "build, field",
        [
            (lambda: GaussianMixture([0.5, math.nan], [[0.0], [1.0]], [[[1.0]], [[1.0]]]), "weights"),
            (lambda: GaussianMixture([0.5, 0.5], [[0.0], [math.inf]], [[[1.0]], [[1.0]]]), "means"),
            (lambda: GaussianMixture([0.5, 0.5], [[0.0], [1.0]], [[[1.0]], [[math.nan]]]), "covariances"),
            (lambda: GaussianMeasure([math.inf], [[1.0]]), "means"),
            (lambda: GaussianMeasure([math.nan], [[1.0]]), "means"),
            (lambda: GaussianMeasure([0.0], [[math.inf]]), "covariances"),
            (lambda: GaussianMeasure([0.0, 0.0], [[1.0, -math.inf], [-math.inf, 1.0]]), "covariances"),
        ],
    )
    def test_non_finite_parameters_are_rejected(self, build, field):
        # A NaN weight passes every comparison-based check, and an infinite
        # covariance passes the symmetry test; only a finiteness check stops them.
        with pytest.raises(ValueError, match=f"mixture {field} must be finite"):
            build()

    def test_generic_gradient_check_catches_mismatch(self):
        with pytest.raises(ValueError, match="finite differences"):
            GenericPotential(
                dim=1,
                potential=lambda x: 0.5 * float(x @ x),
                gradient=lambda x: 2.0 * x,
                strong_convexity=1.0,
                smoothness=2.0,
            )

    def test_generic_gradient_check_passes_for_consistent_pair(self):
        pot = quartic_potential(dim=2)
        assert pot.strong_convexity == 1.0

    def test_tilt_dimension_mismatch(self):
        with pytest.raises(ValueError, match="does not match"):
            tilt(std_normal(), [1.0, 2.0], 1.0)

    def test_tilt_rejects_negative_scalar_reg(self):
        with pytest.raises(ValueError, match="nonnegative"):
            tilt(std_normal(), [0.0], -0.5)

    def test_tilt_rejects_non_psd_matrix_reg(self):
        with pytest.raises(ValueError):
            tilt(GaussianMeasure([0.0, 0.0], np.eye(2)), [0.0, 0.0], -np.eye(2))

    def test_scalar_reg_capped(self):
        m = tilt(std_normal(), [0.0], 1e15)
        assert m.reg == targets.REG_CAP


class TestTilt:
    def test_unit_tilt_of_standard_normal(self):
        # Frozen from the grid-quadrature oracle: exp(x - x^2) has mean 0.5,
        # variance 0.5, and log partition 1/4 - log(2)/2.
        m = tilt(std_normal(), [1.0], 1.0)
        mom = posterior_moments(m)
        assert mom.mean[0] == pytest.approx(0.5, abs=1e-12)
        assert mom.cov[0, 0] == pytest.approx(0.5, abs=1e-12)
        assert mom.stderr == 0.0
        assert log_partition(m) == pytest.approx(-0.09657359027997264, abs=1e-12)

        xs = grid_1d()
        un = tilt_density_1d(gaussian_pdf(0.0, 1.0), 1.0, 1.0, xs)
        mean_q, var_q, logz_q = quad_moments_1d(un, xs)
        assert mom.mean[0] == pytest.approx(mean_q, abs=1e-9)
        assert mom.cov[0, 0] == pytest.approx(var_q, abs=1e-9)
        assert log_partition(m) == pytest.approx(logz_q, abs=1e-9)

    def test_gaussian_tilt_closed_form_2d_vs_quadrature(self):
        mean0 = np.array([0.4, -0.3])
        cov0 = np.array([[1.2, 0.3], [0.3, 0.7]])
        c = np.array([0.8, -0.5])
        t = 0.9
        mom = posterior_moments(tilt(GaussianMeasure(mean0, cov0), c, t))
        expected_cov = np.linalg.inv(np.linalg.inv(cov0) + t * np.eye(2))
        expected_mean = expected_cov @ (np.linalg.inv(cov0) @ mean0 + c)
        assert np.allclose(mom.mean, expected_mean, atol=1e-12)
        assert np.allclose(mom.cov, expected_cov, atol=1e-12)

        xg = np.linspace(-6.0, 6.0, 601)
        xx, yy = np.meshgrid(xg, xg, indexing="ij")
        pts = np.stack([xx.ravel(), yy.ravel()], axis=1)
        base = GaussianMeasure(mean0, cov0)
        un = np.exp(
            base.log_density(pts) + pts @ c - 0.5 * t * np.sum(pts**2, axis=1)
        ).reshape(xx.shape)
        m_q, cov_q = quad_moments_2d(un, xg, xg)
        assert np.allclose(mom.mean, m_q, atol=1e-6)
        assert np.allclose(mom.cov, cov_q, atol=1e-6)


class TestPosteriorMoments:
    def test_untouched_standard_gaussian(self):
        mom = posterior_moments(tilt(GaussianMeasure(np.zeros(3), np.eye(3)), np.zeros(3), 0.0))
        assert np.allclose(mom.mean, 0.0, atol=1e-14)
        assert np.allclose(mom.cov, np.eye(3), atol=1e-12)
        assert mom.stderr == 0.0

    def test_symmetric_mixture_mean_zero(self):
        mix = GaussianMixture([0.5, 0.5], [[-2.0], [2.0]], [[[1.0]], [[1.0]]])
        mom = posterior_moments(tilt(mix, [0.0], 0.7))
        assert mom.mean[0] == pytest.approx(0.0, abs=1e-14)

    def test_mixture_tilt_vs_quadrature(self):
        # Frozen from the quadrature oracle for 0.6 N(-1, .8) + 0.4 N(1.5, 1.2)
        # tilted by (c, t) = (0.5, 0.7).
        mom = posterior_moments(tilt(two_mixture(), [0.5], 0.7))
        assert mom.mean[0] == pytest.approx(0.3989033897982932, abs=1e-8)
        assert mom.cov[0, 0] == pytest.approx(1.166059827551842, abs=1e-8)

    def test_generic_base_requires_budget(self):
        pot = gaussian_potential(dim=1)
        with pytest.raises(ValueError, match="budget"):
            posterior_moments(tilt(pot, [1.0], 1.0), budget=0)

    def test_generic_importance_sampling_matches_closed_form(self):
        pot = gaussian_potential(dim=1)
        mom = posterior_moments(tilt(pot, [1.0], 1.0), budget=40_000, rng=rng(3))
        assert mom.stderr > 0.0
        assert abs(mom.mean[0] - 0.5) < 4.0 * mom.stderr + 1e-3
        assert mom.cov[0, 0] == pytest.approx(0.5, abs=0.02)

    def test_generic_ess_floor_triggers(self):
        pot = gaussian_potential(dim=1)
        with pytest.raises(EffectiveSampleSizeError):
            posterior_moments(tilt(pot, [0.0], 0.0), budget=4, rng=rng(0))

    def test_exact_proposal_at_the_floor_never_raises(self):
        # The proposal is exact for a Gaussian potential, so the weights are
        # uniform and ESS equals the budget up to rounding, which sits at the floor.
        pot = gaussian_potential(dim=1)
        tilts = rng(3)
        for k in range(400):
            c, t = tilts.normal(0.0, 2.0), tilts.uniform(0.0, 3.0)
            posterior_moments(tilt(pot, [c], t), budget=64, rng=rng(k))

    def test_mixture_covariance_is_centered(self):
        # Two nearby components far from the origin: the difference of second
        # moments cancels about 1e6 against a covariance of about 1e-6.
        mix = GaussianMixture.from_components(
            [(0.5, [1e3], [[1e-6]]), (0.5, [1e3 + 1e-3], [[1e-6]])]
        )
        exact = 1e-6 + 0.25 * 1e-6
        assert mix.cov[0, 0] == pytest.approx(exact, rel=1e-9)
        assert posterior_moments(tilt(mix, [0.0], 0.0)).cov[0, 0] == pytest.approx(exact, rel=1e-9)


class TestLogPartition:
    def test_identity_tilt_of_normalized_base_is_zero(self):
        assert log_partition(tilt(GaussianMeasure(np.zeros(2), np.eye(2)), np.zeros(2), 0.0)) == pytest.approx(
            0.0, abs=1e-12
        )

    def test_scalar_gaussian_formula(self):
        # Frozen from quadrature: c = 0.7, t = 1.3 gives -0.30993282233711716.
        val = log_partition(tilt(std_normal(), [0.7], 1.3))
        assert val == pytest.approx(0.7**2 / (2 * 2.3) - 0.5 * math.log(2.3), abs=1e-12)
        assert val == pytest.approx(-0.30993282233711716, abs=1e-12)

    def test_mixture_is_logsumexp_of_components(self):
        mix = two_mixture()
        c, t = np.array([0.5]), 0.7
        per = [
            math.log(w) + log_partition(tilt(GaussianMeasure(mu, cov), c, t))
            for w, mu, cov in zip(mix.weights, mix.means, mix.covs)
        ]
        expected = np.logaddexp(per[0], per[1])
        got = log_partition(tilt(mix, c, t))
        assert got == pytest.approx(expected, abs=1e-12)
        # Frozen from the quadrature oracle.
        assert got == pytest.approx(-0.49347462659587127, abs=1e-8)

    def test_generic_base_unsupported(self):
        with pytest.raises(TypeError):
            log_partition(tilt(gaussian_potential(dim=1), [0.0], 0.0))


class TestSampling:
    def test_same_seed_bitwise_identical(self):
        m = tilt(two_mixture(), [0.3], 0.4)
        a = sample(m, 500, rng(123))
        b = sample(m, 500, rng(123))
        assert a.tobytes() == b.tobytes()

    def test_law_of_large_numbers_gaussian(self):
        base = GaussianMeasure([1.0, -2.0], [[1.5, 0.4], [0.4, 0.8]])
        draws = sample(tilt(base, np.zeros(2), 0.0), 10_000, rng(7))
        tol = 4.0 * math.sqrt(np.linalg.norm(base.cov, 2)) / math.sqrt(10_000)
        assert np.all(np.abs(draws.mean(axis=0) - base.mean) < tol)

    def test_tilted_gaussian_sample_moments(self):
        draws = sample(tilt(std_normal(), [1.0], 1.0), 100_000, rng(11))[:, 0]
        assert abs(draws.mean() - 0.5) < 4.0 * draws.std() / math.sqrt(draws.size)
        assert draws.var() == pytest.approx(0.5, abs=0.02)

    def test_generic_rejection_matches_exact_sampler(self):
        from sloc.diagnostics import ks_two_sample

        pot = gaussian_potential(dim=1)
        a = sample(tilt(pot, [0.0], 0.0), 1000, rng(5))[:, 0]
        b = sample_base(std_normal(), 1000, rng(17))[:, 0]
        assert ks_two_sample(a, b).p_value > 0.01

    def test_rejection_budget_exhaustion_reports_rate(self, monkeypatch):
        from sloc.targets import SamplingBudgetError

        pot = quartic_potential(dim=1)
        monkeypatch.setattr(targets, "DEFAULT_MAX_TRIES", 1)
        with pytest.raises(SamplingBudgetError) as err:
            sample(tilt(pot, [6.0], 1.0), 50, rng(2))
        assert 0.0 <= err.value.acceptance_rate < 1.0

    def test_generic_rejection_needs_positive_curvature(self):
        flat = GenericPotential(
            dim=1,
            potential=lambda x: float(np.log(np.cosh(x[0]))),
            gradient=lambda x: np.tanh(x),
            strong_convexity=0.0,
            smoothness=1.0,
        )
        with pytest.raises(ValueError, match="alpha"):
            sample(tilt(flat, [0.0], 0.0), 1, rng(0))

    def test_batch_tilted_sampler_matches_per_measure_law(self):
        from sloc.diagnostics import ks_two_sample

        base = two_mixture()
        cs = np.full((4000, 1), 0.5)
        batch = targets.sample_tilted_batch(base, cs, 0.7, rng(19))[:, 0]
        direct = sample(tilt(base, [0.5], 0.7), 4000, rng(23))[:, 0]
        assert ks_two_sample(batch, direct).p_value > 0.01


def _quartic_pair():
    """The same quartic well as a one-point-only pair and as a batch-capable pair."""

    def value_point(x):
        return 0.5 * float(x @ x) + 0.1 * float(np.sum(x**4))

    def grad_point(x):
        return np.asarray(x + 0.4 * x**3).reshape(1)

    def value_rows(x):
        return 0.5 * np.sum(x * x, axis=-1) + 0.1 * np.sum(x**4, axis=-1)

    def grad_rows(x):
        return x + 0.4 * x**3

    return (
        GenericPotential(1, value_point, grad_point, 1.0, 40.0),
        GenericPotential(1, value_rows, grad_rows, 1.0, 40.0),
    )


class TestBatchedGeneric:
    def test_probe_keeps_batch_callables_and_wraps_the_rest(self):
        point, rows = _quartic_pair()
        assert rows.potential_rows is rows.potential and rows.gradient_rows is rows.gradient
        assert point.potential_rows is not point.potential
        assert point.gradient_rows is not point.gradient
        xs = np.linspace(-2.0, 2.0, 7)[:, None]
        assert point.potential_rows(xs).shape == (7,)
        assert point.gradient_rows(xs).shape == (7, 1)
        assert np.array_equal(point.potential_rows(xs), rows.potential_rows(xs))
        assert np.array_equal(point.gradient_rows(xs), rows.gradient_rows(xs))
        for pot in (quartic_potential(dim=3), gaussian_potential(dim=2, mean=0.5)):
            assert pot.potential_rows is pot.potential and pot.gradient_rows is pot.gradient

    def test_right_shape_with_wrong_values_is_wrapped(self):
        # On a stack this returns the stack's total in every row: the right
        # shape, the wrong values, so the probe must fall back to a row loop.
        pot = GenericPotential(
            1, lambda x: 0.5 * np.sum(x**2) + 0.0 * x[..., 0], lambda x: np.asarray(x, float), 1.0, 1.0
        )
        assert pot.potential_rows is not pot.potential
        xs = np.array([[1.0], [2.0]])
        assert np.array_equal(pot.potential_rows(xs), [0.5, 2.0])

    def test_row_loop_and_batch_give_bitwise_equal_draws_and_moments(self):
        point, rows = _quartic_pair()
        for c, t in ((0.7, 0.3), (-1.5, 2.0)):
            a, b = tilt(point, [c], t), tilt(rows, [c], t)
            assert sample(a, 300, rng(5)).tobytes() == sample(b, 300, rng(5)).tobytes()
            ma = posterior_moments(a, 500, rng=rng(6))
            mb = posterior_moments(b, 500, rng=rng(6))
            assert ma.mean.tobytes() == mb.mean.tobytes() and ma.cov.tobytes() == mb.cov.tobytes()
            assert ma.stderr == mb.stderr
        cs = np.linspace(-2.0, 2.0, 50)[:, None]
        assert (
            targets.sample_tilted_batch(point, cs, 0.8, rng(7)).tobytes()
            == targets.sample_tilted_batch(rows, cs, 0.8, rng(7)).tobytes()
        )

    def test_batch_draws_follow_each_rows_tilt(self):
        # One draw per row from tilt(N(0, 1), c_i, t) is N(c_i / (1 + t), 1 / (1 + t)).
        pot = gaussian_potential(dim=1)
        cs = np.linspace(-3.0, 3.0, 4000)[:, None]
        draws = targets.sample_tilted_batch(pot, cs, 0.5, rng(8))
        z = (draws[:, 0] - cs[:, 0] / 1.5) * math.sqrt(1.5)
        assert abs(z.mean()) <= 4.0 / math.sqrt(z.size)
        assert z.var() == pytest.approx(1.0, abs=0.1)
        with pytest.raises(ValueError, match="dimension"):
            targets.sample_tilted_batch(pot, np.zeros((3, 2)), 0.5, rng(8))

    @pytest.mark.parametrize("route", ["sample", "batch"])
    def test_rounds_exhausting_max_tries_report_their_counts(self, route, monkeypatch):
        from sloc.targets import SamplingBudgetError

        # The envelope's precision 1 + t is far below the well's 100, so most
        # proposals are rejected.
        steep = GenericPotential(
            1, lambda x: 50.0 * np.sum(x * x, axis=-1), lambda x: 100.0 * x, 1.0, 100.0
        )
        n = 40

        def draw(max_tries):
            monkeypatch.setattr(targets, "DEFAULT_MAX_TRIES", max_tries)
            if route == "sample":
                return sample(tilt(steep, [0.0], 0.0), n, rng(2))
            return targets.sample_tilted_batch(steep, np.zeros((n, 1)), 0.0, rng(2))

        errs = []
        for max_tries in (1, 2):
            with pytest.raises(SamplingBudgetError) as err:
                draw(max_tries)
            errs.append(err.value)
        # The first round is the same in both runs, so the second run's extra
        # tries are exactly the rows the first round left pending.
        assert errs[0].tries == n and 0 < errs[0].accepted < n
        assert errs[1].tries == n + (n - errs[0].accepted)
        assert errs[0].accepted < errs[1].accepted < n
        assert errs[1].acceptance_rate == errs[1].accepted / errs[1].tries
        assert draw(10_000).shape == (n, 1)


def _counting_quartic() -> tuple[GenericPotential, list[int]]:
    """The builtin quartic well, with a running count of the gradient rows it evaluates."""
    well, calls = quartic_potential(dim=1), [0]

    def gradient(x):
        calls[0] += np.atleast_2d(x).shape[0]
        return well.gradient(x)

    pot = GenericPotential(1, well.potential, gradient, strong_convexity=1.0, smoothness=40.0)
    calls[0] = 0
    return pot, calls


def _mode_search_tilts() -> dict[float, np.ndarray]:
    """400 quartic tilts, 100 at each regularizer: the tilt run's t in [0, 1],
    direct draws at t <= 0.3, and chains at 1 / eta for eta in [0.5, 1]."""
    g = rng(14)
    return {t: 3.0 * g.standard_normal((100, 1)) + 2.0 * t for t in (0.0, 0.3, 1.0, 2.0)}


def _kinked_potential(kink: float) -> GenericPotential:
    """``z^2 / 2`` left of ``z = x - kink = 0`` and ``40 z^2 / 2`` right of it:
    the curvature jumps from ``g = 1`` to ``L = 40`` at the kink."""

    def gradient(x):
        z = np.asarray(x, dtype=float) - kink
        return np.where(z < 0.0, 1.0, 40.0) * z

    def potential(x):
        z = np.asarray(x, dtype=float) - kink
        return np.sum(0.5 * np.where(z < 0.0, 1.0, 40.0) * z * z, axis=-1)

    return GenericPotential(1, potential, gradient, strong_convexity=1.0, smoothness=40.0)


def _search_cases() -> list:
    """``(potential, t, tilts)``: the quartic at ``_mode_search_tilts()``, the
    d = 3 quartic at 100 tilts per regularizer, and curvature jumps: at
    ``x = -1`` and ``x = 1`` with tilts 30 to 300 away, where the searches
    from 0 cross the jump, from the stiff half into the soft one or back, and
    at ``x = 20`` with tilts in (0, 3], which put the mode just past the jump
    from the soft side: there two-point steps alone stall at the cap."""
    well, g = quartic_potential(dim=1), rng(24)
    cases = [pytest.param(well, t, cs, id=f"quartic-t{t:g}") for t, cs in _mode_search_tilts().items()]
    cases += [pytest.param(quartic_potential(dim=3), t, 3.0 * g.standard_normal((100, 3)), id=f"quartic-d3-t{t:g}")
              for t in (0.0, 1.0)]
    far = np.array([[-300.0], [-100.0], [-30.0], [30.0], [100.0], [300.0]])
    cases += [pytest.param(_kinked_potential(kink), 0.0, far, id=f"kinked-at-{kink:g}") for kink in (-1.0, 1.0)]
    cases += [pytest.param(_kinked_potential(20.0), 0.0, np.linspace(0.1, 3.0, 30)[:, None], id="kinked-at-20")]
    return cases


class TestModeSearch:
    @pytest.mark.parametrize("pot, t, cs", _search_cases())
    def test_every_row_ends_within_the_tolerance_single_and_batched(self, pot, t, cs):
        batched = targets._generic_envelope(tilt(pot, np.zeros(pot.dim), t), cs)
        assert np.all(np.linalg.norm(batched.g_hat, axis=1) <= targets.MODE_SEARCH_TOL)
        for k, c in enumerate(cs):
            single = targets._generic_envelope(tilt(pot, c, t))
            assert np.linalg.norm(single.g_hat) <= targets.MODE_SEARCH_TOL
            # Row independence: each batched row is its single-tilt envelope, bit for bit.
            for got, want in zip(batched[1:4] + batched[5:], single[1:4] + single[5:]):
                assert got[k].tobytes() == want[0].tobytes()

    @pytest.mark.parametrize("kink, c", [(1.0, 100.0), (20.0, 1.0)], ids=["far-tilt", "mode-past-the-jump"])
    def test_a_curvature_jump_keeps_the_envelope_finite_and_the_draws_exact(self, kink, c):
        from scipy import stats

        pot = _kinked_potential(kink)
        m = tilt(pot, [c], 0.0)
        env = targets._generic_envelope(m)
        assert all(np.all(np.isfinite(a)) for a in (env.x_hat, env.u_hat, env.g_hat, env.center))
        xs = np.linspace(env.x_hat[0, 0] - 12.0, env.x_hat[0, 0] + 12.0, 200_001)
        log_p = c * xs - pot.potential_rows(xs[:, None])
        cdf = np.cumsum(np.exp(log_p - log_p.max()))
        draws = sample(m, 4000, rng(25))[:, 0]
        assert stats.kstest(draws, lambda x: np.interp(x, xs, cdf / cdf[-1])).pvalue > 0.01

    def test_accelerated_search_ends_nearer_the_mode_than_200_plain_steps(self):
        # Worst |grad U(x_hat)| over all tilts: the mode search stops every row
        # at MODE_SEARCH_TOL, and the weak tilts leave 200 plain steps at 1.3e-3.
        well = quartic_potential(dim=1)
        plain, single, batched = [], [], []
        for t, cs in _mode_search_tilts().items():
            x = np.zeros(cs.shape)
            for _ in range(200):
                x = x - targets._tilted_gradient(well, cs, t, x) / (well.smoothness + t)
            plain.append(np.abs(targets._tilted_gradient(well, cs, t, x)).max())
            batched.append(np.abs(targets._generic_envelope(tilt(well, [0.0], t), cs).g_hat).max())
            single.append(max(np.abs(targets._generic_envelope(tilt(well, c, t)).g_hat).max() for c in cs))
        assert max(batched) <= max(plain)
        assert max(single) <= max(plain)

    @pytest.mark.parametrize("k", [1, 400])
    def test_each_envelope_makes_at_most_steps_plus_one_gradient_rows(self, k):
        pot, calls = _counting_quartic()
        cs = 3.0 * rng(15).standard_normal((k, 1))
        targets._generic_envelope(tilt(pot, [0.0], 0.5), cs)
        assert calls[0] <= k * (targets.MODE_SEARCH_STEPS + 1)
        calls[0] = 0
        sample(tilt(pot, cs[0], 0.5), 200, rng(16))
        assert calls[0] <= targets.MODE_SEARCH_STEPS + 1


@pytest.mark.parametrize("key", [targets._GRAD_PROBE_SEED, targets._DEFAULT_IS_SEED, polchinski._MC_KEY])
def test_fixed_keys_draw_bitwise_as_philox_keyed_directly(key):
    want = np.random.Generator(np.random.Philox(key=key)).standard_normal(64)
    seeded = np.random.Generator(np.random.Philox(sde._PhiloxKey(key, 0))).standard_normal(64)
    assert seeded.tobytes() == want.tobytes()
    assert sde.generator(key, 0).standard_normal(64).tobytes() == want.tobytes()


class TestInvariants:
    def test_posterior_covariance_identity(self):
        g = np.random.default_rng(1)
        for _ in range(20):
            d = int(g.integers(1, 4))
            a = g.standard_normal((d, d))
            cov = a @ a.T + 0.3 * np.eye(d)
            t = float(g.uniform(0.0, 3.0))
            base = GaussianMeasure(g.standard_normal(d), cov)
            mom = posterior_moments(tilt(base, g.standard_normal(d), t))
            expected = np.linalg.inv(np.linalg.inv(cov) + t * np.eye(d))
            assert np.abs(mom.cov - expected).max() <= 1e-10

    def test_mean_derivative_is_covariance(self):
        # d mean / d c = posterior covariance, by central differences at h = 1e-5.
        mix = GaussianMixture.from_components(
            [(0.5, [-1.0, 0.2], 0.9 * np.eye(2)), (0.5, [1.0, -0.4], 1.1 * np.eye(2))]
        )
        c = np.array([0.3, -0.2])
        t = 1.0
        mom = posterior_moments(tilt(mix, c, t))
        h = 1e-5
        jac = np.empty((2, 2))
        for k in range(2):
            e = np.zeros(2)
            e[k] = h
            hi = posterior_moments(tilt(mix, c + e, t)).mean
            lo = posterior_moments(tilt(mix, c - e, t)).mean
            jac[:, k] = (hi - lo) / (2.0 * h)
        assert np.abs(jac - mom.cov).max() < 1e-4

    def test_entropic_stability_gaussian_closed_form(self):
        g = np.random.default_rng(2)
        a = g.standard_normal((3, 3))
        sigma = a @ a.T + 0.3 * np.eye(3)
        alpha = float(np.linalg.eigvalsh(sigma).max())
        base = GaussianMeasure(np.zeros(3), sigma)
        for _ in range(100):
            y = g.standard_normal(3)
            tilted = tilt(base, y, 0.0)
            b_y = posterior_moments(tilted).mean
            kl = float(y @ b_y) - log_partition(tilted)
            lhs = 0.5 * float(np.sum(b_y**2))
            assert lhs <= alpha * kl + 1e-10
        top = np.linalg.eigh(sigma)[1][:, -1]
        tilted = tilt(base, top, 0.0)
        b_y = posterior_moments(tilted).mean
        kl = float(top @ b_y) - log_partition(tilted)
        assert 0.5 * float(np.sum(b_y**2)) == pytest.approx(alpha * kl, abs=1e-10)


@settings(max_examples=40, deadline=None)
@given(
    c=st.floats(-3.0, 3.0),
    t=st.floats(0.0, 5.0),
    mean=st.floats(-2.0, 2.0),
    var=st.floats(0.2, 3.0),
)
def test_scalar_and_matrix_reg_agree(c, t, mean, var):
    base = GaussianMeasure([mean], [[var]])
    scalar = posterior_moments(tilt(base, [c], t))
    matrix = posterior_moments(tilt(base, [c], t * np.eye(1)))
    assert scalar.mean[0] == pytest.approx(matrix.mean[0], abs=1e-14)
    assert scalar.cov[0, 0] == pytest.approx(matrix.cov[0, 0], abs=1e-14)
    assert log_partition(tilt(base, [c], t)) == pytest.approx(
        log_partition(tilt(base, [c], t * np.eye(1))), abs=1e-12
    )


def solve_reference(base: GaussianMixture, c: np.ndarray, reg):
    """Posterior weights (n, J), component means (J, n, d), component
    covariances (J, d, d) and log-partitions (n,) of the tilts
    ``tilt(base, c_i, reg)``, for a scalar or matrix ``reg``, by
    ``np.linalg.solve`` and ``slogdet`` per component."""
    eye = np.eye(base.dim)
    r = reg * eye if np.ndim(reg) == 0 else np.asarray(reg)
    means, covs, log_w = [], [], []
    for w, mu, cov in zip(base.weights, base.means, base.covs):
        prec = np.linalg.inv(cov)
        b = c + prec @ mu
        m = np.linalg.solve(prec + r, b.T).T
        logdet = np.linalg.slogdet(eye + r @ cov)[1]
        means.append(m)
        covs.append(np.linalg.solve(prec + r, eye))
        log_w.append(math.log(w) + 0.5 * np.sum(b * m, axis=1) - 0.5 * mu @ prec @ mu - 0.5 * logdet)
    log_w = np.stack(log_w, axis=1)
    top = log_w.max(axis=1, keepdims=True)
    w = np.exp(log_w - top)
    total = w.sum(axis=1, keepdims=True)
    return w / total, np.stack(means), np.stack(covs), (top + np.log(total))[:, 0]


@settings(max_examples=60, deadline=None)
@given(
    d=st.integers(1, 3),
    j=st.integers(1, 3),
    t=st.sampled_from([0.0, 1e-3, 1.0, 1e6, 1e12]),
    seed=st.integers(0, 2**32 - 1),
)
def test_plan_kernel_matches_solve_reference(d, j, t, seed):
    g = np.random.default_rng(seed)
    a = g.standard_normal((j, d, d))
    w = g.uniform(0.2, 1.0, j)
    w /= w.sum()
    w[-1] = 1.0 - w[:-1].sum()
    base = GaussianMixture(w, 2.0 * g.standard_normal((j, d)), a @ a.transpose(0, 2, 1) + 0.2 * np.eye(d))
    c = 3.0 * g.standard_normal((50, d))
    r = g.standard_normal((d, d))
    mat = r @ r.T
    for reg, step in ((t, targets.tilt_plan(base, [0.5, t])(1)), (mat, targets.tilt_plan(base, mat[None])(0))):
        assert np.array_equal(step.reg, reg)
        means, weights = step.posterior(c)
        ref_w, ref_means, _, _ = solve_reference(base, c, reg)
        scale = np.abs(ref_means).max()
        assert np.abs(means.transpose(0, 2, 1) - ref_means).max() <= 1e-10 * scale
        ref_mean = np.einsum("nj,jnd->nd", ref_w, ref_means)
        assert np.abs(targets.posterior_mean_batch(base, c, step) - ref_mean).max() <= 1e-10 * scale
        if j > 1:
            assert np.all(np.isfinite(weights))
            assert np.abs(weights.sum(axis=0) - 1.0).max() <= 1e-12
            assert np.abs(weights.T - ref_w).max() <= 1e-10
        # The n = 1 closed forms read the same kernel.  Rows scaled by the
        # regularizer keep the posterior means of order one as the covariances
        # shrink, so a covariance formed as a difference of second moments fails.
        rows = c[:3] * max(1.0, float(np.max(reg)))
        ref_w, ref_means, ref_covs, ref_log_z = solve_reference(base, rows, reg)
        ref_mean = np.einsum("nj,jnd->nd", ref_w, ref_means)
        for i, row in enumerate(rows):
            m = tilt(base, row, reg)
            mom = posterior_moments(m)
            spread = ref_means[:, i] - ref_mean[i]
            ref_cov = np.einsum("j,jab->ab", ref_w[i], ref_covs + spread[:, :, None] * spread[:, None, :])
            assert np.abs(mom.mean - ref_mean[i]).max() <= 1e-10 * np.abs(ref_means).max()
            assert np.abs(mom.cov - ref_cov).max() <= 1e-10 * np.abs(ref_cov).max()
            assert abs(log_partition(m) - ref_log_z[i]) <= 1e-10 * max(1.0, abs(ref_log_z[i]))


def elementwise_kernel(step, tilts: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Component means ``(J, d, n)``, weights ``(J, n)``, mean rows ``(n, d)``
    and log-partitions ``(n,)`` of ``step`` at the rows of ``tilts``, written
    out one component and coordinate at a time in the kernel's fixed order:
    means ``c_0 inv_0 + offset``, then ``+ c_e inv_e``; log-masses
    ``sum_e (c_e + shift_e) m_e``, halved, plus ``const``; the softmax shift
    by the componentwise maximum, ``exp``, the sum over components in order
    and the product with ``1 / sum``; the mean ``sum_j w_j m_j`` in order."""
    inv, offset, shift, const = step.inv[..., 0], step.offset[..., 0], step.shift[..., 0], step.const[..., 0]
    (n_comp, d), ct = offset.shape, np.ascontiguousarray(tilts.T)
    means = np.empty((n_comp, d, ct.shape[1]))
    log_w = np.empty((n_comp, ct.shape[1]))
    for j in range(n_comp):
        for a in range(d):
            means[j, a] = ct[0] * inv[j, a, 0] + offset[j, a]
            for e in range(1, d):
                means[j, a] = means[j, a] + ct[e] * inv[j, a, e]
        mass = (ct[0] + shift[j, 0]) * means[j, 0]
        for e in range(1, d):
            mass = mass + (ct[e] + shift[j, e]) * means[j, e]
        log_w[j] = 0.5 * mass + const[j]
    top = log_w[0]
    for j in range(1, n_comp):
        top = np.maximum(top, log_w[j])
    e = np.exp(log_w - top)
    total = e[0]
    for j in range(1, n_comp):
        total = total + e[j]
    w = e * (1.0 / total)
    mean = w[0] * means[0]
    for j in range(1, n_comp):
        mean = mean + w[j] * means[j]
    return means, w, mean.T, top + np.log(total)


def _kernel_case(n_comp: int, d: int, matrix: bool):
    g = np.random.default_rng(100 * n_comp + 10 * d + matrix)
    a = g.standard_normal((n_comp, d, d))
    weights = g.uniform(0.2, 1.0, n_comp)
    base = GaussianMixture(weights / weights.sum(), 2.0 * g.standard_normal((n_comp, d)),
                           a @ a.transpose(0, 2, 1) + 0.3 * np.eye(d))
    r = g.standard_normal((d, d))
    regs = [0.2 * np.eye(d), r @ r.T + 0.1 * np.eye(d)] if matrix else [0.2, 0.7]
    return base, targets.tilt_plan(base, regs)(1), g


@pytest.mark.parametrize("matrix", [False, True], ids=["scalar", "matrix"])
@pytest.mark.parametrize("d", [1, 3])
@pytest.mark.parametrize("n_comp", [1, 2, 3])
def test_tilt_kernel_is_bitwise_its_elementwise_order(n_comp, d, matrix):
    # Tolerance tests would pass a reordered sum; this one fixes every bit.
    base, step, g = _kernel_case(n_comp, d, matrix)
    for n in (1, 7, 1000):
        rows = 3.0 * g.standard_normal((n, d))
        ref_means, ref_w, ref_mean, ref_log_z = elementwise_kernel(step, rows)
        # Callers pass rows; the stepping engine passes the row view of its columns.
        for tilts in (rows, np.ascontiguousarray(rows.T).T):
            means, w = step.posterior(tilts)
            assert means.tobytes() == ref_means.tobytes()
            assert w is None if n_comp == 1 else w.tobytes() == ref_w.tobytes()
            assert targets.posterior_mean_batch(base, tilts, step).tobytes() == ref_mean.tobytes()
            mean, log_z = step.mean_and_log_partition(tilts)
            assert mean.tobytes() == ref_mean.tobytes() and log_z.tobytes() == ref_log_z.tobytes()


def test_scalar_regularizers_reach_no_inverse_or_determinant(monkeypatch):
    # Scalars, and matrices equal to t I, read the cached eigenbasis only.
    def banned(*args, **kwargs):
        raise AssertionError("inv, solve or slogdet reached by a scalar regularizer")

    bases = [
        GaussianMeasure([0.3], [[1.7]]),
        two_mixture(),
        GaussianMixture.from_components(
            [(0.3, [0.0, 1.0], [[1.0, 0.4], [0.4, 0.7]]), (0.7, [1.0, -1.0], np.eye(2))]
        ),
    ]
    for name in ("inv", "solve", "slogdet"):
        monkeypatch.setattr(np.linalg, name, banned)
    for base in bases:
        d = base.dim
        for reg in (0.7, 0.7 * np.eye(d)):
            m = tilt(base, np.full(d, 0.4), reg)
            posterior_moments(m)
            log_partition(m)
            sample(m, 3, rng(0))
        targets.sample_tilted_batch(base, np.zeros((2, d)), 0.7, rng(1))
        targets.posterior_mean_batch(base, np.zeros((2, d)), targets.tilt_plan(base, [0.0, 0.5])(1))
        targets.posterior_mean_batch(base, np.zeros((2, d)), targets.tilt_plan(base, [0.5 * np.eye(d)])(0))


def test_matrices_equal_to_t_identity_take_the_scalar_formula():
    base = GaussianMixture.from_components(
        [(0.4, [-1.0, 0.5], [[1.0, 0.3], [0.3, 0.8]]), (0.6, [1.2, -0.3], [[0.6, -0.1], [-0.1, 1.5]])]
    )
    eye = np.eye(2)
    mats = targets.tilt_plan(base, [0.5 * eye, [[1.0, 0.2], [0.2, 0.4]], 0.7 * eye])
    scalars = targets.tilt_plan(base, [0.5, 0.7])
    for k, j in ((0, 0), (2, 1)):
        for name in ("inv", "offset", "const"):
            assert np.array_equal(getattr(mats(k), name), getattr(scalars(j), name))
    a, b = tilt(base, [0.3, -1.1], 0.5 * eye), tilt(base, [0.3, -1.1], 0.5)
    assert np.array_equal(posterior_moments(a).mean, posterior_moments(b).mean)
    assert np.array_equal(posterior_moments(a).cov, posterior_moments(b).cov)
    assert log_partition(a) == log_partition(b)


def test_plan_rejects_bad_regularizers_and_bases():
    with pytest.raises(ValueError, match="nonnegative"):
        targets.tilt_plan(std_normal(), [0.5, -1.0])
    with pytest.raises(TypeError, match="Gaussian or mixture"):
        targets.tilt_plan(quartic_potential(dim=1), [0.5])
    with pytest.raises(ValueError, match="columns"):
        targets.posterior_mean_batch(std_normal(), np.zeros((4, 2)), targets.tilt_plan(std_normal(), [0.5])(0))


# One closed-form path: a d = 1 Gaussian, the +-1 mixture and a d = 3 two-component mixture.
_CLOSED_FORM_BASES = {
    "gauss-d1": GaussianMeasure([0.3], [[1.7]]),
    "mix-pm1": GaussianMixture.from_components([(0.5, [-1.0], [[1.0]]), (0.5, [1.0], [[1.0]])]),
    "mix-d3": GaussianMixture.from_components(
        [
            (0.3, [0.0, 1.0, -0.5], [[1.0, 0.4, 0.0], [0.4, 0.7, 0.1], [0.0, 0.1, 1.2]]),
            (0.7, [1.0, -1.0, 0.2], np.eye(3)),
        ]
    ),
}


def _tilt_vector(base):
    return np.linspace(-0.8, 0.6, base.dim)


@pytest.mark.parametrize("n", [1, 5])
@pytest.mark.parametrize("name", sorted(_CLOSED_FORM_BASES))
def test_sample_is_the_tilted_sampler_bitwise(name, n):
    base, t = _CLOSED_FORM_BASES[name], 0.7
    c = _tilt_vector(base)
    direct = sample(tilt(base, c, t), n, rng(3))
    batch = targets.tilted_sampler(base, t)(np.repeat(c[None], n, 0), rng(3))
    assert direct.shape == (n, base.dim)
    assert direct.tobytes() == batch.tobytes()


@pytest.mark.parametrize("n", [1, 5])
def test_gaussian_base_draws_are_mean_plus_cholesky_noise(n):
    gauss_d3 = GaussianMeasure([1.0, -2.0, 0.5], [[1.5, 0.4, 0.0], [0.4, 0.8, 0.1], [0.0, 0.1, 2.0]])
    for base in (_CLOSED_FORM_BASES["gauss-d1"], gauss_d3):
        expected = base.mean + rng(9).standard_normal((n, base.dim)) @ np.linalg.cholesky(base.cov).T
        assert sample_base(base, n, rng(9)).tobytes() == expected.tobytes()


@pytest.mark.parametrize("name", sorted(_CLOSED_FORM_BASES))
def test_tilted_measure_reads_the_one_row_plan_step(name):
    base, t = _CLOSED_FORM_BASES[name], 0.7
    c = _tilt_vector(base)
    w, means, covs, log_z = tilt(base, c, t)._closed_form
    step = targets.tilt_plan(base, [t])(0)
    plan_means, plan_w = step.posterior(c[None])
    assert np.array_equal(means, plan_means[..., 0])
    assert np.array_equal(w, np.ones(1) if plan_w is None else plan_w[:, 0])
    assert np.array_equal(covs, step.inv[..., 0])
    assert log_z == step.mean_and_log_partition(c[None])[1][0]


@pytest.mark.parametrize("name", sorted(_CLOSED_FORM_BASES))
def test_a_matrix_regularizer_is_checked_once_per_measure(name, monkeypatch):
    base = _CLOSED_FORM_BASES[name]
    c, reg = _tilt_vector(base), 0.5 * np.eye(base.dim) + 0.1
    calls = []
    check = targets._check_spd

    def counted(mat, label, **kwargs):
        calls.append(label)
        return check(mat, label, **kwargs)

    monkeypatch.setattr(targets, "_check_spd", counted)
    m = tilt(base, c, reg)
    posterior_moments(m)
    assert calls == ["regularizer"]
    step = targets.tilt_plan(base, [reg])(0)
    means, log_z, w = step._components(c[None])
    for got, want in zip(m._closed_form, (w[:, 0], means[..., 0], step.inv[..., 0], log_z[0])):
        assert np.array_equal(got, want)


class TestJson:
    def test_gaussian_roundtrip(self):
        t = target_from_json({"kind": "gaussian", "mean": [0.5], "cov": [[2.0]]})
        assert isinstance(t, GaussianMeasure)
        assert t.mean[0] == 0.5

    def test_mixture(self):
        t = target_from_json(
            {
                "kind": "mixture",
                "components": [
                    {"weight": 0.5, "mean": [-1.0], "cov": [[1.0]]},
                    {"weight": 0.5, "mean": [1.0], "cov": [[1.0]]},
                ],
            }
        )
        assert isinstance(t, GaussianMixture)
        assert t.weights.size == 2

    def test_potential_ref(self):
        t = target_from_json({"kind": "potential-ref", "name": "quartic", "quartic": 0.1})
        assert isinstance(t, GenericPotential)

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown target kind"):
            target_from_json({"kind": "dirac"})

    def test_unknown_potential(self):
        with pytest.raises(ValueError, match="unknown potential"):
            target_from_json({"kind": "potential-ref", "name": "nope"})


def test_a_gaussian_base_mixture_equals_the_checked_one():
    mean, cov = np.array([0.5, -1.0]), np.array([[1.5, 0.3], [0.3, 0.8]])
    base = GaussianMeasure(mean, cov)
    checked = GaussianMixture(np.ones(1), mean[None], cov[None])
    assert isinstance(base, GaussianMixture)
    for name in [f.name for f in dataclasses.fields(checked)] + ["mean", "cov", "dim"]:
        got, want = np.asarray(getattr(base, name)), np.asarray(getattr(checked, name))
        assert got.tobytes() == want.tobytes() and got.shape == want.shape
    # One component's moments are that component, bit for bit, and read-only.
    assert base.mean.tobytes() == mean.tobytes() and base.cov.tobytes() == cov.tobytes()
    assert not (base.mean.flags.writeable or base.cov.flags.writeable or base.precision.flags.writeable)
    assert base.precision.tobytes() == np.linalg.solve(cov, np.eye(2)).tobytes()
    xs = np.random.default_rng(5).standard_normal((7, 2))
    assert base.log_density(xs).tobytes() == checked.log_density(xs).tobytes()
