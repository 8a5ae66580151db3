import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sloc import targets
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
    unnormalized_log_density,
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
    def test_identity_tilt_matches_base_pointwise(self):
        base = two_mixture()
        m = tilt(base, [0.0], 0.0)
        xs = np.linspace(-4.0, 4.0, 9)[:, None]
        assert np.allclose(unnormalized_log_density(m, xs), base.log_density(xs))

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
            posterior_moments(tilt(pot, [0.0], 0.0), budget=4, rng=rng(0), ess_floor=64.0)


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

    def test_rejection_budget_exhaustion_reports_rate(self):
        from sloc.targets import SamplingBudgetError

        pot = quartic_potential(dim=1)
        with pytest.raises(SamplingBudgetError) as err:
            sample(tilt(pot, [6.0], 1.0), 50, rng(2), max_tries=1)
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


def solve_reference(base: GaussianMixture, c: np.ndarray, t: float):
    """Posterior weights (n, J) and component means (J, n, d) of the tilts
    ``tilt(base, c_i, t)``, one ``np.linalg.solve`` per component."""
    eye = np.eye(base.dim)
    means, log_w = [], []
    for w, mu, cov in zip(base.weights, base.means, base.covs):
        prec = np.linalg.inv(cov)
        b = c + prec @ mu
        m = np.linalg.solve(prec + t * eye, b.T).T
        logdet = np.linalg.slogdet(eye + t * cov)[1]
        means.append(m)
        log_w.append(math.log(w) + 0.5 * np.sum(b * m, axis=1) - 0.5 * mu @ prec @ mu - 0.5 * logdet)
    log_w = np.stack(log_w, axis=1)
    w = np.exp(log_w - log_w.max(axis=1, keepdims=True))
    return w / w.sum(axis=1, keepdims=True), np.stack(means)


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
    step = targets.tilt_plan(base, [0.5, t])(1)
    assert step.reg == t
    means, weights = step.posterior(c)
    ref_w, ref_means = solve_reference(base, c, t)
    scale = np.abs(ref_means).max()
    assert np.abs(means.transpose(0, 2, 1) - ref_means).max() <= 1e-10 * scale
    ref_mean = np.einsum("nj,jnd->nd", ref_w, ref_means)
    assert np.abs(targets.posterior_mean_batch(base, c, step) - ref_mean).max() <= 1e-10 * scale
    if j > 1:
        assert np.all(np.isfinite(weights))
        assert np.abs(weights.sum(axis=0) - 1.0).max() <= 1e-12
        assert np.abs(weights.T - ref_w).max() <= 1e-10


def test_plan_rejects_bad_regularizers_and_bases():
    with pytest.raises(ValueError, match="nonnegative"):
        targets.tilt_plan(std_normal(), [0.5, -1.0])
    with pytest.raises(TypeError, match="Gaussian or mixture"):
        targets.tilt_plan(quartic_potential(dim=1), [0.5])
    with pytest.raises(ValueError, match="columns"):
        targets.posterior_mean_batch(std_normal(), np.zeros((4, 2)), 0.5)


@settings(max_examples=25, deadline=None)
@given(st.floats(-2.0, 2.0), st.floats(0.3, 2.0))
def test_identity_tilt_is_pointwise_identity(mean, var):
    base = GaussianMeasure([mean], [[var]])
    m = tilt(base, [0.0], 0.0)
    xs = np.linspace(-3.0, 3.0, 7)[:, None]
    assert np.allclose(unnormalized_log_density(m, xs), base.log_density(xs), atol=1e-12)


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
        assert t.n_components == 2

    def test_potential_ref(self):
        t = target_from_json({"kind": "potential-ref", "name": "quartic", "quartic": 0.1})
        assert isinstance(t, GenericPotential)

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown target kind"):
            target_from_json({"kind": "dirac"})

    def test_unknown_potential(self):
        with pytest.raises(ValueError, match="unknown potential"):
            target_from_json({"kind": "potential-ref", "name": "nope"})
