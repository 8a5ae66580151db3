import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sloc import rgd, sde, targets
from sloc.diagnostics import gaussian_kl, ks_two_sample
from sloc.rgd import (
    ChainLaw,
    RgdConfig,
    StabilityReport,
    chain_law_propagate,
    channel_transition_batch,
    entropic_stability_probe,
    heat_flow_contraction_mc,
    lsi_lower_bound,
    rgd_chain,
    rgd_step,
    rgd_transition_batch,
    write_chain_csv,
)
from sloc.targets import (
    GaussianMeasure,
    GaussianMixture,
    gaussian_potential,
    quartic_potential,
    sample,
    tilt,
)

from oracles import (
    dense_transition_density,
    gaussian_pdf,
    grid_1d,
    mixture_pdf,
    moment_check,
    quad_moments_1d,
    quad_raw_moments_1d,
    tilt_density_1d,
)


def std_normal():
    return GaussianMeasure([0.0], [[1.0]])


def sym_mixture():
    return GaussianMixture([0.5, 0.5], [[-1.0], [1.0]], [[[1.0]], [[1.0]]])


class TestRgdStep:
    def test_restricted_stage_law(self):
        # For target N(0,1) and eta = 1, the restricted stage given y is
        # N(y/2, 1/2); frozen from the quadrature oracle of
        # exp(-(x-y)^2/2 - x^2/2).
        y = 0.8
        xs = grid_1d()
        un = tilt_density_1d(gaussian_pdf(0.0, 1.0), y, 1.0, xs)
        mean_q, var_q, _ = quad_moments_1d(un, xs)
        assert mean_q == pytest.approx(y / 2.0, abs=1e-10)
        assert var_q == pytest.approx(0.5, abs=1e-9)
        draws = sample(tilt(std_normal(), [y], 1.0), 40_000, np.random.default_rng(0))[:, 0]
        assert abs(draws.mean() - y / 2.0) <= 4.0 * draws.std() / math.sqrt(draws.size)
        assert draws.var() == pytest.approx(0.5, abs=0.02)

    def test_chain_preserves_gaussian_target(self):
        target = GaussianMeasure([0.7], [[1.3]])
        laws, kls = chain_law_propagate(target, target, eta=0.8, n_steps=3)
        for law, kl in zip(laws, kls):
            assert np.abs(law.mean - target.mean).max() <= 1e-12
            assert np.abs(law.cov - target.cov).max() <= 1e-12
            assert kl <= 1e-12

    def test_small_step_moves_little(self):
        eta = 1e-6
        cfg = RgdConfig(eta, std_normal())
        rng = np.random.default_rng(1)
        moved = 0
        for _ in range(1000):
            x = rng.standard_normal(1)
            if np.linalg.norm(rgd_step(x, cfg, rng) - x) <= 1e-2:
                moved += 1
        assert moved >= 990

    def test_chain_shape(self):
        cfg = RgdConfig(1.0, std_normal(), steps=5)
        trace = rgd_chain(np.zeros(1), cfg, np.random.default_rng(2))
        assert trace.shape == (6, 1)

    def test_generic_target_inner_rejection(self):
        cfg = RgdConfig(1.0, gaussian_potential(dim=1))
        x = rgd_step(np.zeros(1), cfg, np.random.default_rng(3))
        assert np.isfinite(x).all()


def reference_chain(target, eta: float, steps: int, rng: np.random.Generator) -> np.ndarray:
    """The chain as a loop of fresh tilts: blur, then ``sample(tilt(pi, y / eta, 1 / eta), 1, rng)``."""
    x = np.zeros(target.dim)
    trace = [x]
    for _ in range(steps):
        y = x + math.sqrt(eta) * rng.standard_normal(x.size)
        x = sample(tilt(target, y / eta, 1.0 / eta), 1, rng)[0]
        trace.append(x)
    return np.array(trace)


def gauss_d3():
    a = np.random.default_rng(0).standard_normal((3, 3))
    return GaussianMeasure(np.zeros(3), a @ a.T + 0.25 * np.eye(3))


class TestPlannedChain:
    @pytest.mark.parametrize(
        "make, steps",
        [(sym_mixture, 2000), (gauss_d3, 2000), (lambda: quartic_potential(dim=1), 300)],
        ids=["mixture", "gauss-d3", "quartic"],
    )
    def test_chain_is_bitwise_the_loop_of_fresh_tilts(self, make, steps):
        target = make()
        cfg = RgdConfig(0.7, target, steps=steps)
        trace = rgd_chain(np.zeros(target.dim), cfg, sde.generator(5, 0, 21))
        assert np.array_equal(trace, reference_chain(target, 0.7, steps, sde.generator(5, 0, 21)))
        assert np.array_equal(rgd_step(np.zeros(target.dim), cfg, sde.generator(5, 0, 21)), trace[1])


class TestChainLaw:
    def test_mean_shift_ratio_is_exact_quarter(self):
        # Stage one sends N(a,1) to N(a,2); stage two gives mean a/2 and
        # variance 1, so KL halves twice: ratio (a/2)^2/a^2 = 1/4 exactly.
        _, kls = chain_law_propagate(GaussianMeasure([2.0], [[1.0]]), std_normal(), 1.0, 5)
        for k in range(len(kls) - 1):
            if kls[k] > 1e-10:
                assert abs(kls[k + 1] / kls[k] - 0.25) <= 1e-12

    def test_stationary_start_stays_at_zero_kl(self):
        target = std_normal()
        _, kls = chain_law_propagate(target, target, 1.0, 4)
        assert np.all(kls <= 1e-14)

    def test_variance_mismatch_beats_bound(self):
        for s2 in (0.5, 2.0, 10.0):
            _, kls = chain_law_propagate(GaussianMeasure([0.0], [[s2]]), std_normal(), 1.0, 5)
            for k in range(len(kls) - 1):
                if kls[k] > 1e-10:
                    assert kls[k + 1] / kls[k] <= 0.25 + 1e-12

    def test_anisotropic_contraction_bound(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            d = int(rng.integers(1, 4))
            a = rng.standard_normal((d, d))
            cov = a @ a.T + 0.4 * np.eye(d)
            target = GaussianMeasure(rng.standard_normal(d), cov)
            alpha = 1.0 / float(np.linalg.eigvalsh(cov).max())
            eta = float(rng.uniform(0.2, 2.0))
            init = GaussianMeasure(target.mean + rng.standard_normal(d), cov + 0.5 * np.eye(d))
            _, kls = chain_law_propagate(init, target, eta, 3)
            bound = 1.0 / (1.0 + alpha * eta) ** 2
            for k in range(len(kls) - 1):
                if kls[k] > 1e-10:
                    assert kls[k + 1] / kls[k] <= bound + 1e-12

    def test_chain_covariance_must_stay_spd(self):
        with pytest.raises(ValueError):
            ChainLaw([0.0], [[0.0]])

    def test_kls_are_those_of_checked_gaussians_without_building_one(self, monkeypatch):
        rng = np.random.default_rng(11)
        a = rng.standard_normal((3, 3))
        target = GaussianMeasure(rng.standard_normal(3), a @ a.T + 0.3 * np.eye(3))
        init = GaussianMeasure(rng.standard_normal(3), np.eye(3))
        real, built = GaussianMixture.__post_init__, []

        def counted(self):
            built.append(self)
            real(self)

        monkeypatch.setattr(GaussianMixture, "__post_init__", counted)
        laws, kls = chain_law_propagate(init, target, 0.7, 8)
        assert built == []
        monkeypatch.undo()
        for law, kl in zip(laws, kls, strict=True):
            assert kl == gaussian_kl(GaussianMeasure(law.mean, law.cov), target)
        with pytest.raises(ValueError, match="dimensions disagree"):
            gaussian_kl(ChainLaw([0.0], [[1.0]]), target)


class TestLsiBound:
    def test_point_value(self):
        assert lsi_lower_bound(1.0, 1.0) == 0.5

    def test_large_step_limit(self):
        assert lsi_lower_bound(1.0, 1e12) == pytest.approx(1.0, abs=1e-10)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            lsi_lower_bound(0.0, 1.0)


@settings(max_examples=100, deadline=None)
@given(st.floats(1e-3, 1e3), st.floats(1e-3, 1e3))
def test_per_step_factor_is_stronger_than_lsi_bound(alpha, eta):
    # 1 - alpha/(alpha + 1/eta) = 1/(1 + alpha eta) >= 1/(1 + alpha eta)^2.
    assert 1.0 - lsi_lower_bound(alpha, eta) >= 1.0 / (1.0 + alpha * eta) ** 2 - 1e-12


class TestEntropicStability:
    def test_gaussian_sharp_case(self):
        rng = np.random.default_rng(5)
        a = rng.standard_normal((3, 3))
        sigma = a @ a.T + 0.3 * np.eye(3)
        target = GaussianMeasure(np.zeros(3), sigma)
        eigvals, eigvecs = np.linalg.eigh(sigma)
        report = entropic_stability_probe(target, rng.standard_normal((100, 3)), float(eigvals[-1]))
        assert report.all_pass
        assert report.sharp_alpha == pytest.approx(float(eigvals[-1]), abs=1e-12)
        # Closed forms: lhs = |Sigma y|^2 / 2, rhs = alpha y'Sigma y / 2.
        y = report.probes[0]
        assert report.lhs[0] == pytest.approx(0.5 * float(np.sum((sigma @ y) ** 2)), abs=1e-8)
        assert report.rhs[0] == pytest.approx(
            0.5 * float(eigvals[-1]) * float(y @ sigma @ y), abs=1e-8
        )
        top = entropic_stability_probe(target, eigvecs[:, -1][None, :], float(eigvals[-1]))
        assert abs(top.lhs[0] - top.rhs[0]) <= 1e-10 * max(1.0, top.rhs[0])

    def test_zero_probe_gives_zero_sides(self):
        report = entropic_stability_probe(std_normal(), np.zeros((1, 1)), 1.0)
        assert report.lhs[0] == pytest.approx(0.0, abs=1e-15)
        assert report.rhs[0] == pytest.approx(0.0, abs=1e-15)

    def test_mixture_with_certified_bound(self):
        # Tilted covariance of N(+-a, 1) mixtures is at most 1 + a^2, so the
        # claim passes at that constant for every probe.
        a = 1.0
        mix = sym_mixture()
        rng = np.random.default_rng(6)
        report = entropic_stability_probe(mix, rng.standard_normal((100, 1)), 1.0 + a * a)
        assert report.all_pass
        assert report.sharp_alpha is None

    def test_report_serializes(self):
        report = entropic_stability_probe(std_normal(), np.array([[0.5]]), 1.0)
        assert isinstance(report, StabilityReport)
        assert '"all_pass": true' in report.to_json()

    def test_generic_target_rejected(self):
        with pytest.raises(TypeError):
            entropic_stability_probe(gaussian_potential(dim=1), np.zeros((1, 1)), 1.0)


class TestKernelIdentity:
    def test_two_routes_agree_in_law(self):
        x0 = np.array([0.3])
        for target in (std_normal(), sym_mixture()):
            cfg = RgdConfig(1.0, target)
            a = rgd_transition_batch(x0, cfg, 4000, np.random.default_rng(7))
            b = channel_transition_batch(x0, cfg, 4000, np.random.default_rng(8))
            assert ks_two_sample(a[:, 0], b[:, 0]).p_value > 0.01

    def test_single_step_matches_batched_law(self):
        cfg = RgdConfig(0.7, sym_mixture())
        rng = np.random.default_rng(9)
        singles = np.array([rgd_step(np.array([0.3]), cfg, rng)[0] for _ in range(2000)])
        batch = rgd_transition_batch(np.array([0.3]), cfg, 2000, np.random.default_rng(10))[:, 0]
        assert ks_two_sample(singles, batch).p_value > 0.01

    def test_generic_batch_matches_single_steps_in_law(self):
        cfg = RgdConfig(0.7, quartic_potential(dim=1))
        rng = np.random.default_rng(9)
        singles = np.array([rgd_step(np.array([0.3]), cfg, rng)[0] for _ in range(1000)])
        batch = rgd_transition_batch(np.array([0.3]), cfg, 4000, np.random.default_rng(10))[:, 0]
        assert ks_two_sample(singles, batch).p_value > 0.01

    def test_rows_of_states_start_their_own_transitions(self):
        # Target N(0, 1) at eta = 1: one step from x is N(x / 2, 3 / 4).
        cfg = RgdConfig(1.0, std_normal())
        x = np.repeat([[-3.0], [3.0]], 2000, axis=0)
        moved = rgd_transition_batch(x, cfg, x.shape[0], np.random.default_rng(11))
        for side in (slice(0, 2000), slice(2000, None)):
            z = (moved[side, 0] - x[side, 0] / 2.0) / math.sqrt(0.75)
            assert abs(z.mean()) <= 4.0 / math.sqrt(z.size)
            assert z.var() == pytest.approx(1.0, abs=0.1)


class TestHeatFlowContraction:
    @pytest.mark.parametrize("eta", [0.5, 1.0])
    def test_convolution_quadrature_matches_dense_kernel(self, eta):
        xs = np.linspace(-12.0, 12.0, 1201)
        log_pi = -(0.5 * xs**2 + 0.1 * xs**4)
        pi_density = np.exp(log_pi) / np.trapezoid(np.exp(log_pi), xs)
        p0 = gaussian_pdf(2.0, 1.0)(xs)
        got = rgd._transition_density(xs, pi_density, GaussianMeasure([2.0], [[1.0]]), eta)
        want = dense_transition_density(xs, pi_density, p0, eta)
        assert np.abs(got - want).max() <= 1e-10
        assert np.trapezoid(got, xs) == pytest.approx(1.0, abs=1e-6)

    def test_gaussian_delegates_to_chain_law(self):
        init = GaussianMeasure([2.0], [[1.0]])
        ratio, se = heat_flow_contraction_mc(std_normal(), init, 1.0)
        assert se == 0.0
        assert ratio == pytest.approx(0.25, abs=1e-12)

    def test_quartic_target_beats_bound(self):
        quartic = quartic_potential(dim=1)
        init = GaussianMeasure([2.0], [[1.0]])
        for eta in (0.5, 1.0):
            ratio, se = heat_flow_contraction_mc(quartic, init, eta, n_paths=1500, seed=20)
            assert ratio <= 1.0 / (1.0 + eta) ** 2 + 4.0 * se

    @pytest.mark.parametrize("n_paths", [0, 1])
    def test_fewer_than_two_paths_rejected(self, n_paths):
        with pytest.raises(ValueError, match="n_paths"):
            heat_flow_contraction_mc(quartic_potential(dim=1), GaussianMeasure([2.0], [[1.0]]), 1.0, n_paths=n_paths)

    def test_unsupported_target_rejected(self):
        with pytest.raises(TypeError):
            heat_flow_contraction_mc(sym_mixture(), std_normal(), 1.0)


class TestStationarity:
    def test_mixture_chain_moments_match_quadrature(self):
        # Long-run moments of the chain against grid quadrature of the target;
        # batch-means errors absorb the chain's autocorrelation.
        mix = sym_mixture()
        pdf = mixture_pdf([0.5, 0.5], [-1.0, 1.0], [1.0, 1.0])
        xs = grid_1d()
        reference = quad_raw_moments_1d(pdf(xs), xs)
        cfg = RgdConfig(1.0, mix, steps=100_000)
        trace = rgd_chain(np.zeros(1), cfg, np.random.default_rng(11))[:, 0]
        z = moment_check(trace[1000:], reference, n_batches=50)
        assert np.all(np.abs(z) <= 4.0)


class TestConvolutionCurvature:
    def test_gaussian_convolution_variance(self):
        # Var of N(0, 1/a) * N(0, 1/b) is 1/a + 1/b: log-curvature ab/(a+b).
        rng = np.random.default_rng(12)
        for _ in range(100):
            a, b = rng.uniform(0.1, 5.0, 2)
            var = 1.0 / a + 1.0 / b
            curvature = 1.0 / var
            assert curvature == pytest.approx(a * b / (a + b), rel=1e-12)


def test_chain_csv(tmp_path):
    cfg = RgdConfig(1.0, std_normal(), steps=3)
    trace = rgd_chain(np.zeros(1), cfg, np.random.default_rng(13))
    out = tmp_path / "chain.csv"
    write_chain_csv(trace, out, kls=[0.4, 0.1, 0.025, 0.006])
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "iteration,x_1,kl"
    assert len(lines) == 5
