import functools
import io
import json
import math

import numpy as np
import pytest

from sloc import bridge, polchinski
from sloc.bridge import (
    DiscreteCoupling,
    DiscreteMeasure,
    FollmerDrift,
    girsanov_energy,
    heat_kernel_reference,
    objective_pair,
    schrodinger_residual,
    sinkhorn,
    squared_distances,
    write_coupling_csv,
    write_sinkhorn_trace_json,
)
from sloc.diagnostics import ks_two_sample
from sloc.polchinski import polchinski_ensemble, polchinski_run
from sloc.sde import TimeGrid, wiener_increments
from sloc.targets import GaussianMeasure, GaussianMixture

from oracles import grid_1d, heat_kernel_rows, log_domain_sinkhorn, mixture_pdf, moment_check, quad_raw_moments_1d


def solve(mu, pi, ref, **kwargs):
    """``sinkhorn`` with the checks every result must pass: its residual is
    the one recomputed from its coupling, and it converged exactly when that
    residual is within tol."""
    res = sinkhorn(mu, pi, ref, **kwargs)
    assert res.residual == res.coupling.marginal_residual()
    assert res.converged == (res.residual <= kwargs.get("tol", 1e-10))
    return res


def uniform_two_points():
    pts = np.array([[0.0], [1.0]])
    w = np.array([0.5, 0.5])
    return DiscreteMeasure(pts, w), DiscreteMeasure(pts, w)


def random_instance(rng, n, m, d=2):
    def weights(k):
        w = rng.uniform(0.5, 1.5, k)
        w /= w.sum()
        w[-1] = 1.0 - w[:-1].sum()
        return w

    mu = DiscreteMeasure(rng.standard_normal((n, d)), weights(n))
    pi = DiscreteMeasure(rng.standard_normal((m, d)) + 0.3, weights(m))
    return mu, pi


def lattice_support(rng, n, half, offset):
    """A randomly shifted Fibonacci lattice in a box, with smooth weights."""
    golden = (math.sqrt(5.0) - 1.0) / 2.0
    i = np.arange(n)
    unit = (np.stack([(i + 0.5) / n, (i * golden) % 1.0], axis=1) + rng.random(2)) % 1.0
    pts = half * (2.0 * unit - 1.0) + offset
    w = 1.0 + 0.5 * np.cos(pts[:, 0] + 0.5 * pts[:, 1])
    w /= w.sum()
    w[-1] = 1.0 - w[:-1].sum()
    return DiscreteMeasure(pts, w)


class TestDiscreteMeasure:
    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValueError, match="sum to 1"):
            DiscreteMeasure(np.zeros((2, 1)), np.array([0.5, 0.6]))

    def test_weights_must_be_positive(self):
        with pytest.raises(ValueError, match="positive"):
            DiscreteMeasure(np.zeros((2, 1)), np.array([1.0, 0.0]))

    def test_reference_first_marginal_is_mu(self):
        rng = np.random.default_rng(0)
        mu, pi = random_instance(rng, 4, 6)
        ref = heat_kernel_reference(mu, pi)
        assert np.abs(ref.sum(axis=1) - mu.weights).max() <= 1e-14

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_squared_distances_bitwise_equal_broadcast_form(self, d):
        rng = np.random.default_rng(30 + d)
        mu, pi = random_instance(rng, 17, 23, d=d)
        broadcast = np.sum((mu.points[:, None, :] - pi.points[None, :, :]) ** 2, axis=2)
        assert np.array_equal(squared_distances(mu, pi), broadcast)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_heat_kernel_reference_bitwise_equal_row_softmax(self, d):
        rng = np.random.default_rng(40 + d)
        mu, pi = random_instance(rng, 17, 23, d=d)
        expected = heat_kernel_rows(mu.points, pi.points, mu.weights)
        assert np.array_equal(heat_kernel_reference(mu, pi), expected)

    def test_squared_distances_rejects_mixed_dimensions(self):
        rng = np.random.default_rng(33)
        mu, _ = random_instance(rng, 3, 4, d=1)
        _, pi = random_instance(rng, 3, 4, d=2)
        with pytest.raises(ValueError, match="dimension"):
            squared_distances(mu, pi)


class TestSinkhorn:
    def test_single_atom_converges_immediately(self):
        mu = DiscreteMeasure(np.array([[0.0]]), np.array([1.0]))
        pi = DiscreteMeasure(np.array([[0.0], [1.0], [2.0]]), np.array([0.2, 0.5, 0.3]))
        ref = heat_kernel_reference(mu, pi)
        res = solve(mu, pi, ref, tol=1e-12)
        assert res.iterations <= 2
        assert np.abs(res.coupling.gamma - np.outer(mu.weights, pi.weights)).max() <= 1e-12

    def test_product_reference_gives_product_coupling(self):
        rng = np.random.default_rng(1)
        mu, pi = random_instance(rng, 3, 5)
        ref = np.outer(mu.weights, pi.weights)
        res = solve(mu, pi, ref, tol=1e-12)
        ssb, _ = objective_pair(res.coupling, mu, pi, ref)
        assert abs(ssb) <= 1e-12
        assert np.abs(res.coupling.gamma - ref).max() <= 1e-12

    def test_factorization_invariant(self):
        rng = np.random.default_rng(2)
        mu, pi = random_instance(rng, 5, 4)
        ref = heat_kernel_reference(mu, pi)
        res = solve(mu, pi, ref, tol=1e-11)
        rebuilt = ref * np.outer(res.f, res.g)
        rel = np.abs(rebuilt - res.coupling.gamma) / np.maximum(res.coupling.gamma, 1e-300)
        assert rel.max() <= 1e-12

    def test_residual_trace_monotone(self):
        # Monotone through the plain start; the relaxed run is not monotone,
        # but once below the residual at the switch it stays below it.
        rng = np.random.default_rng(3)
        mu, pi = random_instance(rng, 6, 7)
        ref = heat_kernel_reference(mu, pi) * np.exp(0.3 * rng.standard_normal((6, 7)))
        res = solve(mu, pi, ref, tol=1e-12)
        trace = res.residual_trace
        assert res.relaxation > 1.0
        assert np.all(np.diff(trace[: bridge._PLAIN]) <= 1e-12)
        relaxed = trace[bridge._PLAIN :]
        below = relaxed < trace[bridge._PLAIN - 1]
        assert below[np.argmax(below):].all()

    def test_zero_kernel_entry_rejected(self):
        mu, pi = uniform_two_points()
        ref = heat_kernel_reference(mu, pi)
        ref = ref.copy()
        ref[0, 1] = 0.0
        with pytest.raises(ValueError, match="positive"):
            sinkhorn(mu, pi, ref)

    def test_nan_entries_pass_the_positivity_check_unless_a_cell_is_nonpositive(self):
        rng = np.random.default_rng(11)
        mu, pi = random_instance(rng, 4, 5)
        ref = heat_kernel_reference(mu, pi)
        ref[1, 2] = np.nan
        res = sinkhorn(mu, pi, ref)
        assert not res.converged and res.iterations <= 3
        ref[3, 0] = -1.0
        with pytest.raises(ValueError, match="positive"):
            sinkhorn(mu, pi, ref)

    def test_non_convergence_flagged(self):
        rng = np.random.default_rng(4)
        mu, pi = random_instance(rng, 5, 6)
        ref = heat_kernel_reference(mu, pi) * np.exp(rng.standard_normal((5, 6)))
        res = solve(mu, pi, ref, tol=1e-14, max_iter=1)
        assert not res.converged
        assert res.residual > 1e-14


class TestSinkhornAgainstLogDomain:
    """The scaling loop against the log-domain oracle in ``oracles``."""

    @staticmethod
    def scaled_kernel():
        # Rows and columns scaled down to 1e-149 each, so entries span 1e-295
        # to 1 and the first iteration's scalings are near 1e149.
        rng = np.random.default_rng(20)
        rows = 10.0 ** (-149.0 * np.linspace(0.0, 1.0, 30))
        cols = 10.0 ** (-149.0 * rng.random(40))
        r = np.outer(rows, cols) * np.exp(rng.standard_normal((30, 40)))
        a, b = rng.uniform(0.5, 1.5, 30), rng.uniform(0.5, 1.5, 40)
        mu = DiscreteMeasure(np.zeros((30, 1)), a / a.sum())
        return mu, DiscreteMeasure(np.zeros((40, 1)), b / b.sum()), r / r.max()

    @staticmethod
    def local_kernel():
        # A heat kernel at small time on [0, 1]: entries from 2e-300 to 1,
        # scalings beyond 1e50 and about 2900 slow plain iterations.
        x, y = np.linspace(0.0, 1.0, 30), np.linspace(0.0, 1.0, 40)
        a, b = np.exp(-x), np.exp(y)
        mu, pi = DiscreteMeasure(x, a / a.sum()), DiscreteMeasure(y, b / b.sum())
        return mu, pi, np.exp(-690.0 * np.subtract.outer(x, y) ** 2)

    @staticmethod
    def hard_lattice():
        # Supports shaped as the benchmark's hard ones, at n = 200.
        rng = np.random.default_rng(42)
        mu = lattice_support(rng, 200, 4.0, 0.0)
        pi = lattice_support(rng, 200, 4.0, 2.5)
        return mu, pi, heat_kernel_reference(mu, pi)

    @staticmethod
    def absorbing_solve(monkeypatch, mu, pi, r, absorb, tol):
        """``solve`` at ``tol``, failing unless the kernel absorbed the scalings."""
        from sloc import bridge

        if absorb is not None:
            monkeypatch.setattr(bridge, "_ABSORB", absorb)
        absorbed = []
        out_of_range = bridge._out_of_range
        monkeypatch.setattr(bridge, "_out_of_range", lambda s: absorbed.append(out_of_range(s)) or absorbed[-1])
        res = solve(mu, pi, r, tol=tol)
        assert any(absorbed) and res.converged
        return res

    @staticmethod
    def assert_same_scalings(res, f, g, rtol):
        """``f, g`` solve the scaling system only up to ``f c, g / c``, and the
        relaxed run ends at another ``c`` than the plain oracle, so ``c`` is
        matched first, as the geometric mean of ``f_oracle / f``."""
        c = np.exp(np.mean(np.log(f) - np.log(res.f)))
        np.testing.assert_allclose(res.f * c, f, rtol=rtol, atol=0.0)
        np.testing.assert_allclose(res.g / c, g, rtol=rtol, atol=0.0)

    @pytest.mark.parametrize("absorb", [None, 1e3])
    def test_absorbing_kernel_matches_oracle(self, monkeypatch, absorb):
        # The double-precision oracle stalls at a residual of about 1.1e-14,
        # so it runs to 1e-13.
        mu, pi, r = self.scaled_kernel()
        assert r.min() < 1e-290 and r.max() == 1.0
        res = self.absorbing_solve(monkeypatch, mu, pi, r, absorb, tol=1e-14)
        f, g, gamma, _, _ = log_domain_sinkhorn(mu.weights, pi.weights, r, tol=1e-13)
        self.assert_same_scalings(res, f, g, rtol=1e-12)
        np.testing.assert_allclose(res.coupling.gamma, gamma, rtol=1e-12, atol=0.0)

    @staticmethod
    @functools.cache
    def local_oracle():
        """The extended-precision log-domain run on ``local_kernel`` to 2e-16."""
        mu, pi, r = TestSinkhornAgainstLogDomain.local_kernel()
        return log_domain_sinkhorn(mu.weights, pi.weights, r, tol=2e-16, dtype=np.longdouble)

    @pytest.mark.skipif(np.finfo(np.longdouble).eps > 1e-18, reason="needs extended precision")
    @pytest.mark.parametrize("absorb", [None, 1e3])
    def test_slow_absorbing_kernel_is_accurate(self, monkeypatch, absorb):
        # Plain scaling contracts at 0.992 per iteration here, so a residual
        # of r leaves f, g about 1e2 r from the solution: the solve runs to
        # 2e-15, just above the floor of about 1.1e-15 it reaches here, against
        # an extended-precision run to 2e-16.
        mu, pi, r = self.local_kernel()
        assert r.min() < 1e-299 and r.max() == 1.0
        res = self.absorbing_solve(monkeypatch, mu, pi, r, absorb, tol=2e-15)
        f, g, gamma, _, trace = self.local_oracle()
        assert res.iterations <= (1 + np.argmax(trace <= 2e-15)) / 5
        self.assert_same_scalings(res, f, g, rtol=1e-13)
        normal = gamma >= np.finfo(float).tiny
        np.testing.assert_allclose(res.coupling.gamma[normal], gamma[normal], rtol=1e-12, atol=0.0)

    def test_hard_lattice_takes_a_third_of_the_oracle_iterations(self):
        mu, pi, ref = self.hard_lattice()
        res = solve(mu, pi, ref, tol=1e-13)
        f, g, gamma, iterations, _ = log_domain_sinkhorn(mu.weights, pi.weights, ref, tol=1e-13)
        assert iterations > 100
        assert res.iterations <= iterations / 3
        assert np.abs(res.coupling.gamma - gamma).max() <= 1e-15

    @pytest.mark.parametrize("omega", [1.98, 2.0])
    def test_safeguard_returns_to_plain_scaling(self, monkeypatch, omega):
        # At 1.98 the residual falls below its value at the switch and climbs
        # back above it; at 2.0 it overflows, and the run restarts from
        # u = v = 1.
        mu, pi, ref = self.hard_lattice()
        monkeypatch.setattr(bridge, "_relaxation", lambda steps, a: omega)
        with np.errstate(over="ignore", invalid="ignore"):
            res = solve(mu, pi, ref, tol=1e-10)
        assert res.converged and res.relaxation == 1.0
        trace = res.residual_trace
        switch = trace[bridge._PLAIN - 1]
        if omega < 2.0:
            assert np.isfinite(trace).all()
            first_below = bridge._PLAIN + int(np.argmax(trace[bridge._PLAIN:] < switch))
            assert trace[first_below:].max() > switch
        else:
            assert not np.isfinite(trace).all()

    def test_stalled_relaxation_finishes_plain(self):
        # Over-relaxed, this instance's residual stalls near 8e-16, above the
        # floor of plain scaling.  Once it sets no new minimum for _STALL
        # iterations the run finishes plain and reaches 5e-16, where it would
        # otherwise run to max_iter.
        mu, pi, r = self.local_kernel()
        res = solve(mu, pi, r, tol=5e-16)
        assert res.converged and res.relaxation == 1.0
        assert res.iterations <= 1000

    def test_stops_only_when_the_returned_coupling_meets_tol(self):
        # At 1e-15 the loop's residual meets tol after 279 iterations while
        # the coupling formed there reads 1.017e-15; the run goes on until the
        # coupling's own residual meets tol.
        mu, pi, r = self.local_kernel()
        res = solve(mu, pi, r, tol=1e-15)
        assert res.converged and res.iterations > 279

    @pytest.mark.parametrize("kernel, tol", [("local", 1e-16), ("hard", 1e-17)], ids=["local", "hard"])
    def test_tol_below_the_floor_stops_flagged(self, kernel, tol):
        # The local kernel's recomputed residual levels off near 1.3e-16; the
        # hard lattice's loop residual never reaches 1e-17, so no coupling is
        # checked.  Below the floor the run stops once its residual has set no
        # new minimum for _STALL iterations relaxed and _STALL plain, not at
        # max_iter.
        mu, pi, r = self.local_kernel() if kernel == "local" else self.hard_lattice()
        res = solve(mu, pi, r, tol=tol)
        assert not res.converged and res.iterations < 1000
        assert res.residual_trace[-1] == res.residual > tol

    def test_trace_ends_at_the_returned_residual(self):
        rng = np.random.default_rng(21)
        mu, pi = random_instance(rng, 6, 9)
        res = solve(mu, pi, heat_kernel_reference(mu, pi), tol=1e-12)
        assert res.residual_trace.size == res.iterations
        assert res.residual_trace[-1] == res.residual

    def test_reference_kernel_is_not_modified(self):
        rng = np.random.default_rng(22)
        mu, pi = random_instance(rng, 5, 7)
        ref = heat_kernel_reference(mu, pi)
        kept = ref.copy()
        solve(mu, pi, ref, tol=1e-12)
        assert np.array_equal(ref, kept)


class TestDiscreteCoupling:
    def test_negative_entries_rejected_nan_and_empty_accepted(self):
        gamma = np.array([[0.25, np.nan], [0.25, 0.5]])
        assert np.isnan(DiscreteCoupling(gamma, np.ones(2), np.ones(2)).gamma[0, 1])
        DiscreteCoupling(np.zeros((0, 3)), np.zeros(0), np.zeros(3))
        gamma[1, 0] = -0.25
        with pytest.raises(ValueError, match="nonnegative"):
            DiscreteCoupling(gamma, np.ones(2), np.ones(2))
        with pytest.raises(ValueError, match="nonnegative"):
            DiscreteCoupling(np.full(3, 0.5), np.ones(3), np.ones(1))


class TestObjectives:
    def test_difference_is_coupling_free(self):
        rng = np.random.default_rng(5)
        mu, pi = random_instance(rng, 4, 5)
        ref = heat_kernel_reference(mu, pi)
        diffs = []
        for _ in range(20):
            perturbed = ref * np.exp(0.5 * rng.standard_normal(ref.shape))
            res = solve(mu, pi, perturbed, tol=1e-13)
            ssb, eot = objective_pair(res.coupling, mu, pi, ref)
            diffs.append(eot - ssb)
        assert np.ptp(diffs) <= 1e-10

    def test_product_coupling_has_zero_entropy_term(self):
        mu, pi = uniform_two_points()
        ref = heat_kernel_reference(mu, pi)
        gamma = np.outer(mu.weights, pi.weights)
        _, eot = objective_pair(gamma, mu, pi, ref)
        cost = float(np.sum(0.5 * squared_distances(mu, pi) * gamma))
        assert eot == pytest.approx(cost, abs=1e-15)

    def test_matches_entrywise_sums_with_empty_cells(self):
        # Cells with gamma = 0 contribute 0 log 0 = 0 to both objectives.
        rng = np.random.default_rng(9)
        mu, pi = random_instance(rng, 5, 4)
        ref = heat_kernel_reference(mu, pi)
        gamma = rng.uniform(0.0, 1.0, (5, 4)) * (rng.uniform(size=(5, 4)) > 0.3)
        gamma /= gamma.sum()
        pos = gamma > 0.0
        g, r, prod = gamma[pos], ref[pos], np.outer(mu.weights, pi.weights)[pos]
        cost = float(np.sum(0.5 * squared_distances(mu, pi) * gamma))
        ssb, eot = objective_pair(gamma, mu, pi, ref)
        assert ssb == pytest.approx(float(np.sum(g * np.log(g / r))), rel=1e-12)
        assert eot == pytest.approx(cost + float(np.sum(g * np.log(g / prod))), rel=1e-12)

    @pytest.mark.parametrize("shift", [0.0, 1e3])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_cost_matches_the_distance_matrix_form(self, d, shift):
        # eps = 0 leaves the cost alone.  At a shift of 1e3 an uncentred
        # expansion would cancel |x|^2 ~ 1e6 down to |x - y|^2 ~ 1.
        rng = np.random.default_rng(50 + d)
        mu, pi = random_instance(rng, 9, 7, d=d)
        mu = DiscreteMeasure(mu.points + shift, mu.weights)
        pi = DiscreteMeasure(pi.points + shift, pi.weights)
        ref = heat_kernel_reference(mu, pi)
        for gamma in (solve(mu, pi, ref, tol=1e-12).coupling.gamma, rng.uniform(0.0, 1.0, (9, 7))):
            direct = 0.5 * float(np.sum(squared_distances(mu, pi) * gamma))
            _, cost = objective_pair(gamma, mu, pi, ref, eps=0.0)
            assert cost == pytest.approx(direct, rel=1e-12)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_wide_supports_lose_digits_only_to_the_spread(self, d):
        # Centring removes a shared shift, not each support's own spread: with
        # atoms spread over 2e3 and a coupling on distances ~0.1, the terms
        # r . |x~|^2 + c . |y~|^2 exceed the cost ~1e8-fold, and the cost
        # keeps about 8 digits.  Its error stays within a few ulps of those
        # terms.
        rng = np.random.default_rng(60 + d)
        x = rng.uniform(-1e3, 1e3, (9, d))
        y = x[rng.permutation(9)[:7]] + rng.normal(0.0, 0.1, (7, d))
        mu = DiscreteMeasure(x, rng.dirichlet(np.ones(9)))
        pi = DiscreteMeasure(y, rng.dirichlet(np.ones(7)))
        dist = squared_distances(mu, pi)
        gamma = np.exp(-dist / 0.1) + 1e-12
        gamma /= gamma.sum()
        direct = 0.5 * float(np.sum(dist * gamma))
        _, cost = objective_pair(gamma, mu, pi, np.ones_like(dist), eps=0.0)
        centre = 0.5 * (mu.weights @ x + pi.weights @ y)
        terms = gamma.sum(axis=1) @ np.sum((x - centre) ** 2, axis=1) + gamma.sum(axis=0) @ np.sum((y - centre) ** 2, axis=1)
        assert terms > 1e7 * direct
        assert abs(cost - direct) <= 4.0 * np.finfo(float).eps * terms
        assert cost == pytest.approx(direct, rel=1e-7)

    def test_shapes_checked_against_the_marginals(self):
        rng = np.random.default_rng(12)
        mu, pi = random_instance(rng, 3, 4)
        ref = heat_kernel_reference(mu, pi)
        gamma = np.outer(mu.weights, pi.weights)
        with pytest.raises(ValueError, match=r"reference kernel shape \(4, 3\).*\(3, 4\)"):
            objective_pair(gamma, mu, pi, ref.T)
        with pytest.raises(ValueError, match=r"coupling shape \(4, 3\).*\(3, 4\)"):
            objective_pair(gamma.T, mu, pi, ref)

    def test_unsupported_coupling_flagged_infinite(self):
        mu, pi = uniform_two_points()
        ref = heat_kernel_reference(mu, pi).copy()
        ref[0, 1] = 0.0
        gamma = np.full((2, 2), 0.25)
        ssb, _ = objective_pair(gamma, mu, pi, ref)
        assert math.isinf(ssb)

    def test_brute_force_grid_agreement(self):
        mu, pi = uniform_two_points()
        ref = heat_kernel_reference(mu, pi)
        res = solve(mu, pi, ref, tol=1e-12)
        p = np.linspace(0.0, 0.5, 1_000_001)
        entries = np.stack([p, 0.5 - p, 0.5 - p, p], axis=1)
        refs = ref.ravel()
        with np.errstate(divide="ignore", invalid="ignore"):
            terms = np.where(entries > 0.0, entries * (np.log(entries) - np.log(refs)), 0.0)
        ssb_grid = terms.sum(axis=1)
        ssb_sink, _ = objective_pair(res.coupling, mu, pi, ref)
        assert abs(ssb_sink - ssb_grid.min()) <= 1e-6
        assert abs(res.coupling.gamma[0, 0] - p[ssb_grid.argmin()]) <= 1e-5


class TestSchrodingerSystem:
    def test_converged_residual_small(self):
        rng = np.random.default_rng(6)
        mu, pi = random_instance(rng, 4, 6, d=1)
        ref = heat_kernel_reference(mu, pi)
        res = solve(mu, pi, ref, tol=1e-10)
        assert schrodinger_residual(res, mu, pi, ref) <= 1e-8

    def test_single_atom_residual_zero(self):
        mu = DiscreteMeasure(np.array([[0.0]]), np.array([1.0]))
        pi = DiscreteMeasure(np.array([[0.5], [1.5]]), np.array([0.4, 0.6]))
        ref = heat_kernel_reference(mu, pi)
        res = solve(mu, pi, ref, tol=1e-12)
        assert schrodinger_residual(res, mu, pi, ref) <= 1e-12

    def test_transposed_reference_rejected(self):
        rng = np.random.default_rng(13)
        mu, pi = random_instance(rng, 3, 4)
        ref = heat_kernel_reference(mu, pi)
        res = solve(mu, pi, ref, tol=1e-12)
        with pytest.raises(ValueError, match=r"reference kernel shape \(4, 3\)"):
            schrodinger_residual(res, mu, pi, ref.T)
        with pytest.raises(ValueError, match=r"coupling shape \(3, 4\)"):
            schrodinger_residual(res, pi, mu, ref.T)

    def test_one_iteration_leaves_defect(self):
        rng = np.random.default_rng(7)
        mu, pi = random_instance(rng, 5, 3)
        ref = heat_kernel_reference(mu, pi) * np.exp(rng.standard_normal((5, 3)))
        res = solve(mu, pi, ref, tol=1e-14, max_iter=1)
        assert not res.converged
        assert schrodinger_residual(res, mu, pi, ref) > 1e-14

    def test_markov_factorization_three_time_chain(self):
        # Reference built from two positive transition kernels: the optimal
        # path law's late-time conditional is the g-reweighted reference
        # transition, with the intermediate g obtained by transition-weighting.
        rng = np.random.default_rng(8)
        n0, n1, n2 = 3, 4, 5
        r0 = rng.uniform(0.5, 1.5, n0)
        r0 /= r0.sum()
        a = rng.uniform(0.2, 1.0, (n0, n1))
        a /= a.sum(axis=1, keepdims=True)
        b = rng.uniform(0.2, 1.0, (n1, n2))
        b /= b.sum(axis=1, keepdims=True)
        endpoint = (r0[:, None] * a) @ b  # joint law of (start, end)

        mu = DiscreteMeasure(np.arange(n0)[:, None].astype(float), r0)
        target_w = rng.uniform(0.5, 1.5, n2)
        target_w /= target_w.sum()
        target_w[-1] = 1.0 - target_w[:-1].sum()
        pi = DiscreteMeasure(np.arange(n2)[:, None].astype(float), target_w)
        res = solve(mu, pi, endpoint, tol=1e-13)

        g_mid = b @ res.g  # transition-weighted late scaling at the middle time
        # Joint (mid, end) law of the optimizer: sum_i f_i r0_i a[i,k] b[k,j] g_j.
        f_flow = (res.f * r0) @ a  # unnormalized mid-time mass carried by f
        joint = f_flow[:, None] * b * res.g[None, :]
        cond_opt = joint / joint.sum(axis=1, keepdims=True)
        cond_expected = b * res.g[None, :] / g_mid[:, None]
        assert np.abs(cond_opt - cond_expected).max() <= 1e-8


class TestFollmerSampler:
    """The optimal drift's sampler is the flow SDE run from v = 0."""

    def test_standard_normal_has_zero_drift(self):
        base = GaussianMeasure(np.zeros(2), np.eye(2))
        grid = TimeGrid.uniform(0.0, 1.0 - 1e-3, 200)
        noise = wiener_increments(grid, 2, seed=9, stream_id=0)
        terminal = polchinski_run(base, grid, noise).states[-1]
        assert np.allclose(terminal, noise.states[-1], atol=1e-12)

    def test_standard_normal_terminal_ks(self):
        base = GaussianMeasure([0.0], [[1.0]])
        grid = TimeGrid.uniform(0.0, 1.0 - 1e-3, 250)
        terminal = polchinski_ensemble(base, grid, seed=10, n_paths=3000)[grid.times[-1]][:, 0]
        exact = math.sqrt(1.0 - 1e-3) * np.random.default_rng(11).standard_normal(3000)
        assert ks_two_sample(terminal, exact).p_value > 0.01

    def test_shifted_base_terminal_mean(self):
        theta, eps = 1.5, 1e-3
        base = GaussianMeasure([theta], [[1.0]])
        grid = TimeGrid.uniform(0.0, 1.0 - eps, 250)
        terminal = polchinski_ensemble(base, grid, seed=12, n_paths=3000)[grid.times[-1]][:, 0]
        se = terminal.std() / math.sqrt(terminal.size)
        assert abs(terminal.mean() - theta * (1.0 - eps)) <= 4.0 * se

    def test_mixture_terminal_moments_match_quadrature(self):
        base = GaussianMixture([0.5, 0.5], [[-1.0], [1.0]], [[[1.0]], [[1.0]]])
        pdf = mixture_pdf([0.5, 0.5], [-1.0, 1.0], [1.0, 1.0])
        xs = grid_1d()
        reference = quad_raw_moments_1d(pdf(xs), xs)
        grid = TimeGrid.uniform(0.0, 1.0 - 1e-3, 500)
        terminal = polchinski_ensemble(base, grid, seed=13, n_paths=4000)[grid.times[-1]][:, 0]
        z = moment_check(terminal, reference)
        assert np.all(np.abs(z) <= 4.0)

    def test_drift_matches_renorm_gradient(self):
        base = GaussianMixture([0.5, 0.5], [[-1.0], [1.0]], [[[1.0]], [[1.0]]])
        drift = FollmerDrift(base)
        for tau, v in ((0.2, 0.5), (0.6, -1.0)):
            _, grad = polchinski.renorm_potential(base, tau, [v])
            assert np.abs(drift([v], tau) + grad).max() <= 1e-10

    def test_generic_drift_spends_only_the_moment_budget(self):
        from sloc.targets import GenericPotential

        calls = []

        def potential(x):
            calls.append(1)
            return 0.5 * float(x @ x) + 0.1 * float(np.sum(x**4))

        quartic = GenericPotential(1, potential, lambda x: x + 0.4 * x**3, 1.0, 40.0)
        calls.clear()
        drift = FollmerDrift(quartic, budget=200)(0.3, 0.4)
        # One call at the envelope's mode and one per importance draw.
        assert len(calls) == 201
        assert np.all(np.isfinite(drift))


class TestGirsanovEnergy:
    def test_zero_for_standard_normal(self):
        base = GaussianMeasure(np.zeros(2), np.eye(2))
        grid = TimeGrid.uniform(0.0, 1.0 - 1e-3, 100)
        energy, _ = girsanov_energy(FollmerDrift(base), grid, 200, seed=14)
        assert energy == pytest.approx(0.0, abs=1e-20)

    def test_mean_shift_energy(self):
        base = GaussianMeasure([2.0], [[1.0]])
        grid = TimeGrid.uniform(0.0, 1.0 - 1e-3, 300)
        energy, se = girsanov_energy(FollmerDrift(base), grid, 500, seed=15)
        assert abs(energy - 2.0) <= 4.0 * se + 0.01

    def test_generic_base_energy(self):
        # Quadratic potential with mean 1.5 has optimal energy 1.5^2 / 2.
        from sloc.targets import POTENTIALS

        pot = POTENTIALS["gaussian"](dim=1, mean=1.5, precision=1.0)
        grid = TimeGrid.uniform(0.0, 1.0 - 0.04, 24)
        energy, _ = girsanov_energy(FollmerDrift(pot, budget=600), grid, 8, seed=17)
        assert abs(energy - 1.125) < 0.3

    def test_generic_energy_integrates_the_drift_rows(self):
        # The energy of a generic base is the Euler sum over FollmerDrift rows,
        # each an importance-sampling estimate from posterior_moments' own default generator.
        from sloc.sde import wiener_increment_array
        from sloc.targets import POTENTIALS, posterior_moments

        pot = POTENTIALS["gaussian"](dim=2, mean=0.5, precision=1.0)
        drift = FollmerDrift(pot, budget=200)
        grid = TimeGrid.uniform(0.0, 0.6, 6)
        n = 3
        energy, se = girsanov_energy(drift, grid, n, seed=5)
        dw = np.stack([wiener_increment_array(grid, 2, 5, s) for s in range(n)])
        v, e = np.zeros((n, 2)), np.zeros(n)
        for k, (tau, dt) in enumerate(zip(grid.times[:-1], grid.dts)):
            u = np.stack([drift(row, float(tau)) for row in v])
            e = e + 0.5 * np.sum(u**2, axis=1) * dt
            v = v + u * dt + dw[:, k]
        assert energy == float(e.mean())
        assert se == float(e.std(ddof=1) / math.sqrt(n))
        tau, row = float(grid.times[3]), v[0]
        m = posterior_moments(polchinski.fluctuation_measure(pot, tau, row), 200).mean
        assert np.array_equal(drift(row, tau), (m - row) / (1.0 - tau))

    @pytest.mark.parametrize("n", [-1, 0])
    def test_fewer_than_one_path_is_refused(self, n):
        grid = TimeGrid.uniform(0.0, 0.5, 5)
        with pytest.raises(ValueError, match="n_paths"):
            girsanov_energy(FollmerDrift(GaussianMeasure([1.0], [[1.0]])), grid, n, seed=3)

    def test_one_path_has_an_infinite_standard_error(self):
        grid = TimeGrid.uniform(0.0, 0.5, 5)
        energy, se = girsanov_energy(FollmerDrift(GaussianMeasure([1.0], [[1.0]])), grid, 1, seed=3)
        assert math.isfinite(energy) and energy > 0.0
        assert se == math.inf

    def test_variance_case_matches_gaussian_kl(self):
        # Frozen oracle: KL(N(0,2) || N(0,1)) = (1 - log 2)/2 = 0.15342640972.
        base = GaussianMeasure([0.0], [[2.0]])
        grid = TimeGrid.uniform(0.0, 1.0 - 1e-3, 999)
        energy, _ = girsanov_energy(FollmerDrift(base), grid, 4000, seed=16)
        assert abs(energy - 0.15342640972002736) / 0.15342640972002736 <= 0.05


def test_coupling_csv_and_trace_json():
    mu, pi = uniform_two_points()
    ref = heat_kernel_reference(mu, pi)
    res = solve(mu, pi, ref, tol=1e-12)
    buf = io.StringIO()
    write_coupling_csv(res.coupling, buf)
    rows = buf.getvalue().strip().split("\n")
    assert len(rows) == 2 and len(rows[0].split(",")) == 2
    buf = io.StringIO()
    write_sinkhorn_trace_json(res, buf)
    payload = json.loads(buf.getvalue())
    assert payload["converged"] is True
    assert payload["relaxation"] == res.relaxation
    assert payload["trace"][0]["iteration"] == 1
