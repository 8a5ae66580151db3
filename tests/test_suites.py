"""The suite recorder: every check returns timed results, a NaN anywhere in a
worst case fails its result instead of being dropped, and a library run-time
error fails one result instead of ending the suite."""
import dataclasses
import math
import time
import types

import numpy as np
import pytest
from scipy.integrate import quad

from sloc import diffusion, localize, polchinski, rgd, suites, targets
from sloc.sde import NonFiniteStateError

# Small enough that every check runs in well under a second.
_TINY = suites.SuiteBudget(seed=7, paths=100, dt=0.05, particles=20)
_SMALL = suites.SuiteBudget(seed=7, paths=2000)


def _by_name(results):
    return {r.name: r for r in results}


def test_every_suite_check_returns_a_list():
    # The acceptance tests time a check before they read its results, so a
    # lazy result would leave their time limits nothing to time.
    for checks in suites.SUITES.values():
        for check in checks:
            results = check(_TINY)
            assert type(results) is list and results
            assert all(isinstance(r, suites.CheckResult) for r in results)


def test_runtimes_add_up_to_the_wall_time():
    started = time.perf_counter()
    results = suites.check_lsi_schedules(_SMALL)
    wall = time.perf_counter() - started
    assert len(results) == 3
    assert all(r.runtime >= 0.0 for r in results)
    assert abs(sum(r.runtime for r in results) - wall) <= 0.05


@pytest.mark.parametrize("name", ["lsi", "rgd"])
def test_run_suite_is_the_direct_calls(name):
    def untimed(results):
        return [dataclasses.replace(r, runtime=0.0) for r in results]

    direct = [r for check in suites.SUITES[name] for r in check(_SMALL)]
    assert untimed(suites.run_suite(name, _SMALL).checks) == untimed(direct)


def test_report_dict_keeps_every_field():
    result = suites.CheckResult("a/b", 1.5, 2.0, True, 0.25, "detail")
    assert suites.Report([result]).to_dict() == {
        "global_pass": True,
        "checks": [
            {"name": "a/b", "observed": 1.5, "tolerance": 2.0, "passed": True, "runtime": 0.25, "detail": "detail"}
        ],
    }


@pytest.mark.parametrize("values", [[1.0, math.nan, 2.0], [math.nan, 1.0], [1.0, math.nan]])
def test_largest_keeps_a_nan_wherever_it_stands(values):
    assert math.isnan(suites._largest(values))


def _assert_failed_with_nan(results, *names):
    found = _by_name(results)
    for name in names:
        assert found[name].passed is False, name
        assert math.isnan(found[name].observed), name


def test_the_lsi_quadrature_is_scipys_at_the_checks_probes():
    for alpha in (0.5, 1.0, 2.0):
        schedule = polchinski.lsi_schedule(alpha)
        for tau in np.linspace(0.05, 0.95, 10):
            reference, _ = quad(lambda s: float(schedule.gamma(s)), tau, 1.0)
            assert suites._integral(schedule.gamma, tau, 1.0) == pytest.approx(reference, rel=0, abs=1e-12)


def test_nan_stability_factor_fails_both_lsi_identities(monkeypatch):
    monkeypatch.setattr(polchinski, "stability_factor", lambda alpha, tau: math.nan)
    _assert_failed_with_nan(
        suites.check_lsi_schedules(_SMALL), "lsi/factor-integral-identity", "lsi/gaussian-variance-equality"
    )


def test_nan_gamma_after_the_first_alpha_fails_gamma_at_one(monkeypatch):
    # Builtin max keeps a NaN only when it comes first, so spoil all but the first.
    real = polchinski.lsi_schedule
    built = []

    def schedule(alpha):
        built.append(alpha)
        return real(alpha) if len(built) == 1 else types.SimpleNamespace(gamma=lambda tau: math.nan)

    monkeypatch.setattr(polchinski, "lsi_schedule", schedule)
    _assert_failed_with_nan(suites.check_lsi_schedules(_SMALL), "lsi/gamma-at-one")


def _nan_kls_when(monkeypatch, spoiled):
    real = rgd.chain_law_propagate

    def propagate(init, target, eta, n_steps):
        laws, kls = real(init, target, eta, n_steps)
        return laws, kls * math.nan if spoiled(init) else kls

    monkeypatch.setattr(rgd, "chain_law_propagate", propagate)


def test_nan_kls_of_variance_mismatched_starts_fail_their_result(monkeypatch):
    _nan_kls_when(monkeypatch, lambda init: float(init.cov[0, 0]) != 1.0)
    results = _by_name(suites.check_contraction(_SMALL))
    _assert_failed_with_nan(results.values(), "contraction/covariance-mismatch")
    assert results["contraction/mean-shift-equality"].passed


def test_nan_kls_from_the_first_call_fail_mean_shift_equality(monkeypatch):
    _nan_kls_when(monkeypatch, lambda init: True)
    _assert_failed_with_nan(
        suites.check_contraction(_SMALL), "contraction/mean-shift-equality", "contraction/covariance-mismatch"
    )


def test_nan_quartic_ratio_fails_quartic_target(monkeypatch):
    real = rgd.heat_flow_contraction_mc

    def contraction(target, init, eta, **kwargs):
        ratio, se = real(target, init, eta, **kwargs)
        return (math.nan, se) if eta == 1.0 else (ratio, se)

    monkeypatch.setattr(rgd, "heat_flow_contraction_mc", contraction)
    _assert_failed_with_nan(suites.check_contraction(_SMALL), "contraction/quartic-target")


def test_nan_transitions_fail_the_kernel_identity_ks_results(monkeypatch):
    # diagnostics.ks_two_sample gives a NaN p-value for a sample holding a NaN.
    real = rgd.rgd_transition_batch
    monkeypatch.setattr(rgd, "rgd_transition_batch", lambda *args: real(*args) * math.nan)
    _assert_failed_with_nan(
        suites.check_kernel_identity(_SMALL), "kernel-identity/ks-gaussian", "kernel-identity/ks-mixture"
    )


@pytest.mark.parametrize(
    "error",
    [
        NonFiniteStateError(3, 0.5),
        localize.WeightCollapseError(2.0, 10.0, 0.25),
        targets.SamplingBudgetError(100, 0),
        targets.EffectiveSampleSizeError(1.5, 5.0),
    ],
    ids=lambda e: type(e).__name__,
)
def test_a_library_run_time_error_is_one_failed_result(error):
    @suites._recorded
    def check_something_run(budget):
        yield suites._Verdict("something/first", 0.0, 1.0)
        raise error

    first, failed = check_something_run(_TINY)
    assert first.passed and first.name == "something/first"
    assert failed.name == "something-run/run-error" and failed.passed is False
    assert math.isnan(failed.observed) and failed.detail == f"{type(error).__name__}: {error}"


# The law checks of criteria 1, 3 and 4 read the table of constructions.


@pytest.mark.parametrize(
    "name, check, paths",
    [("backward", suites.check_backward_diffusion, 2000), ("flow", suites.check_renormalization_flow, 4000)],
)
def test_an_identity_map_to_tilt_coordinates_fails_its_rows_ks_results(monkeypatch, name, check, paths):
    budget = suites.SuiteBudget(seed=7, paths=paths, dt=0.02)
    prefix = {"backward": "backward-vs-tilt/ks-", "flow": "flow-vs-tilt/ks-"}[name]

    def ks_results(results):
        return {r.name: r.passed for r in results if r.name.startswith(prefix)}

    assert ks_results(check(budget)) == {prefix + "gaussian": True, prefix + "mixture": True}
    row = suites._CONSTRUCTIONS[name]
    monkeypatch.setitem(suites._CONSTRUCTIONS, name, row._replace(to_tilt=lambda s, x: (s, x)))
    assert ks_results(check(budget)) == {prefix + "gaussian": False, prefix + "mixture": False}


def test_a_patched_backward_ensemble_reaches_the_backward_check(monkeypatch):
    real = diffusion.backward_sde_ensemble
    bases = []

    def ensemble(base, *args, **kwargs):
        bases.append(base)
        return {u: x * math.nan for u, x in real(base, *args, **kwargs).items()}

    monkeypatch.setattr(diffusion, "backward_sde_ensemble", ensemble)
    results = suites.check_backward_diffusion(_TINY)
    assert len(bases) == 2
    _assert_failed_with_nan(
        results, "backward-vs-tilt/ks-gaussian", "backward-vs-tilt/rescaled-variance", "backward-vs-tilt/ks-mixture"
    )


def test_equiv_grids_follow_a_budget_off_the_defaults():
    # Every grid and snapshot time moves with horizon, tau and eps_clip; the
    # suite gives the default budget's rows, none of them a run error.
    small = dict(seed=7, paths=200, dt=0.004)
    rows = [c.name for c in suites.run_suite("equiv", suites.SuiteBudget(**small)).checks]
    moved = suites.SuiteBudget(horizon=0.5, tau=0.25, eps_clip=0.01, **small)
    assert [c.name for c in suites.run_suite("equiv", moved).checks] == rows
    assert len(rows) == 13 and not any(name.endswith("/run-error") for name in rows)
