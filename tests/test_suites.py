"""The suite recorder: every check returns timed results, and a NaN anywhere in
a worst case fails its result instead of being dropped."""
import dataclasses
import math
import time
import types

import pytest

from sloc import polchinski, rgd, suites

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


def test_nan_stability_factor_fails_both_lsi_identities(monkeypatch):
    monkeypatch.setattr(polchinski, "stability_factor", lambda alpha, tau: math.nan)
    _assert_failed_with_nan(
        suites.check_lsi_schedules(_SMALL), "lsi/factor-integral-identity", "lsi/gaussian-variance-equality"
    )


@pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
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
