import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special, stats

import sloc
from sloc import diagnostics
from sloc.diagnostics import TwoSampleResult, gaussian_kl, ks_two_sample
from sloc.targets import GaussianMeasure

from oracles import entropy_plugin, gaussian_pdf, grid_1d, moment_check


class TestGaussianKl:
    def test_identical_inputs_give_zero(self):
        p = GaussianMeasure([0.3, -0.1], [[1.0, 0.2], [0.2, 0.8]])
        assert gaussian_kl(p, p) == pytest.approx(0.0, abs=1e-14)

    def test_mean_shift(self):
        theta = 1.7
        p = GaussianMeasure([theta], [[1.0]])
        q = GaussianMeasure([0.0], [[1.0]])
        assert gaussian_kl(p, q) == pytest.approx(theta**2 / 2.0, abs=1e-14)

    def test_variance_case_vs_quadrature(self):
        # Frozen from the quadrature oracle of p log(p/q):
        # KL(N(0,2) || N(0,1)) = (2 - 1 - log 2) / 2 = 0.15342640972002736.
        p = GaussianMeasure([0.0], [[2.0]])
        q = GaussianMeasure([0.0], [[1.0]])
        val = gaussian_kl(p, q)
        assert val == pytest.approx(0.15342640972002736, abs=1e-14)
        xs = grid_1d()
        pd, qd = gaussian_pdf(0.0, 2.0)(xs), gaussian_pdf(0.0, 1.0)(xs)
        assert val == pytest.approx(float(np.trapezoid(pd * np.log(pd / qd), xs)), abs=1e-7)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            gaussian_kl(GaussianMeasure([0.0], [[1.0]]), GaussianMeasure([0.0, 0.0], np.eye(2)))


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000))
def test_gaussian_kl_asymmetric_and_nonnegative(seed):
    rng = np.random.default_rng(seed)
    d = int(rng.integers(1, 4))
    a1 = rng.standard_normal((d, d))
    a2 = rng.standard_normal((d, d))
    p = GaussianMeasure(rng.standard_normal(d), a1 @ a1.T + 0.3 * np.eye(d))
    q = GaussianMeasure(rng.standard_normal(d), a2 @ a2.T + 0.3 * np.eye(d))
    kl_pq = gaussian_kl(p, q)
    kl_qp = gaussian_kl(q, p)
    assert kl_pq >= -1e-12 and kl_qp >= -1e-12
    if kl_pq > 1e-6:
        assert not math.isclose(kl_pq, kl_qp, rel_tol=1e-12) or kl_qp > 1e-6


class TestKsTwoSample:
    def test_identical_arrays(self):
        x = np.random.default_rng(0).standard_normal(100)
        res = ks_two_sample(x, x)
        assert res.statistic == 0.0
        assert res.p_value == pytest.approx(1.0, abs=1e-12)

    def test_disjoint_supports(self):
        res = ks_two_sample(np.linspace(0, 1, 50), np.linspace(5, 6, 50))
        assert res.statistic == 1.0
        assert res.p_value < 1e-10

    def test_minimum_sample_size(self):
        with pytest.raises(ValueError, match="at least"):
            ks_two_sample(np.zeros(10), np.zeros(100))

    def test_calibration(self):
        # Two independent N(0,1) samples of size 1e4 should pass at level 0.01
        # in at least 95 of 100 repetitions.
        rng = np.random.default_rng(1)
        passes = sum(
            ks_two_sample(rng.standard_normal(10_000), rng.standard_normal(10_000)).p_value > 0.01
            for _ in range(100)
        )
        assert passes >= 95

    def test_p_value_validated(self):
        for p in (1.2, -0.1, math.inf):
            with pytest.raises(ValueError):
                TwoSampleResult(0.1, p, 100, 100)

    def test_a_nan_in_a_sample_gives_a_nan_p_value(self):
        x = np.random.default_rng(4).standard_normal(2000)
        x[::10] = math.nan
        for a, b in ((x, np.zeros(2000)), (np.zeros(30), x), (x[:40], x[:40])):
            res = ks_two_sample(a, b)
            assert math.isnan(res.p_value) and math.isnan(res.statistic)
            oracle = stats.ks_2samp(a, b, method="asymp")
            assert math.isnan(oracle.pvalue) and math.isnan(oracle.statistic)


# scipy is the oracle: the statistic is ks_2samp's bit for bit, and the
# p-value, Kolmogorov's limiting law at Stephens' corrected argument, is within
# KS_P_RTOL of ks_2samp(method="asymp") (the exact one-sample law at
# round(en), en = n m / (n + m)) where en >= 500 and p >= 1e-4, and within
# KS_P_ATOL everywhere.  Over d on a fine grid the largest gaps found were
# 2.7% relative at en = 500 and 1.97e-2 absolute at n = 25, m = 100.
KS_P_RTOL = 0.03
KS_P_ATOL = 0.02
KS_SIZES = [(25, 25), (25, 100), (40, 31), (100, 100), (250, 1000), (1000, 1000),
            (1000, 3000), (2000, 2000), (10_000, 400), (5000, 10_000), (10_000, 10_000)]


def _ks_pairs(n, m, seed):
    """Sample pairs from matched to far apart, some of them on an integer
    lattice so that values tie within and across the samples."""
    rng = np.random.default_rng(seed)
    for shift in np.geomspace(1e-3, 1.0, 7):
        yield rng.standard_normal(n), rng.standard_normal(m) + shift * 6.0 / math.sqrt(n * m / (n + m))
        yield np.round(rng.standard_normal(n) * 3.0), np.round(rng.standard_normal(m) * 3.0 + shift)
    yield np.zeros(n), np.zeros(m)


@pytest.mark.parametrize("n, m", KS_SIZES)
def test_ks_statistic_is_scipys_and_its_p_value_near_it(n, m):
    en = n * m / (n + m)
    checked = 0
    for a, b in _ks_pairs(n, m, seed=n + 7 * m):
        mine = ks_two_sample(a, b)
        oracle = stats.ks_2samp(a, b, method="asymp")
        assert mine.statistic == float(oracle.statistic)
        p = float(oracle.pvalue)
        assert mine.p_value == pytest.approx(p, abs=KS_P_ATOL)
        if en >= 500 and p >= 1e-4:
            assert mine.p_value == pytest.approx(p, rel=KS_P_RTOL)
            checked += 1
    assert en < 500 or checked >= 5


def test_kolmogorov_series_is_scipys():
    # Both branches and the switch at 1.18, against scipy's own Kolmogorov
    # survival function; the rounding of 1 - K below the switch bounds the gap.
    for lam in np.concatenate([np.linspace(0.0, 8.0, 4001), [1.18 - 1e-12, 1.18, 1e-3, 1e-200, 40.0]]):
        expected = float(special.kolmogorov(lam))
        assert diagnostics._kolmogorov_sf(float(lam)) == pytest.approx(expected, rel=1e-13, abs=1e-15)


# The moment z-scores and the entropy plug-in are test oracles
# (tests/oracles.py) that other tests read; these check the oracles.


class TestMomentCheck:
    def test_self_calibration(self):
        # Exact N(0,1) samples: all four raw-moment z-scores within 4 in at
        # least 95 of 100 seeds.
        ok = 0
        for seed in range(100):
            x = np.random.default_rng(seed).standard_normal(100_000)
            z = moment_check(x, [0.0, 1.0, 0.0, 3.0])
            ok += bool(np.all(np.abs(z) <= 4.0))
        assert ok >= 95

    def test_constant_samples_exact_reference(self):
        z = moment_check(np.full(1000, 2.5), [2.5], orders=(1,))
        assert z[0] == 0.0

    def test_shifted_reference_detected(self):
        x = np.random.default_rng(3).standard_normal(100_000)
        se = x.std() / math.sqrt(x.size)
        z = moment_check(x, [10.0 * se], orders=(1,))
        assert abs(z[0]) >= 6.0

    def test_reference_length_checked(self):
        with pytest.raises(ValueError):
            moment_check(np.zeros(100), [0.0, 1.0], orders=(1,))

    def test_orders_capped(self):
        with pytest.raises(ValueError):
            moment_check(np.zeros(100), [0.0], orders=(5,))


class TestEntropyPlugin:
    def test_constant_function_has_zero_entropy(self):
        x = np.random.default_rng(4).standard_normal(5000)
        ent, _ = entropy_plugin(x, np.zeros(5000))
        assert ent == pytest.approx(0.0, abs=1e-14)

    def test_gaussian_linear_log_f(self):
        # Closed form: for log f = a x + b under N(0,1), Ent = M a^2 / 2 with
        # M = exp(b + a^2/2); frozen (a=0.7, b=-0.2): 0.2562768256776356.
        a, b = 0.7, -0.2
        closed = math.exp(b + a * a / 2.0) * a * a / 2.0
        assert closed == pytest.approx(0.2562768256776356, abs=1e-15)
        x = np.random.default_rng(5).standard_normal(200_000)
        ent, se = entropy_plugin(x, a * x + b)
        assert abs(ent - closed) <= 4.0 * se

    def test_log_partition_shifts_scale(self):
        # Ent[c f] = c Ent[f]: passing log_partition = log 2 halves f.
        x = np.random.default_rng(6).standard_normal(20_000)
        ent_full, _ = entropy_plugin(x, 0.5 * x)
        ent_half, _ = entropy_plugin(x, 0.5 * x, log_partition=math.log(2.0))
        assert ent_half == pytest.approx(ent_full / 2.0, abs=1e-10)

    def test_stderr_shrinks_with_sample_size(self):
        rng = np.random.default_rng(7)
        x1 = rng.standard_normal(20_000)
        x2 = rng.standard_normal(40_000)
        _, se1 = entropy_plugin(x1, 0.5 * x1)
        _, se2 = entropy_plugin(x2, 0.5 * x2)
        assert se2 <= se1 * (1.0 / math.sqrt(2.0) + 0.3)

    def test_callable_log_f(self):
        x = np.random.default_rng(8).standard_normal((1000, 1))
        ent, _ = entropy_plugin(x, lambda pts: 0.3 * pts[:, 0])
        assert np.isfinite(ent)


_NO_SCIPY_RUNS = """
import json, sys

class NoScipy:
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] == "scipy":
            raise ImportError(f"scipy is blocked: {name}")

sys.meta_path.insert(0, NoScipy())
import sloc, sloc.cli
codes = [sloc.cli.main([*args, "--out", f"out-{args[0]}"]) for args in json.loads(sys.argv[1])]
print(json.dumps({"codes": codes, "scipy": sorted(m for m in sys.modules if m.partition(".")[0] == "scipy")}))
"""


def test_importing_the_package_and_cli_loads_no_scipy(tmp_path):
    # Importing sloc and running each subcommand at seed 42 loads no scipy
    # module, and with every scipy import failing each run keeps its usual exit code.
    runs = [["simulate"], ["equiv", "--paths", "200"], ["rgd", "--paths", "200"], ["bridge"], ["lsi"]]
    env = {k: v for k, v in os.environ.items() if k != "SLOC_SEED"}
    env["PYTHONPATH"] = str(Path(sloc.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", _NO_SCIPY_RUNS, json.dumps(runs)], env=env, cwd=tmp_path,
                         capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    assert json.loads(out.stdout.splitlines()[-1]) == {"codes": [0, 0, 0, 0, 0], "scipy": []}
