"""Bitwise determinism of the path-ensemble drivers.

Every ensemble path is a pure function of ``(seed, stream id)``: neither the
chunk size nor the worker count may change a single bit, for a one-dimensional
Gaussian base or for a three-dimensional mixture with unequal covariances.
A single-path particle run is a row of the particle ensemble.
"""
import numpy as np
import pytest

from sloc.bridge import FollmerDrift, girsanov_energy
from sloc.diffusion import backward_sde_ensemble
from sloc.localize import particle_ensemble, particle_sl_run, tilt_sde_ensemble
from sloc.polchinski import polchinski_ensemble
from sloc.sde import TimeGrid, wiener_increments
from sloc.targets import GaussianMeasure, GaussianMixture

N_PATHS = 64


def mixture_d3() -> GaussianMixture:
    g = np.random.default_rng(8)
    a = 0.6 * g.standard_normal((2, 3, 3))
    covs = a @ a.transpose(0, 2, 1) + np.array([0.3, 0.8])[:, None, None] * np.eye(3)
    return GaussianMixture([0.35, 0.65], 1.5 * g.standard_normal((2, 3)), covs)


BASES = {"std-normal": GaussianMeasure([0.0], [[1.0]]), "mixture-d3": mixture_d3()}


def ensemble_outputs(base, **kwargs) -> dict:
    return {
        "tilt": tilt_sde_ensemble(base, TimeGrid.uniform(0.0, 1.0, 60), 11, N_PATHS, (0.5,), **kwargs),
        "backward": backward_sde_ensemble(
            base, TimeGrid.geometric(1e-3, 1.0, 60).including(0.5), 12, N_PATHS, (0.5,), **kwargs
        ),
        "flow": polchinski_ensemble(base, TimeGrid.uniform(0.0, 0.5, 60), 13, N_PATHS, (0.25,), **kwargs),
        "energy": girsanov_energy(FollmerDrift(base), TimeGrid.uniform(0.0, 0.9, 60), N_PATHS, 14, **kwargs),
    }


@pytest.fixture(scope="module", params=sorted(BASES))
def reference(request):
    base = BASES[request.param]
    return base, ensemble_outputs(base)


@pytest.mark.parametrize(
    "kwargs", [{"chunk": 7}, {"workers": 2}, {"chunk": 7, "workers": 2}], ids=["chunk7", "workers2", "both"]
)
def test_ensembles_bitwise_independent_of_chunk_and_workers(reference, kwargs):
    base, expected = reference
    got = ensemble_outputs(base, **kwargs)
    assert got["energy"] == expected["energy"]
    for name in ("tilt", "backward", "flow"):
        assert got[name].keys() == expected[name].keys()
        for t, snap in expected[name].items():
            assert np.array_equal(got[name][t], snap), (name, t)


@pytest.mark.parametrize("name", sorted(BASES))
def test_particle_run_is_a_row_of_the_ensemble(name):
    base = BASES[name]
    grid = TimeGrid.uniform(0.0, 0.5, 50)
    points, log_w, log_mass = particle_ensemble(base, 64, grid, seed=21, n_runs=4)
    for r in range(4):
        cloud = particle_sl_run(base, 64, grid, wiener_increments(grid, base.dim, 21, r), ess_floor=1.0)[-1]
        assert np.array_equal(cloud.points, points[r])
        assert np.abs(cloud.log_weights - log_w[r]).max() <= 1e-12 * (1.0 + np.abs(log_w[r]).max())
        assert abs(cloud.log_mass - log_mass[r]) <= 1e-12 * (1.0 + abs(log_mass[r]))
