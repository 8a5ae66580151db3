"""Bitwise determinism of the path-ensemble drivers.

Every ensemble path is a pure function of ``(seed, stream id)``: neither the
chunk size nor the worker count may change a single bit, for a one-dimensional
Gaussian base or for a three-dimensional mixture with unequal covariances.
A single-path run is a row of its ensemble, and both fail on a non-finite state,
on a closed-form or a generic base, at the first non-finite step; so does the
control-matrix run, which with ``C = I`` is the tilt run bit for bit.  An
ensemble of fewer than one path is refused.
"""
import numpy as np
import pytest

from sloc import bridge, diffusion, localize, polchinski, sde
from sloc.bridge import FollmerDrift, girsanov_energy
from sloc.diffusion import backward_sde_ensemble, backward_sde_run
from sloc.localize import (
    anisotropic_run,
    channel_ensemble,
    particle_ensemble,
    particle_sl_run,
    tilt_sde_ensemble,
    tilt_sde_run,
)
from sloc.polchinski import polchinski_ensemble, polchinski_run
from sloc.sde import NonFiniteStateError, TimeGrid, wiener_increments
from sloc.targets import GaussianMeasure, GaussianMixture, gaussian_potential, quartic_potential

N_PATHS = 64


def mixture_d3() -> GaussianMixture:
    g = np.random.default_rng(8)
    a = 0.6 * g.standard_normal((2, 3, 3))
    covs = a @ a.transpose(0, 2, 1) + np.array([0.3, 0.8])[:, None, None] * np.eye(3)
    return GaussianMixture([0.35, 0.65], 1.5 * g.standard_normal((2, 3)), covs)


BASES = {"std-normal": GaussianMeasure([0.0], [[1.0]]), "mixture-d3": mixture_d3()}


ENSEMBLES = {
    "tilt": lambda base, **kw: tilt_sde_ensemble(base, TimeGrid.uniform(0.0, 1.0, 60), 11, N_PATHS, (0.5,), **kw),
    "backward": lambda base, **kw: backward_sde_ensemble(
        base, TimeGrid.geometric(1e-3, 1.0, 60).including(0.5), 12, N_PATHS, (0.5,), **kw
    ),
    "flow": lambda base, **kw: polchinski_ensemble(base, TimeGrid.uniform(0.0, 0.5, 60), 13, N_PATHS, (0.25,), **kw),
    "energy": lambda base, **kw: girsanov_energy(FollmerDrift(base), TimeGrid.uniform(0.0, 0.9, 60), N_PATHS, 14, **kw),
}


def ensemble_outputs(base, **kwargs) -> dict:
    return {name: run(base, **kwargs) for name, run in ENSEMBLES.items()}


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


@pytest.mark.parametrize("chunk", [0, -1, 2.5], ids=["zero", "negative", "fraction"])
@pytest.mark.parametrize("name", sorted(ENSEMBLES))
def test_chunk_must_be_a_positive_integer(name, chunk):
    # Unchecked, a negative chunk returned the never-written output buffer.
    with pytest.raises(ValueError, match="chunk must be an integer of at least 1"):
        ENSEMBLES[name](BASES["std-normal"], chunk=chunk)


@pytest.mark.parametrize("name", sorted(BASES))
def test_particle_run_is_a_row_of_the_ensemble(name):
    base = BASES[name]
    grid = TimeGrid.uniform(0.0, 0.5, 50)
    points, log_w, log_mass = particle_ensemble(base, 64, grid, seed=21, n_runs=4)
    for r in range(4):
        cloud = particle_sl_run(base, 64, grid, wiener_increments(grid, base.dim, 21, r), ess_floor=1.0)[-1]
        assert np.array_equal(cloud.points, points[r])
        assert np.array_equal(cloud.log_weights, log_w[r])
        assert cloud.log_mass == log_mass[r]


SINGLE_GRIDS = {
    # After the jump from 0.2 to 0.9 the accumulated regularizer t += dt is an
    # ulp off the grid times, so both runs must accumulate it the same way.
    "tilt": (TimeGrid(np.concatenate([[0.0, 0.2], np.linspace(0.9, 3.0, 8)])), (0.9, 3.0)),
    "backward": (TimeGrid.geometric(1e-3, 1.0, 60).including(0.5), (0.5, 1.0)),
    "flow": (TimeGrid.uniform(0.0, 0.5, 60), (0.25, 0.5)),
}


def stacked_list(draw, ids) -> np.ndarray:
    """The per-stream gather as a list of draws and its ``np.stack`` copy."""
    return np.stack([draw(s) for s in ids])


def gathered_outputs(base) -> dict:
    """Every output that gathers per-stream draws: the engine's ensembles at a
    chunk that does not divide ``N_PATHS`` on two workers, particle blocks of 6
    and 4 runs, and channel draws."""
    out = ensemble_outputs(base, chunk=7, workers=2)
    out["particle"] = dict(enumerate(particle_ensemble(base, 2**15 // 6, TimeGrid.uniform(0.0, 0.5, 20), 15, 10)))
    out["channel"] = channel_ensemble(base, (0.25, 1.0), 16, N_PATHS)
    return out


def test_gather_is_bitwise_the_stacked_list(monkeypatch, reference):
    base, _ = reference
    got = gathered_outputs(base)
    # Starts gather inside sde (sde._starts); localize gathers its own noise too.
    for module in (sde, localize):
        monkeypatch.setattr(module, "_gather", stacked_list)
    expected = gathered_outputs(base)
    assert got["energy"] == expected["energy"]
    for name in ("tilt", "backward", "flow", "particle", "channel"):
        assert got[name].keys() == expected[name].keys()
        for key, value in expected[name].items():
            assert np.array_equal(got[name][key], value), (name, key)


def single_run(name, base, grid, noise, **kwargs) -> np.ndarray:
    """All states of one single-path run, shape (len(grid), d)."""
    if name == "tilt":
        return np.array([state.c for state in tilt_sde_run(base, grid, noise, **kwargs)])
    if name == "backward":
        return np.array([state.x for state in backward_sde_run(base, grid, noise, **kwargs)])
    return polchinski_run(base, grid, noise, **kwargs).states


def ensemble_run(name, base, grid, seed, n_paths, snapshot_times) -> dict:
    driver = {"tilt": tilt_sde_ensemble, "backward": backward_sde_ensemble, "flow": polchinski_ensemble}[name]
    return driver(base, grid, seed, n_paths, snapshot_times)


def patch_noise(monkeypatch, transform) -> None:
    """Route every module's Wiener increments through ``transform(dw, stream_id)``."""
    original = sde.wiener_increment_array

    def patched(grid, d, seed, stream_id):
        return transform(original(grid, d, seed, stream_id), stream_id)

    for module in (sde, localize, diffusion, polchinski, bridge):
        monkeypatch.setattr(module, "wiener_increment_array", patched)


@pytest.mark.parametrize("base_name", sorted(BASES))
@pytest.mark.parametrize("name", sorted(SINGLE_GRIDS))
def test_single_path_run_is_bitwise_an_ensemble_row(name, base_name):
    base = BASES[base_name]
    grid, times = SINGLE_GRIDS[name]
    snaps = ensemble_run(name, base, grid, 31, 4, times)
    for s in range(4):
        states = single_run(name, base, grid, wiener_increments(grid, base.dim, 31, s))
        for t in times:
            assert np.array_equal(states[grid.index_of(t)], snaps[t][s]), (t, s)


SINGLE_DRIVERS = {
    "tilt": lambda base, grid, noise: tilt_sde_run(base, grid, noise),
    "backward": lambda base, grid, noise: backward_sde_run(base, grid, noise),
    "flow": lambda base, grid, noise: polchinski_run(base, grid, noise),
    "particle": lambda base, grid, noise: particle_sl_run(base, 16, grid, noise, ess_floor=1.0),
    "control": lambda base, grid, noise: anisotropic_run(base, grid, noise, np.eye(base.dim)),
}


@pytest.mark.parametrize("name", sorted(SINGLE_DRIVERS))
def test_single_path_drivers_reject_a_foreign_noise_path(name):
    run, base = SINGLE_DRIVERS[name], BASES["mixture-d3"]
    start = 0.1 if name == "backward" else 0.0
    grid = TimeGrid.uniform(start, 0.5, 50)
    with pytest.raises(ValueError, match="integration grid"):
        run(base, grid, wiener_increments(TimeGrid.uniform(start, 0.6, 80), base.dim, 3))
    with pytest.raises(ValueError, match="dimension"):
        run(base, grid, wiener_increments(grid, 1, 3))


BAD_STREAM, BAD_STEP = 2, 5


def inf_in_one_stream(dw, stream_id):
    if stream_id == BAD_STREAM:
        dw = dw.copy()
        dw[BAD_STEP, 0] = np.inf
    return dw


@pytest.mark.parametrize("base_name", sorted(BASES))
@pytest.mark.parametrize("name", sorted(SINGLE_GRIDS))
def test_non_finite_state_raises(monkeypatch, name, base_name):
    patch_noise(monkeypatch, inf_in_one_stream)
    base, grid = BASES[base_name], SINGLE_GRIDS[name][0]
    with np.errstate(all="ignore"):
        with pytest.raises(NonFiniteStateError):
            ensemble_run(name, base, grid, 32, 4, ())
        with pytest.raises(NonFiniteStateError) as err:
            single_run(name, base, grid, wiener_increments(grid, base.dim, 32, BAD_STREAM))
    assert err.value.step == BAD_STEP + 1
    assert err.value.t == grid.times[BAD_STEP + 1]


@pytest.mark.parametrize("dim", [1, 3])
@pytest.mark.parametrize("name", sorted(SINGLE_GRIDS))
def test_non_finite_state_raises_on_a_generic_base(monkeypatch, name, dim):
    # A full-trajectory run checks its states once, after the loop, and still
    # names the first non-finite step, with no other exception on the way.
    patch_noise(monkeypatch, inf_in_one_stream)
    grid = SINGLE_GRIDS[name][0]
    noise = wiener_increments(grid, dim, 32, BAD_STREAM)
    with np.errstate(all="ignore"), pytest.raises(NonFiniteStateError) as err:
        single_run(name, quartic_potential(dim), grid, noise, budget=256)
    assert type(err.value) is NonFiniteStateError
    assert err.value.step == BAD_STEP + 1
    assert err.value.t == grid.times[BAD_STEP + 1]


def test_a_step_that_refuses_a_non_finite_state_reports_that_state():
    grid = TimeGrid.uniform(0.0, 1.0, 10)
    dw = np.zeros((grid.steps, 1))
    dw[BAD_STEP, 0] = np.inf

    def step(k, x, dw_k):
        if not np.isfinite(x).all():
            raise ZeroDivisionError("refused")
        return x + dw_k

    with pytest.raises(NonFiniteStateError) as err:
        sde._integrate(grid, np.zeros((1, 1)), step, dw)
    assert err.value.step == BAD_STEP + 1 and isinstance(err.value.__cause__, ZeroDivisionError)
    # A step that raises before any state is non-finite raises its own error.
    with pytest.raises(ZeroDivisionError):
        sde._integrate(grid, np.full((1, 1), np.nan), step, dw)


ZERO_PATH_DRIVERS = {
    "tilt": lambda base, n: tilt_sde_ensemble(base, TimeGrid.uniform(0.0, 1.0, 4), 1, n),
    "channel": lambda base, n: channel_ensemble(base, (0.5, 1.0), 1, n),
    "backward": lambda base, n: backward_sde_ensemble(base, TimeGrid.geometric(1e-3, 1.0, 4), 1, n),
    "flow": lambda base, n: polchinski_ensemble(base, TimeGrid.uniform(0.0, 0.5, 4), 1, n),
    "particle": lambda base, n: particle_ensemble(base, 8, TimeGrid.uniform(0.0, 0.5, 4), 1, n),
}


@pytest.mark.parametrize("n", [0, -1])
@pytest.mark.parametrize("name", sorted(ZERO_PATH_DRIVERS))
def test_ensembles_refuse_fewer_than_one_path(name, n):
    count = "n_runs" if name == "particle" else "n_paths"
    with pytest.raises(ValueError, match=f"{count} must be at least 1, got {n}"):
        ZERO_PATH_DRIVERS[name](BASES["std-normal"], n)


@pytest.mark.parametrize("base_name", sorted(BASES))
def test_non_finite_control_state_raises(monkeypatch, base_name):
    patch_noise(monkeypatch, inf_in_one_stream)
    base, grid = BASES[base_name], SINGLE_GRIDS["tilt"][0]
    noise = wiener_increments(grid, base.dim, 32, BAD_STREAM)
    with np.errstate(all="ignore"), pytest.raises(NonFiniteStateError) as err:
        anisotropic_run(base, grid, noise, np.eye(base.dim))
    assert err.value.step == BAD_STEP + 1
    assert err.value.t == grid.times[BAD_STEP + 1]


@pytest.mark.parametrize("base_name", sorted(BASES))
def test_identity_control_run_is_bitwise_the_tilt_run(base_name):
    base, grid = BASES[base_name], SINGLE_GRIDS["tilt"][0]
    noise = wiener_increments(grid, base.dim, 36, 0)
    iso = tilt_sde_run(base, grid, noise)
    for state, ref in zip(anisotropic_run(base, grid, noise, np.eye(base.dim)), iso, strict=True):
        assert state.t == ref.t
        assert state.c.tobytes() == ref.c.tobytes()
        assert state.m.tobytes() == ref.m.tobytes()
        assert np.array_equal(state.reg, ref.reg * np.eye(base.dim))


@pytest.mark.parametrize("base_name", sorted(BASES))
def test_non_finite_energy_raises(monkeypatch, base_name):
    patch_noise(monkeypatch, inf_in_one_stream)
    with np.errstate(all="ignore"), pytest.raises(NonFiniteStateError):
        girsanov_energy(FollmerDrift(BASES[base_name]), TimeGrid.uniform(0.0, 0.9, 60), 4, 33)


def test_snapshot_times_on_one_grid_point_share_its_state():
    grid = TimeGrid.uniform(0.0, 1.0, 10)
    snaps = tilt_sde_ensemble(BASES["std-normal"], grid, 34, 3, (0.5, 0.5 + 1e-13))
    assert np.array_equal(snaps[0.5], snaps[0.5 + 1e-13])
    assert np.all(snaps[0.5] != 0.0)


@pytest.mark.parametrize("name", sorted(SINGLE_GRIDS))
def test_generic_estimates_default_to_the_noise_paths_own_stream(name):
    # Without a generator, a generic base's per-step importance sampling draws
    # from the noise path's SALT_IS block, not from one fixed key.
    base, grid = gaussian_potential(1), SINGLE_GRIDS[name][0]
    noise = wiener_increments(grid, 1, 35, 2)
    default = single_run(name, base, grid, noise, budget=64)
    keyed = single_run(name, base, grid, noise, budget=64, rng=sde.generator(35, 2, sde.SALT_IS))
    other = single_run(name, base, grid, noise, budget=64, rng=sde.generator(35, 3, sde.SALT_IS))
    assert np.array_equal(default, keyed)
    assert not np.array_equal(default, other)
