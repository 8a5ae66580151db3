import io
import math
import pickle
import tracemalloc
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from sloc.diffusion import backward_sde_ensemble
from sloc.localize import particle_ensemble
from sloc.sde import (
    SamplePath,
    TimeGrid,
    _gather,
    _integrate,
    generator,
    wiener_increment_array,
    wiener_increments,
    write_paths_csv,
)
from sloc.targets import GaussianMeasure


class TestTimeGrid:
    def test_rejects_non_monotone(self):
        with pytest.raises(ValueError, match="increasing"):
            TimeGrid([0.0, 1.0, 0.5])

    def test_rejects_negative(self):
        with pytest.raises(ValueError, match="nonnegative"):
            TimeGrid([-0.1, 0.5])

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            TimeGrid([0.0, np.inf])

    def test_uniform_needs_a_step(self):
        with pytest.raises(ValueError, match="at least one step"):
            TimeGrid.uniform(0.0, 0.5, 0)

    def test_uniform_and_dts(self):
        grid = TimeGrid.uniform(0.0, 1.0, 4)
        assert len(grid) == 5
        assert np.allclose(grid.dts, 0.25)

    def test_dts_is_one_read_only_array(self):
        grid = TimeGrid.geometric(1e-3, 1.0, 1000)
        assert grid.dts is grid.dts
        assert not grid.dts.flags.writeable
        assert np.array_equal(grid.dts, np.diff(grid.times))

    def test_sqrt_dts_is_one_read_only_array(self):
        grid = TimeGrid.geometric(1e-3, 1.0, 1000)
        assert grid.sqrt_dts is grid.sqrt_dts
        assert not grid.sqrt_dts.flags.writeable
        assert np.array_equal(grid.sqrt_dts, np.sqrt(grid.dts))

    def test_including_inserts_snapshot(self):
        grid = TimeGrid.geometric(1e-3, 1.0, 50).including(0.5)
        assert grid.index_of(0.5) >= 0
        # The middle point of 98 uniform steps is 0.5 less an ulp, and stands for it.
        uniform = TimeGrid.uniform(0.0, 1.0, 98)
        assert uniform.times[49] != 0.5
        assert np.array_equal(uniform.including(0.5, 1.0).times, uniform.times)


class TestWiener:
    def test_determinism(self):
        grid = TimeGrid.uniform(0.0, 1.0, 1)
        a = wiener_increments(grid, 1, seed=42, stream_id=0)
        b = wiener_increments(grid, 1, seed=42, stream_id=0)
        assert a.states.tobytes() == b.states.tobytes()

    def test_distinct_streams_differ(self):
        grid = TimeGrid.uniform(0.0, 1.0, 10)
        a = wiener_increments(grid, 1, seed=42, stream_id=0)
        b = wiener_increments(grid, 1, seed=42, stream_id=1)
        assert not np.array_equal(a.states, b.states)

    def test_terminal_marginal(self):
        grid = TimeGrid.uniform(0.0, 1.0, 1000)
        n = 10_000
        terminal = np.array(
            [wiener_increments(grid, 1, seed=5, stream_id=s).states[-1][0] for s in range(n)]
        )
        assert abs(terminal.mean()) <= 4.0 / math.sqrt(n)
        assert abs(terminal.var() - 1.0) <= 4.0 * math.sqrt(2.0 / n)

    def test_quadratic_variation(self):
        grid = TimeGrid.uniform(0.0, 1.0, 10_000)
        path = wiener_increments(grid, 1, seed=9, stream_id=3)
        qv = float(np.sum(path.increments() ** 2))
        assert abs(qv - 1.0) <= 0.05

    def test_increments_are_the_draws_the_states_sum(self):
        # The cumsum/diff round trip is lossy; a Wiener path hands back its draws.
        grid = TimeGrid.uniform(0.0, 1.0, 200)
        path = wiener_increments(grid, 2, seed=4, stream_id=1)
        draws = wiener_increment_array(grid, 2, 4, 1)
        assert path.increments().tobytes() == draws.tobytes()
        assert not path.increments().flags.writeable
        assert not np.array_equal(np.diff(path.states, axis=0), draws)
        # A caller-built path has no draws; its increments are the differences of its states.
        built = SamplePath(grid, path.states, 4, 1)
        assert np.array_equal(built.increments(), np.diff(path.states, axis=0))

    def test_stream_independence_correlation(self):
        grid = TimeGrid.uniform(0.0, 1.0, 50)
        n = 4000
        a = np.array([wiener_increments(grid, 1, 7, s).states[-1][0] for s in range(n)])
        b = np.array([wiener_increments(grid, 1, 7, s + n).states[-1][0] for s in range(n)])
        corr = float(np.corrcoef(a, b)[0, 1])
        assert abs(corr) <= 4.0 / math.sqrt(n)


def _philox_reference(seed: int, stream_id: int, salt: int) -> np.random.Generator:
    mask = 2**64 - 1
    key = np.array([seed & mask, stream_id & mask], dtype=np.uint64)
    counter = np.array([0, salt & mask, 0, 0], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key, counter=counter))


class TestGenerator:
    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(0, 2**64 - 1),
        st.one_of(st.integers(-(2**70), -1), st.integers(0, 1000), st.integers(2**63, 2**70)),
        st.sampled_from([0, 1, 21, 2**63]),
    )
    def test_draws_equal_keyed_philox(self, seed, stream_id, salt):
        g, ref = generator(seed, stream_id, salt), _philox_reference(seed, stream_id, salt)
        assert g.standard_normal(37).tobytes() == ref.standard_normal(37).tobytes()
        assert g.integers(0, 2**62, 5).tobytes() == ref.integers(0, 2**62, 5).tobytes()
        assert g.random(3).tobytes() == ref.random(3).tobytes()

    def test_same_key_generators_are_independent_objects(self):
        a, b = generator(42, 7, 1), generator(42, 7, 1)
        first = a.standard_normal(100)
        assert b.standard_normal(100).tobytes() == first.tobytes()
        assert a.standard_normal(100).tobytes() != first.tobytes()

    def test_pickle_round_trip_keeps_the_stream(self):
        g = generator(5, 3, 21)
        g.standard_normal(11)
        h = pickle.loads(pickle.dumps(g))
        assert h.standard_normal(50).tobytes() == g.standard_normal(50).tobytes()

    def test_spawn_is_unsupported(self):
        with pytest.raises(TypeError):
            generator(1, 2).spawn(1)

    @pytest.mark.parametrize("d", [1, 3])
    def test_increments_are_scaled_standard_normals(self, d):
        grid = TimeGrid.geometric(1e-3, 1.0, 300).including(0.5)
        dw = wiener_increment_array(grid, d, 9, 4)
        ref = _philox_reference(9, 4, 0).standard_normal((grid.steps, d)) * np.sqrt(grid.dts)[:, None]
        assert dw.tobytes() == ref.tobytes()


def ou_terminal(grid: TimeGrid, x0: float, n: int, seed: int) -> np.ndarray:
    """Terminal states of the OU SDE dx = -x dt + sqrt(2) dB from ``x0`` on
    streams 0..n-1, stepped by the Euler engine."""

    def step(k, x, dw):
        return x + -x * grid.dts[k] + math.sqrt(2.0) * dw

    noise = partial(wiener_increment_array, grid, 1, seed)
    return _integrate(grid, np.full((n, 1), x0), step, noise, ())[float(grid.times[-1])][:, 0]


class TestEulerMaruyama:
    def test_unit_diffusion_reproduces_wiener_path(self):
        grid = TimeGrid.uniform(0.0, 1.0, 50)
        noise = wiener_increments(grid, 1, seed=2, stream_id=0)
        states = _integrate(grid, np.zeros((1, 1)), lambda k, x, dw: x + dw, noise.increments())
        assert np.array_equal(states[:, 0], noise.states)

    def test_ou_terminal_moments(self):
        # dx = -x dt + sqrt(2) dB from x0 = 2 over t = ln 2: the terminal law
        # is N(x0 / 2, 3/4).
        x0 = 2.0
        n = 10_000
        terminal = ou_terminal(TimeGrid.uniform(0.0, math.log(2.0), 100), x0, n, 11)
        se_mean = terminal.std() / math.sqrt(n)
        assert abs(terminal.mean() - x0 / 2.0) <= 4.0 * se_mean + 0.02
        var = terminal.var(ddof=1)
        se_var = math.sqrt((np.mean((terminal - terminal.mean()) ** 4) - var**2) / n)
        assert abs(var - 0.75) <= 4.0 * se_var + 0.02

    def test_refinement_improves_terminal_law(self):
        # Wasserstein-1 distance of the Euler terminal law to the exact OU law
        # shrinks monotonically across three halvings of the step.
        x0, t_end, n = 2.0, 0.7, 10_000
        exact_mean = x0 * math.exp(-t_end)
        exact_std = math.sqrt(1.0 - math.exp(-2.0 * t_end))
        quantiles = stats.norm.ppf((np.arange(n) + 0.5) / n, loc=exact_mean, scale=exact_std)
        w1 = []
        for steps in (7, 14, 28):
            terminal = ou_terminal(TimeGrid.uniform(0.0, t_end, steps), x0, n, 13)
            w1.append(float(np.mean(np.abs(np.sort(terminal) - quantiles))))
        assert w1[0] > w1[1] > w1[2]


def peak_over_noise(run, noise_bytes: int) -> float:
    """Peak traced allocation of ``run()`` over its start, per noise byte;
    ``run`` is called once untraced first, so lazily built caches are warm."""
    run()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return (peak - start) / noise_bytes


class TestGather:
    def test_rejects_unequal_shapes_and_no_draws(self):
        with pytest.raises(ValueError, match="shape"):
            _gather(lambda s: np.zeros((1, 2)) if s else np.zeros((3, 2)), range(2))
        with pytest.raises(ValueError, match="no draws"):
            _gather(np.zeros, range(0))

    # One chunk's peak is its noise array plus per-step rows; a list of
    # streams held beside their stacked copy would double it.
    def test_engine_chunk_holds_one_noise_array(self):
        n, grid = 400, TimeGrid.geometric(1e-3, 1.0, 500)
        base = GaussianMeasure([0.5], [[2.0]])
        ratio = peak_over_noise(lambda: backward_sde_ensemble(base, grid, 3, n), n * grid.steps * 8)
        assert ratio <= 1.25

    def test_particle_block_holds_one_noise_array(self):
        n_particles, n_runs, grid = 16, 2**15 // 16, TimeGrid.uniform(0.0, 1.0, 1000)
        base = GaussianMeasure([0.5], [[2.0]])
        ratio = peak_over_noise(lambda: particle_ensemble(base, n_particles, grid, 3, n_runs),
                                n_runs * grid.steps * 8)
        assert ratio <= 1.25


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**63 - 1), st.integers(0, 1000))
def test_wiener_pure_function_of_seed_and_stream(seed, stream):
    grid = TimeGrid.uniform(0.0, 1.0, 8)
    a = wiener_increments(grid, 2, seed, stream)
    b = wiener_increments(grid, 2, seed, stream)
    assert a.states.tobytes() == b.states.tobytes()


def test_paths_csv_schema():
    grid = TimeGrid.uniform(0.0, 0.2, 2)
    paths = [wiener_increments(grid, 2, 1, s) for s in (0, 1)]
    buf = io.StringIO()
    write_paths_csv(paths, buf)
    lines = buf.getvalue().strip().split("\n")
    assert lines[0] == "stream_id,time,x_1,x_2"
    assert len(lines) == 1 + 2 * 3
    assert lines[1].startswith("0,0,")


def test_sample_path_shape_validation():
    grid = TimeGrid.uniform(0.0, 1.0, 3)
    with pytest.raises(ValueError, match="rows"):
        SamplePath(grid, np.zeros((3, 1)), 0, 0)
