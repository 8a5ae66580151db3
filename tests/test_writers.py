"""Every writer emits the same bytes to a path as to a text stream."""
import io

import numpy as np
import pytest

from sloc import bridge, localize, polchinski, rgd, sde
from sloc.sde import TimeGrid, wiener_increments
from sloc.targets import GaussianMixture


def writer_inputs() -> dict:
    base = GaussianMixture([0.4, 0.6], [[-1.0, 0.5], [1.0, -0.25]], [np.eye(2), 0.5 * np.eye(2)])
    grid = TimeGrid.uniform(0.0, 0.3, 6)
    noises = [wiener_increments(grid, 2, 5, s) for s in range(2)]
    mu = bridge.DiscreteMeasure([[0.0], [1.0], [2.5]], [0.2, 0.5, 0.3])
    pi = bridge.DiscreteMeasure([[-0.5], [1.5]], [0.45, 0.55])
    solved = bridge.sinkhorn(mu, pi, bridge.heat_kernel_reference(mu, pi))
    return {
        "paths": lambda out: sde.write_paths_csv(noises, out),
        "trajectories": lambda out: localize.write_trajectory_csv(
            {s: localize.tilt_sde_run(base, grid, noise) for s, noise in enumerate(noises)}, out
        ),
        "schedule": lambda out: polchinski.write_schedule_csv(
            polchinski.lsi_schedule(0.7), np.linspace(0.0, 0.9, 7), out
        ),
        "chain": lambda out: rgd.write_chain_csv(np.arange(12.0).reshape(4, 3) / 7.0, out, kls=[0.1, 2.0, 0.3, 0.5]),
        "coupling": lambda out: bridge.write_coupling_csv(solved.coupling, out),
        "sinkhorn-trace": lambda out: bridge.write_sinkhorn_trace_json(solved, out),
    }


WRITERS = writer_inputs()


@pytest.mark.parametrize("name", sorted(WRITERS))
def test_path_and_stream_bytes_agree(name, tmp_path):
    path = tmp_path / f"{name}.out"
    WRITERS[name](path)
    stream = io.StringIO()
    WRITERS[name](stream)
    assert path.read_bytes() == stream.getvalue().encode()
    assert path.stat().st_size > 0
