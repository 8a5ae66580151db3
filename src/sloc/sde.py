"""Deterministic-seeded Wiener noise, time grids and the Euler stepping engine
that every path process runs on.

Randomness is counter-based (Philox keyed by the ``(seed, stream_id)`` pair),
so each path is a pure function of its seed and stream id: how many other
paths are drawn, and on how many workers, never changes the result.  Distinct
stream ids are independent by construction.  Keys are set directly, without
drawing OS entropy, so opening a stream's generator costs a few microseconds;
``Generator.spawn`` is unsupported on these generators (it raises
``TypeError``).

This module builds every generator of the package.  A stream's counter
blocks are its salts:

- ``SALT_NOISE``, the Wiener increments (``wiener_increment_array``);
- ``SALT_INIT``, a run's start: the backward diffusion's standard normal
  start, the channel's hidden draw and the particle cloud (``_starts``);
- ``SALT_IS``, a single-path run's importance-sampling estimates on a generic
  base when the caller passes no generator (``_estimates``).

The checks, chains and CLI runs outside the path processes open salts of their
own through ``generator``.  A standalone estimate on a generic base, outside
any stream, uses a fixed key ``k`` through ``generator(k, 0)``, which draws
bitwise as ``Philox(key=k)``.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from pathlib import Path
from typing import IO, Callable, Iterable, Sequence, Union

import numpy as np

SALT_NOISE = 0
SALT_INIT = 1
SALT_IS = 2
_U64 = 0xFFFFFFFFFFFFFFFF


class _PhiloxKey(np.random.bit_generator.ISeedSequence):
    """A fixed Philox key as a seed sequence.  ``Philox(key=...)`` first builds
    a ``SeedSequence`` from OS entropy and then discards it; seeding with this
    object sets the same key words without that syscall."""

    __slots__ = ("words",)

    def __init__(self, seed: int, stream_id: int):
        self.words = np.array([seed & _U64, stream_id & _U64], dtype=np.uint64)

    def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
        return self.words.view(dtype)[:n_words]


def _counter(salt: int) -> np.ndarray:
    """The read-only Philox counter ``[0, salt, 0, 0]``."""
    counter = np.array([0, salt & _U64, 0, 0], dtype=np.uint64)
    counter.setflags(write=False)
    return counter


#: The named salts' counters, built once: Philox reads an array faster than a list.
_COUNTERS = {salt: _counter(salt) for salt in (SALT_NOISE, SALT_INIT, SALT_IS)}


class NonFiniteStateError(RuntimeError):
    """An integration step produced a non-finite state."""

    def __init__(self, step: int, t: float):
        self.step = step
        self.t = t
        super().__init__(f"non-finite state at step {step} (time {t!r})")


def generator(seed: int, stream_id: int, salt: int = SALT_NOISE) -> np.random.Generator:
    """Counter-based generator for one (seed, stream) pair.

    ``salt`` selects disjoint counter blocks within a stream so that, for
    example, noise increments and initial-condition draws never overlap.
    Each call returns a fresh, independent, picklable generator whose draws
    are bitwise those of ``Philox(key=(seed, stream_id), counter=[0, salt, 0,
    0])``; its key is set without drawing OS entropy, and ``spawn`` raises
    ``TypeError``.
    """
    counter = _COUNTERS[salt] if salt in _COUNTERS else _counter(salt)
    return np.random.Generator(np.random.Philox(_PhiloxKey(seed, stream_id), counter=counter))


def _check_count(n: int, name: str) -> None:
    """Raise ``ValueError`` naming ``name`` unless an ensemble's count ``n`` is at least 1."""
    if n < 1:
        raise ValueError(f"{name} must be at least 1, got {n}")


def map_chunks(run_chunk, n: int, chunk: int, workers: int = 1) -> None:
    """Apply ``run_chunk(lo, hi)`` over consecutive index ranges.

    Chunks write into disjoint, stream-keyed output slices, so results are
    identical for any worker count or scheduling order.  ``chunk`` must be an
    integer of at least 1; anything else raises ``ValueError``.
    """
    if not isinstance(chunk, numbers.Integral) or chunk < 1:
        raise ValueError(f"chunk must be an integer of at least 1, got {chunk!r}")
    ranges = [(lo, min(lo + chunk, n)) for lo in range(0, n, chunk)]
    if workers <= 1 or len(ranges) <= 1:
        for lo, hi in ranges:
            run_chunk(lo, hi)
        return
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=workers) as pool:
        list(pool.map(lambda r: run_chunk(*r), ranges))


@dataclass(frozen=True)
class TimeGrid:
    """Strictly increasing, finite, nonnegative time points."""

    times: np.ndarray

    def __post_init__(self):
        t = np.atleast_1d(np.array(self.times, dtype=float))
        if t.size < 1 or not np.all(np.isfinite(t)):
            raise ValueError("grid needs at least one finite time")
        if t[0] < 0.0:
            raise ValueError("grid times must be nonnegative")
        dts = np.diff(t)
        if not np.all(dts > 0.0):
            raise ValueError("grid times must be strictly increasing")
        sqrt_dts = np.sqrt(dts)
        for a in (t, dts, sqrt_dts):
            a.setflags(write=False)
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "_dts", dts)
        object.__setattr__(self, "_sqrt_dts", sqrt_dts)

    @classmethod
    def uniform(cls, start: float, stop: float, steps: int) -> "TimeGrid":
        if steps < 1:
            raise ValueError("a uniform grid needs at least one step")
        return cls(np.linspace(start, stop, steps + 1))

    @classmethod
    def geometric(cls, start: float, stop: float, steps: int) -> "TimeGrid":
        if start <= 0.0:
            raise ValueError("geometric grids need a positive start")
        return cls(np.geomspace(start, stop, steps + 1))

    def including(self, *points: float) -> "TimeGrid":
        """Union of this grid with extra time points, for exact snapshots.  A
        point already on the grid up to round-off is left out, so no step is
        of round-off size."""
        new = [t for t in points if self._nearest(t) is None]
        return TimeGrid(np.unique(np.concatenate([self.times, np.asarray(new, float)])))

    @property
    def dts(self) -> np.ndarray:
        """Step sizes ``times[k + 1] - times[k]``, computed once, read-only."""
        return self._dts

    @property
    def sqrt_dts(self) -> np.ndarray:
        """``sqrt(dts)``, the Wiener increments' scales, computed once, read-only."""
        return self._sqrt_dts

    @property
    def steps(self) -> int:
        return self.times.size - 1

    def __len__(self) -> int:
        return self.times.size

    def index_of(self, t: float) -> int:
        """Index of a grid point equal to ``t`` up to round-off."""
        idx = self._nearest(t)
        if idx is None:
            raise ValueError(f"time {t!r} is not a grid point")
        return idx

    def _nearest(self, t: float) -> int | None:
        """``index_of(t)``, or None where that raises."""
        idx = int(np.argmin(np.abs(self.times - t)))
        return idx if math.isclose(self.times[idx], t, rel_tol=1e-12, abs_tol=1e-12) else None


@dataclass(frozen=True)
class SamplePath:
    """A discretized trajectory on a grid together with its noise identity."""

    grid: TimeGrid
    states: np.ndarray
    seed: int
    stream_id: int
    _increments: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        states = np.asarray(self.states, dtype=float)
        if states.ndim == 1:
            states = states[:, None]
        if states.shape[0] != len(self.grid):
            raise ValueError(
                f"states have {states.shape[0]} rows for a grid of {len(self.grid)} points"
            )
        states = states.copy()
        states.setflags(write=False)
        object.__setattr__(self, "states", states)

    @property
    def dim(self) -> int:
        return self.states.shape[1]

    def increments(self) -> np.ndarray:
        """State increments ``(steps, d)``: for a path of ``wiener_increments``
        the draws its states are the running sums of, read-only, else
        ``np.diff`` of the states, which can be an ulp off the draws."""
        return np.diff(self.states, axis=0) if self._increments is None else self._increments


def _gather(draw: Callable[[int], np.ndarray], ids: Sequence[int]) -> np.ndarray:
    """``np.stack([draw(s) for s in ids])``, bit for bit, without the list:
    the ``(len(ids),) + shape`` array is allocated from the first draw, and
    each draw is copied into its row as soon as it is made.  Like ``np.stack``
    it rejects draws of unequal shapes rather than broadcast them."""
    out = None
    for row, s in enumerate(ids):
        a = draw(s)
        if out is None:
            out = np.empty((len(ids),) + a.shape, a.dtype)
        elif a.shape != out.shape[1:]:
            raise ValueError(f"draw {s} has shape {a.shape}, the first draw {out.shape[1:]}")
        out[row] = a
    if out is None:
        raise ValueError("no draws to gather")
    return out


def _starts(draw: Callable[[np.random.Generator], np.ndarray], seed: int, streams: Sequence[int]) -> np.ndarray:
    """``draw`` on each stream's ``SALT_INIT`` generator, stacked by ``_gather``."""
    return _gather(lambda s: draw(generator(seed, s, SALT_INIT)), streams)


def _estimates(noise: SamplePath, rng: np.random.Generator | None) -> np.random.Generator:
    """``rng``, or by default the ``SALT_IS`` generator of ``noise``'s stream."""
    return generator(noise.seed, noise.stream_id, SALT_IS) if rng is None else rng


def wiener_increment_array(grid: TimeGrid, d: int, seed: int, stream_id: int) -> np.ndarray:
    """Raw Wiener increments over the grid intervals, shape ``(steps, d)``."""
    z = generator(seed, stream_id, SALT_NOISE).standard_normal((grid.steps, d))
    z *= grid.sqrt_dts[:, None]
    return z


def wiener_increments(grid: TimeGrid, d: int, seed: int, stream_id: int = 0) -> SamplePath:
    """A Wiener path on ``grid``, relative to the grid start (state 0 there).

    Increments over ``[t_k, t_{k+1}]`` are independent ``N(0, dt * I)``;
    reproducible per ``(seed, stream_id)``.  The path keeps those draws for
    ``increments``, so a single-path run on it steps on exactly the noise of
    the matching ensemble row.
    """
    if d < 1:
        raise ValueError("dimension must be at least 1")
    dw = wiener_increment_array(grid, d, seed, stream_id)
    path = SamplePath(grid, np.vstack([np.zeros((1, d)), np.cumsum(dw, axis=0)]), seed, stream_id)
    dw.setflags(write=False)
    object.__setattr__(path, "_increments", dw)
    return path


def _noise_increments(noise: SamplePath, grid: TimeGrid, d: int) -> np.ndarray:
    """Increments ``(steps, d)`` of a caller's noise path, checked to live on
    the integration grid with the process dimension ``d``."""
    if not np.array_equal(noise.grid.times, grid.times):
        raise ValueError("noise path must live on the integration grid")
    if noise.dim != d:
        raise ValueError(f"noise dimension {noise.dim} does not match the process dimension {d}")
    return noise.increments()


def _affine_step(
    mean: Callable[[int, np.ndarray], np.ndarray], s: np.ndarray, a: np.ndarray, b: np.ndarray, g: np.ndarray
) -> Callable[[int, np.ndarray, np.ndarray], np.ndarray]:
    """Engine step ``x' = a_k x + g_k (b_k m + dw)`` with ``m = mean(k, s_k x)``,
    from coefficient columns tabulated once over the grid's left endpoints:
    one kernel call and six elementwise array operations a step on the column
    state ``x (d, rows)``.  The kernel reads the row view ``(s_k x).T`` and its
    means are turned back into columns."""
    rows = list(zip(s.tolist(), a.tolist(), b.tolist(), g.tolist()))  # Python floats index fastest

    def step(k: int, x: np.ndarray, dw: np.ndarray) -> np.ndarray:
        sk, ak, bk, gk = rows[k]
        y = bk * mean(k, (sk * x).T).T
        y += dw
        y *= gk
        y += ak * x
        return y

    return step


def _integrate(
    grid: TimeGrid,
    x0: np.ndarray,
    step: Callable[[int, np.ndarray, np.ndarray], np.ndarray],
    noise: Union[np.ndarray, Callable[[int], np.ndarray]],
    snapshot_times: Sequence[float] | None = None,
    chunk: int = 4096,
    workers: int = 1,
) -> Union[dict[float, np.ndarray], np.ndarray]:
    """The Euler stepping engine behind every path process.

    Row ``s`` of ``x0 (n, w)`` starts path ``s``.  Each chunk of ``map_chunks``
    steps a column state ``(w, rows)``, path ``s`` in its column, copied once
    from ``x0[lo:hi].T``: ``step(k, x, dw)`` advances the columns ``x (w, rows)``
    over grid interval ``k`` on their increments ``dw (d, rows)`` and returns
    the new column state, which may be ``x`` updated in place.  A step that
    calls the posterior-mean kernel passes it the row view ``c.T`` of its
    columns ``c``, which the kernel reads as contiguous columns.  ``noise`` is
    one path's increments ``(steps, d)`` (then ``n = 1``) or a map from stream
    id to increments, drawn per chunk.  A chunk holds one noise array ``(rows,
    steps, d)``, and each stream is copied into its row as it is drawn, so no
    list of streams is held beside it; a step reads the view ``[:, k].T``.  Returns
    the states at ``snapshot_times`` and the grid's end, keyed by requested
    time, or, when that is None, the states at every grid point as one array
    ``(steps + 1, n, w)``.  A kept state that is not finite raises
    ``NonFiniteStateError``; a non-finite state stays so under every drift
    here, so keeping every point finds the exact step.  Snapshot runs check
    each kept state as it is stored.  A full-trajectory run, as every
    single-path driver makes, checks its chunk's states once, after the loop,
    or when a step raises, as far as it got; either way it raises at the first
    non-finite step, as a check at every step would.
    """
    every = snapshot_times is None
    if every:
        kept = range(len(grid))
    else:
        times = sorted(set(float(s) for s in snapshot_times) | {float(grid.times[-1])})
        index = {s: grid.index_of(s) for s in times}
        kept = sorted(set(index.values()))
    states = np.empty((len(kept),) + x0.shape)
    slot = [None] * len(grid)  # grid index -> row of ``states``, or None where not kept
    for i, k in enumerate(kept):
        slot[k] = i

    def run_chunk(lo: int, hi: int) -> None:
        dw = noise[None] if isinstance(noise, np.ndarray) else _gather(noise, range(lo, hi))
        x = x0[lo:hi].T.copy()
        if slot[0] is not None:
            states[slot[0], lo:hi] = x.T
        try:
            for k in range(grid.steps):
                x = step(k, x, dw[:, k].T)
                i = slot[k + 1]
                if i is not None:
                    if not every and not np.isfinite(x).all():
                        raise NonFiniteStateError(k + 1, float(grid.times[k + 1]))
                    states[i, lo:hi] = x.T
        except Exception as exc:
            if every:
                _check_finite(states[1 : k + 1, lo:hi], grid, exc)
            raise
        if every:
            _check_finite(states[1:, lo:hi], grid)

    map_chunks(run_chunk, x0.shape[0], chunk, workers)
    return states if every else {s: states[slot[k]] for s, k in index.items()}


def _check_finite(states: np.ndarray, grid: TimeGrid, cause: Exception | None = None) -> None:
    """Raise ``NonFiniteStateError``, from ``cause`` if given, at the first
    state ``(rows, w)`` of ``states`` that is not finite; state ``i`` is that of
    grid point ``i + 1``."""
    finite = np.isfinite(states).all(axis=(1, 2))
    if not finite.all():
        first = int(finite.argmin()) + 1
        raise NonFiniteStateError(first, float(grid.times[first])) from cause


def _fmt(x: float) -> str:
    """Seventeen significant digits, which round-trip a double; shared by every
    writer.  An integer below 2**53 in size, such as a stream id, prints as
    ``str`` prints it."""
    return format(float(x), ".17g")


def _emit(text: str, out: Union[str, Path, IO[str]]) -> None:
    """Write ``text`` to a stream, or to a file at a path."""
    if hasattr(out, "write"):
        out.write(text)
    else:
        Path(out).write_text(text)


def _write_csv(header: str | None, rows: Iterable[Iterable[float]], out: Union[str, Path, IO[str]]) -> None:
    """Write CSV text: the ``header`` line, if any, then one line of ``_fmt``
    cells per row of numbers."""
    lines = [] if header is None else [header]
    lines += (",".join(map(_fmt, row)) for row in rows)
    _emit("\n".join(lines) + "\n", out)


def write_paths_csv(paths: Iterable[SamplePath], out: Union[str, Path, IO[str]]) -> None:
    """Export paths as CSV with columns stream_id, time, x_1..x_d."""
    paths = list(paths)
    if not paths:
        raise ValueError("no paths to write")
    header = "stream_id,time," + ",".join(f"x_{k + 1}" for k in range(paths[0].dim))
    rows = ([path.stream_id, t, *x] for path in paths for t, x in zip(path.grid.times, path.states))
    _write_csv(header, rows, out)
