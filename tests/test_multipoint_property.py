"""Property: the forced linear solve meets the multipoint condition
u(t0) = φ + Σ αₖ u(λₖ), its first frame being the datum, over random SPD
symbols, contracting couplings (Σ|αₖ| < 1), on-grid λₖ and random forcing; and a
separable forcing solves as the same forcing given frame by frame.  A grid time
that `frame_indices` reads as t0 + k·Δt, or T at k = nt, is the bits of `np.linspace`."""

import math

import numpy as np
import pytest

from mpnls import (
    Field,
    MultipointSpec,
    SeparableForcing,
    Trajectory,
    build_grid,
    mixed_norm,
    multipoint_residual,
    solve_linear_multipoint,
    validate_symbol,
)
from mpnls.grid import time_step

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

GRID_POINTS = {1: 32, 2: 8}


@st.composite
def problems(draw):
    n = draw(st.sampled_from([1, 2]))
    b = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=n * n, max_size=n * n)))
    a = b.reshape(n, n) @ b.reshape(n, n).T + draw(st.floats(0.1, 2.0)) * np.eye(n)
    grid = build_grid(n, GRID_POINTS[n], draw(st.floats(1.0, 6.0)))
    t0 = draw(st.floats(-1.0, 1.0))
    T = t0 + draw(st.floats(0.25, 2.0))
    nt = draw(st.integers(2, 24))
    times = np.linspace(t0, T, nt + 1)
    idxs = draw(st.lists(st.integers(1, nt), min_size=0, max_size=3, unique=True))
    weights = draw(st.lists(st.floats(0.01, 1.0), min_size=len(idxs), max_size=len(idxs)))
    angles = draw(st.lists(st.floats(0.0, 2.0 * np.pi), min_size=len(idxs), max_size=len(idxs)))
    total = draw(st.floats(0.0, 0.9))  # Σ|αₖ| < 1 keeps min|D| >= 1 - Σ|αₖ| away from 0
    scale = total / sum(weights) if weights else 0.0
    points = tuple((scale * w * np.exp(1j * th), float(times[i]))
                   for w, th, i in zip(weights, angles, idxs))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = (nt + 1,) + grid.shape
    forcing = Trajectory(grid, t0, T, rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    phi = Field(grid, rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape))
    return validate_symbol(a), grid, MultipointSpec(t0, T, points), phi, forcing, nt


@hypothesis.settings(max_examples=40, deadline=None, derandomize=True)
@hypothesis.given(problems())
def test_forced_datum_is_first_frame_and_meets_condition(problem):
    sym, grid, mp, phi, forcing, nt = problem
    traj = solve_linear_multipoint(sym, grid, mp, phi, forcing, nt=nt)
    assert multipoint_residual(traj, mp, phi) <= 1e-12


@hypothesis.settings(max_examples=40, deadline=None, derandomize=True)
@hypothesis.given(problems())
def test_separable_forcing_solves_as_its_frames(problem):
    sym, grid, mp, phi, forcing, nt = problem
    profile = forcing.frame(nt)
    envelope = forcing.values.reshape(nt + 1, -1)[:, 0]
    frames = Trajectory(grid, mp.t0, mp.T, np.multiply.outer(envelope, profile.values))
    sep = solve_linear_multipoint(sym, grid, mp, phi, SeparableForcing(profile, envelope), nt=nt)
    ref = solve_linear_multipoint(sym, grid, mp, phi, frames, nt=nt)
    diff = Trajectory(grid, mp.t0, mp.T, sep.values - ref.values)
    assert mixed_norm(diff, np.inf, 2.0) <= 1e-13 * mixed_norm(ref, np.inf, 2.0)


@hypothesis.settings(max_examples=200, deadline=None, derandomize=True)
@hypothesis.given(st.floats(-1e300, 1e300), st.floats(1e-300, 1e300), st.integers(1, 4096),
                  st.data())
def test_a_grid_time_is_read_as_linspace_makes_it(t0, span, nt, data):
    T = t0 + span
    hypothesis.assume(T > t0 and math.isfinite(T))
    times = np.linspace(t0, T, nt + 1)
    dt = time_step(t0, T, nt)
    assert [t0 + k * dt for k in range(nt)] + [T] == times.tolist()
    k = data.draw(st.integers(1, nt))
    if dt > 1e-12 * max(abs(t0), abs(T)):  # an index the rounding of t0 + k·Δt keeps
        assert MultipointSpec(t0, T, ((0.5, float(times[k])),)).frame_indices(nt) == [k]
