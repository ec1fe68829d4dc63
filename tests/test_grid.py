import functools
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from mpnls import (
    BadDimensionError,
    Field,
    FileFormatError,
    GridMismatchError,
    ModeNotOnLatticeError,
    MultipointSpec,
    NonFiniteInputError,
    NonpositiveRError,
    OddNError,
    Trajectory,
    build_grid,
    forward_transform,
    inverse_transform,
    multipoint_residual,
    random_band_limited,
    read_field_file,
    sample_profile,
    write_field_file,
)
from mpnls.grid import _forward_frames, _frame_blocks


def dft_oracle(grid, values):
    """O(N^2n) direct sum û(ξ) = (2π)^{-n/2} h Σ u(x) e^{-iξ·x} at every lattice index."""
    x = grid.x_mesh()
    out = np.empty(grid.shape, dtype=complex)
    for idx in np.ndindex(grid.shape):
        xi_x = sum(ax * xi[i] for ax, xi, i in zip(x, grid.freq_axes, idx))
        out[idx] = np.sum(values * np.exp(-1j * xi_x))
    return (2.0 * np.pi) ** (-grid.n / 2.0) * grid.h * out


def test_build_grid_unit_box():
    g = build_grid(1, 8, np.pi)
    assert np.array_equal(g.freq_axes[0], np.fft.fftfreq(8, 1 / 8))  # FFT order
    assert g.h == pytest.approx(2.0 * np.pi / 8.0, abs=0)


def test_build_grid_cell_volume():
    g = build_grid(2, 4, 1.0)
    assert g.h == 0.25
    assert g.h * g.N**g.n == pytest.approx((2.0 * g.R) ** g.n, abs=0)


def test_build_grid_lattice_symmetric_except_nyquist():
    g = build_grid(1, 16, 2.0)
    xi = g.freq_axes[0]
    half = g.N // 2
    assert xi[half] == -half * np.pi / g.R  # the lone Nyquist mode -N/2, at index N/2
    assert xi[0] == 0.0
    assert np.array_equal(xi[1:half], -xi[:half:-1])  # index k mirrors index N - k


def test_build_grid_rejections():
    with pytest.raises(OddNError):
        build_grid(1, 7, 1.0)
    with pytest.raises(OddNError):
        build_grid(1, 2, 1.0)
    with pytest.raises(OddNError, match=r"< 2\*\*32"):  # the range of a field file's u32 header
        build_grid(1, 2**32, 1.0)
    with pytest.raises(BadDimensionError):
        build_grid(4, 8, 1.0)
    with pytest.raises(NonpositiveRError):
        build_grid(2, 8, 0.0)


def test_forward_zero_field(grid1):
    spec = forward_transform(Field(grid1, np.zeros(64)))
    assert np.all(spec.values == 0.0)


def test_forward_matches_direct_dft_oracle(rng):
    for g in (build_grid(1, 16, 1.7), build_grid(2, 8, 1.3)):
        vals = rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape)
        spec = forward_transform(Field(g, vals))
        oracle = dft_oracle(g, vals)
        assert np.max(np.abs(spec.values - oracle)) < 1e-12 * np.max(np.abs(oracle))


def test_plane_wave_single_coefficient(grid1):
    f = sample_profile(grid1, {"kind": "plane_wave", "amplitude": 1.0, "mode": [3]})
    spec = forward_transform(f)
    hot = np.abs(spec.values) > 1e-12
    assert hot.sum() == 1
    assert grid1.freq_axes[0][hot][0] == pytest.approx(3.0, abs=0)
    # a unit plane wave carries the convention coefficient (2π)^{-n/2}(2R)^n
    unit = (2.0 * np.pi) ** -0.5 * 2.0 * grid1.R
    assert spec.values[hot][0] == pytest.approx(unit, abs=1e-12)


def test_delta_spectrum_is_plane_wave(grid1):
    # inverse of a one-hot spectrum is a pure plane wave; with the unit
    # coefficient above, its amplitude is exactly 1
    unit = (2.0 * np.pi) ** -0.5 * 2.0 * grid1.R
    spec = np.zeros(64, dtype=complex)
    k = 2.0
    spec[np.where(grid1.freq_axes[0] == k)[0][0]] = unit
    f = inverse_transform(Field(grid1, spec))
    expected = np.exp(1j * k * grid1.x_axes[0])
    assert np.max(np.abs(f.values - expected)) < 1e-12


@pytest.mark.parametrize("n,N", [(1, 64), (2, 16), (3, 8)])
def test_roundtrip_and_plancherel(n, N, rng):
    g = build_grid(n, N, 1.3)
    vals = rng.standard_normal((N,) * n) + 1j * rng.standard_normal((N,) * n)
    f = Field(g, vals)
    spec = forward_transform(f)
    back = inverse_transform(spec)
    scale = np.max(np.abs(vals))
    assert np.max(np.abs(back.values - vals)) < 1e-12 * scale
    phys = g.h * np.sum(np.abs(vals) ** 2)
    spect = g.w * np.sum(np.abs(spec.values) ** 2)
    assert spect == pytest.approx(phys, rel=1e-12)


def test_translation_equivariance(rng):
    g = build_grid(1, 32, 2.5)
    vals = rng.standard_normal(32) + 1j * rng.standard_normal(32)
    step = 2.0 * g.R / g.N
    shifted = np.roll(vals, 1)  # u(x - step) on the periodic grid
    spec = forward_transform(Field(g, vals)).values
    spec_shifted = forward_transform(Field(g, shifted)).values
    phase = np.exp(-1j * g.freq_axes[0] * step)
    assert np.max(np.abs(spec_shifted - phase * spec)) < 1e-12 * np.max(np.abs(spec))


def test_gaussian_profile_peak():
    g = build_grid(1, 64, 5.0)
    f = sample_profile(g, {"kind": "gaussian", "amplitude": 1.0, "width": 1.0, "center": [0.0]})
    i0 = np.where(g.x_axes[0] == 0.0)[0][0]
    assert f.values[i0] == 1.0 + 0.0j


def test_subnormal_gaussian_width_samples_a_spike():
    # 2·width² = 2e-320 is subnormal: it passes check_profile, and r²/(2·width²)
    # overflows to inf off the centre, where exp(-inf) = 0 is the right sample
    g = build_grid(1, 16, np.pi)
    f = sample_profile(g, {"kind": "gaussian", "amplitude": 1.0, "width": 1e-160, "center": [0.0]})
    i0 = np.where(g.x_axes[0] == 0.0)[0][0]
    expected = np.zeros(16, dtype=complex)
    expected[i0] = 1.0
    assert np.array_equal(f.values, expected)


def test_plane_wave_profile_at_origin():
    g = build_grid(1, 64, np.pi)
    f = sample_profile(g, {"kind": "plane_wave", "amplitude": 2.0, "mode": [1]})
    i0 = np.where(g.x_axes[0] == 0.0)[0][0]
    assert f.values[i0] == 2.0 + 0.0j


def test_plane_wave_mode_off_lattice():
    g = build_grid(1, 64, np.pi)
    with pytest.raises(ModeNotOnLatticeError):
        sample_profile(g, {"kind": "plane_wave", "amplitude": 1.0, "mode": [0.5]})
    with pytest.raises(ModeNotOnLatticeError):
        sample_profile(g, {"kind": "plane_wave", "amplitude": 1.0, "mode": [99]})


def test_profile_validation():
    g = build_grid(2, 8, 1.0)
    with pytest.raises(ValueError):
        sample_profile(g, {"kind": "gaussian", "width": -1.0})
    with pytest.raises(ValueError):
        sample_profile(g, {"kind": "gaussian", "center": [0.0]})
    with pytest.raises(ValueError):
        sample_profile(g, {"kind": "vortex"})


def test_field_rejects_nan(grid1):
    bad = np.ones(64, dtype=complex)
    bad[3] = np.nan
    with pytest.raises(NonFiniteInputError):
        Field(grid1, bad)
    with pytest.raises(GridMismatchError):
        Field(grid1, np.ones(32))


def test_field_file_roundtrip(tmp_path, rng):
    g = build_grid(2, 8, 1.25)
    vals = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    f = Field(g, vals)
    path = tmp_path / "f.fld"
    write_field_file(f, path)
    back = sample_profile(g, {"kind": "from_file", "path": str(path)})
    assert np.array_equal(back.values, f.values)
    standalone = read_field_file(path)
    assert standalone.grid == g


def test_field_file_rejections(tmp_path, grid1):
    f = Field(grid1, np.ones(64))
    path = tmp_path / "f.fld"
    write_field_file(f, path)
    raw = path.read_bytes()

    (tmp_path / "magic.fld").write_bytes(b"XXXXXXXX" + raw[8:])
    with pytest.raises(FileFormatError):
        read_field_file(tmp_path / "magic.fld")

    (tmp_path / "trunc.fld").write_bytes(raw[:-8])
    with pytest.raises(FileFormatError):
        read_field_file(tmp_path / "trunc.fld")

    bad_version = raw[:8] + (2).to_bytes(4, "little") + raw[12:]
    (tmp_path / "ver.fld").write_bytes(bad_version)
    with pytest.raises(FileFormatError):
        read_field_file(tmp_path / "ver.fld")

    other = build_grid(1, 32, np.pi)
    with pytest.raises(FileFormatError):
        read_field_file(path, grid=other)


def test_trajectory_frames_and_subtraction(grid1, rng):
    vals = rng.standard_normal((4, 64)) + 0j
    traj = Trajectory(grid1, 0.0, 1.5, vals)
    assert traj.nt == 3
    assert np.allclose(traj.times, [0.0, 0.5, 1.0, 1.5])
    assert np.array_equal(traj.frame(2).values, vals[2])
    diff = traj.values - traj.values
    assert np.all(diff == 0.0)
    other = Trajectory(grid1, 0.0, 2.0, vals)
    with pytest.raises(GridMismatchError):  # a trajectory off the axis is refused
        multipoint_residual(other, MultipointSpec(0.0, 1.5), traj.frame(0))


def test_random_band_limited_is_grid_independent():
    coarse = build_grid(1, 64, 3.0)
    fine = build_grid(1, 128, 3.0)
    f_coarse = random_band_limited(coarse, 8, np.random.default_rng(5))
    f_fine = random_band_limited(fine, 8, np.random.default_rng(5))
    # same function sampled on both grids: compare on the shared points
    assert np.max(np.abs(f_fine.values[::2] - f_coarse.values)) < 1e-11


@pytest.mark.parametrize("n, N", [(1, 64), (2, 16), (3, 16)])
@pytest.mark.parametrize("frames", [1, 17, 201])
def test_blocked_forward_pass_equals_the_per_frame_transform(n, N, frames, rng):
    # the block rule at 201 frames: 12-frame blocks at n = 1, 2, and the 256 KiB bound
    # (4 frames of 16³) at n = 3; either way the last block is partial
    grid = build_grid(n, N, 3.0)
    stack = rng.standard_normal((frames,) + grid.shape) + 1j * rng.standard_normal((frames,) + grid.shape)
    blocks = list(_frame_blocks(len(stack), stack[0].nbytes))
    if frames == 201:
        assert blocks[0].stop == (12 if n < 3 else 4) and blocks[-1].stop > frames
    out = np.empty_like(stack)
    for block in blocks:
        _forward_frames(grid, stack[block], out=out[block])
    expected = np.stack([forward_transform(Field(grid, f)).values for f in stack])
    assert np.array_equal(out, expected)
    assert np.array_equal(_forward_frames(grid, stack), expected)


def allocating_forward(grid, values):
    """The forward transform as a product of new arrays, frame by frame on a stack."""
    phase = functools.reduce(np.multiply.outer, [(-1.0) ** np.arange(grid.N)] * grid.n)
    coef = (2.0 * np.pi) ** (-grid.n / 2.0) * grid.h
    return np.multiply(coef * phase, np.fft.fftn(values, axes=tuple(range(-grid.n, 0))))


def allocating_inverse(grid, values):
    phase = functools.reduce(np.multiply.outer, [(-1.0) ** np.arange(grid.N)] * grid.n)
    coef = (2.0 * np.pi) ** (-grid.n / 2.0) * grid.w * grid.N**grid.n
    return coef * np.fft.ifftn(phase * values)


@pytest.mark.parametrize("n, N", [(1, 256), (2, 64), (2, 128), (3, 16)])
def test_transforms_in_place_keep_the_bits_of_the_allocating_formulas(n, N, rng):
    grid = build_grid(n, N, 7.3)
    f = Field(grid, rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape))
    assert np.array_equal(forward_transform(f).values, allocating_forward(grid, f.values))
    assert np.array_equal(inverse_transform(f).values, allocating_inverse(grid, f.values))


def test_forward_pass_over_a_stack_keeps_the_bits_of_the_allocating_formula(rng):
    grid = build_grid(2, 128, 10.0)
    stack = rng.standard_normal((4,) + grid.shape) + 1j * rng.standard_normal((4,) + grid.shape)
    expected = allocating_forward(grid, stack)
    assert np.array_equal(_forward_frames(grid, stack), expected)
    out = np.empty_like(stack)
    assert _forward_frames(grid, stack, out=out) is out and np.array_equal(out, expected)


@pytest.mark.parametrize("n, N", [(2, 128), (3, 16)])
@pytest.mark.parametrize("transform", [forward_transform, inverse_transform])
def test_a_transform_allocates_only_its_result(n, N, transform, rng):
    # the FFT runs in place in the result, and the phase and scale are complex, so that no
    # product casts through a buffer: the allocating formulas peak at 3 frames
    grid = build_grid(n, N, 7.3)
    f = Field(grid, rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape))
    transform(f)  # warm-up: lazy imports and FFT plan caches
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        transform(f)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        if not tracing:
            tracemalloc.stop()
    assert peak / f.values.nbytes <= 1.6


@pytest.mark.parametrize("t0, T", [(0.0, math.inf), (-math.inf, 1.0), (math.nan, 1.0),
                                   (0.0, math.nan)])
def test_trajectory_refuses_a_span_that_is_not_finite(grid1, t0, T):
    bad = T if t0 == 0.0 else t0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"^time must be finite, got {bad}$"):
            Trajectory(grid1, t0, T, np.zeros((3, 64)))
