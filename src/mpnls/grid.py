"""Truncated-torus discretization of Rⁿ with unitary discrete Fourier transforms.

Rⁿ is approximated by the box [-R, R)ⁿ with N equispaced points per axis and
frequency lattice ξ = (π/R)·j, j ∈ [-N/2, N/2), kept in FFT order: mode j at index
j mod N, as every spectral step is a per-mode product.  Transforms are normalized
so the discrete Plancherel identity holds exactly:

    h·Σₓ |u(x)|² = w·Σ_ξ |û(ξ)|²,   h = (2R/N)ⁿ,  w = (π/R)ⁿ,

i.e. û(ξ) = (2π)^{-n/2}·h·Σₓ u(x)e^{-iξ·x}, the symmetric continuum
convention sampled on the grid.  With this choice discrete norms approximate
their Rⁿ integrals uniformly in N and R.  Powers of two for N are fastest but
any even N ≥ 4 works.

A Field's samples are finite (the constructor checks, and `_wrap` callers own
their arrays), so the transforms do not rescan them; an overflow on the way is
caught where a frame is written, by the propagation kernel `linear._propagate`.
`_wrap` hands out a read-only view and leaves the caller's buffer writeable.

`forward_transform` and `inverse_transform` are the package's only transforms.
Each works over the last n axes, of one frame or of a block of frames on the
leading axis (the `Field._wrap` of a block), so a pass over a stack of frames,
or over frames made a block at a time, makes one call per block
(`_frame_blocks`): at most 1/16 of the frames and 256 KiB, so that small frames
pay few calls and the scratch of a block stays in cache.
"""

from __future__ import annotations

import math
import struct
from functools import reduce

import numpy as np

from .errors import (
    BadDimensionError,
    FileFormatError,
    GridMismatchError,
    ModeNotOnLatticeError,
    NonFiniteInputError,
    NonpositiveRError,
    OddNError,
)

FIELD_FILE_MAGIC = b"MPNLSFLD"
FIELD_FILE_VERSION = 1
_BLOCK_BYTES = 256 * 1024  # a frame block's bound, at most 1/16 of its stack as well


class SpectralGrid:
    """Uniform periodic grid on [-R, R)ⁿ together with its frequency lattice."""

    __slots__ = ("n", "N", "R", "h", "w", "shape", "x_axes", "freq_axes", "_phase", "_fwd_scale")

    def __init__(self, n: int, N: int, R: float):
        self.n = n
        self.N = N
        self.R = R
        self.h = (2.0 * R / N) ** n
        self.w = (np.pi / R) ** n
        self.shape = (N,) * n
        step = 2.0 * R / N
        self.x_axes = [-R + step * np.arange(N) for _ in range(n)]
        j = (np.arange(N) + N // 2) % N - N // 2  # fftfreq's order; fftfreq(98, 1/98) is inexact
        self.freq_axes = [(np.pi / R) * j for _ in range(n)]
        # (-1)^(j₁+…+jₙ): phase between the DFT and the ξ·x convention on [-R, R); it and the
        # forward transform's factor are kept complex, as numpy would cast them for a product
        # with a frame, so that no product casts
        phase = reduce(np.multiply.outer, [(-1.0) ** j] * n)
        self._phase = _read_only(phase.astype(np.complex128))
        self._fwd_scale = _read_only(((2.0 * np.pi) ** (-n / 2.0) * self.h * phase)
                                     .astype(np.complex128))

    def __eq__(self, other):
        if not isinstance(other, SpectralGrid):
            return NotImplemented
        return (self.n, self.N, self.R) == (other.n, other.N, other.R)

    def __hash__(self):
        return hash((self.n, self.N, self.R))

    def __repr__(self):
        return f"SpectralGrid(n={self.n}, N={self.N}, R={self.R})"

    def x_mesh(self):
        """Sparse meshgrid of the position axes (broadcastable arrays)."""
        return np.meshgrid(*self.x_axes, indexing="ij", sparse=True)

    def freq_mesh(self):
        """Sparse meshgrid of the frequency axes (broadcastable arrays)."""
        return np.meshgrid(*self.freq_axes, indexing="ij", sparse=True)

    def radial_freq_sq(self) -> np.ndarray:
        """|ξ|² on the full lattice."""
        mesh = self.freq_mesh()
        out = np.zeros(self.shape)
        for ax in mesh:
            out = out + ax**2
        return out


class Field:
    """Complex samples on a grid; values are finite and read-only."""

    __slots__ = ("grid", "values")

    def __init__(self, grid: SpectralGrid, values):
        arr = np.array(values, dtype=np.complex128, copy=True)
        if arr.shape != grid.shape:
            raise GridMismatchError(f"values shape {arr.shape} does not match grid {grid.shape}")
        if not np.all(np.isfinite(arr)):
            raise NonFiniteInputError("field samples contain NaN or Inf")
        self.grid = grid
        self.values = _read_only(arr)

    @classmethod
    def _wrap(cls, grid: SpectralGrid, arr: np.ndarray) -> "Field":
        """Internal fast path: a read-only view of an array we own, with no copy or validation;
        the array itself stays writeable.  A block of frames on the leading axis wraps too, as
        the transforms' operand."""
        obj = object.__new__(cls)
        obj.grid, obj.values = grid, _read_only(arr.view())
        return obj

    def __mul__(self, c):
        with np.errstate(over="ignore", invalid="ignore"):  # the constructor rejects an overflow
            return Field(self.grid, self.values * complex(c))

    __rmul__ = __mul__

    def __repr__(self):
        return f"Field(grid={self.grid!r})"


class Trajectory:
    """Uniformly time-indexed sequence of fields on [t0, T]."""

    __slots__ = ("grid", "t0", "T", "nt", "values")

    def __init__(self, grid: SpectralGrid, t0: float, T: float, values):
        arr = np.array(values, dtype=np.complex128, copy=True)
        if arr.ndim != 1 + grid.n or arr.shape[1:] != grid.shape or arr.shape[0] < 2:
            raise GridMismatchError(
                f"trajectory shape {arr.shape} does not match grid {grid.shape}"
            )
        check_time(t0)
        check_time(T)
        if not (T > t0):
            raise GridMismatchError("trajectory needs T > t0")
        time_step(t0, T, arr.shape[0] - 1)
        if not np.all(np.isfinite(arr)):
            raise NonFiniteInputError("trajectory samples contain NaN or Inf")
        self.grid = grid
        self.t0 = t0
        self.T = T
        self.nt = arr.shape[0] - 1
        self.values = _read_only(arr)

    @classmethod
    def _wrap(cls, grid, t0, T, arr) -> "Trajectory":
        """Internal fast path, as Field._wrap: a read-only view of a stack we own."""
        obj = object.__new__(cls)
        obj.grid, obj.t0, obj.T, obj.nt = grid, t0, T, arr.shape[0] - 1
        obj.values = _read_only(arr.view())
        return obj

    @property
    def times(self) -> np.ndarray:
        return np.linspace(self.t0, self.T, self.nt + 1)  # its time_step was checked when made

    @property
    def dt(self) -> float:
        return time_step(self.t0, self.T, self.nt)

    def frame(self, m: int) -> Field:
        return Field._wrap(self.grid, self.values[m])

    def __repr__(self):
        return f"Trajectory(grid={self.grid!r}, t0={self.t0}, T={self.T}, nt={self.nt})"


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


def check_time(t: float) -> None:
    """A time, on an axis or of a propagation, is a finite number."""
    if not math.isfinite(t):
        raise ValueError(f"time must be finite, got {t}")


def time_step(t0: float, T: float, nt: int) -> float:
    """The step (T − t0)/nt of the uniform time axis of nt ≥ 1 intervals on [t0, T], its one
    computation: np.linspace puts frame k at t0 + k·step, and frame nt at T.  A step that is
    not a positive finite number raises ValueError."""
    if nt < 1:
        raise ValueError(f"number of time intervals nt must be >= 1, got {nt}")
    step = (float(T) - float(t0)) / nt  # Python floats: an overflow is inf, with no warning
    if not 0.0 < step < math.inf:
        raise ValueError(f"time step (T - t0)/nt = {step!r} is not a positive finite number "
                         f"(t0={t0}, T={T}, nt={nt})")
    return step


def build_grid(n: int, N: int, R: float) -> SpectralGrid:
    """Construct a grid; n ∈ {1,2,3}, N even with 4 ≤ N < 2³², R > 0 such that the box volume
    (2R)ⁿ, h = (2R/N)ⁿ and w = (π/R)ⁿ are finite nonzero doubles and the largest |ξ|²,
    n·(πN/2R)², is finite."""
    if not isinstance(n, (int, np.integer)) or n not in (1, 2, 3):
        raise BadDimensionError(f"dimension must be 1, 2 or 3, got {n!r}")
    if not isinstance(N, (int, np.integer)) or N < 4 or N % 2 != 0 or N >= 2**32:
        # 2**32: a field file's header stores N as a u32
        raise OddNError(f"points per axis must be even, >= 4 and < 2**32, got {N!r}")
    if not (float(R) > 0.0) or not np.isfinite(R):
        raise NonpositiveRError(f"half-width must be positive, got {R!r}")
    n, N, R = int(n), int(N), float(R)
    try:  # a float ** that leaves the double range raises OverflowError, or underflows to 0
        scales = [(2.0 * R) ** n, (2.0 * R / N) ** n, (math.pi / R) ** n]
    except OverflowError:
        scales = [math.inf]
    xi = math.pi / R * (N // 2)  # the largest |ξ| on an axis, as the lattice has it
    if not all(0.0 < v < math.inf for v in scales + [n * (xi * xi)]):
        raise NonpositiveRError(f"half-width R={R!r} takes the box volume (2R)^n, h = (2R/N)^n, "
                                f"w = (pi/R)^n or the largest |xi|^2 out of the double range "
                                f"(n={n}, N={N})")
    return SpectralGrid(n, N, R)


# --- transforms --------------------------------------------------------------


def _frame_blocks(count: int, frame_bytes: int):
    """The slices of a pass over `count` frames of `frame_bytes` each, in a stack or made a
    block at a time: blocks of at most 1/16 of the frames and at most _BLOCK_BYTES, and at
    least one frame each."""
    step = max(1, min(count // 16, _BLOCK_BYTES // frame_bytes))
    return (slice(lo, lo + step) for lo in range(0, count, step))


def _stack_blocks(stack: np.ndarray):
    """The `_frame_blocks` blocks of a stack of frames, as views."""
    return (stack[rows] for rows in _frame_blocks(len(stack), stack[0].nbytes))


def forward_transform(field: Field, out=None) -> Field:
    """Plancherel-unitary DFT in FFT order (mode j at index j mod N) over the last n axes: of
    one frame, or of each frame of a block on the leading axis.  It is written into `out` when
    given and else into the one array it allocates, and returned as a read-only view."""
    g = field.grid
    out = np.empty_like(field.values) if out is None else out  # fftn would allocate per axis
    # with s given, numpy's n-D FFT skips an np.take of the shape (4 µs a call at N = 256)
    np.fft.fftn(field.values, s=g.shape, axes=tuple(range(-g.n, 0)), out=out)
    return Field._wrap(g, _frame_product(out, g._fwd_scale, out))


def inverse_transform(field: Field, out=None) -> Field:
    """Inverse DFT from the frequency lattice, exact inverse of forward_transform, of one frame
    or of a block of frames, in place in `out` or in the one array it allocates."""
    g = field.grid
    coef = (2.0 * np.pi) ** (-g.n / 2.0) * g.w * g.N**g.n
    res = np.empty_like(field.values) if out is None else out
    _frame_product(field.values, g._phase, res)
    np.fft.ifftn(res, s=g.shape, axes=tuple(range(-g.n, 0)), out=res)
    return Field._wrap(g, np.multiply(coef, res, out=res))


def _frame_product(values: np.ndarray, factor: np.ndarray, out: np.ndarray) -> np.ndarray:
    """values·factor into `out`, for one frame or frame by frame over a block: numpy buffers a
    product that broadcasts over the frames of a block, up to 128 KiB a call.  The transforms'
    factors are real, so their products keep the bits of factor·values."""
    for frame, res in zip(values, out) if values.ndim > factor.ndim else [(values, out)]:
        np.multiply(frame, factor, out=res)
    return out


# --- initial-data profiles ---------------------------------------------------


def check_profile(grid: SpectralGrid, profile: dict) -> dict:
    """Check a profile spec against the grid without sampling it.

    Supported kinds::

        {"kind": "gaussian", "amplitude": A, "width": w, "center": [c...]}
        {"kind": "plane_wave", "amplitude": A, "mode": [j...]}   # ξ = (π/R)·j
        {"kind": "from_file", "path": "..."}                     # binary field file

    Scalar amplitude may be given as a number or [re, im] pair.  Returns the
    spec with its defaults filled in, which is what sample_profile samples.  A
    from_file spec is returned as is: its header is checked when the file is read.
    """
    if not isinstance(profile, dict) or "kind" not in profile:
        raise ValueError("profile must be a dict with a 'kind' key")
    kind = profile["kind"]
    if kind == "from_file":
        return profile
    if kind not in ("gaussian", "plane_wave"):
        raise ValueError(f"unknown profile kind {kind!r}")
    spec = {"kind": kind, "amplitude": profile.get("amplitude", 1.0)}
    _as_complex(spec["amplitude"])
    if kind == "gaussian":
        width = spec["width"] = float(profile.get("width", 1.0))
        if not (width > 0.0 and 0.0 < 2.0 * width * width < math.inf):  # sample_profile's divisor
            raise ValueError(f"gaussian width must be positive with 2*width^2 neither 0 nor inf, "
                             f"got {width!r}")
        spec["center"] = _as_vector(profile.get("center", [0.0] * grid.n), grid.n, "center").tolist()
        return spec
    mode = _as_vector(profile.get("mode", [0] * grid.n), grid.n, "mode")
    if np.any(mode != np.round(mode)):
        raise ModeNotOnLatticeError(f"mode {mode.tolist()} has non-integer entries")
    if np.any(np.abs(mode) > grid.N // 2):
        raise ModeNotOnLatticeError(f"mode {mode.tolist()} exceeds the lattice half-width")
    spec["mode"] = [int(j) for j in mode]
    return spec


def sample_profile(grid: SpectralGrid, profile: dict) -> Field:
    """Sample a profile spec (see check_profile) on the grid."""
    spec = check_profile(grid, profile)
    if spec["kind"] == "from_file":
        return read_field_file(spec["path"], grid=grid)
    amp = _as_complex(spec["amplitude"])
    mesh = grid.x_mesh()
    if spec["kind"] == "gaussian":
        # an r² past the double range, or a subnormal 2·width², gives exp(-inf) = 0
        with np.errstate(over="ignore"):
            r2 = np.zeros(grid.shape)
            for ax, c in zip(mesh, spec["center"]):
                r2 = r2 + (ax - c) ** 2
            return Field(grid, amp * np.exp(-r2 / (2.0 * spec["width"]**2)))
    phase = np.zeros(grid.shape)
    for ax, j in zip(mesh, spec["mode"]):
        phase = phase + (np.pi / grid.R) * j * ax
    return Field(grid, amp * np.exp(1j * phase))


def _as_complex(v) -> complex:
    if isinstance(v, (list, tuple)):
        if len(v) != 2:
            raise ValueError(f"amplitude pair must be [re, im], got {len(v)} entries")
        return complex(float(v[0]), float(v[1]))
    return complex(v)


def _as_vector(v, n: int, name: str) -> np.ndarray:
    arr = np.atleast_1d(np.asarray(v, dtype=float))
    if arr.shape != (n,):
        raise ValueError(f"{name} must have {n} entries")
    return arr


def check_band(grid: SpectralGrid, band: int) -> None:
    """A band of modes |j|∞ ≤ band has band >= 1, and fits on the lattice only for band < N/2."""
    if band < 1:
        raise ValueError(f"band must be >= 1, got {band}")
    if band >= grid.N // 2:
        raise ModeNotOnLatticeError(f"band {band} does not fit on an N={grid.N} grid "
                                    f"(needs band < N/2 = {grid.N // 2})")


def random_band_limited(grid: SpectralGrid, band: int, rng: np.random.Generator) -> Field:
    """Random smooth field: unit-variance complex coefficients on modes |j|∞ ≤ band.

    The realized function Σ c_j e^{i(π/R)j·x} is grid-independent, so the same
    seed produces the same function on refined grids (used by the resolution
    stability checks).
    """
    check_band(grid, band)
    width = 2 * band + 1
    coeffs = rng.standard_normal((width,) * grid.n) + 1j * rng.standard_normal((width,) * grid.n)
    spec = np.zeros(grid.shape, dtype=np.complex128)
    idx = np.ix_(*[np.arange(-band, band + 1) % grid.N] * grid.n)  # modes -band..band, FFT order
    # one unit of e^{ikx} carries spectral coefficient (2π)^{-n/2}(2R)^n
    unit = (2.0 * np.pi) ** (-grid.n / 2.0) * (2.0 * grid.R) ** grid.n
    spec[idx] = unit * coeffs
    return inverse_transform(Field._wrap(grid, spec))


# --- binary field files ------------------------------------------------------

_HEADER = struct.Struct("<8sIII d")  # magic, version, n, N, R


def write_field_file(field: Field, path) -> None:
    """Write a field as: magic 'MPNLSFLD', u32 version=1, u32 n, u32 N, f64 R,
    then Nⁿ little-endian (f64 re, f64 im) pairs in row-major order."""
    g = field.grid
    header = _HEADER.pack(FIELD_FILE_MAGIC, FIELD_FILE_VERSION, g.n, g.N, g.R)
    payload = np.ascontiguousarray(field.values, dtype="<c16").tobytes()
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(payload)


def read_field_file(path, grid: SpectralGrid | None = None) -> Field:
    """Read a binary field file; if a grid is given, the header must match it."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < _HEADER.size:
        raise FileFormatError(f"{path}: truncated header")
    magic, version, n, N, R = _HEADER.unpack_from(raw)
    if magic != FIELD_FILE_MAGIC:
        raise FileFormatError(f"{path}: bad magic {magic!r}")
    if version != FIELD_FILE_VERSION:
        raise FileFormatError(f"{path}: unsupported version {version}")
    if grid is None:
        grid = build_grid(n, N, R)
    elif (grid.n, grid.N) != (n, N) or abs(grid.R - R) > 1e-12 * max(1.0, abs(grid.R)):
        raise FileFormatError(
            f"{path}: file grid (n={n}, N={N}, R={R}) does not match target "
            f"(n={grid.n}, N={grid.N}, R={grid.R})"
        )
    expected = _HEADER.size + 16 * N**n
    if len(raw) != expected:
        raise FileFormatError(f"{path}: expected {expected} bytes, got {len(raw)}")
    values = np.frombuffer(raw, dtype="<c16", offset=_HEADER.size).reshape((N,) * n)
    return Field(grid, values)
