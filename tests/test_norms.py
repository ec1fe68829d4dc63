import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from mpnls import (
    BadExponentError,
    BadPowerError,
    EmptyPairSetError,
    Field,
    InadmissiblePairError,
    NegativeSError,
    NonFiniteError,
    PowerNonlinearity,
    Trajectory,
    build_grid,
    canonical_pairs,
    critical_exponent,
    energy,
    is_admissible,
    lebesgue_norm,
    make_pair,
    mass,
    mixed_norm,
    sample_profile,
    sobolev_norm,
    strichartz_norm,
    validate_symbol,
)
from mpnls.norms import apply_riesz, frame_observables

INF = math.inf


def constant_traj(grid, value, t0=0.0, T=1.0, nt=10):
    vals = np.full((nt + 1,) + grid.shape, value, dtype=complex)
    return Trajectory(grid, t0, T, vals)


# --- Lebesgue -----------------------------------------------------------------


def test_lebesgue_constant(grid1):
    f = Field(grid1, np.ones(64))
    assert lebesgue_norm(f, 2.0) == pytest.approx(np.sqrt(2.0 * np.pi), rel=1e-13)


def test_lebesgue_zero_and_sup(grid1):
    assert lebesgue_norm(Field(grid1, np.zeros(64)), 3.5) == 0.0
    pw = sample_profile(grid1, {"kind": "plane_wave", "amplitude": 2.0, "mode": [5]})
    assert lebesgue_norm(pw, INF) == pytest.approx(2.0, abs=1e-14)


def test_lebesgue_bad_exponent(grid1):
    with pytest.raises(BadExponentError):
        lebesgue_norm(Field(grid1, np.ones(64)), 0.5)


# --- mixed space-time -----------------------------------------------------------


def test_mixed_constant(grid1):
    traj = constant_traj(grid1, 1.0)
    assert mixed_norm(traj, 2.0, 2.0) == pytest.approx(np.sqrt(2.0 * np.pi), rel=1e-13)


def test_mixed_equals_flat_spacetime_for_q_eq_r(grid1, rng):
    nt = 12
    vals = rng.standard_normal((nt + 1, 64)) + 1j * rng.standard_normal((nt + 1, 64))
    traj = Trajectory(grid1, 0.0, 2.0, vals)
    q = 4.0
    got = mixed_norm(traj, q, q)
    weights = np.ones(nt + 1)
    weights[0] = weights[-1] = 0.5
    flat = (traj.dt * np.sum(weights * grid1.h * np.sum(np.abs(vals) ** q, axis=1))) ** (1 / q)
    assert got == pytest.approx(flat, rel=1e-12)


def test_mixed_zero_and_sup(grid1):
    assert mixed_norm(constant_traj(grid1, 0.0), 2.0, 2.0) == 0.0
    assert mixed_norm(constant_traj(grid1, 3.0), INF, INF) == pytest.approx(3.0, abs=1e-14)


def test_mixed_overflow_is_inf_without_warnings(grid1):
    # each frame's L² norm, ~2.5e308, is past the float range: inf is the true answer
    traj = constant_traj(grid1, 1e308)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert mixed_norm(traj, 4.0, 2.0) == INF


def test_norms_of_tiny_fields_do_not_underflow(grid1):
    # (1e-40)^12 underflows to 0; the norms read their true values instead
    tiny = 1e-40
    assert lebesgue_norm(Field(grid1, np.full(64, tiny)), 12.0) == pytest.approx(
        (2.0 * np.pi) ** (1.0 / 12.0) * tiny, rel=1e-12, abs=0.0)
    assert mixed_norm(constant_traj(grid1, tiny), 12.0, 2.0) == pytest.approx(
        np.sqrt(2.0 * np.pi) * tiny, rel=1e-12, abs=0.0)


def test_norms_of_huge_fields_do_not_overflow(grid1):
    # (1e200)^2 and (1e60)^8 overflow to inf; the norms read their true values instead
    assert lebesgue_norm(Field(grid1, np.full(64, 1e200)), 2.0) == pytest.approx(
        np.sqrt(2.0 * np.pi) * 1e200, rel=1e-12, abs=0.0)
    assert mixed_norm(constant_traj(grid1, 1e60), 8.0, 4.0) == pytest.approx(
        (2.0 * np.pi) ** 0.25 * 1e60, rel=1e-12, abs=0.0)


# --- Sobolev --------------------------------------------------------------------


def test_spectral_multipliers_whose_transform_overflows_raise_quietly():
    # a finite 1.7e308 gaussian overflows in its forward transform; no numpy warning (an
    # error in this suite) gets out, and no NaN: each names the overflow
    grid = build_grid(1, 16, 4.0)
    phi = sample_profile(grid, {"kind": "gaussian", "amplitude": 1.7e308, "width": 1.0,
                                "center": [0.0]})
    with pytest.raises(NonFiniteError, match="transform overflowed"):
        apply_riesz(phi, 0.5)
    for s in (0.0, 0.5):
        with pytest.raises(NonFiniteError, match="transform overflowed"):
            sobolev_norm(phi, s)
    with pytest.raises(NonFiniteError, match="energy is not finite"):
        energy(phi, validate_symbol([[1.0]]))


def test_sobolev_plane_wave_homogeneous(grid1):
    pw = sample_profile(grid1, {"kind": "plane_wave", "amplitude": 1.0, "mode": [2]})
    s = 0.7
    expected = 2.0**s * np.sqrt(2.0 * np.pi)  # |k|^s sqrt(2R), k = 2
    assert sobolev_norm(pw, s) == pytest.approx(expected, rel=1e-12)


def test_sobolev_constant_annihilated(grid1):
    f = Field(grid1, np.full(64, 2.3))
    assert sobolev_norm(f, 1.0) < 1e-12


def test_sobolev_rejections(grid1):
    f = Field(grid1, np.ones(64))
    with pytest.raises(NegativeSError):
        sobolev_norm(f, -0.1)
    with pytest.raises(BadExponentError):
        sobolev_norm(f, 2.5)


# --- admissibility ---------------------------------------------------------------


def test_admissible_forbidden_triple():
    assert is_admissible(2, 2, INF) == "rejected"


def test_admissible_endpoint_n3():
    assert is_admissible(3, 2, 6) == "sharp"


def test_admissible_infinite_q():
    assert is_admissible(3, INF, 2) == "sharp"
    assert is_admissible(1, 4, INF) == "sharp"


def test_admissible_interior_and_rejected():
    assert is_admissible(3, 4, 8) == "nonsharp"   # 1/2 + 3/8 < 3/2
    assert is_admissible(1, 2, 2) == "rejected"   # 1 + 1/2 > 1/2
    assert is_admissible(2, 8, Fraction(8, 3)) == "sharp"


def test_admissible_bad_exponents():
    with pytest.raises(BadExponentError):
        is_admissible(2, 1.5, 4)


def test_canonical_pairs_by_dimension():
    def as_set(pairs):
        return {(p.q, p.r) for p in pairs}

    assert as_set(canonical_pairs(1)) == {(INF, Fraction(2)), (Fraction(4), INF),
                                          (Fraction(6), Fraction(6)), (Fraction(8), Fraction(4))}
    assert as_set(canonical_pairs(2)) == {(INF, Fraction(2)), (Fraction(4), Fraction(4)),
                                          (Fraction(6), Fraction(3)),
                                          (Fraction(8), Fraction(8, 3))}
    assert (Fraction(2), Fraction(6)) in as_set(canonical_pairs(3))
    # from n = 3 on, q = 2 gives the endpoint (2, 2n/(n−2))
    assert as_set(canonical_pairs(4)) == {(INF, Fraction(2)), (Fraction(2), Fraction(4)),
                                          (Fraction(4), Fraction(8, 3)),
                                          (Fraction(6), Fraction(12, 5)),
                                          (Fraction(8), Fraction(16, 7))}
    assert as_set(canonical_pairs(5)) == {(INF, Fraction(2)), (Fraction(2), Fraction(10, 3)),
                                          (Fraction(4), Fraction(5, 2)),
                                          (Fraction(6), Fraction(30, 13)),
                                          (Fraction(8), Fraction(20, 9))}
    assert as_set(canonical_pairs(6)) == {(INF, Fraction(2)), (Fraction(2), Fraction(3)),
                                          (Fraction(4), Fraction(12, 5)),
                                          (Fraction(6), Fraction(9, 4)),
                                          (Fraction(8), Fraction(24, 11))}
    assert all(p.sharp or p.q == INF for p in canonical_pairs(2))


def test_make_pair_rejects():
    with pytest.raises(InadmissiblePairError):
        make_pair(2, 2, INF)


# --- Strichartz --------------------------------------------------------------------


def test_strichartz_singleton_is_mixed(grid1, rng):
    vals = rng.standard_normal((6, 64)) + 1j * rng.standard_normal((6, 64))
    traj = Trajectory(grid1, 0.0, 1.0, vals)
    pair = make_pair(1, 6, 6)
    assert strichartz_norm(traj, [pair]) == mixed_norm(traj, 6.0, 6.0)


def test_strichartz_zero_and_monotone(grid1, rng):
    assert strichartz_norm(constant_traj(grid1, 0.0), canonical_pairs(1)) == 0.0
    vals = rng.standard_normal((6, 64)) + 1j * rng.standard_normal((6, 64))
    traj = Trajectory(grid1, 0.0, 1.0, vals)
    small = strichartz_norm(traj, [make_pair(1, INF, 2)])
    bigger = strichartz_norm(traj, [make_pair(1, INF, 2), make_pair(1, 6, 6)])
    assert bigger >= small


@pytest.mark.parametrize("n", [1, 2, 3])
def test_strichartz_is_the_max_of_its_mixed_norms(n, rng):
    # one |u| per frame serves every pair; the zero and 1e200 trajectories run
    # the rescale path of _power_root once per distinct r
    grid = build_grid(n, 8, 2.0)
    shape = (5,) + grid.shape
    pairs = canonical_pairs(n)
    assert n != 1 or any(p.r == INF for p in pairs)
    for vals in (rng.standard_normal(shape) + 1j * rng.standard_normal(shape),
                 np.zeros(shape), np.full(shape, 1e200)):
        traj = Trajectory(grid, 0.0, 1.0, vals)
        assert strichartz_norm(traj, pairs) == max(mixed_norm(traj, p.q, p.r) for p in pairs)


# blocks of 12 frames in 1-D; in 2-D the 256 KiB bound gives blocks of 4 frames of 64²
BLOCKED = {1: (build_grid(1, 64, 2.0), [(INF, 2), (4, INF), (8, 4), (16, Fraction(8, 3))]),
           2: (build_grid(2, 64, 2.0), [(INF, 2), (4, 4), (8, Fraction(8, 3)), (4, INF)])}


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("fill", ["random", 0.0, 1e200, 1e-200])
def test_blocked_norms_equal_a_per_frame_recomputation(n, fill, rng):
    # the frame pass works a block of frames at a time; every frame's L^r norm keeps the
    # bits of lebesgue_norm, including the rescale after an overflow (1e200) or an
    # underflow (1e-200) and the all-zero stack
    from mpnls.norms import _time_norm

    grid, pairs = BLOCKED[n]
    shape = (201,) + grid.shape
    vals = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape) if fill == "random"
            else np.full(shape, fill, dtype=complex))
    traj = Trajectory(grid, 0.0, 1.0, vals)

    def per_frame(q, r):
        frames = [lebesgue_norm(traj.frame(m), float(r)) for m in range(traj.nt + 1)]
        return _time_norm(np.array(frames), float(q), traj.dt)

    for q, r in pairs:
        assert mixed_norm(traj, q, r) == per_frame(q, r)
    assert strichartz_norm(traj, pairs) == max(0.0, *(per_frame(q, r) for q, r in pairs))


def test_strichartz_rejections(grid1):
    traj = constant_traj(grid1, 1.0)
    with pytest.raises(EmptyPairSetError):
        strichartz_norm(traj, [])
    with pytest.raises(InadmissiblePairError):
        strichartz_norm(traj, [(2, 2)])


# --- criticality and functionals ----------------------------------------------------


def test_critical_exponent_table():
    assert critical_exponent(3, 4.0, 1.0).classification == "critical"
    assert critical_exponent(3, 4.0, 1.0).s_c == pytest.approx(1.0, abs=1e-14)
    assert critical_exponent(2, 2.0, 0.0).classification == "critical"
    rep = critical_exponent(1, 4.0, 0.3)
    assert rep.s_c == pytest.approx(0.0, abs=1e-14)
    assert rep.classification == "subcritical"
    assert critical_exponent(3, 4.0, 0.5).classification == "supercritical"


def test_critical_exponent_bad_power():
    with pytest.raises(BadPowerError):
        critical_exponent(2, 0.0, 0.0)


def test_mass_values(grid1):
    pw = sample_profile(grid1, {"kind": "plane_wave", "amplitude": 2.0, "mode": [1]})
    assert mass(pw) == pytest.approx(4.0 * 2.0 * np.pi, rel=1e-13)
    assert mass(Field(grid1, np.zeros(64))) == 0.0
    assert mass(pw) == pytest.approx(lebesgue_norm(pw, 2.0) ** 2, rel=1e-12)


def test_energy_plane_wave(grid1, sym1):
    a, k = 0.5, 3.0
    pw = sample_profile(grid1, {"kind": "plane_wave", "amplitude": a, "mode": [3]})
    expected = 0.5 * k**2 * a**2 * 2.0 * np.pi
    assert energy(pw, sym1) == pytest.approx(expected, rel=1e-12)


def test_energy_constant_and_zero(grid1, sym1):
    assert abs(energy(Field(grid1, np.full(64, 1.7)), sym1)) < 1e-13
    assert energy(Field(grid1, np.zeros(64)), sym1) == 0.0


def test_energy_free_part_nonnegative(grid1, sym1, rng):
    # nonnegative, and vanishes only on constants
    f = Field(grid1, rng.standard_normal(64) + 1j * rng.standard_normal(64))
    assert energy(f, sym1) >= -1e-12 * mass(f)
    assert energy(f, sym1) > 1e-6 * mass(f)


def test_energy_nonlinear_term_sign(grid1, sym1):
    f = Field(grid1, np.full(64, 2.0))
    nl = PowerNonlinearity(-1.0, 2.0)
    # constant field: zero gradient, E = -(lam/(p+2)) |u|^4 * 2R = +4 * 2pi
    assert energy(f, sym1, nl) == pytest.approx(4.0 * 2.0 * np.pi, rel=1e-12)


def test_energy_anisotropic(sym2, rng):
    g = build_grid(2, 16, 2.0)
    pw = sample_profile(g, {"kind": "plane_wave", "amplitude": 1.0, "mode": [1, 1]})
    k = np.pi / 2.0
    quad = 6.0 * k**2  # (1,1)·a·(1,1) = 6 at |k| per axis
    assert energy(pw, sym2) == pytest.approx(0.5 * quad * (2 * g.R) ** 2, rel=1e-12)


def test_absolute_homogeneity(grid1, rng):
    vals = rng.standard_normal((6, 64)) + 1j * rng.standard_normal((6, 64))
    traj = Trajectory(grid1, 0.0, 1.0, vals)
    f = traj.frame(2)
    c = 1.7 - 2.3j
    for r in (1.0, 2.0, 8 / 3, INF):
        assert lebesgue_norm(c * f, r) == pytest.approx(abs(c) * lebesgue_norm(f, r), rel=1e-12)
    scaled = Trajectory(grid1, 0.0, 1.0, c * vals)
    for q, r in ((2.0, 2.0), (4.0, INF), (INF, 3.0)):
        assert mixed_norm(scaled, q, r) == pytest.approx(abs(c) * mixed_norm(traj, q, r), rel=1e-12)
    assert sobolev_norm(c * f, 0.8) == pytest.approx(abs(c) * sobolev_norm(f, 0.8), rel=1e-12)


# --- per-frame observables ----------------------------------------------------


def test_frame_observables_columns_are_the_norms(grid1, sym1, rng):
    nt = 6
    vals = rng.standard_normal((nt + 1, 64)) + 1j * rng.standard_normal((nt + 1, 64))
    traj = Trajectory(grid1, 0.0, 1.0, vals)
    nl = PowerNonlinearity(-1.0, 2.0)
    obs = frame_observables(traj, sym1, nl, 0.5)
    frames = [traj.frame(m) for m in range(nt + 1)]
    assert obs.mass == tuple(mass(f) for f in frames)
    assert obs.energy == tuple(energy(f, sym1, nl) for f in frames)
    assert obs.l2 == tuple(lebesgue_norm(f, 2.0) for f in frames)
    assert obs.linf == tuple(lebesgue_norm(f, INF) for f in frames)
    assert obs.sobolev_s == tuple(sobolev_norm(f, 0.5) for f in frames)
    assert frame_observables(traj, sym1, None, 0.5).energy == tuple(energy(f, sym1) for f in frames)
