import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from robinwg.errors import ProfileError
from robinwg.geometry import (RECTANGULAR, SMOOTH_BUMP, TABULATED,
                              CurvatureProfile, ScalingParams,
                              WaveguideGeometry, bending_angle, default_bump,
                              scaled_bending_angle)

# mass of the unit mollifier exp(-1/(1-t^2)) on (-1, 1), pinned by adaptive
# quadrature at 1e-12 and cross-checked below against a 1e6-point trapezoid
BUMP_MASS = 0.4439938161680793


def test_bump_mass_oracle():
    t = np.linspace(-1.0, 1.0, 1_000_001)
    f = np.zeros_like(t)
    inside = np.abs(t) < 1
    f[inside] = np.exp(-1.0 / (1.0 - t[inside] ** 2))
    assert abs(np.trapezoid(f, t) - BUMP_MASS) < 1e-12


def test_bending_angle_zero_curvature():
    flat = CurvatureProfile(SMOOTH_BUMP, amplitude=0.0)
    assert bending_angle(flat) == 0.0


def test_bending_angle_rectangular():
    prof = CurvatureProfile(RECTANGULAR, amplitude=np.pi / 2, center=0.5,
                            half_width=0.5)
    assert abs(bending_angle(prof) - np.pi / 2) < 1e-14


def test_bending_angle_smooth_bump():
    for amp, hw in ((1.0, 1.0), (2.5, 0.7), (-0.8, 3.0)):
        prof = CurvatureProfile(SMOOTH_BUMP, amplitude=amp, half_width=hw)
        assert abs(bending_angle(prof) - amp * hw * BUMP_MASS) < 1e-12


def test_angle_invariant_under_scaling():
    prof = default_bump()
    theta = bending_angle(prof)
    for eps in (1.0, 0.5, 0.1):
        geom = WaveguideGeometry(prof, 1.0, ScalingParams(epsilon=eps), 0.0)
        lo, hi = geom.scaled_support
        val, _ = quad(geom.scaled_curvature, lo, hi, epsabs=1e-13,
                      epsrel=1e-13, limit=400)
        assert abs(val - theta) < 1e-10


def test_scaled_rectangular_amplitude_doubles_support_halves():
    prof = CurvatureProfile(RECTANGULAR, amplitude=1.0, half_width=1.0)
    geom = WaveguideGeometry(prof, 0.2, ScalingParams(epsilon=0.5), 0.0)
    assert abs(geom.scaled_curvature(0.0) - 2.0) < 1e-14
    assert geom.scaled_curvature(0.51) == 0.0
    assert abs(geom.scaled_curvature(0.49) - 2.0) < 1e-14
    lo, hi = geom.scaled_support
    # theta invariant: doubled amplitude times halved support
    assert abs(2.0 * (hi - lo) - bending_angle(prof)) < 1e-14


def test_deformed_angle_first_order():
    prof = default_bump()
    theta = bending_angle(prof)
    b = 0.7
    for eps in (0.1, 0.05, 0.025):
        geom = WaveguideGeometry(prof, 1.0, ScalingParams(epsilon=eps, b=b), 0.0)
        theta_eps = scaled_bending_angle(geom)
        assert abs(theta_eps - np.sqrt(1 + 2 * eps * b) * theta) < 1e-12
        assert abs(theta_eps - (1 + eps * b) * theta) < 1.1 * (eps * b) ** 2 * abs(theta)


def test_deformation_rejects_invalid_b():
    with pytest.raises(ProfileError):
        ScalingParams(epsilon=1.0, b=-0.6)


def test_robin_coefficients_flat():
    geom = WaveguideGeometry(default_bump(), 1.0,
                             ScalingParams(epsilon=1.0, delta_ratio=0.1), 0.8)
    a1, a2 = geom.robin_coefficients(np.array([5.0, -7.0]))  # outside support
    assert np.allclose(a1, 0.8, atol=0) and np.allclose(a2, 0.8, atol=0)


def test_robin_coefficients_hand_value():
    # d=1, eta=0.1, alpha=0: alpha_1 = -0.1/2.2, alpha_2 = 0.1/1.8
    prof = CurvatureProfile(RECTANGULAR, amplitude=1.0, half_width=1.0)
    geom = WaveguideGeometry(prof, 1.0,
                             ScalingParams(epsilon=1.0, delta_ratio=0.1), 0.0)
    a1, a2 = geom.robin_coefficients(0.0)
    assert abs(a1 - (-0.1 / 2.2)) < 1e-15
    assert abs(a2 - (0.1 / 1.8)) < 1e-15


def test_robin_sum_identity():
    # alpha_1 + alpha_2 - 2 alpha = d eta^2 / ((1+d eta)(1-d eta)) >= 0
    d, alpha = 0.7, -0.3
    for eta in np.linspace(-0.9 / d, 0.9 / d, 41):
        a1 = alpha - eta / (2 * (1 + d * eta))
        a2 = alpha + eta / (2 * (1 - d * eta))
        expect = d * eta ** 2 / ((1 + d * eta) * (1 - d * eta))
        assert abs((a1 + a2 - 2 * alpha) - expect) < 1e-14
        assert a1 + a2 - 2 * alpha >= 0


def test_chart_validity_enforced():
    prof = CurvatureProfile(RECTANGULAR, amplitude=3.0, half_width=1.0)
    with pytest.raises(ProfileError):
        WaveguideGeometry(prof, 1.0, ScalingParams(epsilon=1.0, delta_ratio=1.0), 0.0)
    # the scaled pairing is fine when delta/eps shrinks eta
    WaveguideGeometry(prof, 1.0, ScalingParams(epsilon=1.0, delta_ratio=0.05), 0.0)


def test_bump_vanishes_smoothly_at_support_edge():
    prof = default_bump()
    lo, hi = prof.support
    for s in (hi - 1e-4, hi - 1e-6):
        assert abs(prof.sample(s)) < 1e-50
        assert abs(prof.deriv(s)) < 1e-40
        assert abs(prof.deriv2(s)) < 1e-30
    assert prof.sample(hi) == 0.0 and prof.deriv(hi) == 0.0


def test_bump_derivatives_match_finite_differences():
    prof = default_bump()
    s = np.linspace(-1.8, 1.8, 31)
    fd1 = (prof.sample(s + 1e-6) - prof.sample(s - 1e-6)) / 2e-6
    fd2 = (prof.sample(s + 1e-5) - 2 * prof.sample(s) + prof.sample(s - 1e-5)) / 1e-10
    assert np.max(np.abs(fd1 - prof.deriv(s))) < 1e-8
    assert np.max(np.abs(fd2 - prof.deriv2(s))) < 1e-4


def test_support_scaling():
    prof = CurvatureProfile(SMOOTH_BUMP, amplitude=1.0, center=0.5, half_width=2.0)
    geom = WaveguideGeometry(prof, 0.1, ScalingParams(epsilon=0.25), 0.0)
    lo, hi = geom.scaled_support
    assert (lo, hi) == (-0.375, 0.625)
    assert geom.scaled_curvature(hi + 1e-12) == 0.0


def test_tabulated_profile():
    nodes = np.linspace(-1, 1, 21)
    values = np.cos(np.pi * nodes / 2) ** 2
    prof = CurvatureProfile(TABULATED, nodes=tuple(nodes), values=tuple(values))
    assert np.allclose(prof.sample(nodes), values, atol=1e-14)
    assert prof.sample(1.5) == 0.0
    assert prof.is_smooth
    # spline integral against dense trapezoid
    t = np.linspace(-1, 1, 200001)
    assert abs(bending_angle(prof) - np.trapezoid(prof.sample(t), t)) < 1e-8


def test_rectangle_is_the_amplitude_on_its_closed_support():
    # the edges are the support's own floats: hi = 0.4 here, where
    # (hi - center) / half_width rounds to 1 + ulp
    prof = CurvatureProfile(RECTANGULAR, amplitude=0.7, center=0.1,
                            half_width=0.3)
    lo, hi = prof.support
    for s in (lo, hi):
        assert prof.sample(s) == 0.7
    for s in (np.nextafter(lo, -np.inf), np.nextafter(hi, np.inf)):
        assert prof.sample(s) == 0.0


def test_rectangular_not_smooth():
    assert not CurvatureProfile(RECTANGULAR, amplitude=1.0).is_smooth


def test_scaling_params_delta():
    sc = ScalingParams(epsilon=0.1, a=4.0)
    assert abs(sc.delta - 1e-4) < 1e-18
    assert sc.delta / sc.epsilon < 1.0
    sc2 = ScalingParams(epsilon=0.2, delta_ratio=0.05)
    assert abs(sc2.delta - 0.01) < 1e-17
    with pytest.raises(ProfileError):
        ScalingParams(epsilon=0.5, a=2.0).require_convergence_regime()


@settings(max_examples=100, deadline=None)
@given(st.floats(-1.0, 1.0), st.floats(1e-3, 2.0), st.floats(1e-3, 0.1),
       st.floats(0.0, 1.0))
def test_rectangle_cell_fractions_hold_its_mass(center, half_width, h, shift):
    # each node carries the covered fraction of its cell, so the lattice
    # sum is the rectangle's mass wherever its edges fall, and an edge on a
    # node gets one half when the rectangle is at least half a cell wide
    prof = CurvatureProfile(RECTANGULAR, 1.5, center, half_width)
    s = h * (np.arange(-round(4.0 / h), round(4.0 / h) + 1) + shift)
    v = prof.sample_squared(s, h)
    assert np.all((0.0 <= v) & (v <= 2.25))
    assert abs(h * v.sum() - 2.25 * 2 * half_width) <= 1e-9
    lo, _ = prof.support
    if 2 * half_width >= h / 2:
        assert prof.sample_squared(lo + h * np.arange(-3, 4), h)[3] == 1.125
