import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from robinwg.errors import RobinwgError
from robinwg.geometry import (RECTANGULAR, TABULATED, CurvatureProfile,
                              default_bump)
from robinwg import resonance
from robinwg.resonance import (_GATE, Potential1D, _lattice_counts, _march,
                               detect_resonance, find_resonant_coupling,
                               zero_energy_solve)

from reference import scalar_resonant_couplings, scipy_integrate

# frozen by the scanner cross-checked against the fixed-step and solve_ivp
# oracles below; the well-strength invariant is beta* * amplitude^2 *
# half_width^2 = const
BUMP_BETA_STAR = -7.647474116754879
BUMP_BHAT_PER_B = -0.9818757922184146

SQUARE = CurvatureProfile(RECTANGULAR, amplitude=1.0, center=0.5, half_width=0.5)


def constant_well(c, L):
    """(f(L), D, int v f^2) for v = c on [0, L] from f = 1, f' = 0, and the
    scales of their errors: f = cosh(k s) for c > 0, cos(k s) for c < 0."""
    k = np.sqrt(abs(c))
    if c > 0:
        exact = (np.cosh(k * L), k * np.sinh(k * L),
                 c * (L / 2 + np.sinh(2 * k * L) / (4 * k)))
        return exact, np.abs(exact)
    exact = (np.cos(k * L), -k * np.sin(k * L),
             c * (L / 2 + np.sin(2 * k * L) / (4 * k)))
    return exact, (1.0, k, -c * L)


def rk4_mismatch(v, beta_support, n_steps):
    """Fixed-step RK4 integration of f'' = v f; the dual-resolution oracle."""
    lo, hi = beta_support
    h = (hi - lo) / n_steps
    y = np.array([1.0, 0.0])
    s = lo
    def f(s, y):
        return np.array([y[1], float(v(np.array([s]))[0]) * y[0]])
    for _ in range(n_steps):
        k1 = f(s, y)
        k2 = f(s + h / 2, y + h / 2 * k1)
        k3 = f(s + h / 2, y + h / 2 * k2)
        k4 = f(s + h, y + h * k3)
        y = y + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        s += h
    return y


def test_zero_potential_trivial():
    res = detect_resonance(Potential1D.zero())
    assert res.resonant
    assert res.mismatch == 0.0
    assert abs(res.c_minus - 1 / np.sqrt(2)) < 1e-15
    assert abs(res.c_plus - 1 / np.sqrt(2)) < 1e-15
    assert res.b_hat_per_b == 0.0
    assert np.allclose(res.f_r, 1 / np.sqrt(2))


def test_square_well_half_bound_state():
    # W = pi^2/L^2 makes f = cos(pi s/L): D = 0 exactly
    v = Potential1D.from_profile(SQUARE, -np.pi ** 2)
    tr = zero_energy_solve(v)
    (f_exact, d_exact, _), _ = constant_well(-np.pi ** 2, 1.0)
    assert abs(tr.mismatch - d_exact) < 1e-14
    assert abs(tr.mismatch) < 1e-14
    assert abs(tr.f_right - f_exact) < 1e-14


def test_ode_matches_transfer_matrix_off_resonance():
    for beta in (-2.0, -5.0, -12.0):
        v = Potential1D.from_profile(SQUARE, beta)
        tr = zero_energy_solve(v)
        (f_exact, d_exact, _), _ = constant_well(beta, 1.0)
        assert abs(tr.mismatch - d_exact) < 1e-14
        assert abs(tr.f_right - f_exact) < 1e-14


def test_positive_potential_never_resonant():
    # f convex: f' strictly increasing from 0, so D > 0
    for beta in np.linspace(0.05, 30.0, 100):
        v = Potential1D.from_profile(SQUARE, beta)
        tr = zero_energy_solve(v)
        assert tr.mismatch > 0
    res = detect_resonance(Potential1D.from_profile(default_bump(), 2.0))
    assert not res.resonant and res.mismatch > 0


def test_detect_square_well_constants_and_coupling():
    res = detect_resonance(Potential1D.from_profile(SQUARE, -np.pi ** 2))
    assert res.resonant
    # pre-normalised (1, cos(pi)) = (1, -1)
    assert abs(res.c_minus - 1 / np.sqrt(2)) < 1e-14
    assert abs(res.c_plus + 1 / np.sqrt(2)) < 1e-14
    assert abs(res.c_minus ** 2 + res.c_plus ** 2 - 1.0) < 1e-12
    # int_0^1 -pi^2 cos^2(pi s) ds / 2 = -pi^2/4
    assert abs(res.b_hat_per_b - (-np.pi ** 2 / 4)) < 1e-14


def test_resonance_function_residual():
    res = detect_resonance(Potential1D.from_profile(SQUARE, -np.pi ** 2))
    s, fr = res.s, res.f_r
    h = s[1] - s[0]
    v = Potential1D.from_profile(SQUARE, -np.pi ** 2)
    lhs = (fr[:-2] - 2 * fr[1:-1] + fr[2:]) / h ** 2
    rhs = v(s[1:-1]) * fr[1:-1]
    # second differences of the trace obey f'' = v f to the stencil's O(h^2)
    assert np.max(np.abs(lhs - rhs)) < 1e-8 * max(1.0, np.max(np.abs(rhs))) + 2e-4
    assert np.max(np.abs(lhs - rhs)) / np.max(np.abs(fr)) < 1e-3


def test_find_resonant_coupling_square_well():
    # sin(sqrt(-beta) L) = 0: first nontrivial root beta = -pi^2
    root = find_resonant_coupling(SQUARE, (-15.0, -0.5))
    assert abs(root - (-np.pi ** 2)) <= 1e-14 * np.pi ** 2


@pytest.mark.parametrize("center, half_width", [(0.5, 0.5), (0.1, 0.3),
                                                (0.0, 1.0)])
def test_rectangle_solve_takes_few_steps(center, half_width):
    # v is read at interior points only, so the support edges' jumps are
    # never seen: the rectangle is one panel that passes the gate
    prof = CurvatureProfile(RECTANGULAR, 1.0, center, half_width)
    beta = -(np.pi / (2 * half_width)) ** 2
    (f_right, mismatch, _), panels = _march(
        lambda s: beta * prof.sample(s) ** 2, prof.support)
    assert len(panels) == 1
    assert abs(f_right + 1) < 1e-14 and abs(mismatch) < 1e-13


def test_empty_coupling_range_is_rejected():
    with pytest.raises(RobinwgError, match="empty coupling range"):
        find_resonant_coupling(SQUARE, (-5.0, -5.0))


@pytest.mark.parametrize("zero", [
    CurvatureProfile(RECTANGULAR, 0.0, 0.5, 0.5),
    default_bump().scaled(0.0),
], ids=["rectangle", "bump"])
def test_zero_profile_scan_is_rejected(zero):
    # D = 0 at every coupling: the smallest |beta| must not pass for a root
    with pytest.raises(RobinwgError, match="zero profile"):
        find_resonant_coupling(zero, (-20.0, -0.5))


def test_find_resonant_coupling_bump():
    root = find_resonant_coupling(default_bump(), (-20.0, -0.5))
    assert abs(root - BUMP_BETA_STAR) <= 1e-14 * abs(BUMP_BETA_STAR)
    # solve_ivp's root at rtol 1e-13, and the dual-resolution fixed-step
    # oracle
    d = lambda beta: scipy_integrate(
        lambda s: beta * default_bump().sample(s) ** 2, (-2.0, 2.0),
        rtol=1e-13)[1]
    oracle = brentq(d, -7.7, -7.6, xtol=1e-13, rtol=8.9e-16)
    assert abs(root - oracle) <= 1e-12 * abs(oracle)
    prof = default_bump()
    for n_steps in (4000, 8000):
        v = Potential1D.from_profile(prof, root)
        y = rk4_mismatch(v, prof.support, n_steps)
        assert abs(y[1]) < 1e-6
    res = detect_resonance(Potential1D.from_profile(prof, root))
    assert res.resonant
    assert abs(res.c_plus + 1 / np.sqrt(2)) < 1e-6
    assert abs(res.b_hat_per_b - BUMP_BHAT_PER_B) < 1e-14


def test_beta_zero_is_not_a_resonance():
    # the count steps across beta = 0 by the constant Neumann mode, where
    # D = 0 trivially; a range straddling 0 finds the first attractive root
    root = find_resonant_coupling(default_bump(), (-20.0, -0.5))
    straddling = find_resonant_coupling(default_bump(), (-20.0, 20.0))
    assert abs(straddling - root) <= 1e-14 * abs(root)
    assert find_resonant_coupling(default_bump(), (-0.5, 20.0)) is None


def test_scan_makes_no_noise_solve(monkeypatch):
    # the guard reads D at the bracket ends, Brent starts from them again
    # and returns a point it evaluated, and the acceptance check solves
    # that point once more: no other solve
    calls, march = [], resonance._march
    g2 = default_bump().sample(0.0) ** 2

    def counted(func, *args):
        calls.append(float(func(np.array([0.0]))[0]))
        return march(func, *args)

    monkeypatch.setattr(resonance, "_march", counted)
    root = find_resonant_coupling(default_bump(), (-20.0, -0.5))
    betas = np.linspace(-20.0, -0.5, 120)
    i = np.searchsorted(betas, root) - 1
    ends = [betas[i] * g2, betas[i + 1] * g2]
    assert calls[:4] == ends + ends
    brent = calls[2:-1]
    assert len(brent) == len(set(brent)) >= 3
    assert calls[-1] == root * g2 in brent


def test_find_resonant_coupling_positive_range_none():
    assert find_resonant_coupling(SQUARE, (0.5, 20.0)) is None


def test_reflection_covariance():
    # asymmetric tabulated profile; mirroring swaps the asymptotic constants
    nodes = np.linspace(-1.0, 1.0, 41)
    values = np.exp(-8 * (nodes - 0.3) ** 2) + 0.4 * np.exp(-6 * (nodes + 0.5) ** 2)
    values[0] = values[-1] = 0.0
    prof = CurvatureProfile(TABULATED, nodes=tuple(nodes), values=tuple(values))
    root = find_resonant_coupling(prof, (-30.0, -0.5))
    assert root is not None
    res = detect_resonance(Potential1D.from_profile(prof, root))
    assert res.resonant
    mirror = CurvatureProfile(TABULATED, nodes=tuple(-nodes[::-1]),
                              values=tuple(values[::-1]))
    res_m = detect_resonance(Potential1D.from_profile(mirror, root))
    assert res_m.resonant
    # (c-, c+) swaps up to the overall sign fixed by left-normalisation
    assert abs(abs(res_m.c_minus) - abs(res.c_plus)) < 1e-13
    assert abs(abs(res_m.c_plus) - abs(res.c_minus)) < 1e-13
    assert abs(res_m.c_minus * res_m.c_plus - res.c_minus * res.c_plus) < 1e-13


def test_scaling_invariance_of_verdict():
    prof = default_bump()
    base = Potential1D.from_profile(prof, BUMP_BETA_STAR)
    ref = detect_resonance(base)
    for eps in (1.0, 0.5, 0.1):
        res = detect_resonance(base.scaled(eps))
        assert res.resonant == ref.resonant
        assert abs(res.c_minus - ref.c_minus) < 1e-13
        assert abs(res.c_plus - ref.c_plus) < 1e-13
    # off resonance the mismatch sign is scale invariant as well
    voff = Potential1D.from_profile(prof, -3.0)
    sign = np.sign(zero_energy_solve(voff, 2).mismatch)
    for eps in (0.5, 0.1):
        assert np.sign(zero_energy_solve(voff.scaled(eps), 2).mismatch) == sign


def test_resonant_constants_not_both_zero():
    res = detect_resonance(Potential1D.from_profile(SQUARE, -np.pi ** 2))
    assert abs(res.c_minus) + abs(res.c_plus) > 0
    assert abs(res.c_minus ** 2 + res.c_plus ** 2 - 1.0) < 1e-12


@pytest.mark.parametrize("knots", [(0.0,), (0.6, 0.3), (0.5, 1.5)],
                         ids=["on_edge", "decreasing", "outside"])
def test_knots_must_increase_inside_the_support(knots):
    with pytest.raises(RobinwgError, match="knots"):
        Potential1D.from_callable(lambda s: -np.ones_like(s), (0.0, 1.0),
                                  knots=knots)


def test_scaled_potential_support():
    v = Potential1D.from_profile(default_bump(), 1.0).scaled(0.25)
    assert v.support == (-0.5, 0.5)
    assert abs(v(np.array([0.0]))[0] - default_bump().sample(0.0) ** 2 / 0.0625) < 1e-12


def test_lattice_count_square_well_closed_form(monkeypatch):
    # Neumann eigenvalues (j pi)^2 of the unit well: 1 + floor(q / pi)
    # resonances above beta = -q^2, lam = 0 included; none for beta > 0,
    # where h^2 beta / 12 > 1 too.  The count solves no ODE.
    def no_solve(*args, **kwargs):
        raise AssertionError("the lattice count ran the zero-energy solve")

    monkeypatch.setattr(resonance, "_march", no_solve)
    betas = np.linspace(-45.0, -1.0, 9)
    q = np.sqrt(-betas)
    assert list(_lattice_counts(SQUARE, betas)) == list(
        1 + np.floor(q / np.pi).astype(int))
    assert not np.any(_lattice_counts(SQUARE, [0.5, 5.0, 20.0, 1e7]))


def test_sturm_guard_names_interval_with_hidden_roots(monkeypatch):
    # -pi^2 and -4 pi^2 share the last of the 119 intervals: the count
    # steps by two there, and the guard fires before any solve
    def no_solve(*args, **kwargs):
        raise AssertionError("the scan solved before the guard")

    with monkeypatch.context() as m:
        m.setattr(resonance, "_march", no_solve)
        with pytest.raises(RobinwgError, match=r"scan interval "
                           r"\[-43\.0084, -1\] holds 2 resonances"):
            find_resonant_coupling(SQUARE, (-5000.0, -1.0))
    root = find_resonant_coupling(SQUARE, (-45.0, -1.0))
    assert abs(root + np.pi ** 2) <= 1e-14 * np.pi ** 2


def test_sturm_guard_names_interval_where_count_and_mismatch_disagree(
        monkeypatch):
    # a count that places the root one interval early: D keeps its sign
    # over the interval it steps in, which the guard names
    counts = resonance._lattice_counts
    monkeypatch.setattr(resonance, "_lattice_counts",
                        lambda p, b: np.append(counts(p, b)[1:], 1))
    betas = np.linspace(-20.0, -0.5, 120)
    i = np.searchsorted(betas, BUMP_BETA_STAR) - 2
    with pytest.raises(RobinwgError, match=(
            rf"scan interval \[{betas[i]:.6g}, {betas[i + 1]:.6g}\]: the "
            "resonance count steps by one but the mismatch D keeps its sign")):
        find_resonant_coupling(default_bump(), (-20.0, -0.5))


def seeded_bell(seed):
    """9-node tabulated bell, interior values x U(0.9, 1.1)."""
    rng = np.random.default_rng(seed)
    rng.uniform()
    values = np.array([0, .12, .36, .6, .68, .6, .36, .12, 0])
    values[1:-1] *= rng.uniform(0.9, 1.1, 7)
    return CurvatureProfile(TABULATED, nodes=tuple(np.linspace(-2, 2, 9)),
                            values=tuple(values))


def rk4_knot_aligned(profile, beta, n_steps):
    """(D, dD/dbeta) by fixed-step RK4 with the variational equation.

    The step divides the knot spacing, so every step sees one cubic piece of
    the spline and RK4 keeps its fourth order.
    """
    lo, hi = profile.support
    h = (hi - lo) / n_steps
    g2 = (profile.sample(lo + 0.5 * h * np.arange(2 * n_steps + 1)) ** 2).tolist()

    def rhs(w, f, fp, g, gp):
        return fp, beta * w * f, gp, w * f + beta * w * g

    y = (1.0, 0.0, 0.0, 0.0)
    for i in range(n_steps):
        w0, w1, w2 = g2[2 * i:2 * i + 3]
        k1 = rhs(w0, *y)
        k2 = rhs(w1, *(a + 0.5 * h * k for a, k in zip(y, k1)))
        k3 = rhs(w1, *(a + 0.5 * h * k for a, k in zip(y, k2)))
        k4 = rhs(w2, *(a + h * k for a, k in zip(y, k3)))
        y = tuple(a + h / 6 * (p + 2 * q + 2 * r + t)
                  for a, p, q, r, t in zip(y, k1, k2, k3, k4))
    return y[1], y[3]


def test_tabulated_root_matches_knot_aligned_rk4():
    # a panel between each two knots sees one cubic piece of the spline
    prof = seeded_bell(3)
    root = find_resonant_coupling(prof, (-30.0, -0.5))
    d, dd = rk4_knot_aligned(prof, root, 16000)
    newton = root - d / dd
    assert abs(newton - root) < 1e-13 * abs(root)


def test_zero_energy_solve_restarts_at_knots():
    prof = seeded_bell(3)
    v = Potential1D.from_profile(prof, -7.0)
    assert v.knots == prof.knots == tuple(np.linspace(-2, 2, 9)[1:-1])
    assert v.scaled(0.5).knots == tuple(0.5 * k for k in v.knots)
    tr = zero_energy_solve(v)
    d, _ = rk4_knot_aligned(prof, -7.0, 16000)
    assert abs(tr.mismatch - d) < 1e-13
    # the trace is continuous across the pieces and starts from (1, 0)
    assert tr.f[0] == 1.0 and tr.fprime[0] == 0.0
    assert np.max(np.abs(np.diff(tr.f))) < 0.05


def scaled_bump_star(amp):
    return find_resonant_coupling(default_bump().scaled(amp),
                                  (-20.0 / amp ** 2, -0.5 / amp ** 2))


@settings(max_examples=10, deadline=None)
@given(st.floats(0.8, 2.5))
def test_resonant_coupling_amplitude_covariance(amp):
    # v = beta (A gamma)^2 = (beta A^2) gamma^2
    root = scaled_bump_star(amp)
    assert abs(root * amp ** 2 - BUMP_BETA_STAR) < 1e-14 * abs(BUMP_BETA_STAR)


@settings(max_examples=10, deadline=None)
@given(st.floats(0.8, 2.5))
def test_node_count_steps_by_one_across_root(amp):
    # the lattice places the root to about 1e-10 here: read it 1e-6
    # either side
    root = scaled_bump_star(amp)
    prof = default_bump().scaled(amp)
    betas = [root * (1 - 1e-6), root * (1 + 1e-6)]
    d = [zero_energy_solve(Potential1D.from_profile(prof, b), 2).mismatch
         for b in betas]
    assert d[0] * d[1] < 0
    nodes = _lattice_counts(prof, betas)
    assert nodes[1] == nodes[0] + 1


SCANS = st.one_of(
    st.floats(0.8, 2.5).map(
        lambda a: (default_bump().scaled(a), (-60.0 / a ** 2, -0.5 / a ** 2))),
    st.integers(0, 2 ** 16).map(lambda seed: (seeded_bell(seed),
                                              (-30.0, -0.5))))


@settings(max_examples=4, deadline=None)
@given(SCANS)
@example((default_bump(), (-20.0, -0.5)))
@example((seeded_bell(287), (-30.0, -0.5)))  # a root 2e-5 from a coupling
def test_count_steps_where_scalar_mismatch_changes_sign(scan):
    # the brackets of find_resonant_coupling are the scalar sign changes
    profile, beta_range = scan
    betas = np.linspace(*beta_range, 120)
    steps = -np.diff(_lattice_counts(profile, betas))
    d = np.sign([zero_energy_solve(Potential1D.from_profile(profile, b),
                                   2).mismatch for b in betas])
    flips = np.flatnonzero(d[:-1] * d[1:] < 0)
    assert set(steps) <= {0, 1}
    assert np.array_equal(np.flatnonzero(steps), flips)
    if scan == (default_bump(), (-20.0, -0.5)):
        assert flips.size == 1  # the one resonance of the default window


def two_step_well(a, b, L1):
    """v = -a^2 on [0, L1], -b^2 on [L1, L1 + L2], L2 tuned to a resonance.

    With f = cos(a s) on the first step, f'(L1 + L2) = 0 on the second iff
    tan(b L2) = f'(L1) / (b f(L1)).
    """
    L2 = np.arctan2(-a * np.sin(a * L1), b * np.cos(a * L1)) % np.pi / b
    return L2, lambda s: np.where(np.asarray(s) < L1, -a * a, -b * b)


WELL = (st.floats(0.5, 3.0), st.floats(0.5, 3.0), st.floats(0.2, 2.0))


@settings(max_examples=30, deadline=None)
@given(*WELL, st.floats(0.05, 3.0), st.sampled_from([1.0, 1.05]))
def test_detect_resonance_invariant_under_scaling(a, b, L1, eps, detune):
    # v -> eps^-2 v(./eps) keeps the verdict and (c-, c+); the mismatch and
    # b_hat/b carry one factor 1/eps
    L2, v = two_step_well(a, b, L1)
    assume(L2 > 0.05)
    pot = Potential1D.from_callable(v, (0.0, L1 + detune * L2), knots=(L1,))
    ref, res = detect_resonance(pot), detect_resonance(pot.scaled(eps))
    assert res.resonant == ref.resonant == (detune == 1.0)
    assert abs(res.mismatch * eps - ref.mismatch) < 1e-12 * max(1.0, abs(ref.mismatch))
    if ref.resonant:
        assert abs(res.c_minus - ref.c_minus) < 1e-12
        assert abs(res.c_plus - ref.c_plus) < 1e-12
        assert abs(res.b_hat_per_b * eps - ref.b_hat_per_b) < 1e-12 * max(
            1.0, abs(ref.b_hat_per_b))


@settings(max_examples=30, deadline=None)
@given(*WELL)
def test_detect_resonance_reflection_swaps_constants(a, b, L1):
    L2, v = two_step_well(a, b, L1)
    assume(L2 > 0.05)
    pot = Potential1D.from_callable(v, (0.0, L1 + L2), knots=(L1,))
    mirror = Potential1D.from_callable(lambda s: v(-np.asarray(s)),
                                       (-(L1 + L2), 0.0), knots=(-L1,))
    res, res_m = detect_resonance(pot), detect_resonance(mirror)
    assert res.resonant and res_m.resonant
    # (c-, c+) swaps up to the overall sign fixed by left-normalisation
    assert abs(abs(res_m.c_minus) - abs(res.c_plus)) < 1e-12
    assert abs(abs(res_m.c_plus) - abs(res.c_minus)) < 1e-12
    assert abs(res_m.c_minus * res_m.c_plus - res.c_minus * res.c_plus) < 1e-12
    assert abs(res_m.b_hat_per_b - res.b_hat_per_b) < 1e-12 * max(
        1.0, abs(res.b_hat_per_b))


@pytest.mark.parametrize("profile, beta_range", [
    (default_bump(), (-60.0, -0.5)),
    (SQUARE, (-45.0, -1.0)),
    (CurvatureProfile(TABULATED, nodes=(-1.5, -0.5, 0.0, 0.7, 1.5),
                      values=(0.0, 0.8, 1.1, 0.6, 0.0)), (-40.0, -0.5)),
], ids=["bump", "rectangle", "tabulated"])
def test_lane_wise_refinement_is_scalar_brentq(monkeypatch, profile,
                                               beta_range):
    # every bracketed root is brentq's bit for bit, and the smallest |beta|
    # among them is returned
    found, lanes = [], resonance._brent_lanes

    def kept(*args, **kwargs):
        found.append(lanes(*args, **kwargs))
        return found[-1]

    monkeypatch.setattr(resonance, "_brent_lanes", kept)
    root = find_resonant_coupling(profile, beta_range)
    want = scalar_resonant_couplings(
        profile, beta_range, lambda beta: zero_energy_solve(
            Potential1D.from_profile(profile, beta), 2).mismatch)
    assert len(want) >= 2
    assert found[0].tolist() == want
    assert root == min(want, key=abs)


@settings(max_examples=40, deadline=None)
@given(st.floats(-3000.0, 2000.0).filter(lambda c: abs(c) > 1e-6),
       st.floats(0.2, 3.0))
@example(300.0, 2.5)      # f(L) ~ e^43 / 2
@example(-3000.0, 3.0)    # 26 periods
def test_constant_potential_matches_closed_form(c, L):
    end, panels = _march(lambda s: np.full_like(s, c), (0.0, L))
    exact, scale = constant_well(c, L)
    for got, want, sc in zip(end, exact, scale):
        assert abs(got - want) <= 1e-12 * sc
    # f grows by more than the gate allows one panel: the panel bisects
    if np.sqrt(max(c, 0.0)) * L > np.log(_GATE):
        assert len(panels) > 1


def two_step_closed_form(a, b, L1, L2):
    """(f, D, int v f^2) at L1 + L2 for v = -a^2 on [0, L1], -b^2 beyond,
    and the scales of their errors: f = cos(a s), then f1 cos(b t) +
    g1 sin(b t), t = s - L1."""
    f1, g1 = np.cos(a * L1), -a / b * np.sin(a * L1)
    c, s2 = np.cos(b * L2), np.sin(b * L2)
    q = (-a * a * (L1 / 2 + np.sin(2 * a * L1) / (4 * a))
         - b * b * ((f1 ** 2 + g1 ** 2) * L2 / 2
                    + (f1 ** 2 - g1 ** 2) * np.sin(2 * b * L2) / (4 * b)
                    + f1 * g1 * s2 ** 2 / b))
    size = max(1.0, np.hypot(f1, g1))
    return ((f1 * c + g1 * s2, b * (g1 * c - f1 * s2), q),
            (size, max(a, b) * size, (a * a * L1 + b * b * L2) * size ** 2))


@settings(max_examples=30, deadline=None)
@given(*WELL, st.floats(0.05, 2.0))
def test_two_step_well_with_its_jump_on_a_knot(a, b, L1, L2):
    _, v = two_step_well(a, b, L1)
    end, _ = _march(v, (0.0, L1 + L2), (L1,))
    exact, scale = two_step_closed_form(a, b, L1, L2)
    for got, want, sc in zip(end, exact, scale):
        assert abs(got - want) <= 1e-12 * sc


@settings(max_examples=20, deadline=None)
@given(st.floats(0.05, 0.95), st.floats(-8.0, 2.0))
@example(0.5, 0.0)     # on a bisection point, where the joint check sees it
@example(0.7, 0.0)     # off every bisection point
def test_unannounced_jump_converges_or_raises(jump, log_dv):
    # a jump of v off every knot: the panel holding it bisects until the
    # gate passes, and D is right, or it reaches the minimum width and
    # raises; an unconverged D is never returned
    a, b = 1.0, np.sqrt(1.0 + 10.0 ** log_dv)
    v = Potential1D.from_callable(two_step_well(a, b, jump)[1], (0.0, 1.0))
    try:
        tr = zero_energy_solve(v, 2)
    except RobinwgError as err:
        assert "minimum width" in str(err)
        return
    exact, scale = two_step_closed_form(a, b, jump, 1.0 - jump)
    got = (tr.f_right, tr.mismatch, tr.integral_v_f2)
    for got, want, sc in zip(got, exact, scale):
        assert abs(got - want) <= 1e-12 * sc


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_potential_raises(bad):
    v = Potential1D.from_callable(lambda s: np.where(s > 0.3, bad, -1.0),
                                  (0.0, 1.0))
    with pytest.raises(RobinwgError, match="v is not finite"):
        zero_energy_solve(v)
