import warnings
import weakref

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.linalg import solve_banded
from scipy.optimize import brentq

from robinwg import effective_1d
from robinwg.effective_1d import (RESOLUTION_FACTOR, Grid1D, VertexData,
                                  build_h_n_eps, bump_probe, check_resolution,
                                  convergence_study, exterior_solve,
                                  extract_vertex_data, flat_exterior,
                                  resolvent_solve, s_grid,
                                  vertex_condition_residuals)
from robinwg.errors import GridResolutionError, ProfileError, RobinwgError
from robinwg.geometry import (RECTANGULAR, SMOOTH_BUMP, CurvatureProfile,
                              ScalingParams, WaveguideGeometry, default_bump)
from robinwg.graph_limit import GraphOperatorSpec, resolvent_apply, sqrt_upper
from robinwg.report import VERDICT_INCONCLUSIVE, VERDICT_MATCH
from robinwg.waveguide2d import FULL, Grid2D, build_waveguide

from reference import (apply_1d, lowest_eigenvalues, traced_peak,
                       whole_grid_resolvent)

BUMP_BETA_STAR = -7.647474116758
SQUARE_SYM = CurvatureProfile(RECTANGULAR, amplitude=1.0, half_width=1.0)
# v = -pi^2 on (0, 1) is resonant: a half sine across the well
SQUARE_UNIT = CurvatureProfile(RECTANGULAR, amplitude=1.0, center=0.5,
                               half_width=0.5)
FLAT = CurvatureProfile(SMOOTH_BUMP, amplitude=0.0, half_width=1.0)


def test_free_discrete_eigenvalues_analytic():
    grid = Grid1D(5.0, 200)
    op = build_h_n_eps(FLAT, 0.0, 1.0, 0.0, grid)
    n = grid.n_cells - 1
    h = grid.h
    j = np.arange(1, 6)
    exact = 4 * np.sin(j * np.pi / (2 * (n + 1))) ** 2 / h ** 2
    vals = lowest_eigenvalues(op, 5)
    assert np.allclose(vals, exact, rtol=1e-12, atol=1e-12)


def test_beta_zero_equals_flat():
    grid = Grid1D(5.0, 200)
    op1 = build_h_n_eps(default_bump(), 0.0, 0.5, 0.0, grid)
    op2 = build_h_n_eps(FLAT, 3.0, 0.5, 0.0, grid)
    assert np.array_equal(op1.potential, op2.potential)


def finite_well_ground_state(depth, half_width):
    """Even bound state of the finite well: k tan(k w) = kappa, k^2+kappa^2=V."""
    def cond(k):
        kap = np.sqrt(depth - k * k)
        return k * np.tan(k * half_width) - kap
    k = brentq(cond, 1e-9, min(np.sqrt(depth) - 1e-12, np.pi / (2 * half_width) - 1e-9),
               xtol=1e-15)
    return k * k - depth


def test_square_well_ground_state_and_order():
    # v = -1 on (-1, 1): compare against the transcendental oracle and
    # confirm second-order convergence by Richardson
    exact = finite_well_ground_state(1.0, 1.0)
    errs = []
    for n in (2000, 4000):
        grid = Grid1D(20.0, n)
        op = build_h_n_eps(SQUARE_SYM, -1.0, 1.0, 0.0, grid)
        errs.append(abs(lowest_eigenvalues(op, 1)[0] - exact))
    order = np.log2(errs[0] / errs[1])
    assert 1.8 < order < 2.2
    assert errs[1] < 5e-6


def test_resolvent_solve_inverse_consistency():
    grid = Grid1D(12.0, 3000)
    op = build_h_n_eps(default_bump(), 2.0, 0.5, 0.0, grid)
    s = grid.points
    rng = np.random.default_rng(0)
    w = np.zeros(len(s), dtype=complex)
    w[1:-1] = rng.standard_normal(len(s) - 2) + 1j * rng.standard_normal(len(s) - 2)
    z = 0.7 + 1.3j
    f = apply_1d(op, w) - z * w
    out = resolvent_solve(op, z, f)
    assert np.max(np.abs(out - w)) < 1e-11 * np.max(np.abs(w))


def test_resolvent_adjoint_identity():
    grid = Grid1D(12.0, 2000)
    op = build_h_n_eps(default_bump(), -1.0, 0.5, 0.0, grid)
    s = grid.points
    f = bump_probe(-3.0, 1.0)(s).astype(complex)
    g = bump_probe(2.0, 1.5)(s).astype(complex)
    z = 1j
    lhs = np.trapezoid(np.conj(f) * resolvent_solve(op, z, g), s)
    rhs = np.trapezoid(np.conj(resolvent_solve(op, np.conj(z), f)) * g, s)
    assert abs(lhs - rhs) < 1e-10 * abs(lhs)


def test_resolvent_vs_free_kernel_order2():
    # box large enough that the Dirichlet-cap reflection (exp(-Im w (L - c)))
    # sits well below the h^2 error being measured
    z = 1j
    errs = []
    for n in (24000, 48000):
        grid = Grid1D(24.0, n)
        op = build_h_n_eps(FLAT, 0.0, 1.0, 0.0, grid)
        s = grid.points
        f = bump_probe(-2.0, 1.0)(s)
        g = resolvent_solve(op, z, f)
        ref = resolvent_apply(GraphOperatorSpec.free(), z, s, f)
        errs.append(np.max(np.abs(g - ref)))
    order = np.log2(errs[0] / errs[1])
    assert errs[1] < 1e-6
    assert 1.7 < order < 2.3


def test_scale_covariance_of_spectrum():
    # matrix on the scaled box is exactly eps^-2 times the unit matrix
    for eps in (0.5, 0.2):
        g1 = Grid1D(8.0, 1600)
        ge = Grid1D(8.0 * eps, 1600)
        op1 = build_h_n_eps(default_bump(), BUMP_BETA_STAR, 1.0, 0.0, g1)
        ope = build_h_n_eps(default_bump(), BUMP_BETA_STAR, eps, 0.0, ge)
        e1 = lowest_eigenvalues(op1, 5)
        ee = lowest_eigenvalues(ope, 5)
        assert np.allclose(ee, e1 / eps ** 2, rtol=1e-8)


def _build_1d(profile, eps):
    return build_h_n_eps(profile, 1.0, eps, 0.0, Grid1D(16.0, 800))


def _build_2d(profile, eps):
    geo = WaveguideGeometry(profile, 1.0,
                            ScalingParams(epsilon=eps, delta_ratio=0.05), 0.0)
    return build_waveguide(geo, FULL, 1, Grid2D(16.0, 800, 16, 1.0))


@pytest.mark.parametrize("build", [_build_1d, _build_2d], ids=["1d", "2d"])
def test_under_resolved_potential_rejected(build):
    # h = 0.04 > eps*width/50 = 0.008 at eps = 0.1
    with pytest.raises(GridResolutionError, match="under-resolved"):
        build(default_bump(), 0.1)
    build(CurvatureProfile(SMOOTH_BUMP, amplitude=0.0, half_width=2.0), 0.1)


@settings(max_examples=300, deadline=None)
@given(st.floats(0.005, 0.5), st.floats(-4.0, 4.0), st.floats(0.01, 4.0),
       st.floats(0.5, 30.0), st.one_of(st.just(np.inf), st.floats(1e-4, 0.05)),
       st.sampled_from([default_bump(), SQUARE_SYM, SQUARE_UNIT]))
@example(0.025, 0.0, 1.0, 16.0, 2e-3, default_bump())    # README limit-check
@example(0.1, 0.0, 1.0, 12.0, np.inf, default_bump())    # README waveguide-check
# 2L/h = 2100 cells at eps = 1/3 leave h one ulp above eps*width/50
@example(1 / 3, 0.0, 1.0, 28.0, np.inf, default_bump())
def test_s_grid_sizes_by_the_one_rule(eps, re_z, im_z, min_half_length, h_max,
                                      profile):
    z = complex(re_z, im_z)
    grid = s_grid(profile, eps, z, min_half_length, h_max)
    assert grid.half_length >= min_half_length
    # the cap amplitude measured from s = 0 is below e^-10
    assert grid.half_length * sqrt_upper(z).imag >= 10.0
    assert grid.h <= min(h_max, eps * profile.support_width / RESOLUTION_FACTOR)
    check_resolution(grid.h, eps, profile)
    assert grid.n_cells % 2 == 0


def test_grid_requires_even_cells():
    with pytest.raises(GridResolutionError):
        Grid1D(8.0, 1001)


def test_convergence_study_generic():
    report = convergence_study(default_bump(), 3.0, 0.0, 1j,
                               bump_probe(-4.0, 1.5), [0.4, 0.2, 0.1],
                               h_target=4e-3)
    assert report.predicted["kind"] == "decoupled"
    assert report.verdict == VERDICT_MATCH
    assert all(a > b for a, b in zip(report.errors, report.errors[1:]))
    assert all(a > b for a, b in zip(report.leakage, report.leakage[1:]))
    assert report.fitted_exponent > 0.5
    assert report.errors[-1] < report.alt_errors[-1]


def test_one_eps_study_is_inconclusive_without_a_fit():
    # a single error shows no decay: no verdict and no one-point polyfit
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        report = convergence_study(default_bump(), 3.0, 0.0, 1j,
                                   bump_probe(-4, 1.5), [0.4], h_target=4e-3)
    assert not [w for w in caught
                if issubclass(w.category, np.exceptions.RankWarning)]
    assert report.verdict == VERDICT_INCONCLUSIVE
    assert np.isnan(report.fitted_exponent)
    assert any("one eps" in note for note in report.notes)


def test_convergence_study_resonant():
    report = convergence_study(default_bump(), BUMP_BETA_STAR, 0.0, 1j,
                               bump_probe(-4.0, 1.5), [0.4, 0.2, 0.1],
                               h_target=4e-3)
    assert report.predicted["kind"] == "scale_invariant"
    assert abs(report.predicted["c_plus"] + 1 / np.sqrt(2)) < 1e-6
    assert report.errors[-1] < report.alt_errors[-1]
    assert all(a > b for a, b in zip(report.errors, report.errors[1:]))
    # transmission heading for 2 c+ c- = -1
    assert abs(report.transmission[-1] - (-1.0)) < 0.2


def test_convergence_study_deformed_vertex_conditions():
    report = convergence_study(default_bump(), BUMP_BETA_STAR, 1.0, 1j,
                               bump_probe(-4.0, 1.5), [0.4, 0.2, 0.1],
                               h_target=4e-3)
    assert report.predicted["kind"] == "deformed"
    assert all(a > b for a, b in zip(report.errors, report.errors[1:]))
    res = report.vertex_residuals
    assert res[-1]["value"] < res[0]["value"]
    assert res[-1]["derivative"] < 0.15


def test_grid_halving_changes_error_below_10_percent():
    # discretisation under control: e(eps) stable under h -> h/2
    errs = {}
    for h in (4e-3, 2e-3):
        rep = convergence_study(default_bump(), 3.0, 0.0, 1j,
                                bump_probe(-4.0, 1.5), [0.4, 0.2],
                                h_target=h)
        errs[h] = np.array(rep.errors)
    assert np.all(np.abs(errs[4e-3] - errs[2e-3]) < 0.1 * errs[2e-3])


def test_convergence_study_rejects_increasing_eps():
    with pytest.raises(RobinwgError):
        convergence_study(default_bump(), 1.0, 0.0, 1j,
                          bump_probe(-4.0, 1.5), [0.1, 0.2])


def test_convergence_study_rejects_a_deformation_that_flips_the_coupling(
        monkeypatch):
    # 1 + eps*b = -3 at eps 0.4 would turn the barrier into a well; the
    # check comes before the resonance solve and any resolvent solve
    def no_solve(*args, **kwargs):
        raise AssertionError("solved before the deformation check")
    monkeypatch.setattr(effective_1d, "predicted_limit", no_solve)
    monkeypatch.setattr(effective_1d, "resolvent_solve", no_solve)
    with pytest.raises(ProfileError, match=r"1 \+ eps\*b > 0.*eps = 0\.4"):
        convergence_study(default_bump(), 3.0, -10.0, 1j,
                          bump_probe(-4.0, 1.5), [0.4, 0.2, 0.1])


def test_convergence_study_rejects_a_probe_off_the_grid():
    # the probe vanishes on |s| <= 16
    with pytest.raises(RobinwgError, match="probe 0 has sampled norm 0"):
        convergence_study(default_bump(), 3.0, 0.0, 1j, bump_probe(40.0, 1.5),
                          [0.4, 0.2], h_target=4e-3)


def test_extract_vertex_data_on_known_field():
    grid = Grid1D(16.0, 8000)
    s = grid.points
    z = 1j
    spec = GraphOperatorSpec.scale_invariant(0.6, 0.8)
    f = bump_probe(-4.0, 1.5)(s)
    g = resolvent_apply(spec, z, s, f)
    vd = extract_vertex_data(s, g, 0.05, 2.0)
    res = vertex_condition_residuals(spec, vd)
    assert res["value"] < 1e-3
    assert res["derivative"] < 5e-3
    with pytest.raises(GridResolutionError):
        extract_vertex_data(s, g, 4.0, 2.0)  # window swallows the grid


def test_vertex_residual_decoupled():
    vd = VertexData(0.0, 1.0, 0.0, -1.0)
    res = vertex_condition_residuals(GraphOperatorSpec.decoupled(), vd)
    assert res["value"] < 1e-12


def test_convergence_study_solves_each_probe_once_per_eps(monkeypatch):
    from robinwg import effective_1d
    calls = []
    solve = effective_1d.resolvent_solve

    def counted(op, z, f, exterior=None):
        calls.append(np.shape(f))
        return solve(op, z, f, exterior)

    monkeypatch.setattr(effective_1d, "resolvent_solve", counted)
    probes = [bump_probe(-4.0, 1.5), bump_probe(-4.0, 0.8),
              bump_probe(-2.75, 1.5)]
    eps_list = [0.4, 0.2]
    report = convergence_study(default_bump(), BUMP_BETA_STAR, 0.0, 1j,
                               probes, eps_list, h_target=4e-3)
    # one block solve per eps, plus the refined-grid control solve
    assert len(calls) == len(eps_list) + 1
    assert [c[0] for c in calls[:-1]] == [len(probes)] * len(eps_list)
    assert len(calls[-1]) == 1
    assert report.transmission and report.vertex_residuals


# (profile, beta, eps_list, distinct grids): h = min(4e-3, eps*width/50)
# keeps the bump's grid for every eps, while the unit square's grid is
# shared by eps = 0.4 and 0.3 and refined at 0.1 and again at 0.08
SWEEPS = {
    "bump_shared_grid": (default_bump(), BUMP_BETA_STAR, [0.4, 0.2, 0.1], 1),
    "square_grid_changes": (SQUARE_UNIT, -np.pi ** 2, [0.4, 0.3, 0.1, 0.08], 3),
    "bump_decoupled": (default_bump(), 3.0, [0.4, 0.2, 0.1], 1),
}
SWEEP_PROBES = [bump_probe(-4.0, 1.5), bump_probe(3.0, 1.0)]


@pytest.mark.parametrize("sweep", ["bump_shared_grid", "square_grid_changes"])
def test_sweep_entries_equal_one_eps_studies(sweep):
    profile, beta, eps_list, _ = SWEEPS[sweep]
    rep = convergence_study(profile, beta, 0.0, 1j, SWEEP_PROBES, eps_list,
                            h_target=4e-3)
    assert rep.predicted["kind"] == "scale_invariant"
    assert len(rep.transmission) == len(eps_list)
    for i, eps in enumerate(eps_list):
        one = convergence_study(profile, beta, 0.0, 1j, SWEEP_PROBES, [eps],
                                h_target=4e-3)
        assert one.errors == [rep.errors[i]]
        assert one.alt_errors == [rep.alt_errors[i]]
        assert one.leakage == [rep.leakage[i]]
        assert one.transmission == [rep.transmission[i]]


@pytest.mark.parametrize("sweep", sorted(SWEEPS))
def test_limit_side_is_computed_once_per_distinct_grid(monkeypatch, sweep):
    from robinwg import effective_1d, report
    profile, beta, eps_list, n_grids = SWEEPS[sweep]
    shared, free = [], []

    def counted(spec, z, s, f):
        (free if isinstance(spec, GraphOperatorSpec) else shared).append(
            np.shape(f))
        return resolvent_apply(spec, z, s, f)

    monkeypatch.setattr(report, "resolvent_apply", counted)
    monkeypatch.setattr(effective_1d, "resolvent_apply", counted)
    rep = convergence_study(profile, beta, 0.0, 1j, SWEEP_PROBES, eps_list,
                            h_target=4e-3)
    coupled = rep.predicted["kind"] != "decoupled"
    # one shared call for the probe block, and the free reference of the
    # first (left) probe when the prediction couples the edges, per grid
    assert len(shared) == n_grids
    assert len(free) == (n_grids if coupled else 0)
    assert len(set(shared)) == n_grids
    assert all(shape[0] == len(SWEEP_PROBES) for shape in shared)
    assert len(rep.errors) == len(rep.leakage) == len(eps_list)


@pytest.mark.parametrize("sweep", ["bump_shared_grid", "square_grid_changes"])
def test_sweep_builds_one_flat_exterior_per_distinct_grid(monkeypatch, sweep):
    from robinwg import effective_1d
    profile, beta, eps_list, n_grids = SWEEPS[sweep]
    built, alive = [], []

    def counted(op, z, f):
        # the study lets each exterior go before it builds the next one
        assert not any(ref() for ref in alive)
        built.append(op.grid)
        ext = flat_exterior(op, z, f)
        alive.append(weakref.ref(ext))
        return ext

    monkeypatch.setattr(effective_1d, "flat_exterior", counted)
    convergence_study(profile, beta, 0.0, 1j, SWEEP_PROBES, eps_list,
                      h_target=4e-3)
    # one per grid of the sweep, then one for the refined-grid control solve
    assert len(built) == n_grids + 1
    assert len(set(built[:-1])) == n_grids


def test_two_grid_study_holds_one_grid_working_set():
    # eps 0.2 and 0.1 of the unit square well: the second grid halves h.
    # The study holds the new grid's probe block, its predicted and
    # competitor outputs, one flat exterior and one solution block, and
    # none of the old grid's: its traced peak stays below 5.25 blocks of
    # (probes x finest nodes) complex numbers (6.2 when the old grid's
    # blocks lived on into the new grid's)
    probes = [bump_probe(c, w) for c, w in zip(np.linspace(-5.0, 5.0, 10),
                                               np.linspace(0.8, 1.6, 10))]
    eps_list = [0.2, 0.1]
    grids = [s_grid(SQUARE_UNIT, eps, 1j, 16.0, 4e-3) for eps in eps_list]
    assert grids[1].n_cells == 2 * grids[0].n_cells
    peak = traced_peak(lambda: convergence_study(
        SQUARE_UNIT, -np.pi ** 2, 1.0, 1j, probes, eps_list, h_target=4e-3))
    block = len(probes) * (grids[1].n_cells + 1) * 16
    assert peak < 5.25 * block


# (profile, beta, eps, grid, probes (center, half-width), z): W is
# |s| <= max(1, eps * support radius) around the vertex
EXTERIOR_CASES = {
    "straddles_window_edge": (default_bump(), -3.0, 0.4, Grid1D(8.0, 1600),
                              [(-1.0, 0.5), (1.2, 0.4), (0.0, 2.5)], 1j),
    "potential_past_one": (default_bump(), 2.0, 0.8, Grid1D(8.0, 1600),
                           [(-2.0, 1.0), (3.0, 1.5)], 0.7 + 1.3j),
    "one_sided_potential": (SQUARE_UNIT, -np.pi ** 2, 1.5, Grid1D(8.0, 1600),
                            [(-2.0, 1.0), (2.0, 1.0)], -2.0 + 0.1j),
    "beta_zero": (default_bump(), 0.0, 0.4, Grid1D(8.0, 1600),
                  [(-4.0, 1.5), (4.0, 1.0)], 1j),
    "zero_on_one_side": (default_bump(), -3.0, 0.4, Grid1D(8.0, 1600),
                         [(-4.0, 1.5), (-3.0, 0.8), (0.0, 0.9)], 0.7 + 1.3j),
    "off_imaginary_axis": (default_bump(), BUMP_BETA_STAR, 0.2,
                           Grid1D(10.0, 2500), [(-4.0, 1.5), (3.0, 1.0)],
                           -2.0 + 0.1j),
    "window_covers_grid": (default_bump(), -3.0, 0.4, Grid1D(1.04, 104),
                           [(-0.5, 0.4), (0.3, 0.5)], 1j),
}


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 40), st.integers(0, 40), st.integers(1, 4),
       st.lists(st.one_of(st.just(0.0), st.floats(0.0, 8.0)), min_size=1,
                max_size=4),
       st.integers(0, 3), st.integers(0, 3),
       st.sampled_from([1j, 0.7 + 1.3j, -2.0 + 0.1j]),
       st.integers(0, 2 ** 32 - 1))
@example(2, 2, 1, [0.0], 1, 1, 1j, 0)
@example(2, 0, 3, [0.0, 8.0], 2, 0, 1j, 1)
@example(0, 2, 1, [8.0], 0, 1, 1j, 2)
def test_exterior_solve_is_the_whole_line_solve(ml, mr, w, log_shifts, kl,
                                                 kr, z, seed):
    # on each side of a window of w nodes, a whole-line solve is the
    # exterior's particular solution plus c g(edge) times its Green column;
    # z_j = z - 10^x (or z itself) reaches the large 2D mode shifts
    J = len(log_shifts)
    assume(J * (ml + mr) >= 2)
    h = 0.05
    c = 1.0 / h ** 2
    zs = z - np.array([10 ** x if x else 0.0 for x in log_shifts])
    rng = np.random.default_rng(seed)
    k = max(kl, kr)
    F = rng.standard_normal((1, k, ml + w + mr)) + 0j
    scale = rng.standard_normal(J)
    U_l, phi_l, U_r, phi_r = exterior_solve(h, zs, F[:, :kl, :ml],
                                            F[:, :kr, ml + w:], scale)
    assert U_l.shape == (J, kl, ml) and U_r.shape == (J, kr, mr)
    assert phi_l.shape == (J, ml) and phi_r.shape == (J, mr)
    ab = np.zeros((3, ml + w + mr), dtype=complex)
    ab[0, 1:] = ab[2, :-1] = -c
    for j in range(J):
        ab[1] = 2 * c - zs[j]
        Fj = scale[j] * F
        G = solve_banded((1, 1), ab, Fj[0].T).T
        for i, g in enumerate(G):
            tol = 1e-12 * np.abs(g).max()
            if i < kl:
                want = U_l[j, i] + c * g[ml] * phi_l[j]
                assert np.abs(g[:ml] - want).max(initial=0) <= tol
            if i < kr:
                want = U_r[j, i] + c * g[ml + w - 1] * phi_r[j]
                assert np.abs(g[ml + w:] - want).max(initial=0) <= tol
        if ml + mr >= 2:
            # each system, its right-hand sides scaled as it is filled,
            # comes out as its own solve of the scaled copy, bit for bit
            one = exterior_solve(h, zs[j:j + 1], Fj[:, :kl, :ml],
                                 Fj[:, :kr, ml + w:], np.ones(1))
            whole = (U_l, phi_l, U_r, phi_r)
            assert all(np.array_equal(a[0], b[j]) for a, b in zip(one, whole))


@pytest.mark.parametrize("case", sorted(EXTERIOR_CASES))
def test_resolvent_solve_equals_whole_grid_banded_solve(case):
    profile, beta, eps, grid, probes, z = EXTERIOR_CASES[case]
    op = build_h_n_eps(profile, beta, eps, 0.0, grid)
    F = np.array([bump_probe(c, w)(grid.points) for c, w in probes])
    ref = whole_grid_resolvent(grid.h, op.potential, z, F)
    G = resolvent_solve(op, z, F)
    for g, r in zip(G, ref):
        assert np.max(np.abs(g - r)) <= 1e-10 * np.max(np.abs(r))
    # a given exterior serves its own grid, z and row count only
    ext = flat_exterior(op, z, F)
    assert np.array_equal(resolvent_solve(op, z, F, ext), G)
    with pytest.raises(RobinwgError, match="exterior"):
        resolvent_solve(op, z + 0.5, F, ext)
    with pytest.raises(RobinwgError, match="exterior"):
        resolvent_solve(op, z, F[:1], ext)


def test_exterior_follows_the_window():
    # eps * support radius crosses |s| = 1 between 0.4 and 0.8, so W grows
    # and the exterior of eps 0.4 no longer fits
    grid = Grid1D(8.0, 1600)
    F = np.array([bump_probe(-3.0, 1.5)(grid.points)])
    ops = [build_h_n_eps(default_bump(), 2.0, eps, 0.0, grid)
           for eps in (0.2, 0.4, 0.8)]
    ext = flat_exterior(ops[0], 1j, F)
    assert np.array_equal(resolvent_solve(ops[1], 1j, F, ext),
                          resolvent_solve(ops[1], 1j, F))
    with pytest.raises(RobinwgError, match="exterior"):
        resolvent_solve(ops[2], 1j, F, ext)


@pytest.mark.parametrize("other", ["grid", "z", "window"])
def test_resolvent_solve_rejects_an_exterior_of_another_grid_z_or_window(
        other):
    grid = Grid1D(8.0, 1600)
    eps = {"window": 0.8}.get(other, 0.4)
    theirs = Grid1D(8.0, 1602) if other == "grid" else grid
    z = 0.7 + 1.3j if other == "z" else 1j
    op = build_h_n_eps(default_bump(), 2.0, 0.4, 0.0, grid)
    ext = flat_exterior(build_h_n_eps(default_bump(), 2.0, eps, 0.0, theirs),
                        z, bump_probe(-3.0, 1.5)(theirs.points))
    with pytest.raises(RobinwgError, match="exterior"):
        resolvent_solve(op, 1j, bump_probe(-3.0, 1.5)(grid.points), ext)


def test_exterior_of_another_block_fails_the_residual_gate():
    # same grid, z, W and row count: only the residual check can tell
    grid = Grid1D(8.0, 1600)
    op = build_h_n_eps(default_bump(), 2.0, 0.4, 0.0, grid)
    F = np.array([bump_probe(c, 1.0)(grid.points) for c in (-4.0, 3.0)])
    ext = flat_exterior(op, 1j, F[::-1])
    with pytest.raises(RobinwgError, match="banded solve residual"):
        resolvent_solve(op, 1j, F, ext)
    assert np.array_equal(resolvent_solve(op, 1j, F[::-1], ext),
                          resolvent_solve(op, 1j, F[::-1]))


def test_grid_points_are_built_once_and_read_only():
    grid = Grid1D(4.0, 400)
    assert grid.points is grid.points
    with pytest.raises(ValueError):
        grid.points[0] = 1.0


BLOCK_GRID = Grid1D(12.0, 2400)


@settings(max_examples=25, deadline=None)
@given(st.lists(st.tuples(st.floats(-8.0, 8.0), st.floats(0.3, 2.0)),
                min_size=1, max_size=6),
       st.sampled_from([1j, 0.7 + 1.3j, -2.0 + 0.1j]))
def test_block_resolvent_solve_equals_row_solves(probes, z):
    op = build_h_n_eps(default_bump(), -3.0, 0.5, 0.0, BLOCK_GRID)
    s = BLOCK_GRID.points
    F = np.array([bump_probe(c, w)(s) for c, w in probes])
    G = resolvent_solve(op, z, F)
    assert G.shape == F.shape
    for f, g in zip(F, G):
        assert np.array_equal(g, resolvent_solve(op, z, f))


@pytest.mark.parametrize("bad", range(4))
def test_block_residual_gate_fires_for_one_bad_row(monkeypatch, bad):
    from robinwg import effective_1d
    gtsv = effective_1d.zgtsv

    def perturbed(*args, **kwargs):
        *bands, x, info = gtsv(*args, **kwargs)
        if x.shape[1] == len(F):        # the core solve, one column per row
            x[len(x) // 2, bad] *= 1 + 1e-6
        return (*bands, x, info)

    op = build_h_n_eps(default_bump(), -3.0, 0.5, 0.0, BLOCK_GRID)
    s = BLOCK_GRID.points
    F = np.array([bump_probe(c, 1.0)(s) for c in (-4.0, -1.0, 0.0, 3.0)])
    resolvent_solve(op, 1j, F)
    monkeypatch.setattr(effective_1d, "zgtsv", perturbed)
    with pytest.raises(RobinwgError, match="banded solve residual"):
        resolvent_solve(op, 1j, F)


def test_residual_gate_rejects_non_finite_rows():
    op = build_h_n_eps(default_bump(), -3.0, 0.5, 0.0, BLOCK_GRID)
    s = BLOCK_GRID.points
    F = np.array([bump_probe(c, 1.0)(s) for c in (-4.0, -1.0, 0.0, 3.0)])
    F[1, 700] = np.nan
    F[2, 1500] = np.inf
    with pytest.raises(RobinwgError, match="banded solve residual"):
        resolvent_solve(op, 1j, F)
    for row in (1, 2):
        with pytest.raises(RobinwgError, match="banded solve residual"):
            resolvent_solve(op, 1j, F[row])
