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
                                  green_columns, outgoing_root,
                                  resolvent_solve, resolvent_solve_rows,
                                  s_grid,
                                  vertex_condition_residuals)
from robinwg.errors import GridResolutionError, ProfileError, RobinwgError
from robinwg.geometry import (RECTANGULAR, SMOOTH_BUMP, CurvatureProfile,
                              ScalingParams, WaveguideGeometry, default_bump)
from robinwg.graph_limit import (DECOUPLED, GraphOperatorSpec, resolvent_apply,
                                 resolvent_apply_rows, sqrt_upper)
from robinwg.report import VERDICT_INCONCLUSIVE, VERDICT_MATCH
from robinwg.waveguide2d import FULL, Grid2D, build_waveguide

from reference import (apply_1d, capped_line_green, lattice_root,
                       lowest_eigenvalues, traced_peak, whole_grid_resolvent)

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
    # the end nodes continue the lattice outwards: w_end = r w_neighbour
    r = lattice_root(grid.h, z)
    w[0], w[-1] = r * w[1], r * w[-2]
    f = apply_1d(op, w) - z * w
    f[[0, -1]] = 0.0
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
    # the transparent ends leave no reflection, so only the h^2 error of
    # the lattice shows, on a box just wider than the probe
    z = 1j
    errs = []
    for n in (6000, 12000):
        grid = Grid1D(6.0, n)
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
@given(st.floats(0.005, 0.5), st.floats(0.5, 30.0),
       st.one_of(st.just(np.inf), st.floats(1e-4, 0.05)),
       st.sampled_from([default_bump(), SQUARE_SYM, SQUARE_UNIT]))
@example(0.025, 8.0, 2e-3, default_bump())          # README limit-check
@example(0.1, 15.142135623730951, np.inf, default_bump())   # README 2D
# 2L/h = 2100 cells at eps = 1/3 leave h one ulp above eps*width/50
@example(1 / 3, 28.0, np.inf, default_bump())
def test_s_grid_sizes_by_the_one_rule(eps, half_length, h_max, profile):
    grid = s_grid(profile, eps, half_length, h_max)
    bound = min(h_max, eps * profile.support_width / RESOLUTION_FACTOR)
    assert grid.half_length == half_length
    assert grid.n_cells % 2 == 0
    assert grid.h <= bound
    check_resolution(grid.h, eps, profile)
    # the smallest even count that keeps the step within the bound
    assert grid.n_cells == 4 or 2 * half_length / (grid.n_cells - 2) > bound


@pytest.mark.parametrize("half_length", [8.0, 9.0, 16.0])
def test_s_grid_keeps_an_integer_2L_over_h(half_length):
    # the unit square's scaled edges 0 and eps sit on multiples of h
    for eps, h in ((0.4, 1e-3), (0.05, 1e-3), (0.025, 5e-4)):
        grid = s_grid(SQUARE_UNIT, eps, half_length, 1e-3)
        assert grid.n_cells == round(2 * half_length / h)
        assert np.min(np.abs(grid.points - eps)) < 1e-12


@settings(max_examples=200, deadline=None)
@given(st.floats(1e-3, 0.1), st.floats(-1e4, 1e2), st.floats(1e-3, 1e2),
       st.booleans())
@example(2e-3, 1.0, 1e-3, True)     # |r| next to 1
@example(1e-3, -1e4, 1e-3, True)    # a 2D mode far below threshold: r small
def test_outgoing_root_is_the_root_inside_the_unit_circle(h, re_z, im_z,
                                                          upper):
    z = complex(re_z, im_z if upper else -im_z)
    t = h * h * z
    r = complex(outgoing_root(h, z))
    assert abs(r) < 1
    assert abs(r - lattice_root(h, z)) <= 1e-9 * abs(r)
    # r + 1/r - 2 = -t, in a form that keeps t's digits
    assert abs((r - 1) ** 2 / r + t) <= 1e-9 * abs(t)


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
    # the probe vanishes on |s| <= 8
    with pytest.raises(RobinwgError, match="probe 0 has sampled norm 0"):
        convergence_study(default_bump(), 3.0, 0.0, 1j, bump_probe(40.0, 1.5),
                          [0.4, 0.2], h_target=4e-3)


def test_probe_nonzero_at_an_end_node_raises():
    # bump(-4, 1.5) reaches s = -5.5: on [-5, 5] it is nonzero at s = -5
    with pytest.raises(GridResolutionError, match="nonzero at an end node"):
        convergence_study(default_bump(), 3.0, 0.0, 1j, bump_probe(-4.0, 1.5),
                          [0.4, 0.2], half_length=5.0, h_target=4e-3)


def test_potential_nonzero_at_an_end_node_raises():
    # the default bump's support [-2, 2] at eps = 1 crosses s = +-1
    grid = Grid1D(1.0, 400)
    op = build_h_n_eps(default_bump(), 3.0, 1.0, 0.0, grid)
    f = bump_probe(0.0, 0.5)(grid.points)
    with pytest.raises(GridResolutionError,
                       match="potential is nonzero at an end node"):
        resolvent_solve(op, 1j, f)


def test_support_past_half_length_raises_before_any_solve():
    # a decoupled limit fits no vertex data, so without the check the
    # potential beyond +-L would be dropped silently: the shifted bump's
    # scaled support [0.4 * 16, 0.4 * 20] = [6.4, 8] leaves [-7, 7]
    shifted = CurvatureProfile(SMOOTH_BUMP, amplitude=1.5, center=18.0,
                               half_width=2.0)
    with pytest.raises(GridResolutionError, match="leaves \\[-L, L\\]"):
        convergence_study(shifted, 3.0, 0.0, 1j, bump_probe(-4.0, 1.5),
                          [0.4, 0.2], half_length=7.0, h_target=4e-3)
    report = convergence_study(shifted, 3.0, 0.0, 1j, bump_probe(-4.0, 1.5),
                               [0.4, 0.2], half_length=9.0, h_target=4e-3)
    assert report.predicted["kind"] == DECOUPLED
    assert all(np.isfinite(report.errors))


@pytest.mark.parametrize("z", [1j, 1.0 + 0.05j])
def test_transparent_ends_return_the_whole_line_solution(z):
    # the free lattice on [-L, L] with transparent ends is the infinite
    # lattice restricted there: the nodes of L = 7 agree across L to
    # rounding (the lattice's condition grows as Im z falls), and all with
    # the continuum Green function to O(h^2), even near the positive axis,
    # where a Dirichlet cap's reflection would decay only over 40 lengths
    h = 2e-3
    f = bump_probe(-4.0, 1.5)
    solves = {}
    for L in (7.0, 8.0, 16.0):
        grid = Grid1D(L, round(2 * L / h))
        s = grid.points
        g = resolvent_solve(build_h_n_eps(FLAT, 0.0, 1.0, 0.0, grid), z, f(s))
        ref = resolvent_apply(GraphOperatorSpec.free(), z, s, f(s))
        assert np.max(np.abs(g - ref)) < h ** 2 * np.max(np.abs(ref))
        solves[L] = g
    base = solves[7.0]
    for L in (8.0, 16.0):
        cut = round((L - 7.0) / h)
        overlap = solves[L][cut:len(solves[L]) - cut]
        assert np.max(np.abs(overlap - base)) < 1e-10 * np.max(np.abs(base))


@pytest.mark.parametrize("z", [1j, 1.0 + 0.05j])
def test_errors_do_not_depend_on_the_half_length(z):
    # the README limit-check, and z near the positive axis, where most of
    # the norm lies beyond L: the closed-form tails carry it
    reports = [convergence_study(default_bump(), 3.0, 0.0, z,
                                 bump_probe(-4.0, 1.5),
                                 [0.4, 0.2, 0.1, 0.05, 0.025], half_length=L)
               for L in (8.0, 16.0)]
    for key in ("errors", "alt_errors", "leakage"):
        a, b = (np.array(getattr(rep, key)) for rep in reports)
        assert np.all(np.abs(a - b) <= 1e-3 * b)


def test_rectangle_verdict_does_not_depend_on_the_half_length():
    # the unit square's scaled edges 0 and eps stay on nodes at every L
    # (2L/h an integer); a z rule that set L = 15.142 moved them off and
    # the study read a mismatch (errors 0.0317 ... 0.0052, 0.0083, 0.0122)
    reports = [convergence_study(SQUARE_UNIT, -np.pi ** 2, 1.0, 1j,
                                 bump_probe(-4.0, 1.5),
                                 [0.4, 0.2, 0.1, 0.05, 0.025], half_length=L,
                                 h_target=1e-3)
               for L in (8.0, 9.0, 16.0)]
    for rep in reports:
        assert rep.predicted["kind"] == "deformed"
        assert rep.verdict == VERDICT_MATCH
    errors = np.array([rep.errors for rep in reports])
    assert np.all(np.abs(errors - errors[0]) <= 1e-3 * errors[0])


def test_rectangle_edges_between_nodes_keep_the_verdict():
    # at L = 8.0003 and 8.00071 the scaled edges fall between nodes; sampled
    # at the nodes, the jump moved by up to h/2 and the study read a
    # mismatch (errors 3.88e-3, 1.74e-3, 1.69e-3, 4.83e-3, 7.19e-3); the
    # covered fraction of each cell keeps the errors of L = 8
    errors = [convergence_study(SQUARE_UNIT, -np.pi ** 2, 1.0, 1j,
                                bump_probe(-4.0, 1.5),
                                [0.4, 0.2, 0.1, 0.05, 0.025], half_length=L,
                                h_target=1e-3).errors
              for L in (8.0, 8.0003, 8.00071, 9.0)]
    assert [float(f"{e:.3g}") for e in errors[0]] == [
        3.92e-3, 1.81e-3, 8.68e-4, 4.15e-4, 2.76e-4]
    for errs in errors[1:]:
        assert np.all(np.abs(np.array(errs) - errors[0]) <= 1e-3 * np.array(
            errors[0]))


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


def test_resonant_study_at_large_eps_fits_on_the_default_grid():
    # at eps 0.8 the vertex-data window of the bump reaches s = 5.04: on
    # the whole of [-8, 8], as it fitted in half of the Dirichlet [-16, 16]
    rep = convergence_study(default_bump(), BUMP_BETA_STAR, 0.0, 1j,
                            bump_probe(-4.0, 1.5), [0.8, 0.4], h_target=4e-3)
    assert len(rep.vertex_residuals) == 2


def test_vertex_residual_decoupled():
    vd = VertexData(0.0, 1.0, 0.0, -1.0)
    res = vertex_condition_residuals(GraphOperatorSpec.decoupled(), vd)
    assert res["value"] < 1e-12


def test_convergence_study_solves_each_probe_once_per_eps(monkeypatch):
    from robinwg import effective_1d
    calls, rows = [], []
    window_solve = effective_1d._window_solve

    def counted(op, z, F, ext):
        # one block core solve on W
        calls.append(F.shape)
        row, call = window_solve(op, z, F, ext), len(calls) - 1

        def counted_row(p):
            rows.append((call, p))
            return row(p)
        return counted_row

    monkeypatch.setattr(effective_1d, "_window_solve", counted)
    probes = [bump_probe(-4.0, 1.5), bump_probe(-4.0, 0.8),
              bump_probe(-2.75, 1.5)]
    eps_list = [0.4, 0.2]
    report = convergence_study(default_bump(), BUMP_BETA_STAR, 0.0, 1j,
                               probes, eps_list, h_target=4e-3)
    # one block core solve per eps, plus the refined-grid control solve
    assert len(calls) == len(eps_list) + 1
    assert [c[0] for c in calls] == [len(probes)] * len(eps_list) + [1]
    # each probe's row of each solve is assembled once
    assert sorted(rows) == [(i, p) for i in range(len(eps_list))
                            for p in range(len(probes))] + [(len(eps_list), 0)]
    assert report.transmission and report.vertex_residuals


# (profile, beta, eps_list, distinct grids, distinct (grid, core window
# W) pairs): h = min(4e-3, eps*width/50) keeps the bump's grid for every
# eps, while the unit square's grid is shared by eps = 0.4 and 0.3 and
# refined at 0.1 and again at 0.08; on the bump's grid W is |s| <= 1 up
# to eps 0.4, and wider at 0.6 and 0.8 (half-width 399, 299, 250 nodes)
SWEEPS = {
    "bump_shared_grid": (default_bump(), BUMP_BETA_STAR, [0.4, 0.2, 0.1], 1,
                         1),
    "square_grid_changes": (SQUARE_UNIT, -np.pi ** 2, [0.4, 0.3, 0.1, 0.08],
                            3, 3),
    "bump_decoupled": (default_bump(), 3.0, [0.4, 0.2, 0.1], 1, 1),
    "bump_window_shrinks": (default_bump(), BUMP_BETA_STAR, [0.8, 0.6, 0.4],
                            1, 3),
}
SWEEP_PROBES = [bump_probe(-4.0, 1.5), bump_probe(3.0, 1.0)]


@pytest.mark.parametrize("sweep", ["bump_shared_grid", "square_grid_changes",
                                   "bump_window_shrinks"])
def test_sweep_entries_equal_one_eps_studies(sweep):
    profile, beta, eps_list, *_ = SWEEPS[sweep]
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


def test_probe_block_study_is_the_max_over_one_probe_studies():
    # the unit square well at eps 0.4, 0.3 (one grid), 0.1 and 0.08: each
    # eps's error is the max over its probes' own studies, and the first
    # probe alone gives the leakage, transmission and vertex data, bit for
    # bit
    probes = [bump_probe(c, w) for c, w in zip(np.linspace(-5.0, 5.0, 10),
                                               np.linspace(0.8, 1.6, 10))]
    eps_list = [0.4, 0.3, 0.1, 0.08]
    study = lambda f: convergence_study(SQUARE_UNIT, -np.pi ** 2, 0.0, 1j, f,
                                        eps_list, h_target=4e-3)
    rep = study(probes)
    ones = [study(f) for f in probes]
    assert rep.errors == [max(0.0, *e) for e in
                          zip(*(one.errors for one in ones))]
    assert rep.alt_errors == [max(0.0, *e) for e in
                              zip(*(one.alt_errors for one in ones))]
    assert len(rep.leakage) == len(rep.transmission) == len(eps_list)
    assert rep.leakage == ones[0].leakage
    assert rep.transmission == ones[0].transmission
    assert rep.vertex_residuals == ones[0].vertex_residuals


@pytest.mark.parametrize("sweep", sorted(SWEEPS))
def test_limit_side_is_computed_once_per_distinct_grid(monkeypatch, sweep):
    from robinwg import effective_1d, report
    profile, beta, eps_list, n_grids, _ = SWEEPS[sweep]
    shared, free = [], []

    def counted_rows(specs, z, s):
        # the predicted operator and its competitor, in one pass
        assert len(specs) == 2
        row = resolvent_apply_rows(specs, z, s)
        shared.append([len(s), 0])

        def counted_row(f):
            shared[-1][1] += 1
            return row(f)
        return counted_row

    def counted_free(spec, z, s, f):
        free.append(np.shape(f))
        return resolvent_apply(spec, z, s, f)

    monkeypatch.setattr(report, "resolvent_apply_rows", counted_rows)
    monkeypatch.setattr(effective_1d, "resolvent_apply", counted_free)
    rep = convergence_study(profile, beta, 0.0, 1j, SWEEP_PROBES, eps_list,
                            h_target=4e-3)
    coupled = rep.predicted["kind"] != "decoupled"
    # one limit-side pass per grid, forming each probe's limit rows once,
    # and the free reference of the first (left) probe when the prediction
    # couples the edges
    assert len(shared) == n_grids
    assert len(free) == (n_grids if coupled else 0)
    assert len({nodes for nodes, _ in shared}) == n_grids
    assert all(rows == len(SWEEP_PROBES) for _, rows in shared)
    assert len(rep.errors) == len(rep.leakage) == len(eps_list)


@pytest.mark.parametrize("sweep", ["bump_shared_grid", "square_grid_changes",
                                   "bump_window_shrinks"])
def test_sweep_builds_one_flat_exterior_per_grid_and_window(monkeypatch,
                                                            sweep):
    from robinwg import effective_1d
    profile, beta, eps_list, _, n_exteriors = SWEEPS[sweep]
    built, alive = [], []

    def counted(op, z, f):
        # no exterior of an earlier grid outlives its run; on one grid an
        # earlier W's exterior stays with its eps's rows
        assert not any(ref() for grid, ref in alive if grid != op.grid)
        built.append((op.grid, effective_1d._core_half_width(op)))
        ext = flat_exterior(op, z, f)
        alive.append((op.grid, weakref.ref(ext)))
        return ext

    monkeypatch.setattr(effective_1d, "flat_exterior", counted)
    convergence_study(profile, beta, 0.0, 1j, SWEEP_PROBES, eps_list,
                      h_target=4e-3)
    # one per (grid, W) of the sweep, then one for the refined-grid
    # control solve
    assert len(built) == n_exteriors + 1
    assert len(set(built[:-1])) == n_exteriors


def test_two_grid_study_holds_one_grid_working_set():
    # eps 0.2 and 0.1 of the unit square well: the second grid halves h.
    # The study holds the new grid's probe block, one flat exterior, each
    # eps's core solution block and one probe's limit and solution rows,
    # and none of the old grid's: its traced peak, 2.64 blocks of (probes x
    # finest nodes) complex numbers, stays below 3.25 (4.82 with the
    # predicted and competitor outputs and a solution block held whole,
    # 6.2 when the old grid's blocks lived on into the new grid's)
    probes = [bump_probe(c, w) for c, w in zip(np.linspace(-5.0, 5.0, 10),
                                               np.linspace(0.8, 1.6, 10))]
    eps_list = [0.2, 0.1]
    grids = [s_grid(SQUARE_UNIT, eps, 8.0, 4e-3) for eps in eps_list]
    assert grids[1].n_cells == 2 * grids[0].n_cells
    peak = traced_peak(lambda: convergence_study(
        SQUARE_UNIT, -np.pi ** 2, 1.0, 1j, probes, eps_list, h_target=4e-3))
    block = len(probes) * (grids[1].n_cells + 1) * 16
    assert peak < 3.25 * block


def test_one_grid_study_holds_no_whole_grid_state_per_eps():
    # five eps of the bump on one grid of 16,001 nodes: between rows each
    # eps holds its core window's solution and diagonal only, and the eps
    # share the grid's points, so the traced peak, 16.6 rows of 16,001
    # complex numbers, stays below 19; it is set by the refined-grid
    # control solve on 32,001 nodes (18.4 with a solution block per eps
    # and whole-block limit outputs, 25.7 when every eps kept its
    # whole-grid diagonal and potential)
    eps_list = [0.4, 0.2, 0.1, 0.05, 0.025]
    grids = {s_grid(default_bump(), eps, 8.0, 1e-3) for eps in eps_list}
    assert [g.n_cells for g in grids] == [16000]
    peak = traced_peak(lambda: convergence_study(
        default_bump(), BUMP_BETA_STAR, 0.0, 1j, bump_probe(-4.0, 1.5),
        eps_list, h_target=1e-3))
    assert peak < 19 * 16001 * 16


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


# t = h^2 z: near 0 and near 4, where |r| -> 1 and r -> +-1; a small Im t
# across the band; and Re t << 0, where the column underflows
LATTICE_T = st.one_of(
    st.builds(lambda c, u, a: c + 10 ** u * np.exp(1j * a),
              st.sampled_from([0.0, 4.0]), st.floats(-9, -1),
              st.floats(0.01, np.pi - 0.01)),
    st.builds(complex, st.floats(0, 4),
              st.floats(-6, -1).map(lambda v: 10 ** v)),
    st.builds(complex, st.floats(1, 15).map(lambda u: -10 ** u),
              st.floats(0.01, 10)))


@settings(max_examples=80, deadline=None)
@given(LATTICE_T, st.integers(1, 4000), st.booleans(), st.floats(-3, -1))
@example(1e-6j, 4000, False, -3.0)           # the 1D study's mode at h = 1e-3
@example(6e-5j, 1850, False, -2.1)           # the 2D mode n at eps 0.1
@example(2.0 + 1e-6j, 4000, True, -1.0)
@example(-1e12 + 1j, 4000, False, -2.0)      # underflows after 25 nodes
def test_green_columns_are_the_capped_line_solve(t, m, transparent, log_h):
    # the closed form against an elimination in extended precision; its
    # error is the rounding of the phase k log r over k <= m, and a capped
    # line near its own resonance amplifies it by 1/|1 - r^(2(m+1))|
    h = 10 ** log_h
    z = t / h ** 2
    phi = green_columns(h, z, m, transparent)[0]
    ref = capped_line_green(h, z, m, transparent)
    r = lattice_root(h, z)
    kappa = 1.0 if transparent else 1.0 + 1.0 / abs(1 - r ** (2 * (m + 1)))
    eps = np.finfo(float).eps
    tol = max(1e-12, 4 * eps * (m + 1) * abs(np.log(r)) * kappa)
    assert np.abs(phi - ref).max() <= tol * np.abs(ref).max()
    # the evaluated entries are a prefix; past it |r|^k is below the
    # smallest normal float
    reach = np.count_nonzero(phi)
    assert np.count_nonzero(phi[:reach]) == reach
    tiny = np.finfo(float).tiny
    assert np.abs(ref[reach:]).max(initial=0) <= 2 * tiny * h ** 2


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 40), st.integers(0, 40), st.integers(1, 4),
       st.one_of(st.just(0.0), st.floats(0.0, 8.0)),
       st.integers(0, 3), st.integers(0, 3),
       st.sampled_from([1j, 0.7 + 1.3j, -2.0 + 0.1j]),
       st.integers(0, 2 ** 32 - 1), st.booleans())
@example(2, 2, 1, 0.0, 1, 1, 1j, 0, False)
@example(2, 0, 3, 8.0, 2, 0, 1j, 1, True)
@example(0, 2, 1, 8.0, 0, 1, 1j, 2, True)
@example(1, 0, 2, 0.0, 1, 0, 1j, 3, False)
def test_exterior_solve_is_the_whole_line_solve(ml, mr, w, log_shift, kl, kr,
                                                 z, seed, transparent):
    # on each side of a window of w nodes, a whole-line solve is the
    # exterior's particular solution plus c g(edge) times its Green column
    # (`green_columns`); z - 10^x (or z itself) reaches the large 2D mode
    # shifts.  The line's two end nodes take the outer term: 0 (Dirichlet
    # caps) or -c r, the transparent ends
    h = 0.05
    c = 1.0 / h ** 2
    z = z - (10 ** log_shift if log_shift else 0.0)
    outer = -c * lattice_root(h, z) if transparent else 0.0
    rng = np.random.default_rng(seed)
    F = rng.standard_normal((max(kl, kr), ml + w + mr)) + 0j
    U_l, U_r = exterior_solve(h, z, F[:kl, :ml], F[:kr, ml + w:], outer)
    assert U_l.shape == (kl, ml) and U_r.shape == (kr, mr)
    phi_l = green_columns(h, z, ml, transparent)[0, ::-1]
    phi_r = green_columns(h, z, mr, transparent)[0]
    ab = np.zeros((3, ml + w + mr), dtype=complex)
    ab[0, 1:] = ab[2, :-1] = -c
    ab[1] = 2 * c - z
    ab[1, [0, -1]] += outer
    G = solve_banded((1, 1), ab, F.T).T
    for i, g in enumerate(G):
        tol = 1e-12 * np.abs(g).max()
        if i < kl:
            want = U_l[i] + c * g[ml] * phi_l
            assert np.abs(g[:ml] - want).max(initial=0) <= tol
        if i < kr:
            want = U_r[i] + c * g[ml + w - 1] * phi_r
            assert np.abs(g[ml + w:] - want).max(initial=0) <= tol


@pytest.mark.parametrize("case", sorted(EXTERIOR_CASES))
def test_resolvent_solve_equals_whole_grid_banded_solve(case):
    profile, beta, eps, grid, probes, z = EXTERIOR_CASES[case]
    op = build_h_n_eps(profile, beta, eps, 0.0, grid)
    F = np.array([bump_probe(c, w)(grid.points) for c, w in probes])
    ref = whole_grid_resolvent(grid.h, op.potential, z, F,
                               lattice_root(grid.h, z))
    G = resolvent_solve(op, z, F)
    for g, r in zip(G, ref):
        assert np.max(np.abs(g - r)) <= 1e-10 * np.max(np.abs(r))


def test_exterior_follows_the_window(monkeypatch):
    # eps * support radius crosses |s| = 1 between 0.4 and 0.8, so W grows:
    # eps 0.2 and 0.4 share one exterior and eps 0.8 builds its own
    grid = Grid1D(8.0, 1600)
    F = np.array([bump_probe(-3.0, 1.5)(grid.points)])
    ops = [build_h_n_eps(default_bump(), 2.0, eps, 0.0, grid)
           for eps in (0.2, 0.4, 0.8)]
    built = []

    def counted(op, z, f):
        built.append(op)
        return flat_exterior(op, z, f)

    monkeypatch.setattr(effective_1d, "flat_exterior", counted)
    rows = resolvent_solve_rows(iter(ops), 1j, F)
    assert len(built) == 2
    assert built[0] is ops[0] and built[1] is ops[2]
    for op, row in zip(ops, rows):
        assert np.array_equal(row(0), resolvent_solve(op, 1j, F)[0])


def test_run_on_two_grids_raises():
    ops = [build_h_n_eps(default_bump(), 2.0, 0.4, 0.0, Grid1D(8.0, n))
           for n in (1600, 1602)]
    F = bump_probe(-3.0, 1.5)(ops[0].grid.points)
    with pytest.raises(RobinwgError, match="share one grid"):
        resolvent_solve_rows(ops, 1j, F)


def test_exterior_of_another_block_fails_the_residual_gate(monkeypatch):
    # same grid, z, W and row count: only the residual check can tell
    grid = Grid1D(8.0, 1600)
    op = build_h_n_eps(default_bump(), 2.0, 0.4, 0.0, grid)
    F = np.array([bump_probe(c, 1.0)(grid.points) for c in (-4.0, 3.0)])
    resolvent_solve(op, 1j, F)          # its own block's exterior passes
    monkeypatch.setattr(effective_1d, "flat_exterior",
                        lambda op, z, f: flat_exterior(op, z, f[::-1]))
    with pytest.raises(RobinwgError, match="banded solve residual"):
        resolvent_solve(op, 1j, F)


def test_grid_points_are_built_once_and_read_only():
    grid = Grid1D(4.0, 400)
    assert grid.points is grid.points
    with pytest.raises(ValueError):
        grid.points[0] = 1.0
    # the strip's s-axis is a Grid1D: its nodes too
    strip = Grid2D(4.0, 400, 16, 1.0)
    assert strip.line is strip.line and strip.line == grid
    assert np.shares_memory(strip.s_interior, strip.line.points)
    for nodes in (strip.line.points, strip.s_interior):
        with pytest.raises(ValueError):
            nodes[0] = 1.0


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


@settings(max_examples=25, deadline=None)
@given(st.lists(st.tuples(st.floats(-8.0, 8.0), st.floats(0.3, 2.0)),
                min_size=1, max_size=6),
       st.sampled_from([1j, 0.7 + 1.3j, -2.0 + 0.1j]),
       st.floats(0.0, 2 * np.pi), st.floats(-5.0, 5.0))
def test_row_forms_equal_the_block_calls_rows(probes, z, theta, b_hat):
    c = (np.cos(theta), np.sin(theta))
    assume(abs(1j * sqrt_upper(z) - b_hat) > 0.1)
    specs = [GraphOperatorSpec.decoupled(), GraphOperatorSpec.free(),
             GraphOperatorSpec.deformed(*c, b_hat)]
    op = build_h_n_eps(default_bump(), -3.0, 0.5, 0.0, BLOCK_GRID)
    s = BLOCK_GRID.points
    F = np.array([bump_probe(c, w)(s) for c, w in probes])
    limits = [resolvent_apply(spec, z, s, F) for spec in specs]
    limit_row = resolvent_apply_rows(specs, z, s)
    G = resolvent_solve(op, z, F)
    row, = resolvent_solve_rows([op], z, F)
    for p, f in enumerate(F):
        for lim, want in zip(limit_row(f), limits):
            assert np.array_equal(lim, want[p])
        assert np.array_equal(row(p), G[p])


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
