"""The library's DOP853 port against scipy's `solve_ivp`, bit for bit."""

import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from robinwg._dop853 import RTOL_FLOOR, dop853
from robinwg.errors import RobinwgError
from robinwg.geometry import (RECTANGULAR, TABULATED, CurvatureProfile,
                              default_bump)
from robinwg.resonance import Potential1D, _integrate, zero_energy_solve

from reference import ScipyDOP853, scipy_integrate


def two_step(s):
    return np.where(np.asarray(s) < 0.7, -1.0, -2.5)


PROFILES = {
    "bump": default_bump(),
    "rectangle": CurvatureProfile(RECTANGULAR, amplitude=1.0, center=0.5,
                                  half_width=0.5),
    "tabulated": CurvatureProfile(TABULATED,
                                  nodes=(-1.5, -0.5, 0.0, 0.7, 1.5),
                                  values=(0.0, 0.8, 1.1, 0.6, 0.0)),
}


def problem(kind, beta):
    """(v_at, support, knots) of v = beta * g for one coupling."""
    if kind == "callable":
        # a two-step well with a knot at its jump, through `func`
        lo, hi = support = (0.0, 1.6)
        g = lambda s: (float(two_step(np.asarray([s]))[0]) if lo <= s <= hi
                       else 0.0)
        knots = (0.7,)
    else:
        prof = PROFILES[kind]
        g, support, knots = prof.squared_at, prof.support, prof.knots
    return (lambda s: beta * g(s)), support, knots


def assert_same_run(args, rtol):
    end, pieces = _integrate(*args, rtol=rtol, dense=True)
    ref_end, ref_pieces = scipy_integrate(*args, rtol=rtol, dense=True)
    assert np.array_equal(end, ref_end)
    assert len(pieces) == len(ref_pieces)
    lo, hi = args[1]
    # the trace grid, with every step boundary on it
    grid = np.union1d(np.linspace(lo, hi, 801),
                      np.concatenate([p.t for p in pieces]))
    for piece, ref in zip(pieces, ref_pieces):
        assert np.array_equal(piece.t, ref.t)
        m = (grid >= piece.t[0]) & (grid <= piece.t[-1])
        assert np.array_equal(piece(grid[m]), ref(grid[m]))


@settings(max_examples=25, deadline=None)
@given(st.sampled_from(["bump", "rectangle", "tabulated", "callable"]),
       st.floats(-20.0, 2.0), st.sampled_from([1e-12, 1e-10]))
# 0.01 err3^2 underflows with err5 = 0: numpy's 0/0, a rejected step
@example("bump", 1.0008738739168137e-171, 1e-12)
def test_port_repeats_solve_ivp_bit_for_bit(kind, beta, rtol):
    # one potential at the 1e-12 of the verdicts and the 1e-10 of the
    # noise solve; stacked states are stepped by the dop853 tests below
    assert_same_run(problem(kind, beta), rtol)


def test_rtol_below_the_floor_is_floored_as_scipy_floors_it():
    # rtol is raised to 100 eps, atol keeps the value asked for
    tol = 1e-16
    assert tol < RTOL_FLOOR
    args = problem("bump", -7.6)
    end, pieces = _integrate(*args, rtol=tol)
    with pytest.warns(UserWarning, match="rtol"):
        ref_end, ref_pieces = scipy_integrate(*args, rtol=tol)
    assert np.array_equal(end, ref_end)
    assert np.array_equal(pieces[0].t, ref_pieces[0].t)
    floored, _ = _integrate(*args, rtol=RTOL_FLOOR)
    assert not np.array_equal(end, floored)


@pytest.mark.parametrize("where", [0.3, -1.0], ids=["inside", "left_edge"])
def test_nan_potential_raises(where):
    # NaN inside the support shrinks the step below the float spacing, as
    # in scipy; NaN from the left edge on (where scipy's step size is NaN
    # and its loop never ends) raises too
    pot = Potential1D.from_callable(
        lambda s: np.where(np.asarray(s) > where, np.nan, -4.0), (0.0, 1.0))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        with pytest.raises(RobinwgError, match="zero-energy integration failed"):
            zero_energy_solve(pot)


def assert_same_solution(got, ref):
    assert np.array_equal(got.t, ref.t)
    assert np.array_equal(got.y, ref.y)
    grid = np.union1d(np.linspace(ref.t[0], ref.t[-1], 401), ref.t)
    assert np.array_equal(got(grid), ref(grid))


@pytest.mark.parametrize("lanes", [1, 4], ids=["scalar", "n_lane"])
@pytest.mark.parametrize("rhs", [lambda s, y: y, lambda s, y: y[::-1]],
                         ids=["returns_y", "returns_a_view_of_y"])
def test_rhs_returning_its_argument_leaves_the_stages_intact(rhs, lanes):
    # the stepper forms every stage argument in one reused buffer; a
    # right-hand side that hands it back (y' = y, or y' = y reversed) must
    # still give solve_ivp's steps, end state and dense output bit for bit
    y0 = np.linspace(1.0, 0.25, 3 * lanes)
    assert_same_solution(dop853(rhs, 0.0, 2.0, y0, 1e-12, dense=True),
                         ScipyDOP853(rhs, 0.0, 2.0, y0, 1e-12, dense=True))


@pytest.mark.parametrize("lanes", [1, 4], ids=["scalar", "n_lane"])
def test_rhs_reusing_one_output_array_is_never_kept(lanes):
    # what the right-hand side returns is copied, never kept: one that
    # returns the same array every call (where solve_ivp keeps f0 while it
    # evaluates f1) gives the steps of one that returns a new array
    out = np.empty(3 * lanes)

    def reused(s, y):
        np.multiply(y[::-1], -s, out=out)
        return out

    y0 = np.linspace(1.0, 0.25, 3 * lanes)
    assert_same_solution(
        dop853(reused, 0.0, 2.0, y0, 1e-12, dense=True),
        dop853(lambda s, y: y[::-1] * -s, 0.0, 2.0, y0, 1e-12, dense=True))
