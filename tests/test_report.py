import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from robinwg.effective_1d import bump_probe
from robinwg.errors import RobinwgError
from robinwg.graph_limit import GraphOperatorSpec, resolvent_apply
from robinwg.report import (VERDICT_INCONCLUSIVE, VERDICT_MATCH,
                            VERDICT_MISMATCH, _trapezoid_weights,
                            _weighted_norm, run_study)

Z = 1j
S = np.linspace(-12.0, 12.0, 2401)
PROBE = bump_probe(-4.0, 1.5)
EPS = [0.4, 0.2, 0.1]
FREE = GraphOperatorSpec.free()
DECOUPLED = GraphOperatorSpec.decoupled()
H = 1e-3 * np.cos(S)


def free_line(s, fs):
    return resolvent_apply(FREE, Z, s, fs)


def synthetic(limit, offset):
    """Backend returning the limit's output plus offset(eps) on a fixed grid."""
    def solver(eps):
        return S, lambda F: (np.array([resolvent_apply(limit, Z, S, fs)
                                       + offset(eps) for fs in F]), None)
    return solver


def test_linear_perturbation_converges_with_exponent_one():
    rep = run_study(FREE, DECOUPLED, Z, PROBE, EPS,
                    synthetic(FREE, lambda eps: eps * H), 0.02, free_line)
    assert rep.verdict == VERDICT_MATCH
    assert abs(rep.fitted_exponent - 1.0) < 1e-12
    assert len(rep.leakage) == len(rep.transmission) == len(EPS)
    assert rep.discretization_estimate is None and rep.notes == []


def test_constant_offset_is_inconclusive_with_floor_note():
    seen = []

    def floor(probe, g):
        seen.append(probe)
        return 2.5e-4

    solver = synthetic(FREE, lambda eps: 1e-3)
    rep = run_study(FREE, DECOUPLED, Z, [PROBE, bump_probe(4.0, 1.5)], EPS,
                    solver, 0.02, free_line, floor_estimate=floor)
    assert rep.verdict == VERDICT_INCONCLUSIVE
    assert seen == [PROBE]
    assert rep.discretization_estimate == 2.5e-4
    assert len(rep.notes) == 1 and "floor estimate 0.00025" in rep.notes[0]

    rep = run_study(FREE, DECOUPLED, Z, PROBE, EPS, solver, 0.02, free_line,
                    notes=["backend note"])
    assert rep.verdict == VERDICT_INCONCLUSIVE
    assert rep.discretization_estimate is None
    assert rep.notes == ["backend note"]


def test_winning_alternative_is_a_mismatch():
    rep = run_study(FREE, DECOUPLED, Z, PROBE, EPS,
                    synthetic(DECOUPLED, lambda eps: eps * H), 0.02, free_line)
    assert rep.verdict == VERDICT_MISMATCH
    assert rep.alt_kind == "decoupled"
    assert rep.errors[-1] > rep.alt_errors[-1]


def test_transmission_with_fewer_than_three_eps_is_the_last_value():
    rep = run_study(FREE, DECOUPLED, Z, PROBE, [0.4, 0.2],
                    synthetic(FREE, lambda eps: eps * H), 0.02, free_line)
    assert rep.transmission_extrapolated == rep.transmission[-1]


def no_solve(eps):
    raise AssertionError("no solve before the input checks")


@pytest.mark.parametrize("eps_list", [[], [0.1, 0.2], [0.2, 0.2, 0.1]])
def test_eps_list_must_be_strictly_decreasing(eps_list):
    with pytest.raises(RobinwgError, match="strictly decreasing"):
        run_study(FREE, DECOUPLED, Z, PROBE, eps_list, no_solve, 0.02,
                  free_line)


def test_empty_probe_list_is_rejected_before_any_solve():
    with pytest.raises(RobinwgError, match="at least one probe"):
        run_study(FREE, DECOUPLED, Z, [], EPS, no_solve, 0.02, free_line)


@pytest.mark.parametrize("bad", [bump_probe(40.0, 1.5),
                                 lambda s: np.full_like(s, np.nan),
                                 lambda s: np.full_like(s, np.inf)],
                         ids=["off_grid", "nan", "inf"])
def test_probe_without_a_finite_positive_norm_is_rejected(bad):
    # its error would be 0/0: no verdict may rest on it
    def solver(eps):
        return S, lambda F: pytest.fail("no solve after the probe check")

    with pytest.raises(RobinwgError, match="probe 1 has sampled norm"):
        run_study(FREE, DECOUPLED, Z, [PROBE, bad], EPS, solver, 0.02,
                  free_line)



def test_outer_norm_of_one_is_the_span_of_the_outer_nodes():
    # |s| > 1 is two half-lines: the cell across the gap does not count
    rep = run_study(FREE, DECOUPLED, Z, PROBE, EPS, synthetic(FREE, lambda e: 1.0),
                    0.02, free_line)
    nf = np.sqrt(np.trapezoid(np.abs(PROBE(S)) ** 2, S))
    left, right = S[S < -1.0], S[S > 1.0]
    span = (left[-1] - left[0]) + (right[-1] - right[0])
    for e in rep.errors:
        assert abs((e * nf) ** 2 - span) <= 1e-14 * span


@settings(max_examples=200, deadline=None)
@given(st.floats(1.5, 30.0), st.integers(8, 3000), st.floats(-0.5, 0.5),
       st.integers(0, 2 ** 32 - 1))
def test_weighted_norms_equal_two_segment_trapezoid(L, n, shift, seed):
    rng = np.random.default_rng(seed)
    s = np.linspace(-L, L, n) + shift * 2 * L / n
    t = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    y = np.abs(t) ** 2
    left, far = s < -1.0, s > 1.0
    w = _trapezoid_weights(s, left, far)
    # the error norm on |s| > 1, and the leakage's on the s > 1 slice
    for got, runs in ((_weighted_norm(t, w), (left, far)),
                      (_weighted_norm(t[far], w[far]), (far,))):
        want = np.sqrt(sum(np.trapezoid(y[r], s[r]) for r in runs))
        assert abs(got - want) <= 1e-14 * want
