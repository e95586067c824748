import json
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from robinwg.effective_1d import bump_probe, outgoing_root
from robinwg.errors import RobinwgError
from robinwg.graph_limit import GraphOperatorSpec, resolvent_apply, sqrt_upper
from robinwg.report import (VERDICT_INCONCLUSIVE, VERDICT_MATCH,
                            VERDICT_MISMATCH, ConvergenceReport,
                            _end_tail, _trapezoid_weights,
                            _weighted_norm, run_study)

Z = 1j
S = np.linspace(-12.0, 12.0, 2401)
PROBE = bump_probe(-4.0, 1.5)
EPS = [0.4, 0.2, 0.1]
FREE = GraphOperatorSpec.free()
DECOUPLED = GraphOperatorSpec.decoupled()
H = 1e-3 * np.cos(S)


def free_line(grid, fs):
    assert grid == "S"
    return resolvent_apply(FREE, Z, S, fs)


def synthetic(limit, offset):
    """Backend returning the limit's output plus offset(eps) on a fixed grid,
    row p of the block F for each eps's row(p)."""
    def solve(grid, eps_run, F):
        assert grid == "S"
        return [lambda p, eps=eps: resolvent_apply(limit, Z, S, F[p])
                + offset(eps) for eps in eps_run]
    return lambda eps: ("S", S), solve


def test_linear_perturbation_converges_with_exponent_one():
    rep = run_study(FREE, DECOUPLED, Z, PROBE, EPS,
                    synthetic(FREE, lambda eps: eps * H), 0.02, free_line)
    assert rep.verdict == VERDICT_MATCH
    assert abs(rep.fitted_exponent - 1.0) < 1e-12
    assert len(rep.leakage) == len(rep.transmission) == len(EPS)
    assert rep.discretization_estimate is None and rep.notes == []


def test_constant_offset_is_inconclusive_with_floor_note():
    seen = []

    def floor(probe, g, grid, eps):
        seen.append((probe, grid, eps))
        return 2.5e-4

    solver = synthetic(FREE, lambda eps: 1e-3)
    rep = run_study(FREE, DECOUPLED, Z, [PROBE, bump_probe(4.0, 1.5)], EPS,
                    solver, 0.02, free_line, floor_estimate=floor)
    assert rep.verdict == VERDICT_INCONCLUSIVE
    assert seen == [(PROBE, "S", EPS[-1])]
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


def test_shrinking_competitor_lead_is_inconclusive_with_its_crossover():
    # the competitor's error grows like 1/eps and the predicted one barely
    # moves: the competitor wins at the last eps, but its lead halves with
    # each halving of eps, so the ratio's power law reaches 1 near
    # eps / ratio
    rep = run_study(FREE, DECOUPLED, Z, PROBE, EPS,
                    synthetic(DECOUPLED, lambda eps: 0.1 / eps * H), 0.02,
                    free_line)
    assert rep.verdict == VERDICT_INCONCLUSIVE
    assert rep.errors[-1] > rep.alt_errors[-1]
    (e2, e1), (a2, a1) = rep.errors[-2:], rep.alt_errors[-2:]
    assert e1 / a1 < e2 / a2
    crossover = 0.1 / (e1 / a1) ** (np.log(0.5) / np.log(e1 * a2 / (e2 * a1)))
    assert 0.02 < crossover < 0.1 / (e1 / a1) * 1.1
    assert rep.notes == [
        "the competitor (decoupled) has the smaller error, but the ratio of "
        f"predicted to competitor error falls ({e2 / a2:.3g} -> {e1 / a1:.3g}); "
        f"its power law through the last two eps crosses 1 at eps ~ "
        f"{crossover:.2g}"]


def test_transmission_with_fewer_than_three_eps_is_the_last_value():
    rep = run_study(FREE, DECOUPLED, Z, PROBE, [0.4, 0.2],
                    synthetic(FREE, lambda eps: eps * H), 0.02, free_line)
    assert rep.transmission_extrapolated == rep.transmission[-1]


def no_grid(eps):
    raise AssertionError("no grid before the input checks")


no_solve = (no_grid, no_grid)


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
    def solve(grid, eps_run, F):
        pytest.fail("no solve after the probe check")

    with pytest.raises(RobinwgError, match="probe 1 has sampled norm"):
        run_study(FREE, DECOUPLED, Z, [PROBE, bad], EPS,
                  (lambda eps: ("S", S), solve), 0.02, free_line)



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


@settings(max_examples=50, deadline=None)
@given(st.sampled_from([1j, 1.0 + 0.05j, -2.0 + 0.1j]),
       st.sampled_from([1e-2, 4e-3]), st.integers(0, 2 ** 32 - 1))
def test_end_tail_is_the_trapezoid_sum_beyond_the_end_node(z, h, seed):
    # h/2 |a - b|^2 plus h |a r^j - b q^j|^2 summed over j >= 1, against
    # the sum itself, out to where |r|^j and |q|^j are below 1e-20
    rng = np.random.default_rng(seed)
    a, b = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    b = a + 0.01 * b             # the error is small against the field
    r = complex(outgoing_root(h, z))
    q = complex(np.exp(1j * sqrt_upper(z) * h))
    j = np.arange(1, int(46 / (1 - max(abs(r), abs(q)))))
    want = h * (abs(a - b) ** 2 / 2
                + np.sum(np.abs(a * r ** j - b * q ** j) ** 2))
    # the closed form cancels its geometric sums, each up to
    # h |a|^2 / |1 - r conj(q)|, to the small difference: rounding there
    eps = np.finfo(float).eps
    tol = (10 * eps * h * (abs(a) ** 2 + abs(b) ** 2)
           / abs(1 - r * q.conjugate()) ** 2)
    assert abs(_end_tail(a, b, r, q, h) - want) <= tol + 1e-12 * want


def test_to_dict_is_the_repr_fields_as_plain_json():
    report = ConvergenceReport(
        predicted=FREE.to_dict(), eps_list=[0.4, np.float64(0.2)],
        errors=[np.float64(1e-3), 5e-4], alt_kind="decoupled",
        alt_errors=[0.1, 0.2], z=complex(Z), norm="L2", verdict=VERDICT_MATCH,
        fitted_exponent=1.0, transmission=[np.complex128(0.5 + 0.25j)],
        transmission_extrapolated=1 - 0.5j,
        vertex_residuals=[{"value": np.float64(1e-6)}],
        offdiagonal={1: [np.float64(2e-3)]},
        discretization_estimate=np.float64(3e-5),
        notes=("a note",), probe_field=(S, S, np.zeros((2, 2))))
    d = report.to_dict()
    assert set(d) == {f.name for f in fields(report) if f.repr}
    assert "probe_field" not in d
    assert d["eps_list"] == [0.4, 0.2] and d["notes"] == ["a note"]
    assert d["transmission"] == [{"re": 0.5, "im": 0.25}]
    assert d["transmission_extrapolated"] == {"re": 1.0, "im": -0.5}
    assert d["z"] == {"re": 0.0, "im": 1.0} and d["offdiagonal"] == {"1": [2e-3]}
    # every number is a Python float, so the JSON text names no numpy type
    assert json.loads(json.dumps(d)) == d
    assert type(d["errors"][0]) is float
    assert type(d["discretization_estimate"]) is float
