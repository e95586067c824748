"""Convergence-study report shared by the 1D and 2D verification drivers."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

VERDICT_MATCH = "converges-to-predicted"
VERDICT_INCONCLUSIVE = "inconclusive"
VERDICT_MISMATCH = "mismatch"

EXIT_CODE = {VERDICT_MATCH: 0, VERDICT_INCONCLUSIVE: 3, VERDICT_MISMATCH: 4}


def fit_decay_exponent(eps_list, errors):
    """Least-squares slope of log(error) against log(eps)."""
    e = np.asarray(errors, dtype=float)
    x = np.log(np.asarray(eps_list, dtype=float))
    if np.any(e <= 0):
        return float("nan")
    coef = np.polyfit(x, np.log(e), 1)
    return float(coef[0])


def extrapolate_linear(eps_list, values, n_points=3):
    """Linear-in-eps extrapolation to eps = 0 from the smallest entries."""
    eps = np.asarray(eps_list, dtype=float)[-n_points:]
    vals = np.asarray(values)[-n_points:]
    X = np.vstack([np.ones_like(eps), eps]).T
    coef, *_ = np.linalg.lstsq(X, vals, rcond=None)
    return coef[0]


@dataclass
class ConvergenceReport:
    predicted: dict                 # GraphOperatorSpec.to_dict()
    eps_list: list
    errors: list                    # per-eps error vs the predicted limit
    alt_kind: str                   # competitor operator kind
    alt_errors: list
    z: complex
    norm: str                       # where the error norm lives
    verdict: str
    fitted_exponent: float
    leakage: list = field(default_factory=list)
    transmission: list = field(default_factory=list)
    transmission_extrapolated: complex | None = None
    vertex_residuals: list = field(default_factory=list)
    vertex_residual_extrapolated: dict = field(default_factory=dict)
    offdiagonal: dict = field(default_factory=dict)
    discretization_estimate: float | None = None
    notes: list = field(default_factory=list)
    # (s, u, values) of the first probe's 2D field at the last eps; not
    # serialised by to_dict
    probe_field: tuple | None = field(default=None, repr=False, compare=False)

    @property
    def exit_code(self) -> int:
        return EXIT_CODE[self.verdict]

    def to_dict(self):
        def c2(v):
            if v is None:
                return None
            if isinstance(v, complex):
                return {"re": v.real, "im": v.imag}
            return float(v)

        return {
            "predicted": self.predicted,
            "eps_list": [float(e) for e in self.eps_list],
            "errors": [float(e) for e in self.errors],
            "alt_kind": self.alt_kind,
            "alt_errors": [float(e) for e in self.alt_errors],
            "z": {"re": complex(self.z).real, "im": complex(self.z).imag},
            "norm": self.norm,
            "verdict": self.verdict,
            "fitted_exponent": self.fitted_exponent,
            "leakage": [float(x) for x in self.leakage],
            "transmission": [c2(t) for t in self.transmission],
            "transmission_extrapolated": c2(self.transmission_extrapolated),
            "vertex_residuals": [
                {k: float(v) for k, v in r.items()} for r in self.vertex_residuals],
            "vertex_residual_extrapolated": {
                k: float(v) for k, v in self.vertex_residual_extrapolated.items()},
            "offdiagonal": {str(k): [float(x) for x in v]
                            for k, v in self.offdiagonal.items()},
            "discretization_estimate": c2(self.discretization_estimate),
            "notes": list(self.notes),
        }
