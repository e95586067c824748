"""Command-line driver.

Subcommands: spectrum, resonance, limit-check, waveguide-check.  Outputs are
CSV/JSON files with a metadata header (config hash, version, units); exit
codes encode study verdicts so CI can grade runs:

    0  success / conclusive match      2  usage or config error
    3  inconclusive                    4  prediction mismatch

`limit-check` and `waveguide-check` import their study modules (and with
them scipy's compiled LAPACK extension) inside their `cmd_*`, so `spectrum`
and `resonance` run on numpy alone.
"""

from __future__ import annotations

import argparse
import json
import sys
from itertools import chain, islice, repeat
from pathlib import Path

import numpy as np

from . import __version__
from .config import (PROFILE_SCHEMA, alpha_grid, config_hash, parse_kv,
                     profile_from_config, validate)
from .errors import (ConfigError, GridResolutionError, ProfileError,
                     RobinwgError)
from .geometry import ScalingParams, WaveguideGeometry
from .graph_limit import GraphOperatorSpec, green_function
from .report import VERDICT_MISMATCH
from .resonance import Potential1D, detect_resonance, find_resonant_coupling
from .transverse import beta_table, perturbation_coefficients

UNITS_NOTE = "lengths in units of the half-width d; alpha, curvature in 1/length"
# unknowns per probe at a study's smallest eps: 8x the largest README 2D grid
# (the strip's s extent grows as z nears [0, inf); the 1D one is half_length)
MAX_UNKNOWNS = 2_000_000


def _meta_lines(cfg_raw, seed):
    return [f"# robinwg version: {__version__}",
            f"# config hash: {config_hash(cfg_raw)}",
            f"# seed: {seed}",
            f"# units: {UNITS_NOTE}"]


def _write_csv(path: Path, header, rows, cfg_raw, seed):
    """A float ndarray with one row per line, NaN written as nan.

    tolist() gives Python floats, whose repr is the text of every cell.
    """
    lines = (",".join(map(repr, row)) for row in rows.tolist())
    _write_lines(path, header, lines, cfg_raw, seed)


def _write_lines(path: Path, header, lines, cfg_raw, seed):
    """A CSV of formatted data lines under the metadata and the header,
    streamed to the file 1024 lines at a time (one write per line took
    twice as long as one for the whole text)."""
    lines = chain(_meta_lines(cfg_raw, seed), [",".join(header)], lines)
    with path.open("w") as fh:
        while chunk := list(islice(lines, 1024)):
            fh.write("\n".join(chunk) + "\n")


def _write_json(path: Path, payload, cfg_raw, seed):
    doc = {"meta": {"version": __version__, "config_hash": config_hash(cfg_raw),
                    "seed": seed, "units": UNITS_NOTE},
           "data": payload}
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------

def _check_transverse(d, n, key):
    """The half-width d and the mode bound `key` = n of a transverse solve."""
    if not d > 0:
        raise ConfigError(f"d must be positive, got {d!r}")
    if n < 0:
        raise ConfigError(f"{key} must be >= 0, got {n}")


SPECTRUM_SCHEMA = {
    "d": ("float", 1.0),
    "n_max": ("int", 3),
    "alpha_min": ("float", -5.0),
    "alpha_max": ("float", 5.0),
    "alpha_count": ("int", 201),
    # the lambda2 pole curve (e.g. the marginal zero crossing at alpha*d = -1)
    # legitimately marks a few grid points; only larger failures abort
    "bad_point_quota": ("int", 4),
}


def cmd_spectrum(cfg_raw, out, fmt, seed):
    cfg = validate(cfg_raw, SPECTRUM_SCHEMA)
    d, n_max = cfg["d"], cfg["n_max"]
    _check_transverse(d, n_max, "n_max")
    table = beta_table(alpha_grid(cfg), d, n_max).check_order()
    bad = int(np.count_nonzero(np.isnan(table.lambda2)))
    if bad > cfg["bad_point_quota"]:
        print(f"error: {bad} bad table points exceed quota "
              f"{cfg['bad_point_quota']}", file=sys.stderr)
        return 1
    # cells are reprs of Python floats from tolist() (an np.float64's names
    # its type), so a singular entry is written nan; alpha's once per row
    alphas = list(map(repr, table.alpha.tolist()))
    mu_lines = [f"{alpha},{n},{mu!r}"
                for alpha, row in zip(alphas, table.mu.tolist())
                for n, mu in enumerate(row)]
    l2s, betas = table.lambda2.ravel().tolist(), table.beta.ravel().tolist()
    keys = ["alpha", "n", "mu_n", "lambda2_n", "beta_n"]
    _write_lines(out / "mu_table.csv", keys[:3], mu_lines, cfg_raw, seed)
    _write_lines(out / "beta_table.csv", keys,
                 (f"{line},{l2!r},{beta!r}"
                  for line, l2, beta in zip(mu_lines, l2s, betas)),
                 cfg_raw, seed)
    if fmt == "json":   # JSON has no nan: a singular entry is null
        entries = zip(np.repeat(table.alpha, n_max + 1).tolist(),
                      [*range(n_max + 1)] * len(alphas),
                      table.mu.ravel().tolist(), l2s, betas)
        _write_json(out / "beta_table.json",
                    [dict(zip(keys, (x if x == x else None for x in entry)))
                     for entry in entries], cfg_raw, seed)
    return 0


RESONANCE_SCHEMA = dict(PROFILE_SCHEMA, **{
    "beta": ("float", None),
    "beta_min": ("float", None),
    "beta_max": ("float", None),
    "alpha": ("float", None),
    "n": ("int", None),
    "d": ("float", 1.0),
    "tol_d": ("float", 1e-9),
})


def _resolve_beta(cfg):
    """The coupling a config sets and its source: (beta, None) from a `beta`
    key, (beta_n(alpha), source) from an (alpha, n) pair, else (None, None)."""
    if cfg["beta"] is not None or cfg["alpha"] is None or cfg["n"] is None:
        return cfg["beta"], None
    _check_transverse(cfg["d"], cfg["n"], "n")
    pc = perturbation_coefficients(cfg["alpha"], cfg["d"], cfg["n"])
    return pc.beta, {"alpha": cfg["alpha"], "n": cfg["n"], "mu_n": pc.mu,
                     "lambda2": pc.lambda2}


def cmd_resonance(cfg_raw, out, seed):
    cfg = validate(cfg_raw, RESONANCE_SCHEMA)
    if not cfg["tol_d"] > 0:
        raise ConfigError(f"tol_d must be positive, got {cfg['tol_d']!r}")
    profile = profile_from_config(cfg)
    beta, source = _resolve_beta(cfg)
    payload = {} if source is None else {"beta_source": source}
    if beta is not None:
        res = detect_resonance(Potential1D.from_profile(profile, beta),
                               cfg["tol_d"])
        payload["beta"] = beta
        payload["result"] = res.to_dict()
    elif cfg["beta_min"] is not None and cfg["beta_max"] is not None:
        if cfg["beta_min"] == cfg["beta_max"]:
            raise ConfigError(f"beta_min = beta_max = {cfg['beta_min']!r}: "
                              "the scan range is empty")
        if profile.sup_abs() == 0:
            raise ConfigError("zero profile: every coupling gives D = 0, "
                              "so the scan has no root to isolate")
        root = find_resonant_coupling(profile, (cfg["beta_min"], cfg["beta_max"]))
        payload["scan_range"] = [cfg["beta_min"], cfg["beta_max"]]
        if root is None:
            payload["beta_star"] = None
            payload["result"] = {"resonant": False,
                                 "note": "no sign change of the mismatch in range"}
        else:
            payload["beta_star"] = root
            res = detect_resonance(Potential1D.from_profile(profile, root),
                                   cfg["tol_d"])
            payload["result"] = res.to_dict()
    else:
        raise ConfigError("need beta, or (alpha, n), or (beta_min, beta_max)")
    _write_json(out / "resonance.json", payload, cfg_raw, seed)
    return 0


LIMIT_SCHEMA = dict(PROFILE_SCHEMA, **{
    "beta": ("float", None),
    "alpha": ("float", None),
    "n": ("int", None),
    "d": ("float", 1.0),
    "b": ("float", 0.0),
    "z_re": ("float", 0.0),
    "z_im": ("float", 1.0),
    "eps_list": ("floats", [0.4, 0.2, 0.1, 0.05, 0.025]),
    "error_threshold": ("float", 0.02),
    # every probe vanishes outside [-half_length, half_length]
    "half_length": ("float", 8.0),
    "h_target": ("float", 2e-3),
    "probe_center": ("float", -4.0),
    "probe_half_width": ("float", 1.5),
    "probe": ("str", "bump"),
})


def _check_study(cfg):
    """The study keys shared by limit-check and waveguide-check; returns z."""
    if cfg["probe"] not in ("bump", "random"):
        raise ConfigError(f"probe must be 'bump' or 'random', got {cfg['probe']!r}")
    eps = cfg["eps_list"]
    if not eps:
        raise ConfigError("eps_list must not be empty")
    if not (all(e > 0 for e in eps)
            and all(e1 > e2 for e1, e2 in zip(eps, eps[1:]))):
        raise ConfigError("eps_list must be positive and strictly "
                          f"decreasing, got {eps!r}")
    for key in ("h_target", "half_length", "probe_half_width", "error_threshold"):
        if key in cfg and not cfg[key] > 0:
            raise ConfigError(f"{key} must be positive, got {cfg[key]!r}")
    if cfg["z_im"] == 0:
        raise ConfigError("z_im must be nonzero: the studies take the "
                          "resolvent off the real axis")
    return complex(cfg["z_re"], cfg["z_im"])


def _check_grid_size(profile, eps, half_length, h_max, n_u, cause, remedy):
    """The s-grid at the smallest eps may hold MAX_UNKNOWNS unknowns per
    probe: nodes in 1D (n_u None), interior columns times n_u + 1 in 2D;
    a larger one is a config error naming the keys that set it."""
    from .effective_1d import s_grid
    n = s_grid(profile, eps, half_length, h_max).n_cells
    size = n + 1 if n_u is None else (n - 1) * (n_u + 1)
    if size > MAX_UNKNOWNS:
        raise ConfigError(
            f"{cause} give a grid of {size:,} unknowns per probe at "
            f"eps = {eps!r}, above {MAX_UNKNOWNS:,}; {remedy}")


def _probe_from(cfg, seed):
    from .effective_1d import bump_probe
    if cfg["probe"] == "random":
        rng = np.random.default_rng(seed)
        c = rng.uniform(-5.0, -2.5)
        w = rng.uniform(0.8, 1.8)
        return bump_probe(c, w)
    return bump_probe(cfg["probe_center"], cfg["probe_half_width"])


def _check_probe_ends(probe, L, where):
    """A probe nonzero at s = +-L, where the s-grid ends, is a config error."""
    if np.any(probe(np.array([-L, L]))):
        raise ConfigError(f"the probe is nonzero at {where}")


def _emit_report(report, out, cfg_raw, seed, override):
    if override is not None and report.predicted["kind"] != override:
        report.verdict = VERDICT_MISMATCH
        report.notes.append(
            f"prediction override {override!r} contradicts the resonance "
            f"verdict {report.predicted['kind']!r}")
    _write_json(out / "report.json", report.to_dict(), cfg_raw, seed)
    rows = np.column_stack([report.eps_list, report.errors, report.alt_errors])
    _write_csv(out / "errors.csv",
               ["eps", "error_vs_predicted", f"error_vs_{report.alt_kind}"],
               rows, cfg_raw, seed)
    _emit_green_trace(report, out, cfg_raw, seed)
    return report.exit_code


def _emit_green_trace(report, out, cfg_raw, seed):
    """Green's function of the predicted limit along the line (for plotting)."""
    spec = GraphOperatorSpec(**report.predicted)
    s = np.linspace(-8.0, 8.0, 401)
    rows = []
    for src in (-2.0, 1.0):
        g = green_function(spec, report.z, s, np.full_like(s, src))
        rows.append(np.column_stack([np.full_like(s, src), s, g.real, g.imag]))
    _write_csv(out / "green_trace.csv", ["source", "s", "re_g", "im_g"],
               np.vstack(rows), cfg_raw, seed)


def cmd_limit_check(cfg_raw, out, seed, override=None):
    from .effective_1d import check_support, convergence_study
    cfg = validate(cfg_raw, LIMIT_SCHEMA)
    profile = profile_from_config(cfg)
    z = _check_study(cfg)
    L = cfg["half_length"]
    _check_grid_size(profile, cfg["eps_list"][-1], L, cfg["h_target"], None,
                     f"half_length = {L!r}, h_target = {cfg['h_target']!r}",
                     "lower half_length or raise h_target")
    probe = _probe_from(cfg, seed)
    _check_probe_ends(
        probe, L, f"s = +-half_length = {L!r}; every probe must vanish "
        "outside [-half_length, half_length]: raise half_length")
    beta, _ = _resolve_beta(cfg)
    if beta is None:
        raise ConfigError("need beta or the (alpha, n) pair")
    if beta != 0.0:
        try:    # the widest scaled support is the largest eps's
            check_support(profile, max(cfg["eps_list"]), L)
        except GridResolutionError as exc:
            raise ConfigError(f"{exc}: raise half_length") from None
    report = convergence_study(
        profile, beta, cfg["b"], z, probe, cfg["eps_list"], half_length=L,
        h_target=cfg["h_target"], error_threshold=cfg["error_threshold"])
    return _emit_report(report, out, cfg_raw, seed, override)


WAVEGUIDE_SCHEMA = dict(PROFILE_SCHEMA, **{
    "alpha": ("float", 0.0),
    "d": ("float", 1.0),
    "n": ("int", 0),
    "n_max": ("int", None),
    "b": ("float", 0.0),
    "delta_ratio": ("float", 0.05),
    "z_re": ("float", 0.0),
    "z_im": ("float", 1.0),
    "eps_list": ("floats", [0.4, 0.2, 0.1]),
    "n_u": ("int", 32),
    "variant": ("str", "full"),
    "error_threshold": ("float", 0.05),
    "probe_center": ("float", -4.0),
    "probe_half_width": ("float", 1.5),
    "probe": ("str", "bump"),
    "dump_field": ("bool", False),
})


def cmd_waveguide_check(cfg_raw, out, seed, override=None):
    from .waveguide2d import (FULL, SIMPLIFIED, Grid2D, resolve_n_max,
                              s_half_length, theorem_check)
    cfg = validate(cfg_raw, WAVEGUIDE_SCHEMA)
    profile = profile_from_config(cfg)
    z = _check_study(cfg)
    _check_grid_size(profile, cfg["eps_list"][-1], s_half_length(z), np.inf,
                     cfg["n_u"],
                     f"z_re = {cfg['z_re']!r}, z_im = {cfg['z_im']!r}",
                     "raise z_im or lower z_re")
    _check_transverse(cfg["d"], cfg["n"], "n")
    try:    # n <= n_max, and n_u >= 16 resolves mode n_max at any s extent
        n_max = resolve_n_max(cfg["n"], cfg["n_max"])
        Grid2D(1.0, 8, cfg["n_u"], cfg["d"]).check_mode_resolution(n_max)
    except RobinwgError as exc:
        raise ConfigError(str(exc)) from None
    if cfg["variant"] not in (FULL, SIMPLIFIED):
        raise ConfigError(f"variant must be {FULL!r} or {SIMPLIFIED!r}, got "
                          f"{cfg['variant']!r}")
    scaling = ScalingParams(epsilon=cfg["eps_list"][0], b=cfg["b"],
                            delta_ratio=cfg["delta_ratio"])
    geometry = WaveguideGeometry(profile, cfg["d"], scaling, cfg["alpha"])
    probe = _probe_from(cfg, seed)
    L = s_half_length(z)
    _check_probe_ends(
        probe, L, f"the strip's Dirichlet caps s = +-{L!r}; every probe must "
        "vanish there: move or narrow the probe")
    report = theorem_check(
        geometry, cfg["n"], z, probe, cfg["eps_list"],
        n_max=n_max, n_u=cfg["n_u"], variant=cfg["variant"],
        error_threshold=cfg["error_threshold"])
    if cfg["dump_field"]:
        _dump_field_slice(report.probe_field, out, cfg_raw, seed)
    return _emit_report(report, out, cfg_raw, seed, override)


def _dump_field_slice(probe_field, out, cfg_raw, seed):
    """2D resolvent field solved at the smallest eps, as (s, u, re, im) rows."""
    s, u, field = probe_field
    stride = max(1, len(s) // 400)
    part = field[::stride]
    # each s and u value is formatted once, as _write_csv would format it
    s_txt = list(map(repr, s[::stride].tolist()))
    u_txt = list(map(repr, u.tolist()))
    lines = map(",".join, zip(
        chain.from_iterable(repeat(x, len(u_txt)) for x in s_txt),
        chain.from_iterable(repeat(u_txt, len(s_txt))),
        map(repr, part.real.ravel().tolist()),
        map(repr, part.imag.ravel().tolist())))
    _write_lines(out / "field_slice.csv", ["s", "u", "re", "im"], lines,
                 cfg_raw, seed)


# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="robinwg",
        description="Robin waveguide to quantum-graph reduction toolkit")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("spectrum", "resonance", "limit-check", "waveguide-check"):
        p = sub.add_parser(name)
        p.add_argument("--config", type=Path, default=None,
                       help="key = value config file")
        p.add_argument("--out", type=Path, default=Path("."),
                       help="output directory")
        p.add_argument("--seed", type=int, default=0)
        if name == "spectrum":
            p.add_argument("--format", choices=("csv", "json"), default="csv",
                           help="json also writes beta_table.json")
        if name in ("limit-check", "waveguide-check"):
            p.add_argument("--override-prediction",
                           choices=("decoupled", "free"), default=None,
                           help="force a comparison operator (negative control)")
    args = parser.parse_args(argv)

    try:
        cfg_raw = parse_kv(args.config.read_text()) if args.config else {}
        args.out.mkdir(parents=True, exist_ok=True)
        if args.command == "spectrum":
            return cmd_spectrum(cfg_raw, args.out, args.format, args.seed)
        if args.command == "resonance":
            return cmd_resonance(cfg_raw, args.out, args.seed)
        if args.command == "limit-check":
            return cmd_limit_check(cfg_raw, args.out, args.seed,
                                   args.override_prediction)
        return cmd_waveguide_check(cfg_raw, args.out, args.seed,
                                   args.override_prediction)
    except (ConfigError, ProfileError) as exc:
        # a profile, scaling or chart the library rejects: its values came
        # from the config
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RobinwgError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
