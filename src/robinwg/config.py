"""Key-value run configuration: parsing, schema validation, profile helpers.

Config files are plain text, one `key = value` per line, `#` comments.
Unknown keys are rejected so typos fail loudly before any computation.
"""

from __future__ import annotations

import hashlib

import numpy as np

from .errors import ConfigError
from .geometry import RECTANGULAR, SMOOTH_BUMP, TABULATED, CurvatureProfile


def parse_kv(text: str) -> dict:
    out = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, val = line.split("=", 1)
        key = key.strip()
        if key in out:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        out[key] = val.strip()
    return out


def _float_list(s):
    try:
        return [float(x) for x in s.split(",") if x.strip()]
    except ValueError as exc:
        raise ConfigError(f"bad float list {s!r}: {exc}") from None


_BOOLS = {"1": True, "true": True, "yes": True,
          "0": False, "false": False, "no": False}


def _bool(s):
    try:
        return _BOOLS[s.lower()]
    except KeyError:
        raise ValueError(f"bad bool {s!r}: expected one of "
                         "1/0, true/false, yes/no") from None


_CASTS = {
    "float": float,
    "int": int,
    "str": str,
    "floats": _float_list,
    "bool": _bool,
}


def validate(raw: dict, schema: dict) -> dict:
    """Cast against the schema; reject unknown keys, fill defaults.

    A float key (or any entry of a float list) that reads nan or +-inf is
    rejected: no quantity in a run is meaningful at either.
    """
    unknown = set(raw) - set(schema)
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    out = {}
    for key, (typ, default) in schema.items():
        if key in raw:
            try:
                out[key] = _CASTS[typ](raw[key])
            except (ValueError, TypeError) as exc:
                raise ConfigError(f"key {key!r}: {exc}") from None
            if typ in ("float", "floats") and not np.all(np.isfinite(out[key])):
                raise ConfigError(f"key {key!r}: {raw[key]!r} is not finite")
        else:
            out[key] = default
    return out


PROFILE_SCHEMA = {
    "kind": ("str", SMOOTH_BUMP),
    "amplitude": ("float", 1.5),
    "center": ("float", 0.0),
    "half_width": ("float", 2.0),
    "nodes": ("floats", []),
    "values": ("floats", []),
}


def profile_from_config(cfg: dict) -> CurvatureProfile:
    kind = cfg["kind"]
    if kind == TABULATED:
        return CurvatureProfile(TABULATED, nodes=tuple(cfg["nodes"]),
                                values=tuple(cfg["values"]))
    if kind not in (SMOOTH_BUMP, RECTANGULAR):
        raise ConfigError(f"unknown profile kind {kind!r}")
    return CurvatureProfile(kind, cfg["amplitude"], cfg["center"],
                            cfg["half_width"])


def profile_to_config(profile: CurvatureProfile) -> str:
    lines = [f"kind = {profile.kind}"]
    if profile.kind == TABULATED:
        lines.append("nodes = " + ",".join(repr(float(x)) for x in profile.nodes))
        lines.append("values = " + ",".join(repr(float(x)) for x in profile.values))
    else:
        lines.append(f"amplitude = {float(profile.amplitude)!r}")
        lines.append(f"center = {float(profile.center)!r}")
        lines.append(f"half_width = {float(profile.half_width)!r}")
    return "\n".join(lines) + "\n"


def config_hash(raw: dict) -> str:
    canon = "\n".join(f"{k} = {raw[k]}" for k in sorted(raw))
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


def alpha_grid(cfg: dict) -> np.ndarray:
    if cfg["alpha_count"] <= 0:
        raise ConfigError("alpha_count must be positive")
    return np.linspace(cfg["alpha_min"], cfg["alpha_max"], cfg["alpha_count"])
