import numpy as np
import pytest

from robinwg.config import (PROFILE_SCHEMA, config_hash, parse_kv,
                            profile_from_config, profile_to_config, validate)
from robinwg.errors import ConfigError
from robinwg.geometry import RECTANGULAR, TABULATED, CurvatureProfile, default_bump


def roundtrip(profile):
    raw = parse_kv(profile_to_config(profile))
    return profile_from_config(validate(raw, PROFILE_SCHEMA))


def test_profile_roundtrip_bump():
    assert roundtrip(default_bump()) == default_bump()


def test_profile_roundtrip_rectangular():
    p = CurvatureProfile(RECTANGULAR, amplitude=np.pi / 2, center=0.5,
                         half_width=0.5)
    assert roundtrip(p) == p


def test_profile_roundtrip_tabulated():
    nodes = tuple(np.linspace(-1, 1, 9))
    values = tuple(np.concatenate([[0.0], np.random.default_rng(0).uniform(
        0.1, 1.0, 7), [0.0]]))
    p = CurvatureProfile(TABULATED, nodes=nodes, values=values)
    q = roundtrip(p)
    assert q.nodes == p.nodes and q.values == p.values


def test_parse_rejects_garbage():
    with pytest.raises(ConfigError):
        parse_kv("this is not a key value line\n")
    with pytest.raises(ConfigError):
        parse_kv("a = 1\na = 2\n")
    assert parse_kv("# comment only\n\n") == {}


def test_validate_unknown_and_required():
    with pytest.raises(ConfigError):
        validate({"nope": "1"}, PROFILE_SCHEMA)
    with pytest.raises(ConfigError):
        validate({"amplitude": "abc"}, PROFILE_SCHEMA)


def test_config_hash_stable_under_reordering():
    a = {"x": "1", "y": "2"}
    b = {"y": "2", "x": "1"}
    assert config_hash(a) == config_hash(b)
    assert config_hash(a) != config_hash({"x": "1", "y": "3"})


@pytest.mark.parametrize("text,value", [
    ("1", True), ("true", True), ("True", True), ("YES", True),
    ("0", False), ("false", False), ("FALSE", False), ("No", False)])
def test_bool_cast_accepts_the_six_spellings_in_any_case(text, value):
    assert validate({"flag": text}, {"flag": ("bool", False)}) == {"flag": value}


@pytest.mark.parametrize("text", ["ture", "on", "off", "2", "y", ""])
def test_bool_cast_rejects_anything_else(text):
    with pytest.raises(ConfigError, match="'flag'.*bad bool"):
        validate({"flag": text}, {"flag": ("bool", True)})
