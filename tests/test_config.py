"""Fail-closed config parsing: a mutated config parses or raises ConfigError.

The mutations take a bundled config (or the benchmark's linear2d one) and
replace one value, anywhere in it, by a JSON value of another type, delete
one key, or add one, named after a key the configs know or at random.
"""

import copy
import importlib.util
import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linbayes.errors import ConfigError
from linbayes.pipeline import PipelineConfig, validate_config

_ROOT = Path(__file__).resolve().parent.parent
_SPEC = importlib.util.spec_from_file_location("bench_workloads", _ROOT / "bench" / "workloads.py")
workloads = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(workloads)

CONFIGS = {name: json.loads((_ROOT / "configs" / name).read_text())
           for name in ("linear_small.json", "wave1d_small.json")}
CONFIGS["linear2d"] = workloads.linear2d_config(str(_ROOT), seed=1)

# json reads a long run of digits as an integer beyond any double
JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.just(-10**400) | st.floats()
    | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                                max_size=3),
    max_leaves=6)


def _paths(node, prefix=()):
    """The path of every value under ``node``, as keys and list indices."""
    items = node.items() if isinstance(node, dict) else \
        enumerate(node) if isinstance(node, list) else ()
    for key, val in items:
        yield prefix + (key,)
        yield from _paths(val, prefix + (key,))


def _at(node, path):
    for key in path:
        node = node[key]
    return node


KNOWN_KEYS = sorted({path[-1] for cfg in CONFIGS.values() for path in _paths(cfg)
                     if isinstance(path[-1], str)})


@st.composite
def mutated(draw):
    cfg = copy.deepcopy(CONFIGS[draw(st.sampled_from(sorted(CONFIGS)))])
    paths = list(_paths(cfg))
    how = draw(st.sampled_from(("replace", "delete", "add")))
    if how == "replace":
        path = draw(st.sampled_from(paths))
        old = _at(cfg, path)
        _at(cfg, path[:-1])[path[-1]] = draw(JSON.filter(lambda v: type(v) is not type(old)))
    elif how == "delete":
        path = draw(st.sampled_from([p for p in paths if isinstance(p[-1], str)]))
        del _at(cfg, path[:-1])[path[-1]]
    else:
        parents = [()] + [p for p in paths if isinstance(_at(cfg, p), dict)]
        parent = _at(cfg, draw(st.sampled_from(parents)))
        key = draw(st.sampled_from(KNOWN_KEYS) | st.text(max_size=4))
        if key not in parent:
            parent[key] = draw(JSON)
    return cfg


@settings(max_examples=300, deadline=None)
@given(mutated())
def test_mutated_config_parses_or_raises_config_error(cfg):
    try:
        parsed = validate_config(cfg)
    except ConfigError:
        return
    assert isinstance(parsed, PipelineConfig)


# values that reach the parser's arithmetic rather than its type checks:
# the edge of a double, an integer beyond any double, and small sizes only
# (a 2D mesh of 10**6 elements a side would not fit in memory)
POOL = st.sampled_from([None, True, False, 0, -1, 0.5, 1e308, 10**400, "x", [], {}]) \
    | st.integers(-3, 12)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(["linear_small.json", "wave1d_small.json"]), st.data())
def test_pooled_value_parses_or_raises_config_error(name, data):
    cfg = copy.deepcopy(CONFIGS[name])
    path = data.draw(st.sampled_from(list(_paths(cfg))))
    _at(cfg, path[:-1])[path[-1]] = copy.deepcopy(data.draw(POOL))
    try:
        parsed = validate_config(cfg)
    except ConfigError:
        return
    assert isinstance(parsed, PipelineConfig)


# a value of each section is checked against the annotation of the
# constructor parameter it feeds; a key that feeds none, like the retired
# density, is refused
@pytest.mark.parametrize("where,key,value,message", [
    (("model",), "rho", [1.0], "config.model.rho: unknown key"),
    (("model",), "dt", -10**400, "config.model.dt: expected a number"),
    (("model", "source"), "amplitude", True, "config.model.source.amplitude: expected a number"),
    (("observation",), "fourier_truncation", 9.0,
     "config.observation.fourier_truncation: expected an integer or null"),
    (("prior", "anisotropy"), "kind", 1, "config.prior.anisotropy.kind: expected a string"),
    (("lowrank",), "r_max", 0, "config.lowrank.r_max: must be positive, got 0"),
])
def test_section_values_follow_the_constructor_annotations(where, key, value, message):
    cfg = copy.deepcopy(CONFIGS["wave1d_small.json"])
    _at(cfg, where)[key] = value
    with pytest.raises(ConfigError) as info:
        validate_config(cfg)
    assert str(info.value) == message


def test_null_fourier_truncation_takes_the_raw_samples():
    cfg = copy.deepcopy(CONFIGS["wave1d_small.json"])
    cfg["observation"]["fourier_truncation"] = None
    assert validate_config(cfg).observation.fourier_truncation is None
