"""Property test: the loader's fault list, whose objects of an accepted
shape it builds by comparing their keys with their kind's table, reads as
every fault object read through `_Check` alone
(tests/oracles.faults_per_object): the same faults, compared by repr, or the
same sorted problems.

Needs hypothesis (the `test` extra in pyproject.toml); without it this
module is skipped and the rest of the suite runs unchanged.
"""

import json

import pytest

from hcs_sim.cli import _FAULTS, _built, load_scenario
from hcs_sim.core_model import ValidationError

import oracles
from test_cli import library_scenario, minimal_config

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

_TAGS = sorted(_FAULTS)
_KEYS = sorted({key for _, table in _FAULTS.values() for key in table}) + ["note"]
# every JSON type, with the edges of the fault rules: bools, -0.0, negative
# indexes, indexes past the file's 2 nodes and 2 arrivals, and the tags
_values = st.one_of(
    st.booleans(), st.integers(-2, 3), st.just(-0.0),
    st.floats(allow_nan=False, allow_infinity=False), st.text(max_size=2), st.none(),
    st.lists(st.integers(0, 1), max_size=2), st.sampled_from(_TAGS + ["meteor"]))


@st.composite
def _fault_objects(draw):
    """A tag's own keys in any order, or any keys; each value one the key's
    kind accepts, but in half the objects one value of any type."""
    tag = draw(st.sampled_from(_TAGS))
    keys = draw(st.one_of(st.permutations(list(_FAULTS[tag][1])),
                          st.lists(st.sampled_from(_KEYS), unique=True)))
    typical = {"kind": st.just(tag), "time": st.one_of(st.integers(0, 50), st.floats(0, 50)),
               "node_id": st.integers(-1, 2), "job_index": st.integers(-1, 2)}
    obj = {key: draw(typical.get(key, _values)) for key in keys}
    if keys and draw(st.booleans()):
        obj[draw(st.sampled_from(keys))] = draw(_values)
    return obj


def _read(objects, tmp_path) -> tuple[str, list[str]]:
    """(repr of the faults, problems) of a file that holds objects as its faults."""
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({**minimal_config(), "faults": objects}), encoding="utf-8")
    try:
        return repr(load_scenario(path)[0].faults), []
    except ValidationError as e:
        return "", e.problems


def _per_object(objects) -> tuple[str, list[str]]:
    """The same, read through _Check alone; the Scenario checks what it holds."""
    faults, problems = oracles.faults_per_object(json.loads(json.dumps(objects)))
    if problems:
        return "", problems
    try:
        return repr(library_scenario(faults=faults).faults), []
    except ValidationError as e:
        return "", sorted(set(e.problems))


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(objects=st.lists(st.one_of(_fault_objects(), _values), max_size=3))
def test_fault_lists_read_as_through_the_diagnostic_path(tmp_path_factory, objects):
    tmp_path = tmp_path_factory.mktemp("faults")
    assert _read(objects, tmp_path) == _per_object(objects)


def test_the_drawn_objects_reach_both_paths():
    """Drawn objects are built by _built for each kind, with an int time and
    with a float one, and others are read by _Check."""
    seen = set()

    @settings(max_examples=100, derandomize=True, deadline=None, database=None)
    @given(obj=_fault_objects())
    def collect(obj):
        built = _built(obj, _FAULTS) is not None
        seen.add((obj["kind"], type(obj["time"])) if built else "checked")

    collect()
    assert {(tag, t) for tag in _TAGS for t in (int, float)} | {"checked"} <= seen
