"""Property tests of the file readers: model, utility and config files.

A file either loads, and then what it loads to reads back the same once
written, or its reader raises one ValueError line that starts with the file's
path, which the CLI prints as its exit-2 line.  Mutated files (a key dropped,
added at any nesting level or renamed, a value replaced by one of another
kind) must meet that rule.  Where a form has a writer, the written file also
holds every value the read file held, with its kind; and in every form a key
added or renamed to a name no reader knows is never ignored.
"""

from copy import deepcopy
from dataclasses import asdict
from functools import reduce
from operator import getitem
from pathlib import Path

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from eusearch.experiment import ExperimentConfig, load_experiment_config, load_utility_model
from eusearch.perfmodel import EmpiricalTable, MarkovParams, load_model, model_to_dict, save_model
from eusearch.utility import Outcome, UtilityModel, default_utility_model

CONFIGS = Path(__file__).parents[1] / "configs"

# A key that no reader knows.
FRESH = st.text("abcdefgh", min_size=1, max_size=4).map("zz_".__add__)
# Values of each kind a YAML file holds, by the name ``kind`` gives them.
VALUES = {
    "bool": st.booleans(),
    "number": st.one_of(st.integers(-3, 300), st.floats(-5.0, 500.0)),
    "str": st.text("abxyz09 ", max_size=4),
    "none": st.none(),
    "list": st.lists(st.integers(0, 9), max_size=2),
    "mapping": st.dictionaries(FRESH, st.integers(0, 9), max_size=2),
}


def kind(value) -> str:
    if isinstance(value, bool):
        return "bool"
    if isinstance(value, (int, float)):
        return "number"
    if isinstance(value, str):
        return "str"
    if value is None:
        return "none"
    return "list" if isinstance(value, list) else "mapping"


def nodes(data, path=()):
    """Each (path, value) of the YAML tree ``data``, the root first."""
    yield path, data
    items = data.items() if isinstance(data, dict) else enumerate(data) if isinstance(data, list) else ()
    for key, value in items:
        yield from nodes(value, (*path, key))


@st.composite
def mutations(draw, data):
    """``data`` with one key dropped, added or renamed, or one value replaced by one of
    another kind; and which of the four was done."""
    data = deepcopy(data)
    path, value = draw(st.sampled_from(list(nodes(data))))
    parent = reduce(getitem, path[:-1], data) if path else None
    ops = ["add"] if isinstance(value, dict) else []
    ops += ["drop", "rename"] if isinstance(parent, dict) else []
    ops += ["replace"] if path else []
    op = draw(st.sampled_from(ops))
    if op == "add":
        value[draw(FRESH)] = draw(st.one_of(*VALUES.values()))
    elif op == "drop":
        del parent[path[-1]]
    elif op == "rename":
        parent[draw(FRESH)] = parent.pop(path[-1])
    else:
        parent[path[-1]] = draw(st.one_of(*(s for k, s in VALUES.items() if k != kind(value))))
    return data, op


def kept(read, written) -> bool:
    """Whether ``written`` holds all that ``read`` holds: each key of a mapping (an empty
    mapping may be left out), the items of a list in order, and each scalar's kind and value."""
    if isinstance(read, dict):
        return isinstance(written, dict) and all(
            kept(value, written[key]) if key in written else value == {} for key, value in read.items()
        )
    if isinstance(read, list):
        return isinstance(written, list) and len(read) == len(written) and all(map(kept, read, written))
    return kind(read) == kind(written) and read == written


def utility_data(model: UtilityModel) -> dict:
    """``model`` as a utility file that reads back to it: every curve by its knots."""
    data = {
        "attributes": {
            a.attribute: {"bound": a.bound, "points": [list(p) for p in a.points]} for a in model.attributes
        },
        "form": model.form,
        "weights": dict(zip(model.attribute_names(), model.weights)),
        "interactions": {f"{a}*{b}": k for (a, b), k in model.interactions},
        "tag": model.tag,
    }
    return data if model.k is None else {**data, "master_k": model.k}


def config_data(cfg: ExperimentConfig) -> dict:
    return {key: list(v) if isinstance(v, tuple) else v for key, v in asdict(cfg).items()}


def dump(data, path: Path) -> Path:
    path.write_text(yaml.safe_dump(data, sort_keys=False))
    return path


# Each form's reader, and its writer of what the reader made: (object, path) -> None.
FORMS = {
    "model": (load_model, lambda model, path: save_model(model, str(path))),
    "utility": (load_utility_model, lambda model, path: dump(utility_data(model), path)),
    "config": (load_experiment_config, lambda cfg, path: dump(config_data(cfg), path)),
}


def check_mutated_file(folder: Path, form: str, base: dict, mutation: tuple[dict, str]) -> None:
    read, write = FORMS[form]
    data, op = mutation
    path = dump(data, folder / "mutated.yaml")
    try:
        loaded = read(str(path))
    except ValueError as exc:
        assert str(exc).startswith(f"{path} ") and "\n" not in str(exc)
        return
    written = folder / "written.yaml"
    write(loaded, written)
    assert read(str(written)) == loaded
    if form != "utility":  # a utility file has curve shapes and calibration rows that no writer keeps
        assert kept(data, yaml.safe_load(written.read_text()))
    if op in ("add", "rename"):
        assert loaded != read(str(dump(base, folder / "base.yaml")))


OUTCOMES = st.builds(
    Outcome,
    st.floats(0, 100),
    st.floats(0, 1e6),
    st.floats(0, 1e4),
    solved=st.booleans(),
    extra=st.dictionaries(st.sampled_from(["cost", "risk"]), st.floats(0, 10), max_size=2),
)


@st.composite
def markov_models(draw):
    levels = sorted(draw(st.lists(st.integers(1, 24), min_size=1, max_size=4, unique=True)))
    ps = draw(st.lists(st.sampled_from([0.501, 0.6, 0.75, 0.9, 1.0]), min_size=len(levels), max_size=len(levels)))
    return MarkovParams(
        accuracy=dict(zip(levels, sorted(ps))),
        branching={level: draw(st.floats(1.01, 5.0)) for level in levels},
        max_len=draw(st.integers(1, 1000)),
        sample_sizes=draw(st.sampled_from([{}, {level: 100 + level for level in levels}])),
    )


MODELS = st.one_of(
    markov_models(),
    st.builds(
        EmpiricalTable,
        cells=st.dictionaries(
            st.tuples(st.integers(1, 31), st.integers(1, 24)), st.lists(OUTCOMES, min_size=1, max_size=2).map(tuple),
            max_size=3,
        ),
        sample_meta=st.dictionaries(st.sampled_from(["seed", "note"]), st.integers(0, 9), max_size=2),
    ),
)

UTILITY_FILES = [
    yaml.safe_load((CONFIGS / "utility_default.yaml").read_text()),
    {
        "attributes": {
            "path_length": {"bound": 100, "curve": "linear", "best": 5},
            "time_units": {"bound": 10, "curve": "free"},
            "space_units": {"bound": 10, "points": [[0, 1], [4, 0.5], [8, 0.25]]},
        },
        "weights": {"path_length": 0.5, "time_units": 0.25, "space_units": 0.25},
        "tag": "mine",
    },
    {
        "attributes": {"path_length": {"bound": 100}, "time_units": {"bound": 10}},
        "form": "multilinear",
        "weights": {"path_length": 0.5, "time_units": 0.4},
        "interactions": {"path_length*time_units": 0.1},
    },
    utility_data(default_utility_model()),
]

CONFIG_FILES = [
    yaml.safe_load((CONFIGS / "experiment_desk.yaml").read_text()),
    yaml.safe_load((CONFIGS / "experiment_full.yaml").read_text()),
    {"depths": [4], "levels": [1, 2], "limits": {"max_moves": 50}, "model_kind": "empirical", "utility_config": "u.yaml"},
]


@pytest.fixture(scope="module")
def folder(tmp_path_factory) -> Path:
    return tmp_path_factory.mktemp("forms")


@given(model=MODELS)
@settings(max_examples=100, deadline=None)
def test_model_files_round_trip(folder, model):
    save_model(model, str(folder / "model.yaml"))
    assert load_model(str(folder / "model.yaml")) == model


@pytest.mark.parametrize("form, bases", [("utility", UTILITY_FILES), ("config", CONFIG_FILES)])
def test_shipped_and_sample_files_load_and_round_trip(folder, form, bases):
    # Each unmutated file must load, or every mutation of it would pass by failing.
    read, write = FORMS[form]
    for base in bases:
        loaded = read(str(dump(base, folder / "base.yaml")))
        write(loaded, folder / "written.yaml")
        assert read(str(folder / "written.yaml")) == loaded


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_mutated_model_file_fails_with_one_line_or_loads_whole(folder, data):
    base = model_to_dict(data.draw(MODELS))
    check_mutated_file(folder, "model", base, data.draw(mutations(base)))


@pytest.mark.parametrize("form, bases", [("utility", UTILITY_FILES), ("config", CONFIG_FILES)])
@given(st.data())
@settings(max_examples=300, deadline=None)
def test_mutated_file_fails_with_one_line_or_loads_whole(folder, form, bases, data):
    base = data.draw(st.sampled_from(bases))
    check_mutated_file(folder, form, base, data.draw(mutations(base)))
