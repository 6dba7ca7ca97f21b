"""The error contract: every exception class of the package is either a
usage error (the CLI exits 1) or a numerical failure (exit 2), an error
raised in a `joint --runs` worker process unpickles with its type, and no
scenario document ends in a traceback."""
import contextlib
import importlib
import io
import json
import math
import pickle
import pkgutil
import tempfile
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import apucosim
from apucosim import cli
from apucosim.errors import NumericalFailure, UsageError
from apucosim.gasgen.cycle import SurgeCrossed, T4OutOfRange
from apucosim.gasgen.design import CalibrationFailed
from apucosim.gasgen.engine import OUTPUT_CHANNELS
from apucosim.numerics import NonConvergence, StepUnderflow
from apucosim.scenario import (
    _DEFAULTS,
    _FREE_DICTS,
    _LIST_ITEM_DEFAULTS,
    SchemaError,
    parse_scenario,
)


def _package_exception_classes():
    found = []
    for info in pkgutil.walk_packages(apucosim.__path__, "apucosim."):
        module = importlib.import_module(info.name)
        found += [obj for obj in vars(module).values()
                  if isinstance(obj, type) and issubclass(obj, Exception)
                  and obj.__module__ == info.name
                  and info.name != "apucosim.errors"]
    return found


def test_every_exception_class_has_exactly_one_exit_class():
    classes = _package_exception_classes()
    assert len(classes) > 20
    for cls in classes:
        assert issubclass(cls, UsageError) != issubclass(cls, NumericalFailure), cls
    assert {c.__name__ for c in classes if issubclass(c, UsageError)} == {
        "SchemaError", "UnknownField", "UnknownChannel", "AltitudeOutOfRange",
        "AmbientTemperatureOutOfRange", "FieldVoltageOutOfRange"}


@pytest.mark.parametrize("exc", [
    StepUnderflow(0.1, 1e-14, 1e-13), NonConvergence(30, 2.5e-3),
    SchemaError("ttsc_faults[0].mu", "fraction within [0, 1)", 1.5),
    CalibrationFailed("eta_turbine", 0.89, 1.2), T4OutOfRange(6326.2, 2438.0),
    SurgeCrossed(-3.39, 36050.0, 0.0912),
], ids=lambda e: type(e).__name__)
def test_pickle_round_trip_keeps_type_and_message(exc):
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        back = pickle.loads(pickle.dumps(exc, protocol))
        assert type(back) is type(exc)
        assert str(back) == str(exc) and vars(back) == vars(exc)


def _numeric_leaves(defaults, path=""):
    """Dotted paths of the numeric leaves of a tree of defaults."""
    for key, value in defaults.items():
        sub = f"{path}.{key}" if path else key
        if isinstance(value, dict):
            yield from _numeric_leaves(value, sub)
        elif isinstance(value, (int, float)) and not isinstance(value, bool):
            yield sub


DOCUMENT_LEAVES = sorted(_numeric_leaves(_DEFAULTS))
ALL_LEAVES = DOCUMENT_LEAVES + sorted(
    [leaf for block, item in _LIST_ITEM_DEFAULTS.items()
     for leaf in _numeric_leaves(item, f"{block}[0]")]
    + [f"{block}.{OUTPUT_CHANNELS[0][0]}" for block in _FREE_DICTS])


def _doc_with(doc, path, value):
    """A copy of doc with the leaf at a dotted path (`block[0]` for the
    first item of a list) set to value."""
    doc = json.loads(json.dumps(doc))
    node = doc
    *outer, leaf = path.split(".")
    for part in outer:
        name, _, index = part.partition("[")
        node = node.setdefault(name, [{}] if index else {})
        node = node[0] if index else node
    node[leaf] = value
    return doc


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("path", ALL_LEAVES)
def test_non_finite_number_rejected_with_its_path(path, value):
    text = json.dumps(_doc_with({"duration": 1.0}, path, value))
    with pytest.raises(SchemaError, match="finite number") as info:
        parse_scenario(text)
    assert info.value.path == path


@pytest.mark.parametrize("value", [True, False])
@pytest.mark.parametrize("path", ALL_LEAVES)
def test_boolean_rejected_with_its_path(path, value):
    # JSON true and false are no numbers, though Python's bool is an int
    text = json.dumps(_doc_with({"duration": 1.0}, path, value))
    with pytest.raises(SchemaError, match=f"expected number, found {value}") as info:
        parse_scenario(text)
    assert info.value.path == path


UNKNOWN_KEY = "<an unknown key next to the leaf>"


@settings(max_examples=20, derandomize=True, deadline=None)
@given(path=st.sampled_from(DOCUMENT_LEAVES),
       value=st.sampled_from([math.nan, math.inf, -math.inf, -1, 0, "x", [],
                              UNKNOWN_KEY]))
def test_one_bad_leaf_exits_cleanly(path, value):
    """A valid 0.04 s joint document with one numeric leaf replaced, or an
    unknown key next to it, exits 0, 1 or 2 with no traceback or warning."""
    if value == UNKNOWN_KEY:
        path = path.rpartition(".")[0] + ".unknown" if "." in path else "unknown"
        value = 1.0
    doc = _doc_with({"duration": 0.04}, path, value)
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, \
            warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stderr(err), \
            contextlib.redirect_stdout(io.StringIO()):
        warnings.simplefilter("always")
        scenario = f"{tmp}/scn.json"
        with open(scenario, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        rc = cli.main(["joint", "--scenario", scenario, "--out", f"{tmp}/out",
                       "--no-svg"])
    stderr = err.getvalue()
    assert rc in (0, 1, 2)
    assert "Traceback" not in stderr and "Warning" not in stderr
    assert not caught, [str(w.message) for w in caught]
    if value not in (-1, 0):
        assert rc == 1 and path in stderr, stderr
