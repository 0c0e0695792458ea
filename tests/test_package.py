"""The package namespace resolves each public name from its submodule on
first access, and the result records are immutable."""

import ast
import importlib
from pathlib import Path

import pytest

import deqe
from deqe.corpus import SegmentPair
from deqe.scoring import DeScore
from deqe.wcm import WcmConfig


def test_every_public_name_is_its_home_modules_object():
    assert len(set(deqe.__all__)) == len(deqe.__all__)
    for name in deqe.__all__:
        if name == "__version__":
            continue
        home = importlib.import_module(f"deqe.{deqe._HOME[name]}")
        assert getattr(deqe, name) is getattr(home, name), name


def test_star_import_binds_all():
    namespace = {}
    exec("from deqe import *", namespace)
    assert set(deqe.__all__) <= set(namespace)
    assert namespace["WcmConfig"] is WcmConfig


def test_dir_lists_public_names():
    assert set(deqe.__all__) <= set(dir(deqe))


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        deqe.no_such_name
    assert not hasattr(deqe, "no_such_name")


@pytest.mark.parametrize(
    "record, field",
    [
        (DeScore.from_counts(4, 2), "value"),
        (WcmConfig(), "min_cooccurrence"),
        (SegmentPair(0, "a", "x"), "source"),
    ],
)
def test_records_are_immutable(record, field):
    with pytest.raises(AttributeError):
        setattr(record, field, getattr(record, field))
    with pytest.raises(AttributeError):
        record.extra = 1


def test_sources_parse_as_python_3_10():
    """pyproject.toml declares requires-python >= 3.10, so each module must
    parse with 3.10's grammar, whatever Python runs the tests."""
    sources = sorted(Path(deqe.__file__).parent.glob("*.py"))
    assert sources
    for path in sources:
        ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=(3, 10))
