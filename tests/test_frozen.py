"""The value classes share one immutability guard, cyclo.Frozen."""

import ast
from pathlib import Path

import pytest

import dp5links
import dp5links.report  # noqa: F401  (loads every module that defines a value class)
from dp5links.cyclo import ONE, Frozen
from dp5links.groups import Permutation

PACKAGE = Path(dp5links.__file__).parent

SLOTTED = {
    "Surface", "OrbitCensus", "SkewFamily", "FieldElement", "Permutation",
    "FixedLocusComponent", "IntLattice", "Character", "Intertwiner", "NormalizerResult",
    "DivisorClass", "PicardLattice", "ProjPoint", "ProjLine", "HomogeneousForm",
}
# their cached_property values live in the instance dict
WITH_DICT = {"FiniteGroup", "LineConfiguration"}


def value_classes() -> dict[str, type]:
    return {cls.__name__: cls for cls in Frozen.__subclasses__()}


def test_frozen_is_the_only_class_that_defines_setattr():
    found = [
        f"{path.name}:{node.name}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.ClassDef)
        and any(isinstance(item, ast.FunctionDef) and item.name == "__setattr__"
                for item in node.body)
    ]
    assert found == ["cyclo.py:Frozen"]


def test_every_value_class_is_frozen():
    assert set(value_classes()) == SLOTTED | WITH_DICT


@pytest.mark.parametrize("name", sorted(SLOTTED | WITH_DICT))
def test_assignment_raises_with_the_class_name(name):
    bare = object.__new__(value_classes()[name])
    with pytest.raises(AttributeError, match=f"^{name} is immutable$"):
        bare.anything = None


def test_slotted_value_instances_have_no_dict(cfg, g20):
    classes = value_classes()
    for name in SLOTTED:
        assert not hasattr(object.__new__(classes[name]), "__dict__"), name
    for name in WITH_DICT:
        assert hasattr(object.__new__(classes[name]), "__dict__"), name
    for value in (ONE, ONE * ONE, Permutation.identity(), g20.elements[1] * g20.elements[2],
                  cfg.lines[0], cfg.lines[0].basis[0][0]):
        assert not hasattr(value, "__dict__")
