"""The value classes share one immutability guard, one constructor and one
equality rule, cyclo.Frozen."""

import ast
import copy
import pickle
from pathlib import Path

import pytest

import dp5links
import dp5links.report  # noqa: F401  (loads every module that defines a value class)
from dp5links.cyclo import ONE, ZETA, Frozen
from dp5links.groups import Permutation, fixed_locus
from dp5links.normalizer import characters_of_g20
from dp5links.picard import DivisorClass
from dp5links.projgeo import ProjPoint

PACKAGE = Path(dp5links.__file__).parent

VALUE_CLASSES = {
    "Surface", "OrbitCensus", "LineConfiguration", "SkewFamily", "FieldElement", "Permutation",
    "FiniteGroup", "FixedLocusComponent", "IntLattice", "Character", "Intertwiner",
    "NormalizerResult", "DivisorClass", "PicardLattice", "ProjPoint", "ProjLine",
    "HomogeneousForm",
}
# their cached_property values live in the instance dict
WITH_DICT = {"FiniteGroup", "LineConfiguration"}
# FieldElement writes its slots itself; Permutation and IntLattice validate
# before the shared constructor
OWN_INIT = {"FieldElement", "Permutation", "IntLattice"}
# declared with eq=True: equal and hashed by class and fields
BY_VALUE = {"ProjPoint", "ProjLine", "HomogeneousForm", "Permutation", "FiniteGroup",
            "LineConfiguration", "IntLattice", "Surface", "PicardLattice", "DivisorClass"}


def value_classes() -> dict[str, type]:
    return {cls.__name__: cls for cls in Frozen.__subclasses__()}


def class_nodes() -> list[tuple[str, ast.ClassDef]]:
    return [
        (path.name, node)
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.ClassDef)
    ]


def defines(node: ast.ClassDef, name: str) -> bool:
    return any(isinstance(item, ast.FunctionDef) and item.name == name for item in node.body)


def fields(cls: type) -> list[str]:
    return [name for name in cls.__slots__ if not name.startswith("__")]


def test_frozen_is_the_only_class_that_defines_setattr():
    found = [f"{path}:{node.name}" for path, node in class_nodes() if defines(node, "__setattr__")]
    assert found == ["cyclo.py:Frozen"]


def test_only_field_elements_define_their_own_equality_and_hash():
    for name in ("__eq__", "__hash__"):
        found = [f"{path}:{node.name}" for path, node in class_nodes() if defines(node, name)]
        assert found == ["cyclo.py:FieldElement"], name


def test_field_element_permutation_and_int_lattice_define_their_own_constructor():
    subclasses = [node for _, node in class_nodes()
                  if any(isinstance(base, ast.Name) and base.id == "Frozen" for base in node.bases)]
    assert {node.name for node in subclasses} == VALUE_CLASSES
    assert {node.name for node in subclasses if defines(node, "__init__")} == OWN_INIT
    for node in subclasses:
        assert any(isinstance(item, ast.Assign)
                   and any(isinstance(t, ast.Name) and t.id == "__slots__" for t in item.targets)
                   for item in node.body), node.name


def test_every_value_class_is_frozen():
    assert set(value_classes()) == VALUE_CLASSES


@pytest.mark.parametrize("name", sorted(VALUE_CLASSES))
def test_assignment_raises_with_the_class_name(name):
    bare = object.__new__(value_classes()[name])
    with pytest.raises(AttributeError, match=f"^{name} is immutable$"):
        bare.anything = None


def test_slotted_value_instances_have_no_dict(cfg, g20):
    for name, cls in value_classes().items():
        assert ("__dict__" in cls.__slots__) == (name in WITH_DICT), name
        assert hasattr(object.__new__(cls), "__dict__") == (name in WITH_DICT), name
    for value in (ONE, ONE * ONE, Permutation.identity(), g20.elements[1] * g20.elements[2],
                  cfg.lines[0], cfg.lines[0].basis[0][0]):
        assert not hasattr(value, "__dict__")


@pytest.mark.parametrize("name", sorted(VALUE_CLASSES - OWN_INIT))
def test_positional_and_keyword_construction_give_equal_fields(name):
    cls = value_classes()[name]
    names = fields(cls)
    values = [object() for _ in names]
    positional = cls(*values)
    keyword = cls(**dict(reversed(list(zip(names, values)))))
    mixed = cls(values[0], **dict(zip(names[1:], values[1:])))
    for field, value in zip(names, values):
        assert getattr(positional, field) is value
        assert getattr(keyword, field) is value
        assert getattr(mixed, field) is value


@pytest.mark.parametrize("args, kwargs", [
    (("E1",), {}),                                  # missing
    (("E1", (1, 0), "extra"), {}),                  # extra positional
    (("E1", (1, 0)), {"vector": (0, 1)}),           # duplicated
    (("E1",), {"label": "E2"}),                     # duplicated, vector missing
    (("E1", (1, 0)), {"weight": 1}),                # unknown
    (("E1",), {"vectors": (1, 0)}),                 # unknown, vector missing
    ((), {}),
])
def test_a_wrong_field_list_raises_type_error_naming_the_fields(args, kwargs):
    with pytest.raises(TypeError, match=r"^DivisorClass takes the fields \(label, vector\)$"):
        DivisorClass(*args, **kwargs)


def test_the_fields_named_in_the_error_leave_out_the_dict_and_weakref_slots():
    cls = value_classes()["FiniteGroup"]
    with pytest.raises(TypeError, match=r"^FiniteGroup takes the fields \(generators, elements\)$"):
        cls(())


@pytest.fixture(scope="module")
def samples(groups, clebsch, clebsch_census, cfg, families, pic, normalizer_result):
    """One instance of every value class, by class name."""
    values = [clebsch, clebsch_census, cfg, families[0], ONE + ZETA ** 3,
              Permutation.from_cycles("(12345)"), groups["G20"], fixed_locus(groups["C4"])[0],
              pic.lattice, characters_of_g20(groups["G20"])[1], normalizer_result.intertwiners[1],
              normalizer_result, DivisorClass("E1", (1, 0)), pic,
              ProjPoint.of([1, 2, 3, 4, -10]), cfg.lines[0], clebsch.form]
    return {type(v).__name__: v for v in values}


def state(value):
    """The fields of a value, recursively; other values stand for themselves."""
    if isinstance(value, Frozen):
        return type(value), tuple(state(getattr(value, name)) for name in fields(type(value)))
    if isinstance(value, (list, tuple)):
        return type(value), [state(x) for x in value]
    if isinstance(value, dict):
        return {k: state(x) for k, x in value.items()}
    return value


def round_trips(value) -> list:
    return [copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))]


def test_the_samples_cover_every_value_class(samples):
    assert set(samples) == VALUE_CLASSES


@pytest.mark.parametrize("name", sorted(VALUE_CLASSES))
def test_copies_and_pickles_keep_the_fields_and_stay_frozen(samples, name):
    value = samples[name]
    cls = type(value)
    for twin in round_trips(value):
        assert type(twin) is cls and twin is not value
        assert state(twin) == state(value)
        if cls.__eq__ is not object.__eq__:  # a value class with value equality
            assert twin == value and hash(twin) == hash(value)
        with pytest.raises(AttributeError, match=f"^{name} is immutable$"):
            twin.anything = None
        with pytest.raises(AttributeError, match=f"^{name} is immutable$"):
            setattr(twin, fields(cls)[0], None)


def test_exactly_the_declared_classes_compare_by_value():
    for name, cls in value_classes().items():
        by_identity = cls.__eq__ is object.__eq__ and cls.__hash__ is object.__hash__
        assert by_identity == (name not in BY_VALUE | {"FieldElement"}), name


@pytest.mark.parametrize("name", sorted(BY_VALUE))
def test_value_equality_reads_every_field(samples, name):
    value = samples[name]
    cls = type(value)
    values = value.__getstate__()
    twin = object.__new__(cls)
    twin.__setstate__(values)
    assert twin is not value and twin == value and not twin != value
    assert hash(twin) == hash(value) == hash(values[0] if len(values) == 1 else values)
    assert value != object() and value != values
    for k, field in enumerate(fields(cls)):
        other = object.__new__(cls)
        other.__setstate__(values[:k] + (object(),) + values[k + 1:])
        assert other != value and value != other, field
