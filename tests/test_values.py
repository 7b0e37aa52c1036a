"""Value semantics of the record classes: equality by class and by the
compared fields, a hash on every immutable value, and no assignment to
the fields of one."""

import copy
import inspect
import pickle

import pytest

from anomalion.anomaly import TruncationData1d, TruncationData2d
from anomalion.circuits import CircuitAction, CollapseResult, GateRule, ProceduralCircuit
from anomalion.crossed import (
    ActionTable,
    CrossedModule,
    CrossedSquare,
    KernelPhaseIso,
    TwoCrossedModule,
    WeakMorphismData,
)
from anomalion.groups import Cochain, FiniteGroup, GroupHom
from anomalion.lattice import Region, Window
from anomalion.pairing import LocalizedAutomorphism
from anomalion.symop import ReferenceState, SymOp
from anomalion.values import Frozen, Record


def z2():
    return FiniteGroup.cyclic(2)


def window():
    return Window.centered(6, 6, 1)


def action_fields():
    w = window()
    return z2(), (ProceduralCircuit((), w), ProceduralCircuit((GateRule("x_sites").generate(w),), w)), w, "x"


def action():
    return CircuitAction(*action_fields())


def cochain():
    return Cochain(z2(), 2, 2, (0, 1, 1, 0))


def crossed_module():
    return CrossedModule(z2(), z2(), GroupHom.identity(z2()), ActionTable.trivial(z2(), z2()))


# Each entry gives a class and a fresh tuple of equal constructor arguments
# on every call.
FROZEN = {
    "Window": lambda: (Window, (-3, 2, -3, 2, 1)),
    "Region": lambda: (Region, ("intersection", 0, 0, Region.half_line_L(1),
                                Region("complement", inner=Region.origin_disk(3)))),
    "GateRule": lambda: (GateRule, ("cz_horizontal_edges", Region.half_plane_H(2))),
    "ProceduralCircuit": lambda: (ProceduralCircuit, (tuple(GateRule(p).generate(window())
                                                            for p in ("x_sites", "ccz_triangles")), window())),
    "CollapseResult": lambda: (CollapseResult, (SymOp.z((0, 0)), ("dropped flip at (3, 0)",))),
    "CircuitAction": lambda: (CircuitAction, action_fields()),
    "FiniteGroup": lambda: (FiniteGroup, (((0, 1, 2), (1, 2, 0), (2, 0, 1)), ("0", "1", "2"), "Z3")),
    "GroupHom": lambda: (GroupHom, (z2(), FiniteGroup.cyclic(4), (0, 2))),
    "Cochain": lambda: (Cochain, (z2(), 2, 2, (0, 1, 1, 0))),
    "ReferenceState": lambda: (ReferenceState, ("x",)),
    "LocalizedAutomorphism": lambda: (LocalizedAutomorphism, (Region.half_line_L(3), None, SymOp.z((-1, 0)))),
    "ActionTable": lambda: (ActionTable, (z2(), z2(), ((0, 1), (0, 1)))),
    "CrossedModule": lambda: (CrossedModule, (z2(), z2(), GroupHom.identity(z2()), ActionTable.trivial(z2(), z2()))),
    "CrossedSquare": lambda: (CrossedSquare, (z2(),) * 4 + (GroupHom.identity(z2()),) * 4
                              + (ActionTable.trivial(z2(), z2()),) * 3 + (((0, 0), (0, 0)),)),
    "TwoCrossedModule": lambda: (TwoCrossedModule, (z2(),) * 3 + (GroupHom.identity(z2()),) * 2
                                 + (ActionTable.trivial(z2(), z2()),) * 2 + (((0, 0), (0, 0)),)),
    "KernelPhaseIso": lambda: (KernelPhaseIso, ((0, 1), (0, 1), 2)),
    "WeakMorphismData": lambda: (WeakMorphismData, (z2(), crossed_module(), (0, 1), ((0, 0), (0, 0)))),
}

RECORDS = {
    "TruncationData2d": lambda: (TruncationData2d, (action(), action().assign, {}, {}, {}, {}, 2, ("c",), ("a",))),
    "TruncationData1d": lambda: (TruncationData1d, (action(), action().assign, {(0, 0): SymOp.identity()}, 2, ())),
}


def make(name):
    cls, args = {**FROZEN, **RECORDS}[name]()
    return cls(*args)


def _fields(cls) -> list[str]:
    """The fields a caller sets: the bound fields of a class that uses
    Record.__init__, else its constructor's parameters."""
    if cls.__init__ is Record.__init__:
        return list(cls._fields)
    return list(inspect.signature(cls).parameters)


@pytest.mark.parametrize("name", FROZEN)
def test_equal_fields_give_equal_values_and_equal_hashes(name):
    a, b = make(name), make(name)
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert {a: 1}[b] == 1


@pytest.mark.parametrize("name", RECORDS)
def test_records_compare_by_fields_and_have_no_hash(name):
    a, b = make(name), make(name)
    assert a == b and not a != b
    with pytest.raises(TypeError):
        hash(a)


@pytest.mark.parametrize("name", [*FROZEN, *RECORDS])
def test_values_of_other_classes_are_never_equal(name):
    cls, args = {**FROZEN, **RECORDS}[name]()
    value = cls(*args)
    # the same fields in a subclass, and as a tuple
    other = type(f"Other{cls.__name__}", (cls,), {"__slots__": ()})(*args)
    assert value != other and other != value
    assert value != args
    for other_name in {**FROZEN, **RECORDS}:
        if other_name != name:
            assert value != make(other_name)


@pytest.mark.parametrize("name", FROZEN)
def test_assigning_or_deleting_a_field_raises(name):
    value = make(name)
    for field in _fields(type(value)):
        with pytest.raises(AttributeError):
            setattr(value, field, getattr(value, field))
        with pytest.raises(AttributeError):
            delattr(value, field)
    with pytest.raises(AttributeError):
        value.extra = 1


@pytest.mark.parametrize("name", FROZEN)
def test_copies_and_pickles_are_equal_values(name):
    value = make(name)
    for copied in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert type(copied) is type(value) and copied == value
        assert hash(copied) == hash(value)
        assert all(getattr(copied, f) == getattr(value, f) for f in _fields(type(value)))


BOUND = (ActionTable, CrossedSquare, TwoCrossedModule, KernelPhaseIso, WeakMorphismData, CollapseResult,
         TruncationData1d)


def test_record_init_binds_each_public_slot_once():
    for cls in BOUND:
        assert cls.__init__ is Record.__init__ and cls._fields == cls.__slots__
    table = ((0, 1), (0, 1))
    assert ActionTable(z2(), on=z2(), table=table) == ActionTable(z2(), z2(), table)
    assert ActionTable(table=table, on=z2(), acting=z2()).table is table
    for args, kwargs, message in (
        ((z2(), z2()), {}, "ActionTable is missing field 'table'"),
        ((z2(), z2(), table, 1), {}, "ActionTable takes 3 fields, got 4 positional"),
        ((z2(), z2(), table), {"on": z2()}, "ActionTable got field 'on' twice"),
        ((z2(), z2()), {"table": table, "tables": table}, "ActionTable has no field 'tables'"),
    ):
        with pytest.raises(TypeError, match=message):
            ActionTable(*args, **kwargs)
    # private slots are not fields, and a subclass without slots keeps its
    # parent's
    assert ProceduralCircuit._fields == ("layers", "window") and Frozen._fields == ()
    sub = type("SubTable", (ActionTable,), {"__slots__": ()})
    assert sub._fields == ActionTable._fields and sub(z2(), z2(), table).table is table


def test_records_take_assignment():
    data = make("TruncationData2d")
    data.cropped = ("d",)
    assert data.cropped == ("d",) and data != make("TruncationData2d")


def test_one_differing_field_makes_values_unequal():
    w = window()
    assert w != Window(w.x_min, w.x_max, w.y_min, w.y_max, w.margin + 1)
    assert Region.half_line_L(1) != Region.half_line_L(2)
    assert Region.half_line_L(1) != Region.half_line_R(1)
    assert Region.intersection_of(Region.full(), Region.origin_disk(2)) != Region.intersection_of(
        Region.full(), Region.origin_disk(3))
    assert FiniteGroup.cyclic(2) != FiniteGroup.cyclic(2, name="C2")
    assert cochain() != Cochain(z2(), 2, 2, (0, 1, 1, 1))
    assert GateRule("x_sites") != GateRule("x_sites", Region.half_plane_H())
    assert ReferenceState("x") != ReferenceState("z")


def test_caches_and_derived_fields_are_not_compared():
    """A circuit's cache, an action's distinct circuits and a truncation's
    numbering and step tables stay out of ==."""
    c = make("ProceduralCircuit")
    c.total_range()
    c.unitary()
    assert c == make("ProceduralCircuit") and hash(c) == hash(make("ProceduralCircuit"))
    data = make("TruncationData2d")
    data._id(SymOp.z((0, 0)))
    data._phase[0, 0, 0, 0, 0, 0] = 1
    assert data == make("TruncationData2d")
    assert action() == action() and len(action().distinct) == 2
