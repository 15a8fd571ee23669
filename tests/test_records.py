"""The immutable records: equality, hashing, repr and pickling.

Every value type of the package is a slotted record on rings._Record.
The repr texts below are the ones the types have always printed.
"""

from __future__ import annotations

import copy
import pickle

import pytest

from cycloquant import (
    BraidWord,
    CycloElem,
    CycloFraction,
    FramedBraidLink,
    GrResult,
    LinkingMatrix,
    ModCycloElem,
    MooValue,
    ObstructionVerdict,
    SigTriple,
    StrongPeriodicityResult,
    Witness,
    g_r,
)
from cycloquant.rings import _Record

# (a function building the record afresh, its repr)
RECORDS = {
    "CycloElem": (
        lambda: CycloElem(5, (1, -2, 0, 3)),
        "CycloElem(order=5, coeffs=(1, -2, 0, 3))",
    ),
    "ModCycloElem": (
        lambda: ModCycloElem(5, 7, (1, 6, 0, 3)),
        "ModCycloElem(order=5, p=7, coeffs=(1, 6, 0, 3))",
    ),
    "GrResult": (
        lambda: GrResult(CycloFraction(CycloElem(5, (0, 1, 0, 0)), 3), -1),
        "GrResult(value=CycloFraction('(A)/3', order=5), epsilon=-1)",
    ),
    "GrResult-g5": (
        lambda: g_r(5),
        "GrResult(value=CycloFraction('1 - A^2 + A^3 + A^6 - A^7', order=15), epsilon=-1)",
    ),
    "BraidWord": (
        lambda: BraidWord(3, (1, -2, 1)),
        "BraidWord(strands=3, word=(1, -2, 1))",
    ),
    "FramedBraidLink": (
        lambda: FramedBraidLink(BraidWord(2, (1, 1)), (2, -1)),
        "FramedBraidLink(braid=BraidWord(strands=2, word=(1, 1)), framings=(2, -1))",
    ),
    "LinkingMatrix": (
        lambda: LinkingMatrix(((2, 1), (1, 3))),
        "LinkingMatrix(entries=((2, 1), (1, 3)))",
    ),
    "SigTriple": (
        lambda: SigTriple(2, 1, 0),
        "SigTriple(sigma_plus=2, sigma_minus=1, nullity=0)",
    ),
    "StrongPeriodicityResult": (
        lambda: StrongPeriodicityResult(True, FramedBraidLink(BraidWord(2, (1,)), (0,))),
        "StrongPeriodicityResult(satisfied=True, "
        "lift=FramedBraidLink(braid=BraidWord(strands=2, word=(1,)), framings=(0,)))",
    ),
    "MooValue": (
        lambda: MooValue(CycloFraction(CycloElem(5, (1, 0, 2, 0)), 5), 3),
        "MooValue(value=CycloFraction('(1 + 2A^2)/25', order=5), half_power=1)",
    ),
    "Witness": (
        lambda: Witness(-1, 4, 0),
        "Witness(epsilon=-1, s=4, alpha=0)",
    ),
    "ObstructionVerdict": (
        lambda: ObstructionVerdict(True, Witness(1, 0, 2), (5, 11)),
        "ObstructionVerdict(satisfied=True, witness=Witness(epsilon=1, s=0, alpha=2), "
        "context=(5, 11))",
    ),
    "ObstructionVerdict-none": (
        lambda: ObstructionVerdict(False, None, (5, 11)),
        "ObstructionVerdict(satisfied=False, witness=None, context=(5, 11))",
    ),
}
CASES = pytest.mark.parametrize("make, text", RECORDS.values(), ids=RECORDS.keys())


def test_every_record_type_is_covered():
    types = {type(make()) for make, _ in RECORDS.values()}
    assert len(types) == 11
    assert all(issubclass(t, _Record) for t in types)


@CASES
def test_repr_is_unchanged(make, text):
    assert repr(make()) == text


@CASES
def test_fields_are_read_only(make, text):
    x = make()
    name = type(x).__slots__[0]
    with pytest.raises(AttributeError):
        setattr(x, name, getattr(x, name))
    with pytest.raises(AttributeError):
        delattr(x, name)
    with pytest.raises(AttributeError):
        x.extra = 1
    assert not hasattr(x, "__dict__")
    assert repr(x) == text


@CASES
def test_equality_holds_within_one_type(make, text):
    x, y = make(), make()
    assert x == y and not x != y
    assert hash(x) == hash(y)
    # a record of another type with the very same fields is unequal
    twin_type = type("Twin", (_Record,), {"__slots__": type(x).__slots__})
    twin = twin_type(*(getattr(x, n) for n in type(x).__slots__))
    assert x != twin and twin != x
    assert x != tuple(getattr(x, n) for n in type(x).__slots__)


@CASES
def test_pickle_and_deepcopy_round_trip(make, text):
    x = make()
    for y in (pickle.loads(pickle.dumps(x)), copy.deepcopy(x), copy.copy(x)):
        assert type(y) is type(x)
        assert y == x and hash(y) == hash(x) and repr(y) == text


def test_generic_init_takes_every_field():
    with pytest.raises(TypeError):
        Witness(1, 0)
    with pytest.raises(TypeError):
        SigTriple(1, 0, 0, 0)


def test_unequal_records_differ():
    assert Witness(1, 0, 2) != Witness(1, 0, 3)
    assert BraidWord(2, (1,)) != BraidWord(2, (-1,))
    assert CycloElem(5, (1, 0, 0, 0)) != CycloElem(5, (0, 1, 0, 0))
