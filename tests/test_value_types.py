"""The value types are immutable named tuples with their fields' tuple semantics.

Their hashes equal those of the plain field tuples, so dict and set orders,
and with them every output, do not depend on how the types are built.
"""

from __future__ import annotations

import copy
import pickle

import pytest

from bsgeo import (
    AltWord,
    BrittonPnf,
    Classification,
    Decomposition,
    GroupParams,
    classify,
    decompose,
    make_britton_pnf,
    parse_alt,
)

P23 = GroupParams(2, 3)
WORD = parse_alt("2t1T-3")

VALUES = (
    P23,
    WORD,
    classify(WORD, P23),
    decompose(parse_alt("1t2t3T4"), P23),
    make_britton_pnf(parse_alt("1t1T1"), P23),
)
TYPES = (GroupParams, AltWord, Classification, Decomposition, BrittonPnf)


@pytest.mark.parametrize("value", VALUES, ids=[t.__name__ for t in TYPES])
class TestContract:
    def test_fields_cannot_be_set(self, value):
        name = value._fields[0]
        with pytest.raises(AttributeError):
            setattr(value, name, None)
        with pytest.raises(AttributeError):
            value.extra = 1

    def test_hash_and_equality_are_the_field_tuples(self, value):
        fields = tuple(getattr(value, name) for name in value._fields)
        assert tuple(value) == fields
        assert value == fields
        assert hash(value) == hash(fields)

    def test_pickle_and_copy_round_trip(self, value):
        for clone in (
            pickle.loads(pickle.dumps(value)),
            copy.copy(value),
            copy.deepcopy(value),
        ):
            assert type(clone) is type(value)
            assert clone == value


def test_hashes():
    assert hash(GroupParams(2, 3)) == hash((2, 3))
    a, t = (1, -2, 0), "tT"
    assert hash(AltWord(a, t)) == hash((a, t))


def test_reprs():
    assert repr(GroupParams(2, 3)) == "GroupParams(p=2, q=3)"
    assert repr(AltWord((1, 0), "t")) == "AltWord(alpha=(1, 0), theta='t')"
    assert repr(Classification(False, True, False, False)) == (
        "Classification(horocyclic=False, hill=True, valley=False, difficult=False)"
    )
    assert repr(BrittonPnf(AltWord((3,)), 3)) == (
        "BrittonPnf(word=AltWord(alpha=(3,), theta=''), norm=3)"
    )


def test_str_is_the_notation():
    assert str(WORD) == "2t1T-3"


@pytest.mark.parametrize(
    "make",
    (
        lambda: GroupParams(2, 2),
        lambda: GroupParams(0, 1),
        lambda: GroupParams(q=1, p=3),
        lambda: AltWord((1, 2), ""),
        lambda: AltWord((0, 0), "x"),
        lambda: AltWord((0,), "t"),
    ),
)
def test_invalid_values_raise(make):
    with pytest.raises(ValueError):
        make()


def test_keywords_and_defaults():
    assert GroupParams(q=3, p=2) == P23
    assert AltWord() == ((0,), "")
    assert AltWord().k == 0
    assert AltWord(theta="t", alpha=(1, 2)).symbols() == [1, "t", 2]
