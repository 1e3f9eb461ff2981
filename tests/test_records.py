"""The record classes keep the interface they had as dataclasses."""

import pytest

from uqcentre import (
    BinomialRelation,
    CharacterTable,
    CheckItem,
    HilbertBasis,
    Presentation,
    Report,
    build_root_system,
    hilbert_basis,
    presentation,
    weight_multiplicities,
)


def _a2():
    return build_root_system("A", 2)


def _report():
    rep = Report(title="two checks")
    rep.add("first", True)
    rep.add("second", False, "a detail")
    return rep


# (class, a sample, its field names in order, whether fields are read-only)
RECORDS = [
    (CheckItem, lambda: CheckItem("name", True), ("name", "passed", "detail"), True),
    (HilbertBasis, lambda: hilbert_basis(_a2()),
     ("family", "rank", "elements", "self_conjugate", "scaled_fundamentals", "s", "pairs"), True),
    (BinomialRelation, lambda: presentation(_a2()).relations[0],
     ("kind", "source", "lhs", "rhs"), True),
    (Presentation, lambda: presentation(_a2()),
     ("family", "rank", "generators", "labels", "relations"), True),
    (CharacterTable, lambda: weight_multiplicities(_a2(), (1, 1)), ("highest", "mult", "dim"), True),
    (Report, _report, ("title", "items"), False),
]


@pytest.mark.parametrize("cls, make, fields, frozen", RECORDS,
                         ids=[r[0].__name__ for r in RECORDS])
def test_record_interface(cls, make, fields, frozen):
    record = make()
    assert type(record) is cls
    values = {f: getattr(record, f) for f in fields}
    rebuilt = cls(**values)
    assert rebuilt == record and not rebuilt != record
    shown = ", ".join(f"{f}={v!r}" for f, v in values.items())
    assert repr(record) == f"{cls.__name__}({shown})"
    if frozen:
        with pytest.raises(AttributeError):
            setattr(record, fields[0], values[fields[0]])


def test_hilbert_basis_element_set_is_cached_per_instance():
    basis = hilbert_basis(_a2())
    assert basis.element_set is basis.element_set
    assert basis.element_set == frozenset(basis.elements)
    smaller = basis._replace(elements=basis.elements[1:])
    assert smaller.element_set == frozenset(basis.elements[1:])
    assert basis.element_set == frozenset(basis.elements)
