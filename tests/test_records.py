"""Semantics of the package's record types: fields, equality, hashing, repr,
ordering, immutability and the methods each record carries."""

import math

import pytest

from fibpal.bench import BenchRow
from fibpal.chain import ChainInterval, OccurrenceSpan, chain_interval, new_pal_at, pal_span
from fibpal.counting import CellSplit, split_cell
from fibpal.cylinder import PalCoord
from fibpal.oracle import PrefixScan, scan_word
from fibpal.singular import KernelResult
from fibpal.verify import VerifyResult

SCAN_FIELDS = ("n", "end_counts", "max_suffix", "distinct", "nodes")

# (type, field names in order, one value per field)
FROZEN = [
    (OccurrenceSpan, ("start", "end"), (4, 9)),
    (ChainInterval, ("m", "p", "lo", "hi"), (2, 3, 10, 12)),
    (PalCoord, ("m", "i"), (3, 2)),
    (KernelResult, ("m", "offset"), (1, 2)),
    (CellSplit, ("parent", "left", "right"),
     (ChainInterval(2, 1, 4, 6), ChainInterval(0, 2, 4, 4), ChainInterval(1, 2, 5, 6))),
]
RETURNED = [  # records the per-point paths build with tuple.__new__, not the generated constructor
    (OccurrenceSpan, ("start", "end"), pal_span(PalCoord(0, 1), 2)),
    (ChainInterval, ("m", "p", "lo", "hi"), chain_interval(3, 7)),
    (PalCoord, ("m", "i"), new_pal_at(10)),
]
WERE_MUTABLE = [  # plain dataclasses before the records became named tuples
    (VerifyResult, ("name", "ok", "checked", "counterexample", "seconds"), ("floors", False, 7, {"p": 7}, 0.5)),
    (BenchRow, ("n", "closed_seconds", "tree_seconds", "closed_value", "tree_value"), (100, 0.5, 2.0, 7, 7)),
]


@pytest.mark.parametrize("cls, names, values", FROZEN + WERE_MUTABLE + RETURNED,
                         ids=lambda x: getattr(x, "__name__", "returned" if hasattr(x, "_fields") else ""))
def test_fields_equality_and_repr(cls, names, values):
    rec = values if isinstance(values, cls) else cls(*values)
    assert type(rec) is cls and rec._fields == names
    assert tuple(getattr(rec, name) for name in names) == values
    assert cls(**dict(zip(names, values))) == rec
    with pytest.raises(TypeError):
        cls(*values, 0)  # no field beyond the listed ones
    assert repr(rec) == f"{cls.__name__}(" + ", ".join(f"{k}={v!r}" for k, v in zip(names, values)) + ")"


@pytest.mark.parametrize("cls, names, values", FROZEN, ids=lambda x: getattr(x, "__name__", ""))
def test_frozen_records_hash_and_refuse_assignment(cls, names, values):
    rec = cls(*values)
    assert rec == cls(*values) and hash(rec) == hash(cls(*values)) == hash(values)
    assert len({rec, cls(*values)}) == 1
    for name in names:
        with pytest.raises(AttributeError):
            setattr(rec, name, None)
    assert tuple(getattr(rec, name) for name in names) == values


def test_records_differ_by_value():
    assert OccurrenceSpan(1, 2) != OccurrenceSpan(1, 3)
    assert ChainInterval(0, 1, 1, 1) != ChainInterval(0, 2, 1, 1)
    assert PalCoord(1, 1) != PalCoord(1, 2)
    assert KernelResult(1, 1) != KernelResult(0, 1)
    assert VerifyResult("a", True, 1) != VerifyResult("a", True, 2)


def test_verify_result_defaults():
    res = VerifyResult("chain", True, 12)
    assert res.counterexample is None and res.seconds == 0.0
    assert res == VerifyResult("chain", True, 12, None, 0.0)
    assert repr(res) == "VerifyResult(name='chain', ok=True, checked=12, counterexample=None, seconds=0.0)"


def test_pal_coord_sorts_by_m_then_i():
    coords = [PalCoord(2, 1), PalCoord(-1, 1), PalCoord(1, 2), PalCoord(1, 1), PalCoord(0, 1)]
    assert sorted(coords) == [PalCoord(-1, 1), PalCoord(0, 1), PalCoord(1, 1), PalCoord(1, 2), PalCoord(2, 1)]
    assert PalCoord(1, 2) < PalCoord(2, 1) and PalCoord(3, 1) >= PalCoord(3, 1)
    assert max(coords) == PalCoord(2, 1)


def test_record_methods():
    assert OccurrenceSpan(4, 9).length() == 6
    iv = ChainInterval(2, 3, 10, 12)
    assert iv.size() == 3 == len(range(iv.lo, iv.hi + 1))
    # i = fib(m + 1) = 3 is the singular word S(1) = "aa"; the length is fib(m + 3) - 2i
    assert PalCoord(1, 3).length() == 2 and PalCoord(1, 3).is_singular()
    assert PalCoord(1, 1).length() == 6 and not PalCoord(1, 1).is_singular()
    assert BenchRow(10, 0.5, 2.0, 1, 1).speedup == 4.0
    assert math.isinf(BenchRow(10, 0.0, 2.0, 1, 1).speedup)
    step = split_cell(3, 1)
    assert isinstance(step, CellSplit) and step.left.lo == step.parent.lo and step.right.hi == step.parent.hi


def test_prefix_scan_fields_and_end_count():
    scan = scan_word("abaab")
    values = tuple(getattr(scan, name) for name in SCAN_FIELDS)
    copy = PrefixScan(*values)
    assert copy == scan and copy is not scan  # equal field by field (same array objects)
    assert copy.n == 5 and copy.nodes == scan.nodes and copy.max_suffix.tolist() == [1, 1, 3, 2, 4]
    assert copy.end_counts.tolist() == [1, 1, 2, 2, 2]
    assert repr(copy) == "PrefixScan(" + ", ".join(f"{k}={v!r}" for k, v in zip(SCAN_FIELDS, values)) + ")"
    with pytest.raises(TypeError):
        PrefixScan(*values, 0)


@pytest.mark.parametrize("cls, names, values", FROZEN + WERE_MUTABLE, ids=lambda x: getattr(x, "__name__", ""))
def test_records_are_named_tuples(cls, names, values):
    # the one accepted difference from the former dataclasses: a record is a
    # tuple of its fields, so it equals that tuple, unpacks and has a length
    rec = cls(*values)
    assert isinstance(rec, tuple) and rec._fields == names
    assert rec == values and tuple(rec) == values and len(rec) == len(names)
    for name in names:
        with pytest.raises(AttributeError):
            setattr(rec, name, None)
