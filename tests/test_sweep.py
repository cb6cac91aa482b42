"""Every public function of int arguments, at every magnitude: an answer or
a typed refusal, in bounded memory."""

import inspect
import tracemalloc

import pytest

import fibpal
from fibpal import DomainError, ResourceError, counting, fibword

HUGE = 10**21000  # past the 4,300 digits that str() prints by default
VALUES = {"-huge": -HUGE, "0": 0, "1": 1, "huge": HUGE}
PEAK_MAX = 64 * 2**20


def int_functions() -> dict:
    """The __all__ functions whose required arguments are all ints, by name,
    with their number of required arguments."""
    out = {}
    for name in fibpal.__all__:
        fn = getattr(fibpal, name)
        if not inspect.isfunction(fn):
            continue
        required = [p for p in inspect.signature(fn).parameters.values() if p.default is p.empty]
        assert all(p.annotation is not p.empty for p in required), name
        if required and all(p.annotation in (int, "int") for p in required):
            out[name] = len(required)
    return out


def sweep_calls():
    for name, arity in sorted(int_functions().items()):
        for pos in range(arity):
            for label, v in VALUES.items():
                args = [1] * arity
                args[pos] = v
                yield pytest.param(name, tuple(args), id=f"{name}-arg{pos}={label}")


def test_sweep_covers_the_int_api():
    names = set(int_functions())
    assert {"fib", "prefix", "chain_interval", "singular_word", "split_cell", "cylinder_table",
            "prefix_palindrome_lengths", "palindromic_conjugates", "occurrence_count"} <= names
    assert not names & {"kernel", "pal_end_pos", "scan_word", "return_words"}


@pytest.mark.parametrize("name,args", list(sweep_calls()))
def test_answers_or_refuses_at_every_magnitude(name, args):
    fn = getattr(fibpal, name)
    tracemalloc.start()
    try:
        fn(*args)
    except (DomainError, ResourceError):
        pass
    finally:
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    assert peak <= PEAK_MAX, (name, peak)


def traced_peak(fn, *args) -> int:
    tracemalloc.start()
    try:
        fn(*args)
    finally:
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    return peak


# calls that hold more than a byte per unit charged, each at the widest reach
# that stays quick: small and wide positions, with and without reductions
CHARGED = {
    "end_count_block(20)": (fibpal.end_count_block, 20),
    "end_count_block(24)": (fibpal.end_count_block, 24),
    "expand_leaves(16, 1)": (fibpal.expand_leaves, 16, 1),
    "expand_leaves(12, 1e300)": (fibpal.expand_leaves, 12, 10**300),
    "expand_cell(16, 1)": (fibpal.expand_cell, 16, 1),
    "expand_cell(12, 1e300, reduce)": (fibpal.expand_cell, 12, 10**300, None, True),
    "expand_cell(20, 1, depth 9, reduce)": (fibpal.expand_cell, 20, 1, 9, True),
    "prefix_palindrome_lengths(1e1000)": (fibpal.prefix_palindrome_lengths, 10**1000),
    "prefix_palindrome_lengths(1e5000)": (fibpal.prefix_palindrome_lengths, 10**5000),
}
REFUSED = {
    "end_count_block(38)": (fibpal.end_count_block, 38),
    "prefix_palindrome_lengths(1e20000)": (fibpal.prefix_palindrome_lengths, 10**20000),
    "expand_leaves(34, 1)": (fibpal.expand_leaves, 34, 1),
    "expand_cell(34, 1)": (fibpal.expand_cell, 34, 1),
    "expand_cell(24, 1e4000, depth 20)": (fibpal.expand_cell, 24, 10**4000, 20),
}


def width(m: int, p: int, per_7_bits: int) -> int:
    """Bytes per 7 bits of the last position of cell (m, p)."""
    return per_7_bits * (fibpal.chain_interval(m, p).hi.bit_length() // 7)


P_WIDE = 10**300
# each call with its charge written out as a formula: items held times bytes per item
EXACT = {
    "end_count_block(3)": ((fibpal.end_count_block, 3), 32 * fibpal.fib(2)),
    "end_count_block(20)": ((fibpal.end_count_block, 20), 32 * fibpal.fib(19)),
    "expand_leaves(1, 1)": ((fibpal.expand_leaves, 1, 1), fibpal.fib(1) * (192 + width(1, 1, 3))),
    "expand_leaves(12, 1e300)": ((fibpal.expand_leaves, 12, P_WIDE), fibpal.fib(12) * (192 + width(12, P_WIDE, 3))),
    "expand_cell(1, 1)": ((fibpal.expand_cell, 1, 1), fibpal.fib(1) * (832 + width(1, 1, 8))),
    "expand_cell(12, 1e300, depth 1)": ((fibpal.expand_cell, 12, P_WIDE, 1), 2 * (832 + width(12, P_WIDE, 8))),
    "expand_cell(12, 1e300, depth 7, reduce)": ((fibpal.expand_cell, 12, P_WIDE, 7, True), 2**7 * (832 + width(12, P_WIDE, 8))),
    "expand_cell(6, 1, depth 9)": ((fibpal.expand_cell, 6, 1, 9), fibpal.fib(6) * (832 + width(6, 1, 8))),
    # lengths fib(m) - 2 for m = 2 .. 4784, the largest m with fib(m) - 2 <= 10**1000
    "prefix_palindrome_lengths(1e1000)": ((fibpal.prefix_palindrome_lengths, 10**1000), 4784 * (4784 // 20 + 40)),
    "cylinder_table(10)": ((fibpal.cylinder_table, 10), 3 * 10**2 + 10),
}


@pytest.mark.parametrize("call,charge", EXACT.values(), ids=EXACT)
def test_each_call_answers_at_exactly_its_charge(monkeypatch, call, charge):
    fn, *args = call
    monkeypatch.setenv("FIBPAL_MAX_MATERIALIZE", str(charge))
    fn(*args)
    monkeypatch.setenv("FIBPAL_MAX_MATERIALIZE", str(charge - 1))
    with pytest.raises(ResourceError, match="exceeds materialization cap"):
        fn(*args)


@pytest.mark.parametrize("call", CHARGED.values(), ids=CHARGED)
def test_cap_charges_the_bytes_a_call_holds(monkeypatch, call):
    charged = []
    real = fibword.check_cap

    def recording(n, what="word", unit=1):
        charged.append(n * unit)
        real(n, what, unit)

    monkeypatch.setattr(counting, "check_cap", recording)
    monkeypatch.setattr(fibword, "check_cap", recording)
    fn, *args = call
    peak = traced_peak(fn, *args)
    assert len(charged) == 1
    assert charged[0] / 2 <= peak <= 2 * charged[0], (peak, charged[0])


@pytest.mark.parametrize("call", REFUSED.values(), ids=REFUSED)
def test_refusals_under_the_default_cap_hold_little(monkeypatch, call):
    monkeypatch.delenv("FIBPAL_MAX_MATERIALIZE", raising=False)
    fn, *args = call

    def refused():
        with pytest.raises(ResourceError, match="exceeds materialization cap"):
            fn(*args)

    assert traced_peak(refused) < 2**20
