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
