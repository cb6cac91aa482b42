"""Every public function of int arguments, at every magnitude: an answer or
a typed refusal, in bounded memory."""

import inspect
import tracemalloc

import pytest

import fibpal
from fibpal import DomainError, ResourceError

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
