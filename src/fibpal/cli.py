"""Command-line front door.

Every query emits one JSON record per line (machine consumption first); pass
``--plain`` for human-readable output.  Exit codes: 0 success, 1 verification
failure, 2 usage or input error, 3 internal error.

Each command is declared once, in ``COMMANDS``; the parser, every record and
every ``--plain`` line are built from that table, so adding a command means
adding one entry.

A process loads only what its command needs.  ``main`` builds the subparser of
the one command its argv names (the full tree for ``--help``, a group name
alone, an unknown name or words left over, so every message stays the same),
and each answer reaches the package as ``fibpal.<module>``, which imports
the module on first access.  So ``fib``, ``letters`` and ``prefix`` load
``fibword`` only; ``pos`` and ``chain`` add ``chain``; ``count`` and ``tau``
add ``counting``; ``pal`` commands load ``cylinder`` and ``chain``, and only
``pal coord``, ``kernel`` and ``singular`` load ``singular``.  No query
command loads NumPy: ``verify`` and ``bench`` import the oracle side, which
needs it, only when they run.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from typing import TYPE_CHECKING

import fibpal

from .errors import DomainError, ResourceError

if TYPE_CHECKING:
    from collections.abc import Callable, Iterable

    from .chain import PalCoord

# words longer than this are reported by coordinates only
INLINE_WORD_MAX = 10**4


class _SubParser(argparse.ArgumentParser):
    """Subcommand parser that also accepts --plain after the subcommand.

    SUPPRESS keeps the root-level value when the flag is absent here; nested
    add_subparsers calls inherit this class automatically.
    """

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.add_argument("--plain", action="store_true", default=argparse.SUPPRESS)


def _long_int_field(value, limit: int, path: str = "") -> str | None:
    """Path of the first int in a record with more than ``limit`` digits, if any."""
    if isinstance(value, int):  # 2**(3 * limit) < 10**limit: most ints skip the power
        return path if value.bit_length() > 3 * limit and abs(value) >= 10**limit else None
    items = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, item in items:
        found = _long_int_field(item, limit, f"{path}.{key}" if path else str(key))
        if found is not None:
            return found
    return None


def _emit(plain: bool, record: dict, plain_lines: Callable[[dict], Iterable[str]]) -> None:
    """Print the record as JSON, or with --plain the lines ``plain_lines(record)`` builds.

    Python refuses to print an int longer than ``sys.get_int_max_str_digits()``
    digits; such an answer is refused as a ResourceError naming its field.
    """
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0
    field = _long_int_field(record, limit) if limit else None
    if field is not None:
        raise ResourceError(f"field {field!r} of the answer has more than {limit} digits, the interpreter's "
                            "limit for printing an integer (raise it with PYTHONINTMAXSTRDIGITS)")
    if plain:
        print("\n".join(plain_lines(record)))
    else:
        print(json.dumps(record, sort_keys=True))


def _coord_info(c: PalCoord) -> dict:
    info = {
        "m": c.m,
        "i": c.i,
        "length": c.length(),
        "cylinder": fibpal.cylinder.cylinder_tag(c),
        "singular": c.is_singular(),
    }
    if c.length() <= INLINE_WORD_MAX:
        info["word"] = fibpal.cylinder.pal_from_coord(c)
    return info


def _cell_lines(node: dict, depth: int = 0) -> list[str]:
    pad = "  " * depth
    lines = [f"{pad}<K_{node['m']},{node['p']}> = {{{node['lo']},...,{node['hi']}}}"]
    for child in node.get("children", []):
        lines.extend(_cell_lines(child, depth + 1))
    if "reduces_to" in node:
        r = node["reduces_to"]
        lines.append(f"{pad}  -> <K_{r['m']},{r['p']}> = {{{r['lo']}}}")
    return lines


def _kernel(a) -> dict:
    res = fibpal.singular.kernel(a.word)
    return {"word": a.word, "m": res.m, "offset": res.offset, "kernel": fibpal.singular.singular_word(res.m)}


def _pal_list_lines(r: dict) -> Iterable[str]:
    for info in r["palindromes"]:
        label = info.get("word", f"(length {info['length']})")
        yield f"{label}  (m={info['m']}, i={info['i']}, cylinder {info['cylinder']})"


def _pal_at(a) -> dict:
    c = fibpal.chain.new_pal_at(a.n)
    return {"n": a.n, **_coord_info(c), "start": a.n - c.length() + 1, "end": a.n}


def _pal_conjugates(a) -> dict:
    words = sorted(fibpal.cylinder.palindromic_conjugates(a.m))
    return {"m": a.m, "words": words, "count": len(words)}


def _pos_pal(a) -> dict:
    span = fibpal.chain.pal_span(fibpal.chain.PalCoord(a.m, a.i), a.p)
    return {"m": a.m, "i": a.i, "p": a.p, "start": span.start, "end": span.end, "length": span.length()}


def _chain(a) -> dict:
    iv = fibpal.chain.chain_interval(a.m, a.p)
    return {"m": a.m, "p": a.p, "lo": iv.lo, "hi": iv.hi, "size": iv.size()}


def _count(a) -> dict:
    counting = fibpal.counting
    if a.count_cmd == "special":
        stray = [flag for flag, given in (("-n", a.n is not None), ("--distinct", a.distinct),
                                          ("--occurrences", a.occurrences), ("--trace", a.trace)) if given]
        if stray:
            raise DomainError(f"count special does not take {', '.join(stray)}")
        if a.m is None:
            raise DomainError("count special requires --m")
        before, at_fib = counting.block_prefix_total(a.m), counting.fib_prefix_total(a.m)
        e2, e1, e0 = counting.end_count_near_fib(a.m)
        # "special" is a positional choice, not a subcommand, so the record names it here
        return {"cmd": "count special", "m": a.m, "total_at_fib_minus2": before, "total_at_fib": at_fib,
                "end_count_fib_minus2": e2, "end_count_fib_minus1": e1, "end_count_fib": e0}
    if a.m is not None:
        raise DomainError("--m applies only to count special")
    if a.distinct == a.occurrences:
        raise DomainError("count requires exactly one of --distinct / --occurrences")
    if a.distinct and a.trace:
        raise DomainError("--trace applies only to count --occurrences")
    if a.n is None:
        raise DomainError("count requires -n")
    if a.distinct:
        return {"mode": "distinct", "n": a.n, "value": fibpal.chain.distinct_count(a.n)}
    if not a.trace:
        return {"mode": "occurrences", "n": a.n, "value": counting.occurrence_count(a.n)}
    value, trace = counting.occurrence_count_trace(a.n)
    return {"mode": "occurrences", "n": a.n, "value": value, "trace": trace}


def _count_lines(r: dict) -> list[str]:
    if r["cmd"] == "count special":
        m = r["m"]
        return [f"B(f_{m}-2)={r['total_at_fib_minus2']}  B(f_{m})={r['total_at_fib']}  A(f_{m}-2..f_{m})="
                f"({r['end_count_fib_minus2']},{r['end_count_fib_minus1']},{r['end_count_fib']})"]
    if "trace" in r:
        trace = r["trace"]
        if "base_table" in trace:
            return [f"B({r['n']}) = {r['value']}", f"  base table: {trace['value']}"]
        return [f"B({r['n']}) = {r['value']}",
                f"  before block: {trace['before_block']}  tail: {trace['tail']}"]
    return [str(r["value"])]


def _verify(a) -> list[dict]:
    from . import verify

    if a.suite == "all":
        names = list(verify.SUITES)
    elif a.suite in verify.SUITES:
        names = [a.suite]
    else:
        raise DomainError(f"unknown suite {a.suite!r}; choose from {', '.join(sorted(verify.SUITES))}, all")
    records = []
    for r in verify.run_suites(names, a.max_n, a.max_m, a.max_p):
        rec = {"suite": r.name, "ok": r.ok, "checked": r.checked, "seconds": round(r.seconds, 6)}
        if r.counterexample is not None:
            rec["counterexample"] = r.counterexample
        records.append(rec)
    return records


def _verify_lines(r: dict) -> list[str]:
    verdict = "ok" if r["ok"] else "FAIL " + repr(r.get("counterexample"))
    return [f"{r['suite']}: {verdict} ({r['checked']} checks, {r['seconds']:.2f}s)"]


def _bench(a) -> list[dict]:
    from . import bench

    ns = []
    for item in filter(None, a.n_list.split(",")):
        try:
            ns.append(int(item))
        except ValueError:
            raise DomainError(f"--n-list item {item!r} is not an integer") from None
    if not ns:
        raise DomainError("--n-list must name at least one prefix length")
    return [{"n": row.n, "closed_seconds": row.closed_seconds, "tree_seconds": row.tree_seconds,
             "speedup": row.speedup, "agree": row.closed_value == row.tree_value}
            for row in bench.run_bench(ns, repeat=a.repeat)]


_INT = {"type": int, "required": True}
_WORD = {"dest": "word", "required": True}

# help of the commands that group subcommands ("pal at", "pos kernel", ...)
GROUPS = {"pal": "palindrome queries", "pos": "occurrence positions"}

# name -> (help, {flag or positional: add_argument keywords}, answer, plain), in
# argparse usage order; a name with a space is a subcommand of its first word's
# group.  answer(args) gives the record fields, or a list of them for one record
# each; plain(record) gives the --plain lines of a finished record.
COMMANDS: dict[str, tuple[str, dict[str, dict], Callable, Callable]] = {
    "fib": ("Fibonacci number of the given index", {"-m": _INT},
        lambda a: {"m": a.m, "value": fibpal.fibword.fib(a.m)}, lambda r: [str(r["value"])]),
    "letters": ("letter at a 1-based position", {"-n": _INT},
        lambda a: {"n": a.n, "letter": fibpal.fibword.letter_at(a.n)}, lambda r: [r["letter"]]),
    "prefix": ("the length-n prefix", {"-n": _INT},
        lambda a: {"n": a.n, "word": fibpal.fibword.prefix(a.n)}, lambda r: [r["word"]]),
    "singular": ("the m-th singular word", {"-m": _INT},
        lambda a: {"m": a.m, "word": fibpal.singular.singular_word(a.m), "length": fibpal.fibword.fib(a.m)},
        lambda r: [r["word"]]),
    "kernel": ("maximal singular word inside a factor", {"-w": _WORD}, _kernel,
        lambda r: [f"kernel index {r['m']} ({r['kernel']}) at offset {r['offset']}"]),
    "pal list": ("all palindromes of a given length", {"--length": _INT},
        lambda a: {"length": a.length,
                   "palindromes": [_coord_info(c) for c in fibpal.cylinder.pals_of_length(a.length)]},
        _pal_list_lines),
    "pal coord": ("coordinates of a palindromic factor", {"-w": _WORD},
        lambda a: {"word": a.word, **_coord_info(fibpal.cylinder.coord_from_pal(a.word))},
        lambda r: [f"m={r['m']} i={r['i']}"]),
    "pal at": ("the palindrome whose first occurrence ends at n", {"-n": _INT}, _pal_at,
        lambda r: [f"m={r['m']} i={r['i']} length={r['length']} span=[{r['start']},{r['end']}]"]),
    "pal conjugates": ("palindromic rotations of the m-th iterate", {"-m": _INT}, _pal_conjugates,
        lambda r: r["words"] or ["(none)"]),
    "pal prefix-lengths": ("prefix lengths that are palindromes", {"--max": _INT},
        lambda a: {"max": a.max, "lengths": fibpal.cylinder.prefix_palindrome_lengths(a.max)},
        lambda r: [" ".join(map(str, r["lengths"]))]),
    "pos kernel": ("span of the p-th singular-word occurrence", {"-m": _INT, "-p": _INT},
        lambda a: {"m": a.m, "p": a.p, "start": fibpal.chain.singular_start_pos(a.m, a.p),
                   "end": fibpal.chain.singular_end_pos(a.m, a.p)},
        lambda r: [f"[{r['start']},{r['end']}]"]),
    "pos pal": ("span of the p-th occurrence of palindrome (m, i)", {"-m": _INT, "-i": _INT, "-p": _INT},
        _pos_pal, lambda r: [f"[{r['start']},{r['end']}]"]),
    "chain": ("interval of p-th ending positions for kernel index m", {"-m": _INT, "-p": _INT}, _chain,
        lambda r: [f"<K_{r['m']},{r['p']}> = {{{r['lo']},...,{r['hi']}}}"]),
    "tau": ("recursive interval splitting", {
        "-m": _INT, "-p": _INT,
        "--expand-depth": {"type": int, "default": 1, "help": "splitting levels; -1 expands to the leaves"},
        "--reduce": {"action": "store_true", "help": "attach the singleton reduction to index-0 leaves"},
    }, lambda a: {"m": a.m, "p": a.p, "tree": fibpal.counting.expand_cell(
        a.m, a.p, depth=None if a.expand_depth == -1 else a.expand_depth, include_reduce=a.reduce)},
        lambda r: _cell_lines(r["tree"])),
    "count": ("distinct / repeated occurrence counts", {
        "count_cmd": {"nargs": "?", "choices": ["special"], "default": None},
        "--distinct": {"action": "store_true"},
        "--occurrences": {"action": "store_true"},
        "-n": {"type": int},
        "--m": {"type": int},
        "--trace": {"action": "store_true"},
    }, _count, _count_lines),
    "verify": ("run verification suites", {
        "suite": {"help": "a suite name, or all"},
        "--max-n": {"type": int, "default": 10**4},
        "--max-m": {"type": int, "default": 10},
        "--max-p": {"type": int, "default": 50},
    }, _verify, _verify_lines),
    "bench": ("closed forms vs. tree oracle timings", {
        "--n-list": {"required": True, "help": "comma-separated prefix lengths"},
        "--repeat": {"type": int, "default": 5},
    }, _bench, lambda r: [f"n={r['n']} closed {r['closed_seconds'] * 1e6:.1f}us "
                          f"tree {r['tree_seconds']:.3f}s speedup {r['speedup']:.0f}x"]),
}


@functools.cache
def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The full argparse tree of ``COMMANDS``, or the tree of its one entry ``command``, built once per process."""
    parser = argparse.ArgumentParser(
        prog="fibpal",
        description="Exact palindrome queries on prefixes of the infinite Fibonacci word",
    )
    parser.add_argument("--plain", action="store_true", help="human-readable output instead of JSON records")
    groups = {"": parser.add_subparsers(dest="cmd", required=True, parser_class=_SubParser)}
    for name, (help_, arguments, _, _) in COMMANDS.items():
        if command not in (None, name):
            continue
        group, _, leaf = name.rpartition(" ")
        if group not in groups:
            groups[group] = groups[""].add_parser(group, help=GROUPS[group]).add_subparsers(
                dest=f"{group}_cmd", required=True)
        p = groups[group].add_parser(leaf, help=help_)
        for flag, keywords in arguments.items():
            p.add_argument(flag, **keywords)
        p.set_defaults(command=name)
    return parser


def _parse(argv: list[str]) -> argparse.Namespace:
    """Parse with the tree of the command that the first one or two words of argv
    name, --plain aside, whose own parser prints its usage errors as the full tree
    does; with the full tree if they name none, as for --help, or words are left over."""
    words = [arg for arg in argv if arg != "--plain"][:2]
    command = next((name for name in (" ".join(words), *words[:1]) if name in COMMANDS), None)
    if command is not None:
        args, extra = build_parser(command).parse_known_args(argv)
        if not extra:
            return args
    return build_parser().parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = _parse(sys.argv[1:] if argv is None else argv)
    _, _, answer, plain_lines = COMMANDS[args.command]
    try:
        fields = answer(args)
        failed = False
        for one in fields if isinstance(fields, list) else [fields]:
            record = {"cmd": args.command, **one}
            _emit(args.plain, record, plain_lines)
            failed |= record.get("ok") is False  # only verify records carry "ok"
        return 1 if failed else 0
    except (DomainError, ResourceError) as exc:
        print(f"fibpal: error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # a defect, not a verification failure: never exit 1
        print(f"fibpal: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
