"""Command-line front door.

Every query emits one JSON record per line (machine consumption first); pass
``--plain`` for human-readable output.  Exit codes: 0 success, 1 verification
failure, 2 usage or input error, 3 internal error.

The query commands never load NumPy: ``verify`` and ``bench`` import the
oracle side, which needs it, only when they run.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import TYPE_CHECKING

from . import counting, cylinder, fibword, singular
from .chain import chain_interval, distinct_count, new_pal_at, pal_span, singular_end_pos, singular_start_pos
from .cylinder import PalCoord, coord_from_pal, pal_from_coord, pals_of_length
from .errors import DomainError, ResourceError

if TYPE_CHECKING:
    from collections.abc import Callable, Iterable

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


def _emit(args, record: dict, plain_lines: Callable[[], Iterable[str]] | None = None) -> None:
    """Print the record as JSON, or with --plain the lines ``plain_lines()`` builds.

    Python refuses to print an int longer than ``sys.get_int_max_str_digits()``
    digits; such an answer is refused as a ResourceError naming its field.
    """
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0
    field = _long_int_field(record, limit) if limit else None
    if field is not None:
        raise ResourceError(f"field {field!r} of the answer has more than {limit} digits, the interpreter's "
                            "limit for printing an integer (raise it with PYTHONINTMAXSTRDIGITS)")
    if args.plain and plain_lines is not None:
        print("\n".join(plain_lines()))
    else:
        print(json.dumps(record, sort_keys=True))


def _coord_info(c: PalCoord) -> dict:
    info = {
        "m": c.m,
        "i": c.i,
        "length": c.length(),
        "cylinder": cylinder.cylinder_tag(c),
        "singular": c.is_singular(),
    }
    if c.length() <= INLINE_WORD_MAX:
        info["word"] = pal_from_coord(c)
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


def cmd_fib(args) -> int:
    value = fibword.fib(args.m)
    _emit(args, {"cmd": "fib", "m": args.m, "value": value}, lambda: [str(value)])
    return 0


def cmd_letters(args) -> int:
    letter = fibword.letter_at(args.n)
    _emit(args, {"cmd": "letters", "n": args.n, "letter": letter}, lambda: [letter])
    return 0


def cmd_prefix(args) -> int:
    word = fibword.prefix(args.n)
    _emit(args, {"cmd": "prefix", "n": args.n, "word": word}, lambda: [word])
    return 0


def cmd_singular(args) -> int:
    word = singular.singular_word(args.m)
    _emit(
        args,
        {"cmd": "singular", "m": args.m, "word": word, "length": fibword.fib(args.m)},
        lambda: [word],
    )
    return 0


def cmd_kernel(args) -> int:
    res = singular.kernel(args.word)
    rec = {
        "cmd": "kernel",
        "word": args.word,
        "m": res.m,
        "offset": res.offset,
        "kernel": singular.singular_word(res.m),
    }
    _emit(args, rec, lambda: [f"kernel index {res.m} ({rec['kernel']}) at offset {res.offset}"])
    return 0


def cmd_pal(args) -> int:
    if args.pal_cmd == "list":
        coords = pals_of_length(args.length)
        rec = {"cmd": "pal list", "length": args.length, "palindromes": [_coord_info(c) for c in coords]}

        def lines():
            for info in rec["palindromes"]:
                label = info.get("word", f"(length {info['length']})")
                yield f"{label}  (m={info['m']}, i={info['i']}, cylinder {info['cylinder']})"

        _emit(args, rec, lines)
    elif args.pal_cmd == "coord":
        c = coord_from_pal(args.word)
        _emit(args, {"cmd": "pal coord", "word": args.word, **_coord_info(c)},
              lambda: [f"m={c.m} i={c.i}"])
    elif args.pal_cmd == "at":
        c = new_pal_at(args.n)
        info = _coord_info(c)
        info["start"] = args.n - c.length() + 1
        info["end"] = args.n
        _emit(args, {"cmd": "pal at", "n": args.n, **info},
              lambda: [f"m={c.m} i={c.i} length={c.length()} span=[{info['start']},{info['end']}]"])
    elif args.pal_cmd == "conjugates":
        words = sorted(cylinder.palindromic_conjugates(args.m))
        _emit(args, {"cmd": "pal conjugates", "m": args.m, "words": words, "count": len(words)},
              lambda: words or ["(none)"])
    else:  # prefix-lengths
        lengths = cylinder.prefix_palindrome_lengths(args.max)
        _emit(args, {"cmd": "pal prefix-lengths", "max": args.max, "lengths": lengths},
              lambda: [" ".join(map(str, lengths))])
    return 0


def cmd_pos(args) -> int:
    if args.pos_cmd == "kernel":
        start = singular_start_pos(args.m, args.p)
        end = singular_end_pos(args.m, args.p)
        _emit(args, {"cmd": "pos kernel", "m": args.m, "p": args.p, "start": start, "end": end},
              lambda: [f"[{start},{end}]"])
    else:
        span = pal_span(PalCoord(args.m, args.i), args.p)
        _emit(args, {"cmd": "pos pal", "m": args.m, "i": args.i, "p": args.p,
                     "start": span.start, "end": span.end, "length": span.length()},
              lambda: [f"[{span.start},{span.end}]"])
    return 0


def cmd_chain(args) -> int:
    iv = chain_interval(args.m, args.p)
    _emit(args, {"cmd": "chain", "m": args.m, "p": args.p, "lo": iv.lo, "hi": iv.hi, "size": iv.size()},
          lambda: [f"<K_{args.m},{args.p}> = {{{iv.lo},...,{iv.hi}}}"])
    return 0


def cmd_tau(args) -> int:
    depth = None if args.expand_depth == -1 else args.expand_depth
    tree = counting.expand_cell(args.m, args.p, depth=depth, include_reduce=args.reduce)
    _emit(args, {"cmd": "tau", "m": args.m, "p": args.p, "tree": tree}, lambda: _cell_lines(tree))
    return 0


def cmd_count(args) -> int:
    if args.count_cmd == "special":
        if args.m is None:
            raise DomainError("count special requires --m")
        before, at_fib = counting.block_prefix_total(args.m), counting.fib_prefix_total(args.m)
        e2, e1, e0 = counting.end_count_near_fib(args.m)
        rec = {
            "cmd": "count special",
            "m": args.m,
            "total_at_fib_minus2": before,
            "total_at_fib": at_fib,
            "end_count_fib_minus2": e2,
            "end_count_fib_minus1": e1,
            "end_count_fib": e0,
        }
        _emit(args, rec, lambda: [f"B(f_{args.m}-2)={before}  B(f_{args.m})={at_fib}  "
                                  f"A(f_{args.m}-2..f_{args.m})=({e2},{e1},{e0})"])
        return 0
    if args.distinct == args.occurrences:
        raise DomainError("count requires exactly one of --distinct / --occurrences")
    if args.n is None:
        raise DomainError("count requires -n")
    if args.distinct:
        value = distinct_count(args.n)
        _emit(args, {"cmd": "count", "mode": "distinct", "n": args.n, "value": value}, lambda: [str(value)])
        return 0
    if args.trace:
        value, trace = counting.occurrence_count_trace(args.n)
        rec = {"cmd": "count", "mode": "occurrences", "n": args.n, "value": value, "trace": trace}
        _emit(args, rec, lambda: [f"B({args.n}) = {value}",
                                  f"  before block: {trace.get('before_block')}  tail: {trace.get('tail')}"])
    else:
        value = counting.occurrence_count(args.n)
        _emit(args, {"cmd": "count", "mode": "occurrences", "n": args.n, "value": value}, lambda: [str(value)])
    return 0


def cmd_verify(args) -> int:
    from . import verify

    if args.suite == "all":
        names = list(verify.SUITES)
    elif args.suite in verify.SUITES:
        names = [args.suite]
    else:
        raise DomainError(f"unknown suite {args.suite!r}; choose from {', '.join(sorted(verify.SUITES))}, all")
    results = verify.run_suites(names, args.max_n, args.max_m, args.max_p)
    failed = False
    for r in results:
        rec = {"cmd": "verify", "suite": r.name, "ok": r.ok, "checked": r.checked,
               "seconds": round(r.seconds, 6)}
        if r.counterexample is not None:
            rec["counterexample"] = r.counterexample
        _emit(args, rec, lambda: [f"{r.name}: {'ok' if r.ok else 'FAIL ' + repr(r.counterexample)} "
                                  f"({r.checked} checks, {r.seconds:.2f}s)"])
        failed |= not r.ok
    return 1 if failed else 0


def cmd_bench(args) -> int:
    from . import bench

    ns = []
    for item in filter(None, args.n_list.split(",")):
        try:
            ns.append(int(item))
        except ValueError:
            raise DomainError(f"--n-list item {item!r} is not an integer") from None
    if not ns:
        raise DomainError("--n-list must name at least one prefix length")
    rows = bench.run_bench(ns, repeat=args.repeat)
    for row in rows:
        rec = {
            "cmd": "bench",
            "n": row.n,
            "closed_seconds": row.closed_seconds,
            "tree_seconds": row.tree_seconds,
            "speedup": row.speedup,
            "agree": row.closed_value == row.tree_value,
        }
        _emit(args, rec, lambda: [f"n={row.n} closed {row.closed_seconds * 1e6:.1f}us "
                                  f"tree {row.tree_seconds:.3f}s speedup {row.speedup:.0f}x"])
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fibpal",
        description="Exact palindrome queries on prefixes of the infinite Fibonacci word",
    )
    parser.add_argument("--plain", action="store_true", help="human-readable output instead of JSON records")
    sub = parser.add_subparsers(dest="cmd", required=True, parser_class=_SubParser)

    p = sub.add_parser("fib", help="Fibonacci number of the given index")
    p.add_argument("-m", type=int, required=True)
    p.set_defaults(func=cmd_fib)

    p = sub.add_parser("letters", help="letter at a 1-based position")
    p.add_argument("-n", type=int, required=True)
    p.set_defaults(func=cmd_letters)

    p = sub.add_parser("prefix", help="the length-n prefix")
    p.add_argument("-n", type=int, required=True)
    p.set_defaults(func=cmd_prefix)

    p = sub.add_parser("singular", help="the m-th singular word")
    p.add_argument("-m", type=int, required=True)
    p.set_defaults(func=cmd_singular)

    p = sub.add_parser("kernel", help="maximal singular word inside a factor")
    p.add_argument("-w", dest="word", required=True)
    p.set_defaults(func=cmd_kernel)

    p = sub.add_parser("pal", help="palindrome queries")
    psub = p.add_subparsers(dest="pal_cmd", required=True)
    q = psub.add_parser("list", help="all palindromes of a given length")
    q.add_argument("--length", type=int, required=True)
    q = psub.add_parser("coord", help="coordinates of a palindromic factor")
    q.add_argument("-w", dest="word", required=True)
    q = psub.add_parser("at", help="the palindrome whose first occurrence ends at n")
    q.add_argument("-n", type=int, required=True)
    q = psub.add_parser("conjugates", help="palindromic rotations of the m-th iterate")
    q.add_argument("-m", type=int, required=True)
    q = psub.add_parser("prefix-lengths", help="prefix lengths that are palindromes")
    q.add_argument("--max", type=int, required=True)
    p.set_defaults(func=cmd_pal)

    p = sub.add_parser("pos", help="occurrence positions")
    psub = p.add_subparsers(dest="pos_cmd", required=True)
    q = psub.add_parser("kernel", help="span of the p-th singular-word occurrence")
    q.add_argument("-m", type=int, required=True)
    q.add_argument("-p", type=int, required=True)
    q = psub.add_parser("pal", help="span of the p-th occurrence of palindrome (m, i)")
    q.add_argument("-m", type=int, required=True)
    q.add_argument("-i", type=int, required=True)
    q.add_argument("-p", type=int, required=True)
    p.set_defaults(func=cmd_pos)

    p = sub.add_parser("chain", help="interval of p-th ending positions for kernel index m")
    p.add_argument("-m", type=int, required=True)
    p.add_argument("-p", type=int, required=True)
    p.set_defaults(func=cmd_chain)

    p = sub.add_parser("tau", help="recursive interval splitting")
    p.add_argument("-m", type=int, required=True)
    p.add_argument("-p", type=int, required=True)
    p.add_argument("--expand-depth", type=int, default=1,
                   help="splitting levels; -1 expands to the leaves")
    p.add_argument("--reduce", action="store_true",
                   help="attach the singleton reduction to index-0 leaves")
    p.set_defaults(func=cmd_tau)

    p = sub.add_parser("count", help="distinct / repeated occurrence counts")
    p.add_argument("count_cmd", nargs="?", choices=["special"], default=None)
    p.add_argument("--distinct", action="store_true")
    p.add_argument("--occurrences", action="store_true")
    p.add_argument("-n", type=int)
    p.add_argument("--m", type=int, dest="m")
    p.add_argument("--trace", action="store_true")
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("verify", help="run verification suites")
    p.add_argument("suite", help="a suite name, or all")
    p.add_argument("--max-n", type=int, default=10**4)
    p.add_argument("--max-m", type=int, default=10)
    p.add_argument("--max-p", type=int, default=50)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("bench", help="closed forms vs. tree oracle timings")
    p.add_argument("--n-list", required=True, help="comma-separated prefix lengths")
    p.add_argument("--repeat", type=int, default=5)
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (DomainError, ResourceError) as exc:
        print(f"fibpal: error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # a defect, not a verification failure: never exit 1
        print(f"fibpal: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
