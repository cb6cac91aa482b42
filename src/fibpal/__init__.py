"""Exact palindrome queries on prefixes of the infinite Fibonacci word.

Closed-form, logarithmic-time answers for occurrence positions, per-position
and cumulative occurrence counts, and canonical palindrome coordinates, all
in exact integer arithmetic, with a palindromic-tree oracle for independent
verification at desk scale.

The closed-form API loads without NumPy.  The one oracle name
(``scan_word``) and the ``oracle`` and ``kernels`` modules need it, so they
are imported on first access (PEP 562).  Tree counts are fields of the
``PrefixScan`` that ``scan_word`` returns (and ``oracle.scan_prefix``):
``end_counts``, ``distinct`` and ``nodes``.
"""

import importlib

from .chain import (
    ChainInterval,
    OccurrenceSpan,
    chain_interval,
    distinct_count,
    new_pal_at,
    pal_end_pos,
    pal_span,
    singular_end_pos,
    singular_start_pos,
)
from .counting import (
    CellSplit,
    block_prefix_total,
    block_sum,
    convolution_identity_holds,
    end_count,
    end_count_block,
    end_count_near_fib,
    expand_cell,
    expand_leaves,
    fib_prefix_total,
    occurrence_count,
    occurrence_count_trace,
    reduce_cell,
    split_cell,
    tail_sum,
)
from .cylinder import (
    PalCoord,
    coord_from_pal,
    cylinder_table,
    cylinder_tag,
    pal_from_coord,
    palindromic_conjugates,
    pals_of_length,
    prefix_palindrome_lengths,
)
from .errors import DomainError, NotAFactorError, ResourceError
from .fibword import (
    check_floor_identities,
    fib,
    floor_phi,
    letter_at,
    prefix,
)
from .singular import KernelResult, is_factor, kernel, singular_word

__version__ = "0.1.0"

__all__ = [
    "CellSplit",
    "ChainInterval",
    "DomainError",
    "KernelResult",
    "NotAFactorError",
    "OccurrenceSpan",
    "PalCoord",
    "ResourceError",
    "block_prefix_total",
    "block_sum",
    "chain_interval",
    "check_floor_identities",
    "convolution_identity_holds",
    "coord_from_pal",
    "cylinder_table",
    "cylinder_tag",
    "distinct_count",
    "end_count",
    "end_count_block",
    "end_count_near_fib",
    "expand_cell",
    "expand_leaves",
    "fib",
    "fib_prefix_total",
    "floor_phi",
    "is_factor",
    "kernel",
    "letter_at",
    "new_pal_at",
    "occurrence_count",
    "occurrence_count_trace",
    "pal_end_pos",
    "pal_from_coord",
    "pal_span",
    "palindromic_conjugates",
    "pals_of_length",
    "prefix",
    "prefix_palindrome_lengths",
    "reduce_cell",
    "scan_word",
    "singular_end_pos",
    "singular_start_pos",
    "singular_word",
    "split_cell",
    "tail_sum",
    "__version__",
]

_ORACLE_NAMES = frozenset({"scan_word"})
_LAZY_MODULES = frozenset({"kernels", "oracle"})


def __getattr__(name):
    if name in _LAZY_MODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name in _ORACLE_NAMES:
        return getattr(importlib.import_module(f"{__name__}.oracle"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | _ORACLE_NAMES | _LAZY_MODULES)
