"""Exact palindrome queries on prefixes of the infinite Fibonacci word.

Closed-form, logarithmic-time answers for occurrence positions, per-position
and cumulative occurrence counts, and canonical palindrome coordinates, all
in exact integer arithmetic, with a palindromic-tree oracle for independent
verification at desk scale.

Every public name and submodule is imported on first access (PEP 562), so
``import fibpal`` loads no submodule and a caller pays only for the modules
it reads.  The closed-form API loads without NumPy; the one oracle name
(``scan_word``) and the ``oracle`` and ``kernels`` modules need it.  A
tree pass, ``scan_word`` (or ``oracle.scan_prefix``), returns a
``PrefixScan`` of its counts and nothing else: ``end_counts``,
``max_suffix`` and ``distinct`` per position, and ``nodes``.
"""

__version__ = "0.1.0"

# submodule -> the public names it defines; each is imported on first access
_LAZY_MODULES = {
    "chain": ("ChainInterval", "OccurrenceSpan", "PalCoord", "chain_interval", "distinct_count", "new_pal_at",
              "pal_end_pos", "pal_span", "singular_end_pos", "singular_start_pos"),
    "counting": ("CellSplit", "block_prefix_total", "block_sum", "convolution_identity_holds", "end_count",
                 "end_count_block", "end_count_near_fib", "expand_cell", "expand_leaves", "fib_prefix_total",
                 "occurrence_count", "occurrence_count_trace", "reduce_cell", "split_cell", "tail_sum"),
    "cylinder": ("coord_from_pal", "cylinder_table", "cylinder_tag", "pal_from_coord", "palindromic_conjugates",
                 "pals_of_length", "prefix_palindrome_lengths"),
    "errors": ("DomainError", "NotAFactorError", "ResourceError"),
    "fibword": ("check_floor_identities", "fib", "floor_phi", "letter_at", "prefix"),
    "kernels": (),
    "oracle": ("scan_word",),
    "singular": ("KernelResult", "is_factor", "kernel", "singular_word"),
}
__all__ = [*sorted(name for names in _LAZY_MODULES.values() for name in names), "__version__"]


def __getattr__(name):
    # __import__ with a fromlist returns the submodule itself, and takes the
    # path that -X importtime times, which importlib.import_module does not
    if name in _LAZY_MODULES:
        return __import__(f"{__name__}.{name}", fromlist=["_"])
    for module, names in _LAZY_MODULES.items():
        if name in names:
            value = globals()[name] = getattr(__import__(f"{__name__}.{module}", fromlist=["_"]), name)
            return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()).union(_LAZY_MODULES, __all__))
