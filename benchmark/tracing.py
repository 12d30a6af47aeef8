"""Per-layer spans timed from outside the package.

``install`` replaces each function of ``LAYER_FUNCTIONS`` with a timing
wrapper in every ``jordanet.*`` namespace that binds it.  Rebinding every
namespace is what catches callers that did ``from .linalg import rref``:
they look the name up in their own module, not in ``jordanet.linalg``.
Each call records a span (name, start, end, parent index) in memory; the
spans are written out when the run ends.

Fraction and MPoly operators are not wrapped: one call to them costs about
as much as the wrapper would, so their time shows up as their callers' self
time.  Private helpers (``_product``, ``integer_sweep`` ...) likewise count
towards the listed function that calls them.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from typing import Callable, Dict, List, Sequence

from stats import self_times

LAYER_FUNCTIONS: Dict[str, Sequence[str]] = {
    "exact": ("parse_poly", "mpoly_gcd", "subresultant_gcd", "squarefree_decomposition"),
    "linalg": ("rref", "express_in_rows", "det_bareiss", "det_laplace", "inverse",
               "charpoly", "adjugate"),
    "spaces": ("generic_det", "is_regular", "find_invertible", "contains", "plucker",
               "grassmann_limit"),
    "jordan": ("is_jordan", "jordan_closure", "structure_constants", "radical",
               "is_associative", "rad_square_dim", "check_reciprocal_identity"),
    "classify": ("classify_net_S4", "invariant_vector", "generic_multiplicity_partition",
                 "decision_table", "classify_abstract", "classify_pencil",
                 "classify_copencil_S3"),
    "chow": ("chow_matrix", "chow_rank", "chow_kernel_forms", "chow_det_generic"),
    "varieties": ("macaulay_emptiness", "rank_one_pencil", "catalog_eval"),
    "io": ("load_space_file",),
    "catalog": ("canonical",),
    "cli": ("main",),
}

ROOT = "cli.main"


def span_names() -> List[str]:
    return [f"{layer}.{fn}" for layer, fns in LAYER_FUNCTIONS.items() for fn in fns]


class Recorder:
    """Spans of the wrapped calls, kept in memory.  ``rref_shapes`` holds
    (rows, cols) of every ``linalg.rref`` input."""

    def __init__(self):
        self.spans: List[list] = []
        self.rref_shapes: List[tuple] = []
        self._stack: List[int] = []

    def wrap(self, name: str, fn: Callable) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        shapes = self.rref_shapes if name == "linalg.rref" else None

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            if shapes is not None:
                matrix = args[0]
                shapes.append((len(matrix), len(matrix[0]) if matrix else 0))
            index = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = clock()

        return timed


def install(recorder: Recorder) -> Callable[[], None]:
    """Wrap every listed function; returns a function that undoes it."""
    for layer in LAYER_FUNCTIONS:
        importlib.import_module(f"jordanet.{layer}")
    modules = [mod for name, mod in sorted(sys.modules.items())
               if mod is not None and (name == "jordanet" or name.startswith("jordanet."))]
    undo = []
    for layer, fns in LAYER_FUNCTIONS.items():
        home = sys.modules[f"jordanet.{layer}"]
        for fn_name in fns:
            original = getattr(home, fn_name)
            wrapper = recorder.wrap(f"{layer}.{fn_name}", original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        undo.append((mod, attr, original))

    def uninstall():
        for mod, attr, original in undo:
            setattr(mod, attr, original)

    return uninstall


def layer_metrics(spans: Sequence[Sequence],
                  rref_shapes: Sequence[Sequence[int]]) -> Dict[str, float]:
    """Calls and self time of every listed function, self time per layer,
    rref sizes, and the share of ``cli.main`` time that the listed
    functions below it account for."""
    calls = {name: 0 for name in span_names()}
    own = {name: 0.0 for name in span_names()}
    root_s = 0.0
    for (name, start, end, _), self_s in zip(spans, self_times(spans)):
        calls[name] += 1
        own[name] += self_s
        if name == ROOT:
            root_s += end - start
    out: Dict[str, float] = {}
    layer_self = {layer: 0.0 for layer in LAYER_FUNCTIONS}
    for name in span_names():
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.self_s"] = own[name]
        layer_self[name.split(".")[0]] += own[name]
    for layer, total in layer_self.items():
        out[f"{layer}.self_s"] = total
    out["linalg.rref.cells"] = sum(rows * cols for rows, cols in rref_shapes)
    out["linalg.rref.max_rows"] = max((rows for rows, _ in rref_shapes), default=0)
    out["cli.main.total_s"] = root_s
    out["trace.coverage"] = 1.0 - own[ROOT] / root_s if root_s else 0.0
    return out
