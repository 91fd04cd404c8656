"""Layer tracing from outside the program.

The tracer wraps public functions of the `superimm` modules and records, per
layer, how often they are called and how long they are busy.  Nothing in the
library changes: every wrapper is installed by rebinding names, and every
name bound to the same function object is rebound (modules import functions
by name, classes alias methods such as `__radd__ = __add__`), so that no call
path slips past a wrapper.

Two kinds of wrapper:

* span wrappers, for the coarse calls (invariants, immanants, diagonalize,
  Schur functions, linear algebra over Q).  Each call records a span with its
  parent, start and end; a span's self time is its duration minus the time
  of its child spans.
* counter wrappers, for the hot kernel operations (`SuperPoly` products and
  sums, chain coefficients, characters).  A span per call would dominate the
  run, so each call adds to an aggregate counter of the span that is open.

Busy time of a layer counts only its outermost calls, so a function that
re-enters itself, or a linear-algebra routine that calls another, is not
counted twice.  Call counts count every call.
"""

from __future__ import annotations

import functools
import sys
import time

from superimm import immanants, ratlinalg, supersym, symgroup, tableaux, tensorspace, verify
from superimm.superring import SuperPoly, TruncatedSeries

perf_counter = time.perf_counter


class LayerStat:
    __slots__ = ("calls", "busy", "depth", "inputs", "pairs", "int_coeffs", "coeffs")

    def __init__(self):
        self.calls = 0
        self.busy = 0.0
        self.depth = 0
        self.inputs = set()
        self.pairs = 0
        self.int_coeffs = 0
        self.coeffs = 0


def _matrix_key(x) -> tuple:
    return (x.m, x.n, tuple(frozenset(e._terms.items()) for row in x.entries for e in row))


# Functions whose share of distinct inputs is measured, with the input key.
DISTINCT_KEYS = {
    "immanants.elementary_invariant": lambda x, k: (_matrix_key(x), k),
    "immanants.complete_invariant": lambda x, k: (_matrix_key(x), k),
    "immanants.normalized_immanant_sum": lambda shape, x: (tuple(shape), _matrix_key(x)),
    "immanants.diagonalize": lambda x: _matrix_key(x),
    "supersym.schur_super": lambda shape, m, n: (tuple(shape), m, n),
}

# (module or class, attribute, layer key) for span wrappers.
SPANNED = [
    (immanants, "super_immanant", "immanants.super_immanant"),
    (immanants, "idempotent_chain_supertrace", "immanants.idempotent_chain_supertrace"),
    (immanants, "star_product", "immanants.star_product"),
    (immanants, "characteristic_series", "immanants.characteristic_series"),
    (immanants, "weight_space_supertrace", "immanants.weight_space_supertrace"),
    (immanants, "elementary_invariant", "immanants.elementary_invariant"),
    (immanants, "complete_invariant", "immanants.complete_invariant"),
    (immanants, "normalized_immanant_sum", "immanants.normalized_immanant_sum"),
    (immanants, "diagonalize", "immanants.diagonalize"),
    (supersym, "schur_super", "supersym.schur_super"),
    (supersym, "evaluate_two_alphabets", "supersym.evaluate_two_alphabets"),
    (symgroup, "primitive_idempotent", "symgroup.primitive_idempotent"),
    (tensorspace, "apply_group_algebra_to_state", "tensorspace.apply_group_algebra_to_state"),
] + [
    (ratlinalg, name, "ratlinalg")
    for name in ("rref", "inv", "nullspace", "char_poly", "rational_roots", "rank")
]

# (module or class, attribute, layer key) for counter wrappers.
COUNTED = [
    (SuperPoly, "__mul__", "superring.mul"),
    (SuperPoly, "__add__", "superring.add"),
    (TruncatedSeries, "__mul__", "superring.series_mul"),
    (SuperPoly, "substitute", "superring.substitute"),
    (SuperPoly, "inverse_of_unit", "superring.inverse_of_unit"),
    (immanants, "chain_coefficient", "immanants.chain_coefficient"),
    (symgroup.GroupAlgebraElement, "__mul__", "symgroup.group_mul"),
    (tableaux, "character", "tableaux.character"),
    (tableaux, "inverse_kostka", "tableaux.inverse_kostka"),
]

# Layer key -> the lru_cache whose hit ratio it reports.
CACHES = {
    "symgroup.primitive_idempotent": symgroup.primitive_idempotent,
    "tableaux.character": tableaux.character,
    "tableaux.inverse_kostka": tableaux._inverse_kostka_table,
    "verify.lr_table": verify._lr_table,
}

# Exact per-layer metrics: they must repeat across traced passes.
COUNT_SUFFIXES = (".calls", ".term_pairs", ".int_share", ".distinct_share", ".hit_ratio",
                  "verify.checks", "verify.cases", "verify.vacuous_checks")


def _namespaces():
    """Every module namespace and class namespace of the library."""
    for name, mod in list(sys.modules.items()):
        if name == "superimm" or name.startswith("superimm."):
            yield mod
            for value in list(vars(mod).values()):
                if isinstance(value, type) and value.__module__ == name:
                    yield value


def rebind(orig, wrapper) -> int:
    """Point every name bound to `orig` at `wrapper`; return how many."""
    count = 0
    for ns in list(_namespaces()):
        for attr, value in list(vars(ns).items()):
            if value is orig:
                setattr(ns, attr, wrapper)
                count += 1
    return count


class Tracer:
    """Spans and counters of one traced pass; `install` wraps, `uninstall`
    restores every rebound name."""

    def __init__(self):
        self.stats: dict[str, LayerStat] = {}
        self.spans: list[list] = []  # [id, parent, op, name, start, end, attrs]
        self.stack = [0]
        self.counters: dict[tuple, list] = {}  # (parent span, layer) -> [calls, busy_s]
        self.cache_base: dict[str, tuple] = {}
        self._restore: list[tuple] = []

    def stat(self, key: str) -> LayerStat:
        if key not in self.stats:
            self.stats[key] = LayerStat()
        return self.stats[key]

    # -- spans ------------------------------------------------------------------

    def open(self, name: str, **attrs) -> list:
        """Start a span under the open one; `op` is the id of the root span
        (the op) it belongs to."""
        sid, parent = len(self.spans) + 1, self.stack[-1]
        op = self.spans[parent - 1][2] if parent else sid
        span = [sid, parent, op, name, perf_counter(), None, attrs]
        self.spans.append(span)
        self.stack.append(sid)
        return span

    def close(self, span: list) -> float:
        span[5] = perf_counter()
        self.stack.pop()
        return span[5] - span[4]

    # -- wrappers ---------------------------------------------------------------

    def _span_wrapper(self, orig, key, name):
        stat = self.stat(key)
        distinct = DISTINCT_KEYS.get(key)
        tracer = self

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            stat.calls += 1
            if distinct is not None:
                stat.inputs.add(distinct(*args, **kwargs))
            span = tracer.open(name)
            stat.depth += 1
            try:
                return orig(*args, **kwargs)
            finally:
                stat.depth -= 1
                elapsed = tracer.close(span)
                if stat.depth == 0:
                    stat.busy += elapsed

        return wrapper

    def _counter_wrapper(self, orig, key, _name):
        stat = self.stat(key)
        counters = self.counters
        stack = self.stack
        measure_mul = key == "superring.mul"

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            stat.depth += 1
            t0 = perf_counter()
            try:
                out = orig(*args, **kwargs)
            finally:
                elapsed = perf_counter() - t0
                stat.depth -= 1
            stat.calls += 1
            if stat.depth == 0:
                stat.busy += elapsed
            slot = counters.get((stack[-1], key))
            if slot is None:
                slot = counters[(stack[-1], key)] = [0, 0.0]
            slot[0] += 1
            slot[1] += elapsed
            if measure_mul:
                a, b = args
                if isinstance(b, SuperPoly):
                    stat.pairs += len(a._terms) * len(b._terms)
                if isinstance(out, SuperPoly):
                    stat.coeffs += len(out._terms)
                    stat.int_coeffs += sum(1 for c in out._terms.values() if c.denominator == 1)
            return out

        return wrapper

    def install(self):
        for make, table in ((self._span_wrapper, SPANNED), (self._counter_wrapper, COUNTED)):
            for owner, attr, key in table:
                orig = vars(owner)[attr]
                wrapper = make(orig, key, f"{owner.__name__.rsplit('.', 1)[-1]}.{attr}")
                if rebind(orig, wrapper) == 0:
                    raise RuntimeError(f"no name bound to {owner.__name__}.{attr}")
                self._restore.append((orig, wrapper))
        for key, cached in CACHES.items():
            self.cache_base[key] = cached.cache_info()[:2]

    def uninstall(self):
        for orig, wrapper in reversed(self._restore):
            rebind(wrapper, orig)
        self._restore.clear()

    # -- results ----------------------------------------------------------------

    def layer_metrics(self) -> dict:
        """Per-layer metrics of this pass, keyed by their benchmark name."""
        out = {}
        for key, stat in self.stats.items():
            out[f"{key}.calls"] = stat.calls
            out[f"{key}.busy_s"] = stat.busy
            if key in DISTINCT_KEYS:
                out[f"{key}.distinct_share"] = len(stat.inputs) / stat.calls if stat.calls else 0.0
        mul = self.stats["superring.mul"]
        out["superring.mul.term_pairs"] = mul.pairs
        out["superring.mul.int_share"] = mul.int_coeffs / mul.coeffs if mul.coeffs else 0.0
        for key, cached in CACHES.items():
            hits0, misses0 = self.cache_base[key]
            hits, misses = cached.cache_info()[:2]
            lookups = (hits - hits0) + (misses - misses0)
            out[f"{key}.hit_ratio"] = (hits - hits0) / lookups if lookups else 0.0
        return out

    def span_records(self) -> list[dict]:
        """Spans with self time and the counters aggregated under each."""
        child_time: dict[int, float] = {}
        for _sid, parent, _op, _name, start, end, _attrs in self.spans:
            child_time[parent] = child_time.get(parent, 0.0) + (end - start)
        counters: dict[int, dict] = {}
        for (parent, key), (calls, busy) in self.counters.items():
            counters.setdefault(parent, {})[key] = {"calls": calls, "busy_s": busy}
        return [
            {
                "id": sid,
                "parent": parent,
                "op": op,
                "name": name,
                "start_s": start,
                "duration_s": end - start,
                "self_s": (end - start) - child_time.get(sid, 0.0),
                "counters": counters.get(sid, {}),
                **attrs,
            }
            for sid, parent, op, name, start, end, attrs in self.spans
        ]


def exact_counts(metrics: dict) -> dict:
    """The subset of per-layer metrics that must repeat exactly."""
    return {k: v for k, v in metrics.items() if any(k.endswith(s) for s in COUNT_SUFFIXES)}
