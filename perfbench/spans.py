"""Layer spans for a traced rfactor run, installed from outside the package.

Every rfactor module imports its helpers by name, so a layer function is
bound in several module namespaces (``linop.compose``, ``verify.compose``,
``sl2core.compose`` ...).  ``install`` replaces every such binding, and every
reference held in a module-level table, with a wrapper that records CPU time
(``time.process_time``) and a few exact counters.

Layers: ``linop`` tabulation, pipeline, composition, addition/scaling,
elimination, zero tests and dense matrices; ``polyspace`` basis enumeration;
every public ``sl2core``/``sl3core`` function (``sl2_lax``/``sl3_lax`` apart);
``verify.intertwiner_oracle``; and ``verify.run_one`` as the root, whose
self time is the check CPU that no layer covers.

A span's self time is its duration minus the durations of the spans it
encloses.  Counters are computed after the wrapped call returns; that
bookkeeping is charged to no layer, so self times measure the layer code
alone.  Per-monomial hot paths (``diffop_apply``, ``comb_add_into``,
``Fraction``) are deliberately not wrapped: a span there would cost more than
the work it times.
"""

from __future__ import annotations

import functools
import sys
import time
import types
from collections import Counter, defaultdict

ROOT = "verify.run_one"

LINOP_LAYERS = {
    "op_from_action": "linop.tabulate",
    "run_pipeline": "linop.pipeline",
    "compose": "linop.compose",
    "op_add": "linop.add",
    "op_scale": "linop.add",
    "int_echelon_nullspace": "linop.echelon",
    "is_zero": "linop.zero_test",
    "mat_eye": "linop.dense",
    "mat_mul": "linop.dense",
    "mat_add": "linop.dense",
    "mat_sub": "linop.dense",
    "mat_scale": "linop.dense",
    "mat_is_zero": "linop.dense",
    "mat_inv": "linop.dense",
    "kron": "linop.dense",
}

POLYSPACE_LAYERS = {
    "enumerate_basis": "polyspace.enumerate",
    "tensor_basis": "polyspace.enumerate",
}

VERIFY_LAYERS = {
    "run_one": ROOT,
    "intertwiner_oracle": "verify.oracle_assemble",
}


def _coeff_bits(op):
    best = 0
    for col in op.cols.values():
        for v in col.values():
            best = max(best, v.numerator.bit_length(), v.denominator.bit_length())
    return best


class Tracer:
    """Per-layer self time, call counts and exact counters of one process."""

    def __init__(self):
        self.self_s = defaultdict(float)
        self.calls = Counter()
        self.counts = Counter()
        self.maxima = Counter()
        self._stack = []
        self._echelon = None

    # -- counters computed after a call returns -----------------------------

    def _after_tabulate(self, args, kwargs, op):
        heights = op.domain.heights
        self.counts["linop.tabulate.cols"] += len(heights)
        self.counts["linop.tabulate.useful_cols"] += sum(
            1 for h in heights if h <= op.certified
        )

    def _after_pipeline(self, args, kwargs, op):
        self.counts["linop.pipeline.cols"] += sum(
            1 for h in op.domain.heights if h <= op.certified
        )
        bits = _coeff_bits(op)
        self.maxima["linop.coeff_bits.max"] = max(
            self.maxima["linop.coeff_bits.max"], bits
        )

    def _after_compose(self, args, kwargs, op):
        a, b = args
        heights = b.domain.heights
        madds = 0
        for i, bc in b.cols.items():
            if heights[i] > op.certified:
                continue
            for k in bc:
                madds += len(a.cols.get(k, ()))
        self.counts["linop.compose.madds"] += madds

    def _after_echelon(self, args, kwargs, sols):
        echelon = self._echelon or {}
        self._echelon = None
        self.counts["linop.echelon.rank"] += len(echelon)
        bits = max(
            (abs(v).bit_length() for row in echelon.values() for v in row.values()),
            default=0,
        )
        self.maxima["linop.echelon.max_bits"] = max(
            self.maxima["linop.echelon.max_bits"], bits
        )

    def _after_tensor(self, args, kwargs, basis):
        if len(basis) > self.maxima["polyspace.pair_size"]:
            self.maxima["polyspace.pair_size"] = len(basis)
            self.maxima["polyspace.pair_certified"] = sum(
                1 for h in basis.heights if h <= basis.cert_cap
            )

    # -- wrappers -----------------------------------------------------------

    def span(self, layer, fn, after=None):
        """Wrap fn in a span named layer; `after(args, kwargs, result)` runs
        outside the span's self time."""
        clock = time.process_time
        stack = self._stack
        self_s, calls = self.self_s, self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            inner = [0.0]
            stack.append(inner)
            t0 = clock()
            done = False
            try:
                out = fn(*args, **kwargs)
                done = True
            finally:
                t1 = clock()
                stack.pop()
                self_s[layer] += t1 - t0 - inner[0]
                calls[layer] += 1
                if done and after is not None:
                    after(args, kwargs, out)
                if stack:
                    stack[-1][0] += clock() - t0
            return out

        return wrapper

    def _echelon_hook(self, fn):
        counts = self.counts

        @functools.wraps(fn)
        def insert(row, echelon):
            self._echelon = echelon
            counts["linop.echelon.rows"] += 1
            return fn(row, echelon)

        return insert

    def _plan(self, rfactor):
        """original function -> wrapper, for every function given a layer."""
        linop = rfactor.linop
        after = {
            linop.op_from_action: self._after_tabulate,
            linop.run_pipeline: self._after_pipeline,
            linop.compose: self._after_compose,
            linop.int_echelon_nullspace: self._after_echelon,
            rfactor.polyspace.tensor_basis: self._after_tensor,
        }
        layers = {}
        for module, table in (
            (linop, LINOP_LAYERS),
            (rfactor.polyspace, POLYSPACE_LAYERS),
            (rfactor.verify, VERIFY_LAYERS),
        ):
            layers.update((getattr(module, n), layer) for n, layer in table.items())
        for module in (rfactor.sl2core, rfactor.sl3core):
            short = module.__name__.rpartition(".")[2]
            for n, fn in vars(module).items():
                if (
                    isinstance(fn, types.FunctionType)
                    and fn.__module__ == module.__name__
                    and not n.startswith("_")
                ):
                    lax = n == short.replace("core", "_lax")
                    layers[fn] = f"{short}.lax" if lax else short
        plan = {fn: self.span(layer, fn, after.get(fn)) for fn, layer in layers.items()}
        plan[linop._echelon_insert] = self._echelon_hook(linop._echelon_insert)
        return plan

    def install(self):
        """Rebind every rfactor reference to a layer function: module
        attributes and function tuples held in module-level tables."""
        import rfactor.cli  # noqa: F401  (loads every rfactor module)

        plan = self._plan(sys.modules["rfactor"])

        def planned(value):
            return isinstance(value, types.FunctionType) and value in plan

        for name, module in list(sys.modules.items()):
            if not name.startswith("rfactor.") or module is None:
                continue
            for attr, value in list(vars(module).items()):
                if planned(value):
                    setattr(module, attr, plan[value])
                elif isinstance(value, dict) and not attr.startswith("__"):
                    for key, entry in list(value.items()):
                        if isinstance(entry, tuple) and any(map(planned, entry)):
                            value[key] = tuple(
                                plan[e] if planned(e) else e for e in entry
                            )

    def summary(self):
        """Flat {metric: value} of everything this tracer measured."""
        out = {}
        for layer, s in self.self_s.items():
            out[f"{layer}.self_s"] = s
        for layer, n in self.calls.items():
            out[f"{layer}.calls"] = n
        out.update(self.counts)
        out.update(self.maxima)
        return out
