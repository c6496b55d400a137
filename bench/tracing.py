"""Spans and counts around calls into lieq's public functions.

Used only by the traced run.  ``install`` wraps each target function in
place, and rebinds every other name in a ``lieq`` module or class that
refers to the same function object (``from .linalg import rank``,
``__radd__ = __add__``), so a call is seen whichever name it goes
through.  ``GaussRat`` is never wrapped: at millions of calls the wrapper
would cost more than the arithmetic it measures.

Spans (name, start, end, parent, request) live in flat arrays and are
written out once, at the end.  Self time is a span's duration minus the
durations of its direct child spans; busy time counts only the outermost
span of a name, so recursion is not counted twice.
"""

from __future__ import annotations

import sys
import time
from array import array
from collections import defaultdict
from typing import Callable

Counter = Callable[[tuple, dict, object], dict]


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_request = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_outer = array("b")
        self.stack = [-1]
        self.active: dict[int, int] = defaultdict(int)
        self.request = -1
        self.counts: dict[str, int] = defaultdict(int)

    def begin_request(self, request: int) -> None:
        self.request = request

    def wrap(self, fn: Callable, name: str, counter: Counter | None = None) -> Callable:
        nid = self.name_ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        clock = time.perf_counter
        span_name, span_parent, span_request = self.span_name, self.span_parent, self.span_request
        span_start, span_end, span_outer = self.span_start, self.span_end, self.span_outer
        stack, active, counts = self.stack, self.active, self.counts

        def traced(*args, **kwargs):
            idx = len(span_name)
            span_name.append(nid)
            span_parent.append(stack[-1])
            span_request.append(self.request)
            span_outer.append(active[nid] == 0)
            span_end.append(0.0)
            stack.append(idx)
            active[nid] += 1
            span_start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                span_end[idx] = clock()
                active[nid] -= 1
                stack.pop()
            if counter is not None:
                for stat, value in counter(args, kwargs, result).items():
                    counts[f"{name}.{stat}"] += value
            return result

        return traced

    def summary(self) -> dict[str, dict[str, float]]:
        """Per traced name: calls, busy_s, self_s."""
        n = len(self.span_name)
        child = [0.0] * n
        for idx in range(n):
            parent = self.span_parent[idx]
            if parent >= 0:
                child[parent] += self.span_end[idx] - self.span_start[idx]
        out = {name: {"calls": 0, "busy_s": 0.0, "self_s": 0.0} for name in self.names}
        for idx in range(n):
            stats = out[self.names[self.span_name[idx]]]
            dur = self.span_end[idx] - self.span_start[idx]
            stats["calls"] += 1
            stats["self_s"] += dur - child[idx]
            if self.span_outer[idx]:
                stats["busy_s"] += dur
        return out

    def write_spans(self, path) -> int:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("name\tstart\tend\tparent\trequest\n")
            for idx in range(len(self.span_name)):
                handle.write(
                    f"{self.names[self.span_name[idx]]}\t{self.span_start[idx]:.9f}\t"
                    f"{self.span_end[idx]:.9f}\t{self.span_parent[idx]}\t{self.span_request[idx]}\n"
                )
        return len(self.span_name)


def _replace_everywhere(owner, attr: str, wrapped: Callable) -> None:
    """Point every lieq-level alias of owner.attr at the wrapper."""
    original = getattr(owner, attr)
    for mod_name, module in list(sys.modules.items()):
        if not (mod_name == "lieq" or mod_name.startswith("lieq.")):
            continue
        for key, value in list(vars(module).items()):
            if value is original:
                setattr(module, key, wrapped)
            elif isinstance(value, type):
                for ckey, cvalue in list(vars(value).items()):
                    if cvalue is original:
                        setattr(value, ckey, wrapped)


# -- what gets traced ------------------------------------------------------------


def _poly_mul_count(args, kwargs, result):
    from lieq.exactnum import LaurentPoly

    self, other = args
    other_terms = len(other.coeffs) if isinstance(other, LaurentPoly) else 1
    return {"term_pairs": len(self.coeffs) * other_terms}


def _divexact_count(args, kwargs, result):
    return {"quot_terms": len(result.coeffs)}


def _rref_count(args, kwargs, result):
    return {"pivots": len(result[0])}


def _columns_count(args, kwargs, result):
    return {"columns": len(result)}


def _letters_count(args, kwargs, result):
    expr = args[0]
    return {"letters_in": sum(len(word) for word in expr.terms)}


def _failed_count(args, kwargs, result):
    return {"failed": int(result != 0)}


def install(tracer: Tracer) -> None:
    """Wrap the public entry points of every layer (lieq must be imported)."""
    from lieq import catalog, cli, cohomology, deform, exactnum, extend, fock, liealg, linalg, qheis

    def put(owner, attr, name, counter=None):
        _replace_everywhere(owner, attr, tracer.wrap(getattr(owner, attr), name, counter))

    put(exactnum.LaurentPoly, "__mul__", "exactnum.poly_mul", _poly_mul_count)
    put(exactnum.LaurentPoly, "__add__", "exactnum.poly_add")
    put(exactnum.LaurentPoly, "divexact", "exactnum.poly_divexact", _divexact_count)

    # rref may be handed a generator: materialize it once to count rows.
    original_rref = linalg.rref
    traced_rref = tracer.wrap(original_rref, "linalg.rref", _rref_count)

    def rref(rows, ncols):
        rows = list(rows)
        tracer.counts["linalg.rref.rows_in"] += sum(1 for r in rows if r)
        return traced_rref(rows, ncols)

    _replace_everywhere(linalg, "rref", rref)
    put(linalg.SparseMatrix, "__matmul__", "linalg.matmul")

    # differential_matrix: also record whether (algebra, k, rep) was
    # already built in the same request.
    original_dm = cohomology.differential_matrix
    traced_dm = tracer.wrap(original_dm, "cohomology.differential_matrix", _columns_count)
    built: list = []
    built_in = [None]

    def differential_matrix(k, g, rep):
        if built_in[0] != tracer.request:
            built.clear()
            built_in[0] = tracer.request
        key = (k, rep.kind, rep.module_dim)
        if any(g2 is g and key2 == key for g2, key2 in built):
            tracer.counts["cohomology.differential_matrix.repeats"] += 1
        else:
            built.append((g, key))
        return traced_dm(k, g, rep)

    _replace_everywhere(cohomology, "differential_matrix", differential_matrix)
    put(cohomology, "derivation_dims", "cohomology.derivation_dims")

    put(liealg.LieAlgebra, "invariant_signature", "liealg.invariant_signature")
    put(liealg.LieAlgebra, "check_jacobi", "liealg.check_jacobi")
    put(deform, "rigidity_report", "deform.rigidity_report")
    put(deform, "deformation_is_lie", "deform.deformation_is_lie")
    put(extend, "central_extension", "extend.central_extension")
    put(extend, "induced_cocycle", "extend.induced_cocycle")
    put(qheis, "normal_order", "qheis.normal_order", _letters_count)
    put(qheis, "q_binomial_closed", "qheis.q_binomial_closed")
    for fn in ("monomial_rep", "qccr_defect", "number_operator_spectrum", "biorthogonal_pair",
               "cuntz_toeplitz"):
        put(fock, fn, f"fock.{fn}")
    put(catalog, "get", "catalog.get")
    put(cli, "run", "cli.run", _failed_count)
