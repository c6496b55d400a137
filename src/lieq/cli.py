"""Command-line entry point.

One binary, subcommand style.  Every machine-readable output carries
"format": "lieq-1"; exit code 0 means every reported item passed, 1 means
at least one failed (or the reader closed stdout), 2 is a usage error
(argparse's default).

Each command is usually its own fresh process, so start-up is part of
every call.  This module therefore imports at its top only what every
command needs (``exactnum``, ``liealg``, ``linalg``, which ``lieq``
loads anyway); each command and each helper imports the engine modules it
runs when it is called.  A new subcommand imports its engine the same way.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
import time
from typing import TYPE_CHECKING, Callable

from .exactnum import GaussRat, LieqError
from .liealg import LieAlgebra
from .linalg import SparseMatrix

if TYPE_CHECKING:  # names used in annotations only
    import random

    from . import fock


class Report:
    """The (name, expected, actual, verdict) items of one command; the
    clock starts when the report is created."""

    def __init__(self, command: str):
        self.command = command
        self.items: list = []
        self.timing_ms = 0
        self.started = time.monotonic()

    def add(self, name, expected, actual, ok: bool | None = None):
        if ok is None:
            ok = expected == actual
        self.items.append((str(name), expected, actual, "pass" if ok else "fail"))

    @property
    def status(self) -> str:
        return "pass" if all(v == "pass" for *_, v in self.items) else "fail"

    def to_doc(self) -> dict:
        return {
            "format": "lieq-1",
            "command": self.command,
            "status": self.status,
            "timing_ms": self.timing_ms,
            "items": [
                {"name": n, "expected": _plain(e), "actual": _plain(a), "verdict": v}
                for n, e, a, v in self.items
            ],
        }

    def render_text(self) -> str:
        lines = [f"{self.command}: {self.status} ({len(self.items)} checks, {self.timing_ms} ms)"]
        width = max((len(n) for n, *_ in self.items), default=0)
        for name, expected, actual, verdict in self.items:
            if verdict != "pass":
                lines.append(
                    f"  {name:<{width}}  FAIL  expected={_plain(expected)} actual={_plain(actual)}"
                )
            elif expected is None and actual is not None:
                lines.append(f"  {name:<{width}}  pass  {_plain(actual)}")
            else:
                lines.append(f"  {name:<{width}}  pass")
        return "\n".join(lines)


def _plain(value):
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _plain(v) for k, v in value.items()}
    if hasattr(value, "_asdict"):
        return _plain(value._asdict())
    return str(value)


def _emit(args, payload: dict, text: Callable[[], str]) -> None:
    """Print the payload as JSON or the text, and flush, so that a closed
    stdout shows while the command still runs.  The text is built only
    when it is printed."""
    print(json.dumps(payload, indent=2, sort_keys=True) if args.json else text(), flush=True)


def _finish(args, report: Report, extra: dict | None = None) -> int:
    """Stamp the time since the report was created, print it (with any
    extra top-level JSON fields) and return the exit code."""
    report.timing_ms = int((time.monotonic() - report.started) * 1000)
    _emit(args, {**report.to_doc(), **(extra or {})}, report.render_text)
    return 0 if report.status == "pass" else 1


def _load_algebra(spec: str) -> LieAlgebra:
    if os.path.exists(spec):
        with open(spec, "r", encoding="utf-8") as handle:
            return LieAlgebra.from_doc(json.load(handle))
    from . import catalog

    return catalog.get(spec).algebra


def _size_cap() -> int:
    from .qheis import DEFAULT_SIZE_CAP

    raw = os.environ.get("LIEQ_SIZE_CAP")
    return int(raw) if raw else DEFAULT_SIZE_CAP


def _matrix_doc(mat: SparseMatrix) -> dict:
    triplets = [[r + 1, c + 1, str(v)] for r, c, v in mat.entries()]
    return {"n": mat.n, "entries": triplets}


# -- subcommands --------------------------------------------------------------


def cmd_catalog(args) -> int:
    from . import catalog

    if args.action == "list":
        names = catalog.list_names()
        _emit(args, {"format": "lieq-1", "names": names}, lambda: "\n".join(names))
        return 0
    if args.name is None:
        raise ValueError("catalog show needs an algebra name")
    entry = catalog.get(args.name)
    doc = entry.algebra.to_doc()
    doc["notes"] = entry.notes

    def text() -> str:
        lines = [f"{entry.name}  (dim {entry.algebra.dim})  {entry.notes}"]
        for item in doc["brackets"]:
            out = " + ".join(
                (f"{v}*" if v != "1" else "") + entry.algebra.labels[int(k) - 1]
                for k, v in item["out"].items()
            )
            lines.append(
                f"  [{entry.algebra.labels[item['i'] - 1]}, {entry.algebra.labels[item['j'] - 1]}] = {out}"
            )
        return "\n".join(lines)

    _emit(args, doc, text)
    return 0


def cmd_algebra(args) -> int:
    report = Report("algebra")
    g = _load_algebra(args.algebra)
    witness = g.check_jacobi()
    if witness is not None:  # no signature: its cohomology needs a Lie algebra
        shown = {
            "triple": [x + 1 for x in witness.triple],
            "residual": {str(k + 1): str(v) for k, v in sorted(witness.residual.items())},
        }
        report.add("jacobi", None, shown, False)
        return _finish(args, report)
    report.add("jacobi", None, None)
    sig = g.invariant_signature()
    for key, value in sig._asdict().items():
        report.add(key, _plain(value), _plain(value), ok=True)
    return _finish(args, report)


def cmd_cohomology(args) -> int:
    from . import cohomology

    report = Report("cohomology")
    if args.k is not None and args.k < 0:
        raise ValueError(f"--k must be a non-negative degree, got {args.k}")
    g = _load_algebra(args.algebra)
    if args.coeffs == "ad":
        rep = cohomology.adjoint_rep(g)
    else:
        rep = cohomology.trivial_rep(g)
    complex_ = cohomology.CochainComplex(g, rep)
    degrees = [args.k] if args.k is not None else list(range(g.dim + 1))
    for k in degrees:
        z = complex_.cocycle_dim(k)
        b = complex_.coboundary_dim(k)
        report.add(f"H^{k}", None, {"dim_Z": z, "dim_B": b, "dim_H": z - b}, ok=True)
    return _finish(args, report)


def cmd_deform_check(args) -> int:
    from . import cohomology, deform

    report = Report("deform check")
    g = _load_algebra(args.algebra)
    phis = []
    for path in [args.phi] + (args.phi2 or []):
        with open(path, "r", encoding="utf-8") as handle:
            phis.append(cohomology.Cochain.from_doc(g, json.load(handle)))
    try:
        d = deform.DeformedBracket(g, tuple(phis))
    except deform.SourceMismatch as err:  # a document of the wrong shape
        raise ValueError(str(err)) from None
    expansion = deform.jacobi_polynomial(d)
    for degree in range(2 * d.order + 1):
        offenders = [
            tuple(x + 1 for x in triple) for triple, table in expansion.items() if degree in table
        ]
        report.add(
            f"t^{degree}",
            "0",
            "0" if not offenders else f"residual on triples {offenders}",
            not offenders,
        )
    defect = deform._least_defect(expansion)
    if defect is None:
        report.add("graded_jacobi", None, None, True)
    else:
        shown = {
            "triple": [x + 1 for x in defect.triple],
            "degree": defect.degree,
            "residual": {str(k + 1): str(v) for k, v in defect.residual.items()},
        }
        report.add("graded_jacobi", None, shown, False)
    return _finish(args, report)


def cmd_rigidity(args) -> int:
    from . import deform

    report = Report("rigidity")
    g = _load_algebra(args.algebra)
    rr = deform.rigidity_report(g)
    for key, value in rr.to_doc().items():
        report.add(key, None, value, ok=True)
    return _finish(args, report)


def cmd_extend(args) -> int:
    from . import cohomology, extend

    g = _load_algebra(args.algebra)
    cohomology.require_jacobi(g)
    with open(args.cocycle, "r", encoding="utf-8") as handle:
        theta = extend.CentralCocycle.from_doc(g, json.load(handle))
    bigger = extend.central_extension(g, theta)
    doc = bigger.to_doc()
    _emit(args, doc, lambda: json.dumps(doc, indent=2))
    return 0


def _round_trip(g: LieAlgebra):
    """(quotient, theta, ok): g / Z(g) with the induced cocycle, and whether
    the central extension they define has the signature of g."""
    from . import extend

    quot, theta = extend.induced_cocycle(g)
    rebuilt = extend.central_extension(quot.algebra, theta)
    return quot, theta, rebuilt.invariant_signature() == g.invariant_signature()


def cmd_reconstruct(args) -> int:
    from . import cohomology

    report = Report("reconstruct")
    g = _load_algebra(args.algebra)
    cohomology.require_jacobi(g)
    quot, theta, ok = _round_trip(g)
    report.add("round_trip_signature", True, ok)
    return _finish(args, report, {"quotient": quot.algebra.to_doc(), "cocycle": theta.to_doc()})


def cmd_qheis_normalize(args) -> int:
    from . import qheis

    expr = qheis.parse_qexpr(args.expr, _size_cap())
    q_value = GaussRat(args.q) if args.q is not None else None
    nf = qheis.normal_order(expr, q_value)
    doc = {
        "format": "lieq-1",
        "normal_form": {f"{m},{n}": poly.to_doc() for (m, n), poly in sorted(nf.coeffs.items())},
    }
    _emit(args, doc, lambda: str(nf))
    return 0


def _q_identity_items(top: int):
    """(name, ok) for each q-identity check up to size ``top``, lazily, so a
    caller that only wants the conjunction stops at the first failure."""
    from . import qheis

    for n in range(1, min(top, 20) + 1):
        yield (f"binomial_recursion_vs_closed n={n}",
               all(qheis.q_binomial(n, k) == qheis.q_binomial_closed(n, k) for k in range(n + 1)))
    for n in range(1, top + 1):
        yield f"powandprod n={n}", qheis.verify_powandprod(n)
    for q0 in ("-1", "-1/2", "1/3", "2"):
        yield (f"powandprod_reciprocal q={q0}",
               all(qheis.verify_powandprod_reciprocal(n, GaussRat(q0))
                   for n in range(1, min(top, 8) + 1)))
    for n in range(1, min(top, 6) + 1):
        yield f"bnan n={n}", qheis.verify_generalized_jacobi("bnan", n)
        yield f"anbn n={n}", qheis.verify_generalized_jacobi("anbn", n)
    yield ("bracketBmAn m,n<=6",
           all(qheis.verify_generalized_jacobi("bracketBmAn", n, m)
               for m in range(1, 7) for n in range(1, 7)))
    yield ("q_zero_table n,m<=8",
           all(qheis.q_zero_products(n, m) == qheis.q_zero_expected(n, m)
               for n in range(1, 9) for m in range(1, 9)))
    for which in qheis._FREE_ITEMS:
        yield f"free_{which}", qheis.free_identity_check(which)
    yield ("subset_sum n<=8",
           all(bool(qheis.subset_sum_binomial_check(n, k))
               for n in range(1, 9) for k in range(n + 1)))


def cmd_qheis_verify(args) -> int:
    report = Report("qheis verify")
    if args.max_n < 0:
        raise ValueError(f"--max-n must be a non-negative size, got {args.max_n}")
    for name, ok in _q_identity_items(args.max_n):
        report.add(name, True, ok)
    return _finish(args, report)


def cmd_fock_build(args) -> int:
    from . import fock

    n = args.n
    if n * n > _size_cap():
        raise fock.SizeCap(f"{n}x{n} matrix exceeds LIEQ_SIZE_CAP")
    if args.mode == "float":
        doc = {
            "format": "lieq-1",
            "mode": "float",
            "n": n,
            "superdiagonal": fock.orthonormal_rep_float(_as_float(args.q), n),
        }
        _emit(args, doc, lambda: "\n".join(str(x) for x in doc["superdiagonal"]))
        return 0
    q0 = GaussRat(args.q)
    a, b = fock.monomial_rep(q0, n)
    doc = {
        "format": "lieq-1",
        "mode": "exact",
        "q": args.q,
        "n": n,
        "lowering": _matrix_doc(a),
        "raising": _matrix_doc(b),
    }
    _emit(args, doc, lambda: json.dumps(doc, indent=2))
    return 0


def _as_float(text: str) -> float:
    value = GaussRat(text)
    if value.im:
        raise ValueError(f"float mode needs a real q, got {text!r}")
    return float(value.re)


def _truncation_items(q0: GaussRat, n: int):
    """(name, ok) for the size-n monomial pair: the q-CCR defect sits in the
    corner only, and the number operator has the closed-form spectrum."""
    from . import fock

    a, b = fock.monomial_rep(q0, n)
    yield "defect_corner_only", fock.defect_is_corner_only(fock.qccr_defect(a, b, q0), q0)
    yield ("spectrum_closed_form",
           fock.number_operator_spectrum(a, b) == fock.spectrum_closed_form(q0, n))


def _biorthogonal_items(system: fock.BiorthogonalSystem):
    """(name, ok): the pairing matrix is the identity, and each squared
    ladder coefficient is {m+1}_q."""
    from . import qheis

    yield "biorthogonality", system.pairing_matrix() == SparseMatrix.identity(system.n)
    rungs = qheis.q_integers_at(system.n - 1, system.q0)[1:]
    yield "squared_ladder", system.squared_ladder_coefficients() == rungs


def cmd_fock_verify(args) -> int:
    from . import fock

    report = Report("fock verify")
    q0 = GaussRat(args.q)
    n = args.n
    if n * n > _size_cap():
        raise fock.SizeCap(f"{n}x{n} matrix exceeds LIEQ_SIZE_CAP")
    for name, ok in _truncation_items(q0, n):
        report.add(name, True, ok)
    weights = [GaussRat(k + 1) for k in range(min(n, 12))]
    try:
        for name, ok in _biorthogonal_items(fock.biorthogonal_pair(weights, q0)):
            report.add(name, True, ok)
    except LieqError as err:
        report.add("biorthogonality", "constructible", str(err), ok=False)
    return _finish(args, report)


def _defects_on_top_degree(ct: fock.CuntzToeplitz) -> bool:
    """Every isometry defect l_i+ l_j - delta_ij I lives on top-degree words."""
    return all(ct.defect_supported_on_top_degree(i, j) for i in range(ct.d) for j in range(ct.d))


def cmd_fock_cuntz(args) -> int:
    from . import fock

    report = Report("fock cuntz")
    ct = fock.cuntz_toeplitz(args.d, args.depth, _size_cap())
    report.add("dim", None, ct.dim, ok=True)
    report.add("isometry_defect_top_degree_only", True, _defects_on_top_degree(ct))
    return _finish(args, report)


# -- the verify-all battery ---------------------------------------------------
#
# Each entry takes an rng and yields the (name, expected, actual) items of
# one group of checks.  verify-all runs the entries of _BATTERY in report
# order with one rng; the acceptance tests (tests/test_acceptance.py) run
# the entries of each criterion under that criterion's time budget.


def _verify_catalog(rng):
    """catalog.verify_all: Jacobi and the expected invariants of every
    entry, the documented coincidences and the 36 distinct dim-5 pairs."""
    from . import catalog

    yield "catalog", "pass", "pass" if all(item.ok for item in catalog.verify_all()) else "fail"


def _verify_sl2(rng):
    """Der = Inn (so H^1 = 0), H^2 = 0 and the rigidity numbers of sl2."""
    from . import catalog, deform

    sl2 = catalog.get("sl2").algebra
    rr = deform.rigidity_report(sl2)
    # dim Der = n^2 - rank d_1 = n^2 - orbit tangent dim; dim Inn = n - dim Z(g)
    der = sl2.dim * sl2.dim - rr.orbit_tangent_dim
    yield "sl2_der_inn", (3, 3), (der, sl2.dim - sl2.center().dim)
    yield "sl2_h2", 0, rr.dim_h2
    yield ("sl2_rigidity", (6, 6, True, True),
           (rr.orbit_tangent_dim, rr.dim_b2, rr.nr_rigid, rr.tangent_equals_b2))


def _verify_d_squared_zero(rng):
    """d^2 = 0 in every degree, adjoint and trivial coefficients, across
    the catalog."""
    from . import catalog, cohomology

    ok = True
    for name in catalog.list_names():
        g = catalog.get(name).algebra
        for rep in (cohomology.adjoint_rep(g), cohomology.trivial_rep(g, 1)):
            complex_ = cohomology.CochainComplex(g, rep)
            for k in range(g.dim + 1):
                ok = ok and complex_.d_squared_zero(k)
    yield "d_squared_zero", True, ok


def _verify_skjelbred_sund_round_trip(rng):
    """Every nilpotent catalog entry with a center is the central extension
    of g / Z(g) by its induced cocycle, and 20 random coboundary shifts of
    that cocycle each give an isomorphic extension (coboundary_shift_iso
    raises when its map fails to intertwine)."""
    from . import catalog, cohomology, extend

    ok = True
    for name in catalog.list_names():
        g = catalog.get(name).algebra
        if g.is_nilpotent() is None or g.center().dim == 0 or g.dim == 0:
            continue
        quot, theta, same = _round_trip(g)
        ok = ok and same
        base = quot.algebra
        for _ in range(20 if base.dim else 0):
            coords = {}
            for i in range(base.dim):
                vec = {k: GaussRat(rng.randint(-5, 5)) for k in range(theta.target_dim)}
                vec = {k: v for k, v in vec.items() if v}
                if vec:
                    coords[(i,)] = vec
            shift = cohomology.Cochain(base, 1, theta.target_dim, coords)
            extend.coboundary_shift_iso(base, theta, shift)
    yield "skjelbred_sund_round_trip", True, ok


def _verify_deformation(rng):
    """g_0 + t phi is Lie when the base is abelian and phi holds catalog
    brackets; the cyclic-cocycle counterexample on h(1) passes the cyclic
    test and fails Jacobi at degree 1."""
    from . import catalog, cohomology, deform
    from .liealg import abelian

    defect = None
    for name in ("h(1)", "n_4_3", "n_5_6", "n_5_9", "sl2", "a_sh"):
        g = catalog.get(name).algebra
        base = abelian(g.dim)
        phi = cohomology.Cochain(base, 2, g.dim, {p: dict(v) for p, v in g.brackets.items()})
        if defect is None:
            defect = deform.deformation_is_lie(deform.make_linear_deformation(base, phi))
    yield "zero_base_deformation", None, defect
    h1 = catalog.get("h(1)").algebra
    counter = cohomology.Cochain(h1, 2, 3, {(0, 2): {0: 1}})
    yield ("cyclic_cocycle_counterexample_passes_cycle", True,
           cohomology.is_two_cocycle_trivial_coeffs(counter))
    defect = deform.deformation_is_lie(deform.make_linear_deformation(h1, counter))
    yield "cyclic_cocycle_counterexample_fails_full", True, defect is not None and defect.degree == 1


def _verify_q_identity_suite(rng):
    """Every q-identity check of qheis verify --max-n 20."""
    yield "q_identity_suite", True, all(passed for _, passed in _q_identity_items(20))


def _verify_fock_interior_exactness(rng):
    """The truncation checks of fock verify at five q and n = 8, 32, 64."""
    ok = all(
        passed
        for q_text in ("-1", "-1/2", "0", "1/3", "1")
        for n in (8, 32, 64)
        for _, passed in _truncation_items(GaussRat(q_text), n)
    )
    yield "fock_interior_exactness", True, ok


def _verify_biorthogonality(rng):
    """Five random biorthogonal systems at q = 1 and five at q = 1/2, of
    2 to 32 weights a/b with 1 <= a, b <= 60."""
    from . import fock

    ok = True
    for q_text in ("1", "1/2"):
        q0 = GaussRat(q_text)
        for _ in range(5):
            weights = [GaussRat(rng.randint(1, 60)) / GaussRat(rng.randint(1, 60))
                       for _ in range(rng.randint(2, 32))]
            system = fock.biorthogonal_pair(weights, q0)
            ok = ok and all(passed for _, passed in _biorthogonal_items(system))
    yield "biorthogonality", True, ok


def _verify_shifted_pair(rng):
    """The shifted pseudoboson pair's commutator constants are a_sh's."""
    from . import catalog, fock

    sp = fock.shifted_pair(GaussRat(1), GaussRat(0, 1), 8)
    ash = catalog.get("a_sh").algebra
    expected = {pair: vec.get(4) for pair, vec in ash.brackets.items()}
    yield "shifted_pair_matches_a_sh", True, sp.extracted_constants() == expected


def _verify_similarity_transport(rng):
    """The CAR pair conjugated by 25 random invertible 2x2 matrices stays
    exact, and the size-8 monomial pair at three q transports its defect."""
    from . import fock

    c, cdag = fock.car_pair_2x2()
    ok = (c @ cdag + cdag @ c) == SparseMatrix.identity(2)
    for _ in range(25):
        result = fock.similarity_transport([(c, cdag)], _random_invertible(rng, 2), GaussRat(-1))
        ok = ok and result.conjugation_exact and result.defects_transported[(0, 0)].is_zero()
    for q_text in ("0", "1/3", "1"):
        q0 = GaussRat(q_text)
        a, b = fock.monomial_rep(q0, 8)
        result = fock.similarity_transport([(a, b)], _random_invertible(rng, 8), q0)
        ok = ok and result.conjugation_exact
    yield "similarity_transport", True, ok


def _verify_cuntz_toeplitz(rng):
    """At d = 2, 3 and depth 1 to 4 every isometry defect lives on
    top-degree words, and l_i+ l_i - I reads -1 on each of them."""
    from . import fock

    ok = True
    for d in (2, 3):
        for depth in range(1, 5):
            ct = fock.cuntz_toeplitz(d, depth, _size_cap())
            top = [w for w, word in enumerate(ct.words) if len(word) == depth]
            diagonals = [ct.isometry_defect(i, i).diagonal() for i in range(d)]
            ok = ok and _defects_on_top_degree(ct) and all(
                diagonal[w] == GaussRat(-1) for diagonal in diagonals for w in top
            )
    yield "cuntz_toeplitz", True, ok


_BATTERY = (
    _verify_catalog,
    _verify_sl2,
    _verify_d_squared_zero,
    _verify_skjelbred_sund_round_trip,
    _verify_deformation,
    _verify_q_identity_suite,
    _verify_fock_interior_exactness,
    _verify_biorthogonality,
    _verify_shifted_pair,
    _verify_similarity_transport,
    _verify_cuntz_toeplitz,
)


def cmd_verify_all(args) -> int:
    import random

    report = Report("verify-all")
    rng = random.Random(args.seed)
    for entry in _BATTERY:
        try:
            for name, expected, actual in entry(rng):
                report.add(name, expected, actual)
        except LieqError as err:  # a check that raises fails under its entry's name
            report.add(entry.__name__.removeprefix("_verify_"), "no error",
                       f"{type(err).__name__}: {err}")
    return _finish(args, report)


def _random_invertible(rng: random.Random, n: int) -> SparseMatrix:
    while True:
        data = {}
        for r in range(n):
            for c in range(n):
                if rng.random() < 0.7:
                    value = GaussRat(rng.randint(-5, 5))
                    if value:
                        data[(r, c)] = value
        mat = SparseMatrix(n, data)
        if mat.inverse() is not None:
            return mat


# -- wiring --------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """ArgumentParser that treats tokens like -1/2 as values, not flags."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-\d+(/\d+)?$")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="lieq", description=__doc__)
    # --json goes on the commands that print, after the subcommand; a group
    # such as qheis or fock takes no option of its own
    leaf = argparse.ArgumentParser(add_help=False)
    leaf.add_argument("--json", action="store_true", help="machine-readable output")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("catalog", parents=[leaf], help="browse the built-in algebra library")
    p.add_argument("action", choices=["list", "show"])
    p.add_argument("name", nargs="?")
    p.set_defaults(func=cmd_catalog)

    p = sub.add_parser("algebra", parents=[leaf], help="invariants of an algebra")
    p.add_argument("--algebra", required=True)
    p.set_defaults(func=cmd_algebra)

    p = sub.add_parser("cohomology", parents=[leaf], help="Betti numbers")
    p.add_argument("--algebra", required=True)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--coeffs", choices=["ad", "trivial"], default="ad")
    p.set_defaults(func=cmd_cohomology)

    p = sub.add_parser("deform", parents=[leaf], help="deformation checks")
    p.add_argument("action", choices=["check"])
    p.add_argument("--algebra", required=True)
    p.add_argument("--phi", required=True)
    p.add_argument("--phi2", action="append")
    p.set_defaults(func=cmd_deform_check)

    p = sub.add_parser("rigidity", parents=[leaf], help="rigidity report")
    p.add_argument("--algebra", required=True)
    p.set_defaults(func=cmd_rigidity)

    p = sub.add_parser("extend", parents=[leaf], help="central extension by a cocycle")
    p.add_argument("--algebra", required=True)
    p.add_argument("--cocycle", required=True)
    p.set_defaults(func=cmd_extend)

    p = sub.add_parser("reconstruct", parents=[leaf], help="quotient + induced cocycle round trip")
    p.add_argument("--algebra", required=True)
    p.set_defaults(func=cmd_reconstruct)

    p = sub.add_parser("qheis", help="q-deformed Heisenberg algebra")
    qsub = p.add_subparsers(dest="qaction", required=True)
    pn = qsub.add_parser("normalize", parents=[leaf])
    pn.add_argument("expr")
    pn.add_argument("--q", default=None)
    pn.set_defaults(func=cmd_qheis_normalize)
    pv = qsub.add_parser("verify", parents=[leaf])
    pv.add_argument("--max-n", type=int, default=12)
    pv.set_defaults(func=cmd_qheis_verify)

    p = sub.add_parser("fock", help="truncated ladder operators")
    fsub = p.add_subparsers(dest="faction", required=True)
    pb = fsub.add_parser("build", parents=[leaf])
    pb.add_argument("--q", required=True)
    pb.add_argument("--n", type=int, required=True)
    pb.add_argument("--mode", choices=["exact", "float"], default="exact")
    pb.set_defaults(func=cmd_fock_build)
    pv = fsub.add_parser("verify", parents=[leaf])
    pv.add_argument("--q", required=True)
    pv.add_argument("--n", type=int, required=True)
    pv.set_defaults(func=cmd_fock_verify)
    pc = fsub.add_parser("cuntz", parents=[leaf])
    pc.add_argument("--d", type=int, required=True)
    pc.add_argument("--depth", type=int, required=True)
    pc.set_defaults(func=cmd_fock_cuntz)

    p = sub.add_parser("verify-all", parents=[leaf], help="run the full verification battery")
    p.add_argument("--seed", type=int, default=0, help="seed for randomized checks")
    p.set_defaults(func=cmd_verify_all)

    return parser


def run(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # the reader closed stdout: no usage error and no message; devnull
        # takes stdout so that the flush at exit cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except LieqError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except (OSError, ValueError) as err:
        print(f"usage error: {err}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
