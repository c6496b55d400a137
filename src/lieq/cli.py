"""Command-line entry point.

One binary, subcommand style.  Every machine-readable output carries
"format": "lieq-1"; exit code 0 means every reported item passed, 1 means
at least one failed (or the reader closed stdout), 2 is a usage error
(argparse's default).

Each command is usually its own fresh process, so start-up is part of
every call.  This module therefore imports at its top only what every
command needs (``exactnum``); each command and each helper imports the
modules it runs when it is called, so help texts and usage errors load
no other lieq module, and no q/Fock command loads ``liealg``.  A new
subcommand imports its engine the same way.

(``lieq --help`` shows the three paragraphs above.)  A process also
compiles and builds only the command it runs: ``build_parser`` adds only
that command's subparser, and the verify-all battery, with the check
items that ``qheis verify`` and ``fock verify``/``cuntz`` share with it,
lives in ``checks``, which only those commands import.  Work over
``LIEQ_SIZE_CAP`` raises ``exactnum.SizeCap`` before it starts and exits
2, like any usage error.
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

if TYPE_CHECKING:  # names used in annotations only
    from .liealg import LieAlgebra
    from .linalg import SparseMatrix


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
        from .liealg import LieAlgebra

        with open(spec, "r", encoding="utf-8") as handle:
            return LieAlgebra.from_doc(json.load(handle))
    from . import catalog

    return catalog.get(spec).algebra


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


def cmd_reconstruct(args) -> int:
    from . import cohomology, extend

    report = Report("reconstruct")
    g = _load_algebra(args.algebra)
    cohomology.require_jacobi(g)
    quot, theta, ok = extend.round_trip(g)
    report.add("round_trip_signature", True, ok)
    return _finish(args, report, {"quotient": quot.algebra.to_doc(), "cocycle": theta.to_doc()})


def cmd_qheis_normalize(args) -> int:
    from . import qheis

    expr = qheis.parse_qexpr(args.expr)
    q_value = GaussRat(args.q) if args.q is not None else None
    nf = qheis.normal_order(expr, q_value)
    doc = {
        "format": "lieq-1",
        "normal_form": {f"{m},{n}": poly.to_doc() for (m, n), poly in sorted(nf.coeffs.items())},
    }
    _emit(args, doc, lambda: str(nf))
    return 0


def cmd_qheis_verify(args) -> int:
    from .checks import _q_identity_items

    report = Report("qheis verify")
    if args.max_n < 0:
        raise ValueError(f"--max-n must be a non-negative size, got {args.max_n}")
    for name, ok in _q_identity_items(args.max_n):
        report.add(name, True, ok)
    return _finish(args, report)


def cmd_fock_build(args) -> int:
    from . import fock

    if args.mode == "float":
        doc = {
            "format": "lieq-1",
            "mode": "float",
            "n": args.n,
            "superdiagonal": fock.orthonormal_rep_float(_as_float(args.q), args.n),
        }
        _emit(args, doc, lambda: "\n".join(str(x) for x in doc["superdiagonal"]))
        return 0
    q0 = GaussRat(args.q)
    a, b = fock.monomial_rep(q0, args.n)
    doc = {
        "format": "lieq-1",
        "mode": "exact",
        "q": args.q,
        "n": args.n,
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


def cmd_fock_verify(args) -> int:
    from . import fock
    from .checks import _biorthogonal_items, _truncation_items

    report = Report("fock verify")
    q0 = GaussRat(args.q)
    for name, ok in _truncation_items(q0, args.n):
        report.add(name, True, ok)
    weights = [GaussRat(k + 1) for k in range(min(args.n, 12))]
    try:
        for name, ok in _biorthogonal_items(fock.biorthogonal_pair(weights, q0)):
            report.add(name, True, ok)
    except LieqError as err:
        report.add("biorthogonality", "constructible", str(err), ok=False)
    return _finish(args, report)


def cmd_fock_cuntz(args) -> int:
    from . import fock
    from .checks import _defects_on_top_degree

    report = Report("fock cuntz")
    ct = fock.cuntz_toeplitz(args.d, args.depth)
    report.add("dim", None, ct.dim, ok=True)
    report.add("isometry_defect_top_degree_only", True, _defects_on_top_degree(ct))
    return _finish(args, report)


def cmd_verify_all(args) -> int:
    import random

    from .checks import _BATTERY

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


# -- wiring --------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """ArgumentParser that treats tokens like -1/2 as values, not flags."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-\d+(/\d+)?$")


def _json(p: argparse.ArgumentParser) -> None:
    # --json goes on the commands that print, after the subcommand; a group
    # such as qheis or fock takes no option of its own
    p.add_argument("--json", action="store_true", help="machine-readable output")


def _algebra(p: argparse.ArgumentParser, func: Callable) -> None:
    """A command that prints and reads --algebra first."""
    _json(p)
    p.add_argument("--algebra", required=True)
    p.set_defaults(func=func)


def _catalog_arguments(p):
    _json(p)
    p.add_argument("action", choices=["list", "show"])
    p.add_argument("name", nargs="?")
    p.set_defaults(func=cmd_catalog)


def _cohomology_arguments(p):
    _algebra(p, cmd_cohomology)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--coeffs", choices=["ad", "trivial"], default="ad")


def _deform_arguments(p):
    _json(p)
    p.add_argument("action", choices=["check"])
    p.add_argument("--algebra", required=True)
    p.add_argument("--phi", required=True)
    p.add_argument("--phi2", action="append")
    p.set_defaults(func=cmd_deform_check)


def _extend_arguments(p):
    _algebra(p, cmd_extend)
    p.add_argument("--cocycle", required=True)


def _qheis_arguments(p):
    actions = p.add_subparsers(dest="qaction", required=True)
    pn = actions.add_parser("normalize")
    _json(pn)
    pn.add_argument("expr")
    pn.add_argument("--q", default=None)
    pn.set_defaults(func=cmd_qheis_normalize)
    pv = actions.add_parser("verify")
    _json(pv)
    pv.add_argument("--max-n", type=int, default=12)
    pv.set_defaults(func=cmd_qheis_verify)


def _fock_arguments(p):
    actions = p.add_subparsers(dest="faction", required=True)
    pb = actions.add_parser("build")
    _json(pb)
    pb.add_argument("--q", required=True)
    pb.add_argument("--n", type=int, required=True)
    pb.add_argument("--mode", choices=["exact", "float"], default="exact")
    pb.set_defaults(func=cmd_fock_build)
    pv = actions.add_parser("verify")
    _json(pv)
    pv.add_argument("--q", required=True)
    pv.add_argument("--n", type=int, required=True)
    pv.set_defaults(func=cmd_fock_verify)
    pc = actions.add_parser("cuntz")
    _json(pc)
    pc.add_argument("--d", type=int, required=True)
    pc.add_argument("--depth", type=int, required=True)
    pc.set_defaults(func=cmd_fock_cuntz)


def _verify_all_arguments(p):
    _json(p)
    p.add_argument("--seed", type=int, default=0, help="seed for randomized checks")
    p.set_defaults(func=cmd_verify_all)


# every command, in the order --help lists them: its help line and what
# adds its arguments to its subparser
_COMMANDS = {
    "catalog": ("browse the built-in algebra library", _catalog_arguments),
    "algebra": ("invariants of an algebra", lambda p: _algebra(p, cmd_algebra)),
    "cohomology": ("Betti numbers", _cohomology_arguments),
    "deform": ("deformation checks", _deform_arguments),
    "rigidity": ("rigidity report", lambda p: _algebra(p, cmd_rigidity)),
    "extend": ("central extension by a cocycle", _extend_arguments),
    "reconstruct": ("quotient + induced cocycle round trip", lambda p: _algebra(p, cmd_reconstruct)),
    "qheis": ("q-deformed Heisenberg algebra", _qheis_arguments),
    "fock": ("truncated ladder operators", _fock_arguments),
    "verify-all": ("run the full verification battery", _verify_all_arguments),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The lieq parser.  A process parses one command, so when ``command``
    names one, only its subparser is built; otherwise (no command, an
    unknown one, or -h) all of them are.  The usage line lists every
    command either way: argparse prints it for an unrecognized option, and
    with one subparser it would list only that one."""
    # --help shows the user-facing paragraphs of the module docstring
    parser = _Parser(prog="lieq", description="\n\n".join(__doc__.split("\n\n")[:3]))
    names = [command] if command in _COMMANDS else list(_COMMANDS)
    # without a metavar, argparse names a missing command by its dest
    metavar = "{" + ",".join(_COMMANDS) + "}" if len(names) == 1 else None
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name in names:
        help_text, add_arguments = _COMMANDS[name]
        add_arguments(sub.add_parser(name, help=help_text))
    return parser


def run(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser(argv[0] if argv else None).parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # the reader closed stdout: no usage error and no message; devnull
        # takes stdout so that the flush at exit cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (OSError, ValueError) as err:  # SizeCap too: refused work is a usage error
        print(f"usage error: {err}", file=sys.stderr)
        return 2
    except LieqError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
