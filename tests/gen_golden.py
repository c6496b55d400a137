"""Regenerate the golden files under tests/golden.

dim5_signatures.json holds the dense oracle's invariants of the small
catalog entries; catalog_entries.json holds, for every catalog.list_names()
entry plus h(7), the document ``lieq catalog show NAME --json`` prints and
the entry's ``expected`` dict.  cli_usage.json holds the stdout, stderr and
exit code of ``lieq --help``, of ``--help`` after every command and q/Fock
action, and of usage errors that argparse reports, at a terminal width of
80 columns (USAGE_ARGV).

Run from the repository root:  python tests/gen_golden.py
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).parent))

import oracles  # noqa: E402
from lieq import catalog, cli  # noqa: E402

GOLDEN = pathlib.Path(__file__).parent / "golden"


def _lists(doc: dict) -> dict:
    """doc with its tuple values as JSON lists."""
    return {k: list(v) if isinstance(v, tuple) else v for k, v in doc.items()}


def _write(name: str, payload) -> None:
    out = GOLDEN / name
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {out}")


def dim5_signatures() -> dict:
    names = [f"n_5_{k}" for k in range(1, 10)] + ["n_3_2", "n_4_3", "sl2", "a_sh"]
    payload = {}
    for name in names:
        g = catalog.get(name).algebra
        payload[name] = _lists(oracles.oracle_signature(g))
        print(name, payload[name])
    return payload


def catalog_entries() -> dict:
    payload = {}
    for name in catalog.list_names() + ["h(7)"]:
        shown = io.StringIO()
        with contextlib.redirect_stdout(shown):
            assert cli.run(["catalog", "show", name, "--json"]) == 0
        payload[name] = {
            "show": json.loads(shown.getvalue()),
            "expected": _lists(catalog.get(name).expected),
        }
    return payload


# argv lists whose output is argparse's alone: help texts and usage errors
USAGE_ARGV = [
    ["--help"],
    *([command, "--help"] for command in ("catalog", "algebra", "cohomology", "deform", "rigidity",
                                          "extend", "reconstruct", "qheis", "fock", "verify-all")),
    *(["qheis", action, "--help"] for action in ("normalize", "verify")),
    *(["fock", action, "--help"] for action in ("build", "verify", "cuntz")),
    # an unrecognized option after each command prints the top-level usage
    ["catalog", "list", "--bogus"],
    ["algebra", "--algebra", "sl2", "--bogus"],
    ["cohomology", "--algebra", "sl2", "--bogus"],
    ["deform", "check", "--algebra", "h(1)", "--phi", "phi.json", "--bogus"],
    ["rigidity", "--algebra", "sl2", "--bogus"],
    ["extend", "--algebra", "abelian(2)", "--cocycle", "theta.json", "--bogus"],
    ["reconstruct", "--algebra", "sl2", "--bogus"],
    ["qheis", "normalize", "A*B", "--bogus"],
    ["qheis", "verify", "--bogus"],
    ["fock", "build", "--q", "1/2", "--n", "4", "--bogus"],
    ["fock", "verify", "--q", "1/2", "--n", "4", "--bogus"],
    ["fock", "cuntz", "--d", "2", "--depth", "2", "--bogus"],
    ["verify-all", "--bogus"],
    # no command, an unknown one, options in the wrong place, missing or bad values
    [],
    ["bogus"],
    ["--json", "rigidity", "--algebra", "sl2"],
    ["rigidity"],
    ["qheis"],
    ["qheis", "--json", "normalize", "A*B"],
    ["fock", "bogus"],
    ["fock", "build", "--q", "1/2"],
    ["catalog", "frob"],
    ["cohomology", "--algebra", "sl2", "--coeffs", "bad"],
    ["cohomology", "--algebra", "sl2", "--k", "x"],
    ["verify-all", "--seed", "1", "extra"],
]


def cli_usage() -> list:
    os.environ["COLUMNS"] = "80"  # argparse wraps its usage lines to the terminal
    payload = []
    for argv in USAGE_ARGV:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.run(argv)
            except SystemExit as exc:
                code = exc.code
        payload.append({"argv": argv, "code": code, "stdout": out.getvalue(), "stderr": err.getvalue()})
    return payload


def main() -> None:
    _write("dim5_signatures.json", dim5_signatures())
    _write("catalog_entries.json", catalog_entries())
    _write("cli_usage.json", cli_usage())


if __name__ == "__main__":
    main()
