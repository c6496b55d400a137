"""Regenerate the golden files under tests/golden.

dim5_signatures.json holds the dense oracle's invariants of the small
catalog entries; catalog_entries.json holds, for every catalog.list_names()
entry plus h(7), the document ``lieq catalog show NAME --json`` prints and
the entry's ``expected`` dict.

Run from the repository root:  python tests/gen_golden.py
"""

from __future__ import annotations

import contextlib
import io
import json
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).parent))

import oracles  # noqa: E402
from lieq import catalog, cli  # noqa: E402

GOLDEN = pathlib.Path(__file__).parent / "golden"


def _lists(doc: dict) -> dict:
    """doc with its tuple values as JSON lists."""
    return {k: list(v) if isinstance(v, tuple) else v for k, v in doc.items()}


def _write(name: str, payload: dict) -> None:
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


def main() -> None:
    _write("dim5_signatures.json", dim5_signatures())
    _write("catalog_entries.json", catalog_entries())


if __name__ == "__main__":
    main()
