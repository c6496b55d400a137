"""Reference answers for the correctness gate.

Every answer the timed code returns is compared, after its timer stops,
with a reference that shares no code path with the timed call:

* q-binomials: the Pascal recursion on plain integer coefficient lists.
* normal forms of words up to 14 letters: ``tests/oracles.random_order_normal_form``
  (rewrites a random inversion instead of the first one); longer words,
  where that oracle needs minutes, by right multiplication one letter at a
  time on integer lists.
* cohomology numbers: the dense oracles of ``tests/oracles.py``, run once
  per pool algebra by ``python3 bench/reference.py`` and stored in
  ``bench/cohom_pool.json`` keyed by the SHA-256 of the algebra doc.

Run this file to rebuild the pool and its reference answers (several
minutes: the dense oracles are slow on purpose).
"""

from __future__ import annotations

import functools
import hashlib
import json
import random
import re
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

Poly = dict  # exponent -> int coefficient


# -- integer polynomials in q ---------------------------------------------------


def p_add(a: Poly, b: Poly) -> Poly:
    out = dict(a)
    for e, c in b.items():
        v = out.get(e, 0) + c
        if v:
            out[e] = v
        else:
            out.pop(e, None)
    return out


def p_mul(a: Poly, b: Poly) -> Poly:
    out: Poly = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def q_int(n: int) -> Poly:
    return {e: 1 for e in range(n)}


_PASCAL: dict[tuple[int, int], Poly] = {}


def pascal_binomial(n: int, k: int) -> Poly:
    """{n,k}_q = {n-1,k-1}_q + q^k {n-1,k}_q, iteratively."""
    if k < 0 or k > n:
        return {}
    for m in range(n + 1):
        for j in range(m + 1):
            if (m, j) in _PASCAL:
                continue
            if j in (0, m):
                _PASCAL[(m, j)] = {0: 1}
            else:
                shifted = {e + j: c for e, c in _PASCAL[(m - 1, j)].items()}
                _PASCAL[(m, j)] = p_add(_PASCAL[(m - 1, j - 1)], shifted)
    return _PASCAL[(n, k)]


def letter_normal_form(word: str) -> dict[tuple[int, int], Poly]:
    """Normal form of a word by right multiplication, one letter at a time:
    B^m A^n . A = B^m A^{n+1} and B^m A^n . B = q^n B^{m+1} A^n + {n}_q B^m A^{n-1}."""
    nf: dict[tuple[int, int], Poly] = {(0, 0): {0: 1}}
    for letter in word:
        out: dict[tuple[int, int], Poly] = {}
        for (m, n), coeff in nf.items():
            if letter == "A":
                terms = [((m, n + 1), coeff)]
            else:
                terms = [((m + 1, n), {e + n: c for e, c in coeff.items()})]
                if n:
                    terms.append(((m, n - 1), p_mul(coeff, q_int(n))))
            for key, poly in terms:
                out[key] = p_add(out.get(key, {}), poly)
        nf = {key: poly for key, poly in out.items() if poly}
    return nf


# -- comparing lieq answers ----------------------------------------------------


def poly_from_doc(doc: dict) -> Poly | None:
    """Integer polynomial from a LaurentPoly doc, or None when a coefficient
    is not an integer (no reference answer has one)."""
    out = {}
    for e, text in doc["coeffs"].items():
        if not re.fullmatch(r"-?\d+", text):
            return None
        out[int(e)] = int(text)
    return {e: c for e, c in out.items() if c}


def normal_form_from_doc(doc: dict) -> dict[tuple[int, int], Poly] | None:
    out = {}
    for key, poly_doc in doc.items():
        m, n = key.split(",")
        poly = poly_from_doc(poly_doc)
        if poly is None:
            return None
        out[(int(m), int(n))] = poly
    return out


_FACTOR = re.compile(r"([AB])(?:\^(\d+))?")
ORACLE_MAX_LETTERS = 14  # the random-order oracle grows exponentially beyond this


@functools.lru_cache(maxsize=None)
def expected_normal_form(expr: str) -> dict[tuple[int, int], Poly]:
    """Reference normal form of a product such as ``A^3*B*A``: the dense
    oracle up to ORACLE_MAX_LETTERS letters, letter-by-letter beyond.
    Cached by expression; callers only compare the result."""
    word = ""
    for factor in expr.split("*"):
        hit = _FACTOR.fullmatch(factor)
        if hit is None:
            raise ValueError(f"no reference for {expr!r}")
        word += hit.group(1) * int(hit.group(2) or 1)
    if len(word) > ORACLE_MAX_LETTERS:
        return letter_normal_form(word)
    import oracles

    done = oracles.random_order_normal_form(word, random.Random(word))
    return {key: {e: int(c.re) for e, c in poly.coeffs.items()} for key, poly in done.items()}


def algebra_digest(doc: dict) -> str:
    canon = json.dumps({"dim": doc["dim"], "brackets": doc["brackets"]}, sort_keys=True)
    return hashlib.sha256(canon.encode()).hexdigest()


# -- building the cohom pool ----------------------------------------------------


def _random_nilpotent(rng: random.Random, dim: int):
    """Iterated one-dimensional central extensions of abelian(2) by random
    trivial-coefficient 2-cocycles with integer coefficients in [-3, 3]."""
    from fractions import Fraction
    from math import lcm

    from lieq import cohomology, extend
    from lieq.liealg import abelian

    g = abelian(2)
    while g.dim < dim:
        z = cohomology.cocycle_space(2, g, cohomology.trivial_rep(g, 1))
        tuples = cohomology.cochain_tuples(g.dim, 2)
        acc: dict[int, Fraction] = {}
        while not any(acc.values()):
            acc = {}
            for row in z.rows:
                c = rng.randint(-3, 3)
                for pos, value in row.items():
                    acc[pos] = acc.get(pos, Fraction(0)) + c * value.re
        den = lcm(*(x.denominator for x in acc.values()))
        values = {tuples[pos]: {0: int(x * den)} for pos, x in acc.items() if x}
        g = extend.central_extension(g, extend.CentralCocycle(g, 1, values))
    return g


def _oracle_answers(g) -> dict:
    import oracles

    sig = oracles.oracle_signature(g)
    dims = [oracles.oracle_cohomology_dims(g, k) for k in range(4)]
    der = oracles.oracle_derivation_dim(g)
    tangent = g.dim * g.dim - der
    _, b2, h2 = dims[2]
    return {
        "signature": {k: list(v) if isinstance(v, tuple) else v for k, v in sig.items()},
        "H": [h for _, _, h in dims],
        "rigidity": {
            "orbit_tangent_dim": tangent,
            "dim_b2": b2,
            "dim_h2": h2,
            "nr_rigid": h2 == 0,
            "tangent_equals_b2": tangent == b2,
        },
    }


POOL_SPEC = {
    "dim5": ["n_5_1", "n_5_2", "n_5_3", "n_5_4", "n_5_5", "n_5_6", "n_5_7", "n_5_8", "n_5_9", "a_sh"],
    "small": ["sl2", "h(1)", "h(2)", "h(3)"],
    "rand6": 6,
    "rand7": 2,
}


def build_pool() -> dict:
    from lieq import catalog

    rng = random.Random("lieq-bench-pool")
    entries = []
    for group, spec in POOL_SPEC.items():
        if isinstance(spec, list):
            algebras = [(name, catalog.get(name).algebra) for name in spec]
        else:
            dim = int(group[-1])
            algebras = [(f"{group}_{i}", _random_nilpotent(rng, dim)) for i in range(spec)]
        for name, g in algebras:
            doc = g.to_doc()
            print(f"oracle {name} (dim {g.dim})", file=sys.stderr, flush=True)
            entries.append(
                {"name": name, "group": group, "digest": algebra_digest(doc), "doc": doc,
                 "ref": _oracle_answers(g)}
            )
    return {"format": "lieq-bench-pool-1", "algebras": entries}


if __name__ == "__main__":
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    pool = build_pool()
    out = HERE / "cohom_pool.json"
    out.write_text(json.dumps(pool, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {out}", file=sys.stderr)
