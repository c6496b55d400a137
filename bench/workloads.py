"""Seeded request streams for the three benchmark workloads.

Every stream is a pure function of (workload, seed, size): the same seed
gives the same requests.  Requests are plain JSON values (expression
strings, ``lieq-1`` algebra docs, CLI argv lists) so the worker process
receives only generated inputs, never objects built by the generator.

* ``qcalc``  symbolic-q calculus: q-binomials, normal ordering, identity
  checks.  Exercises ``exactnum.LaurentPoly`` and the ``qheis`` rewriter.
* ``cohom``  cohomology of algebras drawn from a fixed pool and presented
  in a seeded signed-permutation basis.  Exercises ``cohomology`` and
  ``linalg.rref`` on ``GaussRat``.
* ``battery`` real CLI invocations, one fresh process each.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
POOL_FILE = HERE / "cohom_pool.json"

# Seconds one round costs at the seed commit on a 2-core x86 VM (Python
# 3.11); used only to size the request lists so that a run of qcalc or
# cohom lasts about --seconds.
QCALC_ROUND_S = 0.23
COHOM_ROUND_S = 15.0
# battery: catalog commands per second of --seconds.  At 30 s this gives
# 200 requests, the fewest for which p95 has ten samples beyond it; a
# fresh process costs about 0.17 s, so such a run lasts about 40 s.
BATTERY_SMALL_PER_S = 6.5


# -- qcalc --------------------------------------------------------------------


QBIN_PAIRS = [(n, k) for n in range(14, 23) for k in range(n + 1)]
JACOBI = [("bnan", n, None) for n in range(1, 7)] + [("anbn", n, None) for n in range(1, 7)] + [
    ("bracketBmAn", n, m) for n in range(1, 7) for m in range(1, 7)
]


def _cycle(rng: random.Random, items: list):
    """Endless seeded shuffles of ``items``: every item appears equally
    often, so runs with different seeds share one cost profile."""
    while True:
        batch = list(items)
        rng.shuffle(batch)
        yield from batch


def qcalc(seed: int, seconds: float) -> list[dict]:
    """Rounds of fixed composition: 3 q-binomials, 2 A^n B^n, 3 random
    A/B words, 1 generalized Jacobi identity, 1 power/product identity."""
    rng = random.Random(f"qcalc/{seed}")
    qbin, anbn = _cycle(rng, QBIN_PAIRS), _cycle(rng, list(range(4, 13)))
    lengths, jacobi, powers = _cycle(rng, list(range(10, 21))), _cycle(rng, JACOBI), _cycle(rng, list(range(1, 13)))
    out = []
    for _ in range(max(1, round(seconds / QCALC_ROUND_S))):
        batch = []
        for _ in range(3):
            n, k = next(qbin)
            batch.append({"op": "qbin", "n": n, "k": k})
        for _ in range(2):
            n = next(anbn)
            batch.append({"op": "normalize", "expr": f"A^{n}*B^{n}"})
        for _ in range(3):
            word = "".join(rng.choice("AB") for _ in range(next(lengths)))
            batch.append({"op": "normalize", "expr": "*".join(word)})
        which, n, m = next(jacobi)
        batch.append({"op": "jacobi", "which": which, "n": n, "m": m})
        batch.append({"op": "powandprod", "n": next(powers)})
        rng.shuffle(batch)
        out.extend(batch)
    return out


# -- cohom --------------------------------------------------------------------

COHOM_OPS = ("signature", "rigidity", "H0", "H1", "H2", "H3", "d_squared")


def load_pool() -> list[dict]:
    with open(POOL_FILE, "r", encoding="utf-8") as handle:
        return json.load(handle)["algebras"]


def signed_permutation(doc: dict, rng: random.Random, reorder: bool = True) -> dict:
    """The same algebra in the basis e'_a = s_a e_{perm[a]}.

    Every invariant the workload asks for is basis independent, so the
    pool's reference answers still apply while the structure-constant
    table changes.  With ``reorder`` off only the signs change: a new
    order also changes the pivot order inside rref, which moves the cost
    of one dim-7 request by up to 3x and would swamp run-to-run noise."""
    n = doc["dim"]
    perm = list(range(n))
    if reorder:
        rng.shuffle(perm)
    sign = [rng.choice((1, -1)) for _ in range(n)]
    inv = {old: new for new, old in enumerate(perm)}
    brackets: dict[tuple[int, int], dict[int, str]] = {}
    for entry in doc["brackets"]:
        i, j = inv[entry["i"] - 1], inv[entry["j"] - 1]
        s = sign[i] * sign[j]
        if i > j:
            i, j, s = j, i, -s
        out = {}
        for k_text, value in entry["out"].items():
            k = inv[int(k_text) - 1]
            out[k] = str(-Fraction(value)) if s * sign[k] < 0 else value
        brackets[(i, j)] = out
    entries = [
        {"i": i + 1, "j": j + 1, "out": {str(k + 1): out[k] for k in sorted(out)}}
        for (i, j), out in sorted(brackets.items())
    ]
    return {"format": "lieq-1", "dim": n, "labels": [f"e{a + 1}" for a in range(n)], "brackets": entries}


# One round, as (pool group, algebras drawn from it).  Nine in ten
# requests are on the +-1 algebras, so the median sits among them.  Two
# rounds draw every random algebra exactly once, so runs on different
# seeds do the same work; the dim-7 ones cost two thirds of it.
COHOM_ROUND = (("rand7", 1), ("rand6", 3), ("dim5", 20), ("small", 8))


def cohom(seed: int, seconds: float) -> list[dict]:
    """Each algebra of a round answers all of COHOM_OPS, in seeded order."""
    rng = random.Random(f"cohom/{seed}")
    groups: dict[str, list[dict]] = {}
    for entry in load_pool():
        groups.setdefault(entry["group"], []).append(entry)
    picks = {name: _cycle(rng, members) for name, members in sorted(groups.items())}
    out = []
    for _ in range(max(1, round(seconds / COHOM_ROUND_S))):
        batch = []
        for group, count in COHOM_ROUND:
            for _ in range(count):
                entry = next(picks[group])
                doc = signed_permutation(entry["doc"], rng, reorder=not group.startswith("rand"))
                for op in COHOM_OPS:
                    req = {"op": op, "algebra": doc, "ref": entry["name"]}
                    if op == "d_squared":
                        req["k"] = rng.randint(1, 2)
                    batch.append(req)
        rng.shuffle(batch)
        out.extend(batch)
    return out


# -- battery ------------------------------------------------------------------

CATALOG_SMALL = [
    "h(1)", "h(2)", "h(3)", "sl2", "a_sh", "n_3_1", "n_3_2", "n_4_1", "n_4_2", "n_4_3",
    "n_5_1", "n_5_2", "n_5_3", "n_5_4", "n_5_5", "n_5_6", "n_5_7", "n_5_8", "n_5_9",
]
CATALOG_COMMANDS = [
    [cmd, "--algebra", name, *extra, "--json"]
    for cmd, extras in (("cohomology", ([], ["--coeffs", "trivial"])), ("rigidity", ([],)),
                        ("reconstruct", ([],)), ("algebra", ([],)))
    for name in CATALOG_SMALL
    for extra in extras
    # reconstruction needs a nontrivial center, which sl2 lacks
    if not (cmd == "reconstruct" and name == "sl2")
]


def battery(seed: int, seconds: float) -> list[dict]:
    """The heavy commands once each, then catalog commands cycling through
    every (command, algebra) pair in seeded order."""
    rng = random.Random(f"battery/{seed}")
    reqs = [
        {"argv": ["verify-all", "--seed", str(seed), "--json"], "expect": "pass"},
        {"argv": ["qheis", "verify", "--max-n", "12", "--json"], "expect": "pass"},
        {"argv": ["fock", "verify", "--q", "1/2", "--n", "400", "--json"], "expect": "pass"},
        {"argv": ["fock", "cuntz", "--d", "3", "--depth", "5", "--json"], "expect": "pass"},
        # Known defect: the word rewriter recurses once per inversion and
        # dies here; kept so that a fix shows as fewer failures.
        {"argv": ["qheis", "normalize", "A^32*B^32", "--json"], "expect": "normal_form"},
        {"argv": ["qheis", "normalize", "A^13*B^13", "--json"], "expect": "normal_form"},
    ]
    catalog = _cycle(rng, CATALOG_COMMANDS)
    for _ in range(max(4, round(seconds * BATTERY_SMALL_PER_S))):
        reqs.append({"argv": next(catalog), "expect": "pass"})
    rng.shuffle(reqs)
    return reqs


GENERATORS = {"qcalc": qcalc, "cohom": cohom, "battery": battery}
