"""Built-in verified algebra library.

Contains the nilpotent classification in dimensions 3-5, the Heisenberg
family, sl2 with the standard (e, f, h) constants, and the shifted-pair
algebra a_sh on basis v1..v4, v whose only nonzero brackets are
[v1,v2] = [v3,v4] = [v1,v4] = [v3,v2] = v.

Each fixed entry is one row of _TABLE: its construction, its notes and the
``expected`` dict of documented invariants, which verify_all() recomputes
after a Jacobi check; the "+i" rows also give its direct-sum identities.
An entry is built when it is first asked for.
Expected values for the small entries were frozen from an independent
dense-linear-algebra oracle (see tests/golden)."""

from __future__ import annotations

from typing import NamedTuple

from .exactnum import LieqError
from .liealg import LieAlgebra, Signature, abelian


class UnknownName(LieqError):
    """Catalog lookup with an unrecognized key."""


def heisenberg(m: int) -> LieAlgebra:
    """h(m) of dimension 2m+1: [v_{2i-1}, v_{2i}] = v, everything else zero."""
    if m < 1:
        raise ValueError("m must be positive")
    dim = 2 * m + 1
    labels = [f"v{k + 1}" for k in range(2 * m)] + ["v"]
    brackets = {(2 * i, 2 * i + 1): {dim - 1: 1} for i in range(m)}
    return LieAlgebra(dim, brackets, labels)


def _alg(dim: int, relations: dict[tuple[int, int], dict[int, int]], labels=None) -> LieAlgebra:
    """Structure constants with 1-based indices as printed in presentations."""
    brackets = {
        (i - 1, j - 1): {k - 1: c for k, c in out.items()} for (i, j), out in relations.items()
    }
    if labels is None:
        labels = [f"v{k + 1}" for k in range(dim)]
    return LieAlgebra(dim, brackets, labels)


class CatalogEntry(NamedTuple):
    name: str
    algebra: LieAlgebra
    expected: dict
    notes: str

    def signature(self) -> Signature:
        return self.algebra.invariant_signature()


# One row per fixed entry: (construction, notes, expected invariants).  A
# construction is (dim, 1-based relations[, labels]) for _alg, the name of
# an earlier row for that entry + i (its direct sum with abelian(1)), or a
# builder taking no arguments.  Rows hold constructions, not algebras, so
# a process builds only the entries it asks for.  The invariants are
# recomputed by verify_all(); the numeric ones were frozen from the dense
# oracle run (tests/golden/dim5_signatures.json).
_TABLE: dict[str, tuple] = {
    "n_3_1": (lambda: abelian(3), "abelian of dimension 3",
              {"dim": 3, "center_dim": 3, "derivation_dim": 9, "h2_dim": 9,
               "nilpotency_class": 1, "abelian": True}),
    "n_3_2": (lambda: heisenberg(1), "h(1): [v1,v2] = v",
              {"dim": 3, "lower_central_dims": (3, 1, 0), "center_dim": 1,
               "derivation_dim": 6, "h1_dim": 4, "h2_dim": 5, "nilpotency_class": 2}),
    "n_4_1": ("n_3_1", "n_3_1 + i",
              {"dim": 4, "center_dim": 4, "derivation_dim": 16, "h2_dim": 24,
               "nilpotency_class": 1, "abelian": True}),
    "n_4_2": ("n_3_2", "n_3_2 + i",
              {"dim": 4, "lower_central_dims": (4, 1, 0), "center_dim": 2,
               "derivation_dim": 10, "h1_dim": 8, "h2_dim": 13, "nilpotency_class": 2}),
    "n_4_3": ((4, {(1, 2): {3: 1}, (1, 3): {4: 1}}), "[v1,v2]=v3, [v1,v3]=v4",
              {"dim": 4, "lower_central_dims": (4, 2, 1, 0),
               "upper_central_dims": (0, 1, 2, 4), "center_dim": 1,
               "derivation_dim": 7, "h1_dim": 4, "h2_dim": 6, "nilpotency_class": 3}),
    "n_5_1": ("n_4_1", "n_4_1 + i",
              {"dim": 5, "center_dim": 5, "derivation_dim": 25, "h2_dim": 50,
               "nilpotency_class": 1, "abelian": True}),
    "n_5_2": ("n_4_2", "n_4_2 + i = h(1) + i + i",
              {"dim": 5, "lower_central_dims": (5, 1, 0), "center_dim": 3,
               "derivation_dim": 16, "h1_dim": 14, "h2_dim": 28, "nilpotency_class": 2}),
    "n_5_3": ("n_4_3", "n_4_3 + i",
              {"dim": 5, "lower_central_dims": (5, 2, 1, 0), "center_dim": 2,
               "derivation_dim": 11, "h1_dim": 8, "h2_dim": 14, "nilpotency_class": 3}),
    "n_5_4": ((5, {(1, 2): {5: 1}, (3, 4): {5: 1}}),
              "[v1,v2]=[v3,v4]=v5; same invariants as h(2)",
              {"dim": 5, "lower_central_dims": (5, 1, 0), "center_dim": 1,
               "derivation_dim": 15, "h1_dim": 11, "h2_dim": 20, "nilpotency_class": 2}),
    "n_5_5": ((5, {(1, 2): {3: 1}, (1, 3): {5: 1}, (2, 4): {5: 1}}),
              "[v1,v2]=v3, [v1,v3]=[v2,v4]=v5",
              {"dim": 5, "lower_central_dims": (5, 2, 1, 0), "center_dim": 1,
               "derivation_dim": 10, "h1_dim": 6, "h2_dim": 13, "nilpotency_class": 3}),
    "n_5_6": ((5, {(1, 2): {3: 1}, (1, 3): {4: 1}, (1, 4): {5: 1}, (2, 3): {5: 1}}),
              "[v1,v2]=v3, [v1,v3]=v4, [v1,v4]=[v2,v3]=v5",
              {"dim": 5, "lower_central_dims": (5, 3, 2, 1, 0), "center_dim": 1,
               "derivation_dim": 8, "h1_dim": 4, "h2_dim": 7, "nilpotency_class": 4}),
    "n_5_7": ((5, {(1, 2): {3: 1}, (1, 3): {4: 1}, (1, 4): {5: 1}}),
              "[v1,v2]=v3, [v1,v3]=v4, [v1,v4]=v5",
              {"dim": 5, "lower_central_dims": (5, 3, 2, 1, 0), "center_dim": 1,
               "derivation_dim": 9, "h1_dim": 5, "h2_dim": 8, "nilpotency_class": 4}),
    "n_5_8": ((5, {(1, 2): {4: 1}, (1, 3): {5: 1}}), "[v1,v2]=v4, [v1,v3]=v5",
              {"dim": 5, "lower_central_dims": (5, 2, 0), "center_dim": 2,
               "derivation_dim": 13, "h1_dim": 10, "h2_dim": 19, "nilpotency_class": 2}),
    "n_5_9": ((5, {(1, 2): {3: 1}, (1, 3): {4: 1}, (2, 3): {5: 1}}),
              "[v1,v2]=v3, [v1,v3]=v4, [v2,v3]=v5",
              {"dim": 5, "lower_central_dims": (5, 3, 2, 0), "center_dim": 2,
               "derivation_dim": 10, "h1_dim": 7, "h2_dim": 9, "nilpotency_class": 3}),
    "sl2": ((3, {(1, 2): {3: 1}, (1, 3): {1: -2}, (2, 3): {2: 2}}, ["e", "f", "h"]),
            "standard basis: [h,e]=2e, [h,f]=-2f, [e,f]=h",
            {"dim": 3, "center_dim": 0, "derivation_dim": 3, "h1_dim": 0,
             "h2_dim": 0, "nilpotency_class": -1, "solvable_length": -1}),
    "a_sh": ((5, {(1, 2): {5: 1}, (3, 4): {5: 1}, (1, 4): {5: 1}, (2, 3): {5: -1}},
              ["v1", "v2", "v3", "v4", "v"]),
             "shifted-pair commutator table; same invariants as n_5_2",
             {"dim": 5, "lower_central_dims": (5, 1, 0), "center_dim": 3,
              "derivation_dim": 16, "h1_dim": 14, "h2_dim": 28, "nilpotency_class": 2}),
}


# The fixed entries built so far.  get() builds a row on first use (and,
# for a "+i" row, its base row) and keeps it: entries are shared between
# callers and nothing mutates them, so each algebra's signature is
# computed at most once per process.
_FIXED: dict[str, CatalogEntry] = {}


def _fixed(name: str) -> CatalogEntry:
    """The entry of the _TABLE row ``name``, built on first use."""
    entry = _FIXED.get(name)
    if entry is None:
        construction, notes, expected = _TABLE[name]
        if isinstance(construction, str):
            algebra = _fixed(construction).algebra.direct_sum(abelian(1))
        elif callable(construction):
            algebra = construction()
        else:
            algebra = _alg(*construction)
        entry = _FIXED[name] = CatalogEntry(name, algebra, expected, notes)
    return entry


def _parameter(name: str, prefix: str, least: int) -> int:
    """n in a name prefix + "n)"; UnknownName unless n is an integer >= least."""
    try:
        n = int(name[len(prefix) : -1])
    except ValueError:
        n = least - 1
    if n < least:
        raise UnknownName(f"unknown catalog entry {name!r}")
    return n


def get(name: str) -> CatalogEntry:
    """Look up an entry; abelian(n) and h(m) accept any positive parameter."""
    name = name.strip()
    if name.startswith("abelian(") and name.endswith(")"):
        n = _parameter(name, "abelian(", 0)
        expected = {"dim": n, "abelian": True, "center_dim": n, "nilpotency_class": 1 if n else 0}
        return CatalogEntry(name, abelian(n), expected, f"abelian of dimension {n}")
    if name.startswith("h(") and name.endswith(")"):
        m = _parameter(name, "h(", 1)
        expected = {"dim": 2 * m + 1, "center_dim": 1, "nilpotency_class": 2,
                    "lower_central_dims": (2 * m + 1, 1, 0), "abelian": False}
        return CatalogEntry(name, heisenberg(m), expected,
                            f"Heisenberg algebra of dimension {2 * m + 1}")
    if name in _TABLE:
        return _fixed(name)
    raise UnknownName(f"unknown catalog entry {name!r}")


def list_names() -> list[str]:
    """Every concrete entry exercised by the verification suite."""
    names = [f"abelian({n})" for n in range(1, 8)]
    names += [f"h({m})" for m in range(1, 5)]
    names += sorted(_TABLE)
    return names


class VerifyItem(NamedTuple):
    entry: str
    check: str
    expected: object
    actual: object

    @property
    def ok(self) -> bool:
        return self.expected == self.actual


def verify_all() -> list[VerifyItem]:
    """Jacobi + expected-field assertions for every entry, the documented
    coincidences, and pairwise distinctness of the nine dim-5 entries."""
    items: list[VerifyItem] = []
    entries = {name: get(name) for name in list_names()}
    for name, entry in entries.items():
        items.append(VerifyItem(name, "jacobi", None, entry.algebra.check_jacobi()))
        sig = entry.signature()
        for fieldname in Signature._fields:
            if fieldname in entry.expected:
                items.append(
                    VerifyItem(name, fieldname, entry.expected[fieldname], getattr(sig, fieldname))
                )
    # documented coincidences hold as signature equalities
    coincidences = [
        ("n_3_2", "h(1)"),
        ("n_5_4", "h(2)"),
        ("n_5_2", "a_sh"),
    ]
    for left, right in coincidences:
        items.append(
            VerifyItem(
                f"{left}~{right}",
                "signature_equal",
                entries[left].signature(),
                entries[right].signature(),
            )
        )
    h1ii = entries["n_3_2"].algebra.direct_sum(abelian(1)).direct_sum(abelian(1))
    items.append(
        VerifyItem(
            "n_5_2~h(1)+i+i",
            "signature_equal",
            entries["n_5_2"].signature(),
            h1ii.invariant_signature(),
        )
    )
    items.append(
        VerifyItem(
            "a_sh!~h(2)",
            "signatures_differ",
            True,
            entries["a_sh"].signature() != entries["h(2)"].signature(),
        )
    )
    # direct-sum identities hold with equal constants, not merely equal signatures
    for name, (summand, _, _) in _TABLE.items():
        if isinstance(summand, str):
            plus_i = entries[summand].algebra.direct_sum(abelian(1))
            same = entries[name].algebra.same_constants(plus_i)
            items.append(VerifyItem(f"{name}={summand}+i", "constants_equal", True, same))
    # the nine dim-5 entries are pairwise distinguished by their signatures
    dim5 = [f"n_5_{k}" for k in range(1, 10)]
    sigs = {name: entries[name].signature() for name in dim5}
    for a in range(len(dim5)):
        for b in range(a + 1, len(dim5)):
            items.append(
                VerifyItem(
                    f"{dim5[a]}!={dim5[b]}",
                    "signatures_differ",
                    True,
                    sigs[dim5[a]] != sigs[dim5[b]],
                )
            )
    return items
