import json
import pathlib

import pytest

from lieq import catalog, cli
from lieq.catalog import UnknownName, heisenberg
from lieq.liealg import abelian


def test_get_and_list():
    names = catalog.list_names()
    assert "n_5_6" in names and "sl2" in names and "a_sh" in names
    for name in names:
        entry = catalog.get(name)
        assert entry.algebra.check_jacobi() is None


def test_unknown_name():
    with pytest.raises(UnknownName):
        catalog.get("n_6_1")
    with pytest.raises(UnknownName):
        catalog.get("h(0)")
    # a parameter that is not an integer names no entry either
    for name in ("h(x)", "abelian(1.5)", "h()", "abelian(-1)"):
        with pytest.raises(UnknownName, match="unknown catalog entry"):
            catalog.get(name)


def test_n_5_6_relations():
    g = catalog.get("n_5_6").algebra
    doc = g.to_doc()
    assert doc["brackets"] == [
        {"i": 1, "j": 2, "out": {"3": "1"}},
        {"i": 1, "j": 3, "out": {"4": "1"}},
        {"i": 1, "j": 4, "out": {"5": "1"}},
        {"i": 2, "j": 3, "out": {"5": "1"}},
    ]


def test_a_sh_relations():
    doc = catalog.get("a_sh").algebra.to_doc()
    assert doc["brackets"] == [
        {"i": 1, "j": 2, "out": {"5": "1"}},
        {"i": 1, "j": 4, "out": {"5": "1"}},
        {"i": 2, "j": 3, "out": {"5": "-1"}},
        {"i": 3, "j": 4, "out": {"5": "1"}},
    ]


# every entry's relations, labels and notes as `catalog show --json` prints
# them, and its expected invariants; regenerate with tests/gen_golden.py
_ENTRIES = json.loads(
    (pathlib.Path(__file__).parent / "golden" / "catalog_entries.json").read_text()
)


def test_golden_entries_cover_the_catalog():
    assert sorted(_ENTRIES) == sorted(catalog.list_names() + ["h(7)"])


@pytest.mark.parametrize("name", sorted(_ENTRIES))
def test_entry_matches_golden(name, capsys):
    assert cli.run(["catalog", "show", name, "--json"]) == 0
    assert json.loads(capsys.readouterr().out) == _ENTRIES[name]["show"]
    expected = json.loads(json.dumps(catalog.get(name).expected))
    assert expected == _ENTRIES[name]["expected"]


def test_abelian_seven():
    assert catalog.get("abelian(7)").algebra.brackets == {}


def test_heisenberg_coincidences():
    assert heisenberg(1).same_constants(catalog.get("n_3_2").algebra)
    assert heisenberg(2).invariant_signature() == catalog.get("n_5_4").signature()
    h3 = heisenberg(3)
    assert h3.dim == 7 and h3.is_nilpotent() == 2


def test_verify_all_passes():
    failures = [item for item in catalog.verify_all() if not item.ok]
    assert not failures, failures[:3]


@pytest.mark.parametrize(
    "name, nclass",
    [
        ("n_3_2", 2),
        ("n_4_3", 3),
        ("n_5_6", 4),
        ("n_5_7", 4),
        ("n_5_9", 3),
        ("n_5_8", 2),
    ],
)
def test_classes_match_presentations(name, nclass):
    assert catalog.get(name).algebra.is_nilpotent() == nclass


def test_parametrized_expected_fields():
    entry = catalog.get("h(3)")
    assert entry.expected["dim"] == 7
    assert entry.expected["lower_central_dims"] == (7, 1, 0)
    assert catalog.get("abelian(4)").expected["center_dim"] == 4


def test_get_builds_only_the_rows_it_is_asked_for(monkeypatch):
    """A "+i" row builds its base rows and nothing else, listing the names
    builds nothing, and a repeated get returns the same entry."""
    monkeypatch.setattr(catalog, "_FIXED", {})
    entry = catalog.get("n_5_2")
    assert "n_5_2" in catalog.list_names()
    assert sorted(catalog._FIXED) == ["n_3_2", "n_4_2", "n_5_2"]
    assert catalog.get("n_5_2") is entry
    assert entry.algebra.same_constants(catalog.get("n_4_2").algebra.direct_sum(abelian(1)))


def test_verify_all_computes_each_signature_once(monkeypatch):
    from lieq.liealg import LieAlgebra

    # no entry built yet, so signatures cached by earlier tests do not hide work
    monkeypatch.setattr(catalog, "_FIXED", {})
    original = LieAlgebra.invariant_signature
    computed = []

    def counting(self):
        if self._signature is None:
            computed.append(self)
        return original(self)

    monkeypatch.setattr(LieAlgebra, "invariant_signature", counting)
    assert all(item.ok for item in catalog.verify_all())
    # every listed entry once, plus the direct sum h(1) + i + i
    assert len(computed) == len(catalog.list_names()) + 1 == 28
