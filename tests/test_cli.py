import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from lieq import catalog, checks, cli
from lieq.exactnum import LieqError
from lieq.liealg import LieAlgebra


def run_json(capsys, argv):
    code = cli.run(argv + ["--json"])
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_catalog_list(capsys):
    code, doc = run_json(capsys, ["catalog", "list"])
    assert code == 0
    assert "n_5_4" in doc["names"]


def test_catalog_show_round_trip(capsys):
    code, doc = run_json(capsys, ["catalog", "show", "n_5_4"])
    assert code == 0
    parsed = LieAlgebra.from_doc(doc)
    assert parsed.same_constants(catalog.get("n_5_4").algebra)
    assert doc["brackets"][0] == {"i": 1, "j": 2, "out": {"5": "1"}}


def test_catalog_show_text(capsys):
    assert cli.run(["catalog", "show", "h(1)"]) == 0
    out = capsys.readouterr().out
    assert "[v1, v2] = v" in out


def test_cohomology_builds_each_differential_once(capsys, monkeypatch):
    from lieq import cohomology

    original = cohomology.differential_matrix
    built = []

    def counting(k, g, rep):
        built.append(k)
        return original(k, g, rep)

    monkeypatch.setattr(cohomology, "differential_matrix", counting)
    assert cli.run(["cohomology", "--algebra", "h(2)", "--json"]) == 0
    capsys.readouterr()
    assert built
    assert all(built.count(k) == 1 for k in built), built


def test_cohomology_builds_one_term_index(capsys, monkeypatch):
    """D and the term index of the representation are built once, and every
    d_k of the complex reads them."""
    from lieq import cohomology

    calls = {"_term_index": 0, "_common_denominator": 0}
    for name in calls:
        original = getattr(cohomology, name)

        def counting(*args, _name=name, _original=original):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(cohomology, name, counting)
    assert cli.run(["cohomology", "--algebra", "h(2)", "--json"]) == 0
    capsys.readouterr()
    assert calls == {"_term_index": 1, "_common_denominator": 1}


def test_cohomology_sl2(capsys):
    code, doc = run_json(capsys, ["cohomology", "--algebra", "sl2", "--k", "2"])
    assert code == 0
    item = doc["items"][0]
    assert item["actual"]["dim_H"] == 0


def test_algebra_report_file_input(tmp_path, capsys):
    path = tmp_path / "g.json"
    path.write_text(json.dumps(catalog.get("n_4_3").algebra.to_doc()), encoding="utf-8")
    code, doc = run_json(capsys, ["algebra", "--algebra", str(path)])
    assert code == 0
    by_name = {item["name"]: item["actual"] for item in doc["items"]}
    assert by_name["nilpotency_class"] == 3


def test_rigidity(capsys):
    code, doc = run_json(capsys, ["rigidity", "--algebra", "sl2"])
    assert code == 0
    values = {item["name"]: item["actual"] for item in doc["items"]}
    assert values["orbit_tangent_dim"] == 6
    assert values["dim_b2"] == 6


def test_deform_check(tmp_path, capsys):
    phi = {
        "format": "lieq-1",
        "degree": 2,
        "module_dim": 3,
        "coords": {"1,2": ["0", "0", "1"]},
    }
    path = tmp_path / "phi.json"
    path.write_text(json.dumps(phi), encoding="utf-8")
    code, doc = run_json(
        capsys, ["deform", "check", "--algebra", "abelian(3)", "--phi", str(path)]
    )
    assert code == 0 and doc["status"] == "pass"

    bad_phi = {
        "format": "lieq-1",
        "degree": 2,
        "module_dim": 3,
        "coords": {"1,3": ["1", "0", "0"]},
    }
    path_bad = tmp_path / "bad.json"
    path_bad.write_text(json.dumps(bad_phi), encoding="utf-8")
    code, doc = run_json(
        capsys, ["deform", "check", "--algebra", "h(1)", "--phi", str(path_bad)]
    )
    assert code == 1 and doc["status"] == "fail"


def test_deform_check_over_the_cap_is_usage_error(tmp_path, monkeypatch, capsys):
    """sl2 + t phi has one Jacobi candidate triple, over a cap of 0."""
    path = tmp_path / "phi.json"
    path.write_text(json.dumps({"format": "lieq-1", "degree": 2, "module_dim": 3,
                                "coords": {"1,2": ["0", "0", "1"]}}), encoding="utf-8")
    monkeypatch.setenv("LIEQ_SIZE_CAP", "0")
    assert cli.run(["deform", "check", "--algebra", "sl2", "--phi", str(path)]) == 2
    assert capsys.readouterr().err == (
        "usage error: Jacobi check of 1 candidate triple(s) exceeds LIEQ_SIZE_CAP = 0\n")


def test_deform_check_two_levels(tmp_path, capsys):
    def cochain_doc(coords):
        return {"format": "lieq-1", "degree": 2, "module_dim": 3, "coords": coords}

    p1 = tmp_path / "phi1.json"
    p1.write_text(json.dumps(cochain_doc({"1,2": ["0", "0", "1"]})), encoding="utf-8")
    p2 = tmp_path / "phi2.json"
    p2.write_text(
        json.dumps(cochain_doc({"1,2": ["1", "0", "0"], "2,3": ["0", "1", "0"]})),
        encoding="utf-8",
    )
    code, doc = run_json(
        capsys,
        ["deform", "check", "--algebra", "abelian(3)", "--phi", str(p1), "--phi2", str(p2)],
    )
    assert code == 1 and doc["status"] == "fail"  # mixed t^3 cross term survives


def test_deform_check_two_level_residual_on_two_coordinates(tmp_path, capsys):
    def cochain_file(name, coords):
        path = tmp_path / name
        doc = {"format": "lieq-1", "degree": 2, "module_dim": 3, "coords": coords}
        path.write_text(json.dumps(doc), encoding="utf-8")
        return str(path)

    argv = [
        "deform", "check", "--algebra", "abelian(3)",
        "--phi", cochain_file("phi1.json", {"1,2": ["0", "1", "0"]}),
        "--phi2", cochain_file("phi2.json", {"1,3": ["0", "1", "0"], "2,3": ["1", "0", "1"]}),
    ]
    code, doc = run_json(capsys, argv)
    assert code == 1 and doc["status"] == "fail"
    verdicts = {item["name"]: item["verdict"] for item in doc["items"]}
    assert verdicts == {"t^0": "pass", "t^1": "pass", "t^2": "pass", "t^3": "fail", "t^4": "fail",
                        "graded_jacobi": "fail"}
    defect = doc["items"][-1]["actual"]
    assert defect["triple"] == [1, 2, 3] and defect["degree"] == 3
    assert list(defect["residual"]) == ["1", "3"]
    assert cli.run(argv) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1] == (
        "  graded_jacobi  FAIL  expected=None actual="
        "{'triple': [1, 2, 3], 'degree': 3, 'residual': {'1': '-1', '3': '-1'}}"
    )


def test_extend_and_reconstruct(tmp_path, capsys):
    theta = {
        "format": "lieq-1",
        "target_dim": 1,
        "values": [{"i": 1, "j": 2, "out": {"1": "1"}}],
    }
    path = tmp_path / "theta.json"
    path.write_text(json.dumps(theta), encoding="utf-8")
    code, doc = run_json(
        capsys, ["extend", "--algebra", "abelian(2)", "--cocycle", str(path)]
    )
    assert code == 0
    extended = LieAlgebra.from_doc(doc)
    assert extended.dim == 3
    assert extended.invariant_signature() == catalog.get("h(1)").signature()

    code, doc = run_json(capsys, ["reconstruct", "--algebra", "n_5_4"])
    assert code == 0
    assert doc["status"] == "pass"
    assert doc["quotient"]["dim"] == 4


def test_qheis_normalize(capsys):
    code = cli.run(["qheis", "normalize", "A*B*B - q*B"])
    assert code == 0
    out = capsys.readouterr().out
    assert "B^2A" in out


def test_qheis_normalize_json_names_q(capsys):
    """Every coefficient document carries the wire-format key "var": "q"."""
    for extra in ([], ["--q", "1/2"]):
        code, doc = run_json(capsys, ["qheis", "normalize", "A*B*B - q*B", *extra])
        assert code == 0 and doc["normal_form"]
        assert all(poly["var"] == "q" for poly in doc["normal_form"].values())


def test_json_output_never_builds_the_text(capsys, monkeypatch):
    from lieq import qheis

    code, expected = run_json(capsys, ["qheis", "normalize", "A^3*B^3"])
    assert code == 0

    def refuse(self):
        raise AssertionError("the text form was built under --json")

    monkeypatch.setattr(qheis.NormalForm, "__str__", refuse)
    assert run_json(capsys, ["qheis", "normalize", "A^3*B^3"]) == (0, expected)


def test_qheis_verify_small(capsys):
    code, doc = run_json(capsys, ["qheis", "verify", "--max-n", "3"])
    assert code == 0 and doc["status"] == "pass"


def test_fock_commands(capsys):
    code, doc = run_json(capsys, ["fock", "verify", "--q", "1/2", "--n", "12"])
    assert code == 0 and doc["status"] == "pass"
    code, doc = run_json(capsys, ["fock", "build", "--q", "1/2", "--n", "4"])
    assert code == 0
    assert doc["lowering"]["entries"][0] == [1, 2, "1"]
    code, doc = run_json(capsys, ["fock", "cuntz", "--d", "2", "--depth", "3"])
    assert code == 0 and doc["status"] == "pass"


def test_negative_rational_q_values_parse(capsys):
    code, doc = run_json(capsys, ["fock", "verify", "--q", "-1/2", "--n", "8"])
    assert code == 0 and doc["status"] == "pass"
    code, doc = run_json(capsys, ["fock", "verify", "--q", "-1", "--n", "8"])
    assert code == 0


@pytest.mark.parametrize("q_text", ["i", "1+i", "-1/2+1/3i"])
def test_fock_verify_complex_q(capsys, q_text):
    code, doc = run_json(capsys, ["fock", "verify", f"--q={q_text}", "--n", "4"])
    verdicts = {item["name"]: item["verdict"] for item in doc["items"]}
    assert verdicts["squared_ladder"] == "pass"
    assert code == 0 and doc["status"] == "pass"


def test_fock_float_build(capsys):
    code, doc = run_json(capsys, ["fock", "build", "--q", "1", "--n", "4", "--mode", "float"])
    assert code == 0
    assert doc["superdiagonal"][1] == pytest.approx(2**0.5)


@pytest.mark.parametrize("mode", ["exact", "float"])
@pytest.mark.parametrize("n", ["1", "-3"])
def test_fock_build_rejects_small_sizes(capsys, mode, n):
    assert cli.run(["fock", "build", "--q", "1/2", "--n", n, "--mode", mode]) == 2
    assert "need at least a 2-dimensional truncation" in capsys.readouterr().err


def test_verify_all_passes(capsys):
    code, doc = run_json(capsys, ["verify-all", "--seed", "1"])
    assert code == 0
    assert doc["status"] == "pass"
    names = {item["name"] for item in doc["items"]}
    assert {"catalog", "q_identity_suite", "similarity_transport"} <= names


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        cli.run(["not-a-command"])
    assert exc.value.code == 2


def test_unknown_catalog_name_is_error(capsys):
    code = cli.run(["algebra", "--algebra", "n_9_9"])
    assert code == 1


def test_cohomology_rejects_negative_degree(capsys):
    code = cli.run(["cohomology", "--algebra", "sl2", "--k", "-1"])
    assert code == 2
    assert "--k must be a non-negative degree" in capsys.readouterr().err


def test_size_cap_respected(monkeypatch, capsys):
    monkeypatch.setenv("LIEQ_SIZE_CAP", "100")
    code = cli.run(["fock", "verify", "--q", "1", "--n", "64"])
    assert code == 2
    err = capsys.readouterr().err
    assert "LIEQ_SIZE_CAP" in err


@pytest.mark.parametrize(
    "argv, message",
    [(["fock", "build", "--q", "1/2", "--n", "64"], "64x64 matrix exceeds LIEQ_SIZE_CAP"),
     (["fock", "verify", "--q", "1/2", "--n", "64"], "64x64 matrix exceeds LIEQ_SIZE_CAP"),
     (["fock", "cuntz", "--d", "3", "--depth", "5"], "dimension 364 exceeds the configured cap")],
    ids=["build", "verify", "cuntz"],
)
def test_fock_over_the_cap_is_a_usage_error(argv, message, monkeypatch, capsys):
    """Refused work exits 2, as an over-cap qheis normalize does."""
    monkeypatch.setenv("LIEQ_SIZE_CAP", "100")
    assert cli.run(argv) == 2
    assert capsys.readouterr().err == f"usage error: {message}\n"


def test_cochains_over_the_cap_are_refused_before_they_are_built(capsys, monkeypatch):
    """h(30) at k = 5 has C(61,5)*61 cochain coordinates: refused with exit
    2 before a tuple is listed, instead of a MemoryError."""
    from lieq import cohomology

    monkeypatch.setattr(cohomology, "cochain_tuples", None)  # a call would raise TypeError
    assert cli.run(["cohomology", "--algebra", "h(30)", "--k", "5"]) == 2
    assert capsys.readouterr().err == (
        "usage error: d_5 with C(61,5)*61 = 362897967 columns exceeds LIEQ_SIZE_CAP = 200000\n")


def test_cochain_cap_follows_the_setting(capsys, monkeypatch):
    """d_1 of h(2) has C(5,1)*5 = 25 columns: refused under a cap of 24,
    built under 25."""
    monkeypatch.setenv("LIEQ_SIZE_CAP", "24")
    assert cli.run(["cohomology", "--algebra", "h(2)", "--k", "1"]) == 2
    assert "d_1 with C(5,1)*5 = 25 columns exceeds LIEQ_SIZE_CAP = 24" in capsys.readouterr().err
    monkeypatch.setenv("LIEQ_SIZE_CAP", "25")
    assert cli.run(["cohomology", "--algebra", "h(2)", "--k", "1"]) == 0


def test_jacobi_candidates_over_the_cap_exit_2(tmp_path, capsys, monkeypatch):
    """sl2 + sl2 has two candidate Jacobi triples: over a cap of 1, every
    command that checks Jacobi exits 2 before it walks them."""
    sl2 = catalog.get("sl2").algebra
    path = tmp_path / "sl2x2.json"
    path.write_text(json.dumps(sl2.direct_sum(sl2).to_doc()))
    monkeypatch.setenv("LIEQ_SIZE_CAP", "1")
    for argv in (["algebra", "--algebra", str(path)], ["cohomology", "--algebra", str(path), "--k", "0"]):
        assert cli.run(argv) == 2
        assert capsys.readouterr().err == (
            "usage error: Jacobi check of 2 candidate triple(s) exceeds LIEQ_SIZE_CAP = 1\n")


def test_large_bracket_free_algebra_is_refused_before_its_series(tmp_path, capsys, monkeypatch):
    """d_1 of a bracket-free dim-1000 algebra has 1000 * 1000 columns: the
    signature's size caps refuse it before any series is computed."""
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"format": "lieq-1", "dim": 1000, "brackets": []}))
    monkeypatch.delenv("LIEQ_SIZE_CAP", raising=False)
    assert cli.run(["algebra", "--algebra", str(path)]) == 2
    assert capsys.readouterr().err == (
        "usage error: d_1 with C(1000,1)*1000 = 1000000 columns exceeds LIEQ_SIZE_CAP = 200000\n")


def test_cochain_rows_are_not_listed(capsys, monkeypatch):
    """d_1 of abelian(1000) has C(1000,2) = 499500 rows: only the columns'
    tuples are listed, and no row tuple is, since trivial coefficients add
    no module-action term and an abelian bracket no bracket term."""
    from lieq import cohomology

    listed = []
    original = cohomology.cochain_tuples

    def recording(n, k):
        listed.append((n, k))
        return original(n, k)

    monkeypatch.setattr(cohomology, "cochain_tuples", recording)
    argv = ["cohomology", "--algebra", "abelian(1000)", "--k", "1", "--coeffs", "trivial", "--json"]
    assert cli.run(argv) == 0
    (item,) = json.loads(capsys.readouterr().out)["items"]
    assert item["actual"] == {"dim_Z": 1000, "dim_B": 0, "dim_H": 1000}
    assert sorted(listed) == [(1000, 0), (1000, 1)]


@pytest.mark.parametrize("expr", ["A^99999999999", "(A*B - q*B*A)^99999999999", "A^150000*B^50001"])
def test_size_cap_bounds_word_length(expr, capsys):
    assert cli.run(["qheis", "normalize", expr]) == 2
    assert "exceeds LIEQ_SIZE_CAP = 200000" in capsys.readouterr().err


def test_size_cap_setting_bounds_word_length(monkeypatch, capsys):
    monkeypatch.setenv("LIEQ_SIZE_CAP", "100")
    assert cli.run(["qheis", "normalize", "A^50*B^51"]) == 2
    assert "a word of 101 letters exceeds LIEQ_SIZE_CAP = 100" in capsys.readouterr().err
    assert cli.run(["qheis", "normalize", "B^50*A^50"]) == 0


@pytest.mark.parametrize("expr", ["(q+1)^200000", "q^100000000+1", "q^100000000*A*B + B*A"])
def test_size_cap_bounds_coefficients(expr, capsys):
    assert cli.run(["qheis", "normalize", expr]) == 2
    assert "exceeds LIEQ_SIZE_CAP = 200000" in capsys.readouterr().err


def test_cohomology_trivial_coefficients(capsys):
    code, doc = run_json(
        capsys,
        ["cohomology", "--algebra", "abelian(2)", "--coeffs", "trivial"],
    )
    assert code == 0
    by_name = {item["name"]: item["actual"] for item in doc["items"]}
    assert by_name["H^2"]["dim_H"] == 1


# [e1,e2] = e1, [e2,e3] = e2: the Jacobi sum on (e1, e2, e3) is e1
NON_LIE_DOC = {
    "format": "lieq-1",
    "dim": 3,
    "brackets": [{"i": 1, "j": 2, "out": {"1": "1"}}, {"i": 2, "j": 3, "out": {"2": "1"}}],
}


@pytest.fixture
def non_lie_path(tmp_path):
    path = tmp_path / "non_lie.json"
    path.write_text(json.dumps(NON_LIE_DOC), encoding="utf-8")
    return str(path)


def test_algebra_reports_the_jacobi_witness_of_a_non_lie_document(non_lie_path, capsys):
    code, doc = run_json(capsys, ["algebra", "--algebra", non_lie_path])
    assert code == 1 and doc["status"] == "fail"
    # the signature items need a Lie algebra, so the jacobi item is the report
    assert doc["items"] == [{
        "name": "jacobi",
        "expected": None,
        "actual": {"triple": [1, 2, 3], "residual": {"1": "1"}},
        "verdict": "fail",
    }]
    assert cli.run(["algebra", "--algebra", non_lie_path]) == 1
    out = capsys.readouterr().out
    assert out.startswith("algebra: fail (1 checks")
    assert "jacobi  FAIL" in out and "'triple': [1, 2, 3]" in out


@pytest.mark.parametrize("coeffs", ["ad", "trivial"])
def test_cohomology_refuses_a_non_lie_document(non_lie_path, capsys, coeffs):
    # trivial coefficients too: d^2 != 0 at k = 1 on this bracket
    assert cli.run(["cohomology", "--algebra", non_lie_path, "--coeffs", coeffs]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: Jacobi fails at triple (1, 2, 3)\n"


@pytest.mark.parametrize("json_flag", [[], ["--json"]], ids=["text", "json"])
def test_extend_names_the_jacobi_failure_of_its_base(non_lie_path, tmp_path, capsys, json_flag):
    # theta = e1^e2 is a cocycle only on a Lie base; the base is blamed, not theta
    theta = tmp_path / "theta.json"
    theta.write_text(json.dumps({"target_dim": 1, "values": [{"i": 1, "j": 2, "out": {"1": "1"}}]}),
                     encoding="utf-8")
    argv = ["extend", "--algebra", non_lie_path, "--cocycle", str(theta)] + json_flag
    assert cli.run(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: Jacobi fails at triple (1, 2, 3)\n"


@pytest.mark.parametrize("json_flag", [[], ["--json"]], ids=["text", "json"])
def test_reconstruct_names_the_jacobi_failure_of_its_base(non_lie_path, capsys, json_flag):
    assert cli.run(["reconstruct", "--algebra", non_lie_path] + json_flag) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: Jacobi fails at triple (1, 2, 3)\n"


def test_deterministic_under_fixed_seed(capsys):
    def strip_timing(doc):
        doc = dict(doc)
        doc.pop("timing_ms", None)
        return doc

    first = strip_timing(run_json(capsys, ["fock", "verify", "--q", "1/3", "--n", "8"])[1])
    second = strip_timing(run_json(capsys, ["fock", "verify", "--q", "1/3", "--n", "8"])[1])
    assert first == second


@pytest.mark.parametrize(
    "argv",
    [["qheis", "--json", "normalize", "A*B"], ["fock", "--json", "verify", "--q", "1/2", "--n", "8"],
     ["catalog", "list", "--seed", "1"], ["fock", "verify", "--q", "1/2", "--n", "8", "--seed", "1"]],
    ids=["json-on-qheis", "json-on-fock", "seed-on-catalog", "seed-on-fock-verify"],
)
def test_options_only_where_they_are_read(argv, capsys):
    """--json follows the subcommand that prints and --seed belongs to
    verify-all, so a flag anywhere else is refused rather than ignored."""
    with pytest.raises(SystemExit) as exc:
        cli.run(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [["deform", "check", "--algebra", "abelian(3)", "--phi", "{missing}"],
     ["extend", "--algebra", "abelian(2)", "--cocycle", "{missing}"]],
    ids=["deform-phi", "extend-cocycle"],
)
def test_missing_input_file_is_usage_error(argv, tmp_path, capsys):
    missing = tmp_path / "missing.json"
    assert cli.run([arg.format(missing=missing) for arg in argv]) == 2
    assert capsys.readouterr().err.startswith("usage error: [Errno 2] No such file")


@pytest.mark.parametrize("n", ["4", "400"])
def test_closed_stdout_exits_1_silently(n):
    """A reader that closes the pipe before the output is written ends the
    command with exit 1 and an empty stderr: not a usage error, and no
    complaint from the flush at interpreter exit."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, "-m", "lieq.cli", "fock", "build", "--q", "1/2", "--n", n],
                              stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=300)
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert proc.stderr == b""


@pytest.mark.parametrize(
    "argv",
    [
        ["fock", "verify", "--q", "1/0", "--n", "8"],
        ["fock", "build", "--q", "1/0", "--n", "4"],
        ["fock", "build", "--q", "1/0", "--n", "4", "--mode", "float"],
        ["qheis", "normalize", "1/0*A"],
    ],
)
def test_zero_denominator_is_usage_error(capsys, argv):
    assert cli.run(argv) == 2
    assert "zero denominator in scalar '1/0'" in capsys.readouterr().err


def test_exponent_in_scalar_is_usage_error(tmp_path, capsys):
    """A constant with an exponent is refused before it is expanded."""
    path = tmp_path / "g.json"
    doc = {"format": "lieq-1", "dim": 3, "brackets": [{"i": 1, "j": 2, "out": {"3": "1e999999999"}}]}
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert cli.run(["algebra", "--algebra", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage error:") and "exponent in scalar '1e999999999'" in err


@pytest.mark.parametrize(
    "constant, message",
    [
        ("1e5", "exponent in scalar '1e5'"),
        ("", "empty scalar string"),
        ("1/0", "zero denominator in scalar '1/0'"),
    ],
)
def test_malformed_constant_is_usage_error(tmp_path, capsys, constant, message):
    path = tmp_path / "g.json"
    doc = {"format": "lieq-1", "dim": 3, "brackets": [{"i": 1, "j": 2, "out": {"3": constant}}]}
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert cli.run(["algebra", "--algebra", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage error:") and message in err


def test_catalog_show_needs_a_name(capsys):
    assert cli.run(["catalog", "show"]) == 2
    assert "catalog show needs an algebra name" in capsys.readouterr().err


def test_cohomology_refuses_module_dim(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.run(["cohomology", "--algebra", "sl2", "--coeffs", "trivial", "--module-dim", "1"])
    assert exc.value.code == 2
    assert "--module-dim" in capsys.readouterr().err


def test_qheis_verify_rejects_negative_max_n(capsys):
    assert cli.run(["qheis", "verify", "--max-n", "-1"]) == 2
    assert "--max-n must be a non-negative size" in capsys.readouterr().err


def test_verify_all_runs_the_subset_sum_check(capsys, monkeypatch):
    from lieq import qheis

    def failing(n, k):
        return qheis.SubsetSumReport(n, k, False, False, None, None)

    monkeypatch.setattr(qheis, "subset_sum_binomial_check", failing)
    code, doc = run_json(capsys, ["verify-all"])
    assert code == 1
    verdicts = {item["name"]: item["verdict"] for item in doc["items"]}
    assert verdicts["q_identity_suite"] == "fail"


def _raise_lieq_error(*args):
    raise LieqError("shift map failed to intertwine on pair (1, 2)")


# For each verify-all entry, in battery order: the items it yields, an
# engine call it relies on ("module:attribute path"), and a wrong answer
# built from the right one.
_WRONG_ANSWERS = {
    "_verify_catalog": (
        {"catalog"}, "lieq.catalog:verify_all",
        lambda right: lambda: [catalog.VerifyItem("sl2", "jacobi", None, "broken")]),
    "_verify_sl2": (
        {"sl2_der_inn", "sl2_h2", "sl2_rigidity"}, "lieq.deform:rigidity_report",
        lambda right: lambda g: right(g)._replace(dim_h2=1)),
    "_verify_d_squared_zero": (
        {"d_squared_zero"}, "lieq.cohomology:CochainComplex.d_squared_zero",
        lambda right: lambda self, k: False),
    "_verify_skjelbred_sund_round_trip": (
        {"skjelbred_sund_round_trip"}, "lieq.extend:coboundary_shift_iso",
        lambda right: _raise_lieq_error),
    "_verify_deformation": (
        {"zero_base_deformation", "cyclic_cocycle_counterexample_passes_cycle",
         "cyclic_cocycle_counterexample_fails_full"}, "lieq.deform:deformation_is_lie",
        lambda right: lambda d: None),
    "_verify_q_identity_suite": (
        {"q_identity_suite"}, "lieq.qheis:verify_powandprod",
        lambda right: lambda n: n != 7),
    "_verify_fock_interior_exactness": (
        {"fock_interior_exactness"}, "lieq.fock:spectrum_closed_form",
        lambda right: lambda q0, n: right(q0, n)[::-1]),
    "_verify_biorthogonality": (
        {"biorthogonality"}, "lieq.fock:BiorthogonalSystem.pairing_matrix",
        lambda right: lambda self: right(self).scale(2)),
    "_verify_shifted_pair": (
        {"shifted_pair_matches_a_sh"}, "lieq.fock:ShiftedPair.extracted_constants",
        lambda right: lambda self: {}),
    "_verify_similarity_transport": (
        {"similarity_transport"}, "lieq.fock:similarity_transport",
        lambda right: lambda pairs, t, q0: right(pairs, t, q0)._replace(conjugation_exact=False)),
    "_verify_cuntz_toeplitz": (
        {"cuntz_toeplitz"}, "lieq.fock:CuntzToeplitz.defect_supported_on_top_degree",
        lambda right: lambda self, i, j: i != j),
}


def test_every_battery_entry_has_a_wrong_answer():
    assert list(_WRONG_ANSWERS) == [entry.__name__ for entry in checks._BATTERY]


@pytest.mark.parametrize("entry", list(_WRONG_ANSWERS))
def test_each_battery_entry_fails_on_a_wrong_engine_answer(capsys, monkeypatch, entry):
    """One wrong engine answer fails verify-all, in an item of the entry
    that relies on it and in no other entry's items; an engine that raises
    LieqError fails its entry's item the same way."""
    import importlib

    items, target, wrong = _WRONG_ANSWERS[entry]
    module, path = target.split(":")
    owner = importlib.import_module(module)
    *owners, attr = path.split(".")
    for name in owners:
        owner = getattr(owner, name)
    monkeypatch.setattr(owner, attr, wrong(getattr(owner, attr)))
    code, doc = run_json(capsys, ["verify-all"])
    assert code == 1 and doc["status"] == "fail"
    verdicts = {item["name"]: item["verdict"] for item in doc["items"]}
    assert set(verdicts) == set().union(*(names for names, *_ in _WRONG_ANSWERS.values()))
    assert "fail" in {verdicts[name] for name in items}
    assert all(verdict == "pass" for name, verdict in verdicts.items() if name not in items)


@pytest.mark.parametrize(
    "doc, message",
    [
        ([1], "algebra document must be a JSON object"),
        ("h(1)", "algebra document must be a JSON object"),
        ({}, "algebra document has no 'dim' field"),
        ({"dim": 3, "brackets": {"i": 1, "j": 2}}, "field 'brackets' must be a JSON array"),
        ({"dim": 3, "brackets": [{"i": 1, "j": 2}]}, "bracket entry has no 'out' field"),
        ({"dim": 3, "brackets": [{"i": 1, "j": 2, "out": [1]}]}, "field 'out' must be a JSON object"),
        ({"dim": 3, "brackets": [{"i": 1, "j": 2, "out": {"3": None}}]},
         "'out' value must be a JSON scalar string or integer, not NoneType"),
        ({"dim": 3, "labels": 5}, "field 'labels' must be a JSON array, not int"),
        ({"dim": 3, "labels": [1, 2, 3]}, "algebra label must be a JSON string, not int"),
        ({"dim": 3.7}, "field 'dim' must be a JSON integer, not float"),
        ({"dim": 3.0}, "field 'dim' must be a JSON integer, not float"),
        ({"dim": True}, "field 'dim' must be a JSON integer, not bool"),
        ({"dim": "3"}, "field 'dim' must be a JSON integer, not str"),
        ({"dim": 3, "brackets": [{"i": True, "j": 2, "out": {"3": "1"}}]},
         "field 'i' must be a JSON integer, not bool"),
        ({"dim": 3, "brackets": [{"i": 1, "j": 2.5, "out": {"3": "1"}}]},
         "field 'j' must be a JSON integer, not float"),
        ({"dim": 3, "brackets": [{"i": 1, "j": 2, "out": {"3": 0.1}}]},
         'not float; write it as a string such as "1/10"'),
        ({"dim": 3, "brackets": [{"i": 1, "j": 2, "out": {"3": 2.0}}]},
         'not float; write it as a string such as "1/10"'),
        ({"dim": 3, "brackets": [{"i": 1, "j": 2, "out": {"3": False}}]},
         "'out' value must be a JSON scalar string or integer, not bool"),
        ({"dim": 3, "brackets": [{"i": 1, "j": 2, "out": {"9": "1"}}]},
         "bracket entry 'out' key 9 outside 1..3"),
        ({"dim": 3, "brackets": [{"i": 1, "j": 2, "out": {"0": "1"}}]},
         "bracket entry 'out' key 0 outside 1..3"),
        ({"dim": 3, "brackets": [{"i": 1, "j": 2, "out": {"3.0": "1"}}]},
         "bracket entry 'out' key '3.0' is not a basis index"),
        ({"dim": 3, "brackets": [{"i": 0, "j": 2, "out": {"3": "1"}}]}, "bracket entry 'i' 0 outside 1..3"),
        ({"dim": 3, "brackets": [{"i": 1, "j": 4, "out": {"3": "1"}}]}, "bracket entry 'j' 4 outside 1..3"),
        ({"dim": 3, "brackets": [{"i": 2, "j": 1, "out": {"3": "1"}}]}, "bracket entry (2, 1) needs i < j"),
        ({"format": "lieq-1", "dim": 3, "labels": ["a"], "brackets": []}, "label count != dim"),
    ],
    ids=["array", "string", "no-dim", "brackets-object", "no-out", "out-array", "out-null",
         "labels-number", "labels-not-strings", "dim-fraction", "dim-float", "dim-bool",
         "dim-string", "i-bool", "j-float", "out-float", "out-integral-float", "out-bool",
         "out-key-above-dim", "out-key-zero", "out-key-not-integer", "i-zero", "j-above-dim",
         "i-after-j", "label-count"],
)
def test_malformed_algebra_document_is_usage_error(tmp_path, capsys, doc, message):
    path = tmp_path / "g.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert cli.run(["algebra", "--algebra", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage error:") and message in err


def _bad_scalar_doc(scalar):
    """A document whose one scalar is malformed both as a cochain coordinate
    (read by deform check --phi) and as a cocycle value (extend --cocycle)."""
    return {"degree": 2, "module_dim": 3, "coords": {"1,2": [scalar, "0", "0"]},
            "target_dim": 1, "values": [{"i": 1, "j": 2, "out": {"1": scalar}}]}


@pytest.mark.parametrize(
    "doc, message",
    [
        ([1], "document must be a JSON object"),
        ({"degree": 2}, "document has no "),
        (_bad_scalar_doc(None), "must be a JSON scalar string or integer, not NoneType"),
        (_bad_scalar_doc([1]), "must be a JSON scalar string or integer, not list"),
        (_bad_scalar_doc(0.1), 'not float; write it as a string such as "1/10"'),
        (_bad_scalar_doc(True), "must be a JSON scalar string or integer, not bool"),
        ({**_bad_scalar_doc("1"), "degree": 2.0, "target_dim": 1.0}, "must be a JSON integer, not float"),
    ],
    ids=["array", "degree-only", "null-scalar", "array-scalar", "float-scalar", "bool-scalar",
         "float-size"],
)
@pytest.mark.parametrize(
    "argv",
    [["deform", "check", "--algebra", "h(1)", "--phi"], ["extend", "--algebra", "h(1)", "--cocycle"]],
    ids=["deform-phi", "extend-cocycle"],
)
def test_malformed_cochain_document_is_usage_error(tmp_path, capsys, argv, doc, message):
    path = tmp_path / "c.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert cli.run(argv + [str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage error:") and message in err


@pytest.mark.parametrize(
    "doc, message",
    [
        ({"degree": 2, "module_dim": 3, "coords": {"1,4": ["1", "0", "0"]}},
         "cochain coords key '1,4' index 4 outside 1..3"),
        ({"degree": 2, "module_dim": 3, "coords": {"0,2": ["1", "0", "0"]}},
         "cochain coords key '0,2' index 0 outside 1..3"),
        ({"degree": 2, "module_dim": 3, "coords": {"1,x": ["1", "0", "0"]}},
         "cochain coords key '1,x' index 'x' is not a basis index"),
        # well-formed cochains that cannot be a perturbation of h(1)
        ({"degree": 1, "module_dim": 3, "coords": {"1": ["1", "0", "0"]}},
         "perturbations must be degree-2 cochains, not 1"),
        ({"degree": 3, "module_dim": 3, "coords": {"1,2,3": ["1", "0", "0"]}},
         "perturbations must be degree-2 cochains, not 3"),
        ({"degree": 2, "module_dim": 1, "coords": {"1,2": ["1"]}},
         "perturbation module_dim 1 is not dim g = 3"),
    ],
    ids=["above-dim", "zero", "not-integer", "degree-1", "degree-3", "module-dim-1"],
)
def test_out_of_range_cochain_key_is_usage_error(tmp_path, capsys, doc, message):
    path = tmp_path / "phi.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert cli.run(["deform", "check", "--algebra", "h(1)", "--phi", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage error:") and message in err


@pytest.mark.parametrize(
    "entry, message",
    [
        ({"i": 1, "j": 7, "out": {"1": "1"}}, "bracket entry 'j' 7 outside 1..3"),
        ({"i": 2, "j": 1, "out": {"1": "1"}}, "bracket entry (2, 1) needs i < j"),
        ({"i": 1, "j": 2, "out": {"2": "1"}}, "bracket entry 'out' key 2 outside 1..1"),
    ],
    ids=["pair-above-dim", "pair-reversed", "target-above-dim"],
)
def test_out_of_range_cocycle_index_is_usage_error(tmp_path, capsys, entry, message):
    path = tmp_path / "theta.json"
    path.write_text(json.dumps({"target_dim": 1, "values": [entry]}), encoding="utf-8")
    assert cli.run(["extend", "--algebra", "h(1)", "--cocycle", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage error:") and message in err


# -- help texts and usage errors -------------------------------------------------

# stdout, stderr and exit code of every help text and of argparse's usage
# errors, at 80 columns; regenerate with tests/gen_golden.py
_USAGE = json.loads((Path(__file__).parent / "golden" / "cli_usage.json").read_text())


def test_golden_usage_covers_every_command():
    helped = {tuple(entry["argv"][:-1]) for entry in _USAGE if entry["argv"][-1:] == ["--help"]}
    assert {(name,) for name in cli._COMMANDS} | {()} <= helped
    assert {("qheis", "normalize"), ("qheis", "verify"), ("fock", "build"), ("fock", "verify"),
            ("fock", "cuntz")} <= helped


@pytest.mark.parametrize("entry", _USAGE, ids=[" ".join(e["argv"]) or "no-arguments" for e in _USAGE])
def test_usage_text_matches_golden(entry, capsys, monkeypatch):
    """Building only the invoked command's subparser changes no help text
    and no usage error, not even the usage line that lists every command."""
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        cli.run(entry["argv"])
    out, err = capsys.readouterr()
    assert (exc.value.code, out, err) == (entry["code"], entry["stdout"], entry["stderr"])


# -- each subcommand in a fresh interpreter ------------------------------------

# Runs one command the way the console script does and reports the exit code
# and the lieq modules (and dataclasses) that the process loaded.
_FRESH = """
import contextlib, io, json, sys
from lieq import cli
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    try:
        code = cli.run(json.loads(sys.argv[1]))
    except SystemExit as exc:  # help texts and argparse's usage errors
        code = exc.code
loaded = sorted(m for m in sys.modules if m == "dataclasses" or m.startswith("lieq."))
print(json.dumps({"code": code, "modules": loaded}))
"""

_LIE = {"liealg", "linalg"}
_CATALOG = {"catalog"} | _LIE
_COHOMOLOGY = {"cohomology"} | _CATALOG
_QHEIS = {"qheis", "laurent"}
_FOCK = {"fock", "linalg"} | _QHEIS
_USAGE_ERROR = ["rigidity"]  # no --algebra: argparse exits 2


@pytest.mark.parametrize(
    "argv, engines",
    [
        (["--help"], set()),
        (_USAGE_ERROR, set()),
        (["catalog", "list"], _CATALOG),
        (["catalog", "show", "n_5_4"], _CATALOG),
        (["algebra", "--algebra", "n_5_6"], _COHOMOLOGY),
        (["cohomology", "--algebra", "h(2)", "--coeffs", "trivial"], _COHOMOLOGY),
        (["rigidity", "--algebra", "n_5_6"], _COHOMOLOGY | {"deform"}),
        (["reconstruct", "--algebra", "h(2)"], _COHOMOLOGY | {"extend"}),
        (["deform", "check", "--algebra", "abelian(3)", "--phi", "{phi}"], _COHOMOLOGY | {"deform"}),
        (["extend", "--algebra", "abelian(2)", "--cocycle", "{theta}"], _COHOMOLOGY | {"extend"}),
        (["qheis", "normalize", "A^3*B^3"], _QHEIS),
        (["qheis", "verify", "--max-n", "4"], _QHEIS | {"checks"}),
        (["fock", "build", "--q", "1/2", "--n", "4"], _FOCK),
        (["fock", "verify", "--q", "1/2", "--n", "8"], _FOCK | {"checks"}),
        (["fock", "cuntz", "--d", "2", "--depth", "3"], _FOCK | {"checks"}),
        (["verify-all"], _COHOMOLOGY | _FOCK | {"checks", "deform", "extend"}),
    ],
    ids=["help", "usage-error", "catalog-list", "catalog-show", "algebra", "cohomology", "rigidity", "reconstruct",
         "deform-check", "extend", "qheis-normalize", "qheis-verify", "fock-build", "fock-verify",
         "fock-cuntz", "verify-all"],
)
def test_fresh_process_loads_only_its_engine(tmp_path, argv, engines):
    """Each command imports only the engine modules it runs, and nothing
    imports dataclasses: help texts and usage errors load no engine, the
    q/Fock commands load no lieq.liealg (and qheis no lieq.linalg), the
    Lie-algebra commands load no lieq.laurent (only the q-calculus does)
    and no lieq.checks (only verify-all and the q/Fock commands that report
    its items do).  A fresh interpreter per command also catches a missing
    local import that an earlier in-process test would hide."""
    files = {
        "phi": {"degree": 2, "module_dim": 3, "coords": {"1,2": ["0", "0", "1"]}},
        "theta": {"target_dim": 1, "values": [{"i": 1, "j": 2, "out": {"1": "1"}}]},
    }
    paths = {}
    for name, doc in files.items():
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps(doc), encoding="utf-8")
    argv = [arg.format(**paths) for arg in argv]
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", _FRESH, json.dumps(argv)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["code"] == (2 if argv == _USAGE_ERROR else 0)
    base = {"cli", "exactnum"}
    assert result["modules"] == sorted(f"lieq.{name}" for name in base | engines)


def test_importing_the_entry_point_loads_only_the_dispatcher():
    """A fresh ``import lieq.cli`` loads lieq, lieq.cli and lieq.exactnum
    and nothing else of lieq; the package's public names still resolve,
    by attribute and by ``from lieq import *``."""
    script = """
import json, sys
import lieq.cli
loaded = sorted(m for m in sys.modules if m == "lieq" or m.startswith("lieq."))
import lieq
from lieq import *
from lieq.linalg import Subspace as linalg_subspace
from lieq.liealg import LieAlgebra as liealg_algebra
print(json.dumps({"modules": loaded,
                  "resolved": [lieq.LieAlgebra is liealg_algebra, lieq.Subspace is linalg_subspace,
                               LieAlgebra is liealg_algebra, Subspace is linalg_subspace,
                               LaurentPoly is lieq.laurent.LaurentPoly,
                               GaussRat is lieq.exactnum.GaussRat]}))
"""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["modules"] == ["lieq", "lieq.cli", "lieq.exactnum"]
    assert all(result["resolved"])


def test_importing_the_battery_loads_no_entry_point():
    """lieq.checks reaches its engines by local imports and never lieq.cli."""
    script = "import json, sys; import lieq.checks; print(json.dumps(sorted(sys.modules)))"
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    loaded = json.loads(proc.stdout.splitlines()[-1])
    assert "lieq.checks" in loaded and "lieq.cli" not in loaded


def test_no_module_imports_a_name_it_never_uses():
    """Every name a module under lieq imports is read in the scope that
    imports it (the module, or the function for a local import); the
    package's re-exports in __init__.__all__ are exempt."""
    import ast

    unused = []
    for path in sorted(Path(cli.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        parent = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
        exported = {elt.value for node in tree.body if isinstance(node, ast.Assign)
                    and [getattr(t, "id", None) for t in node.targets] == ["__all__"]
                    for elt in node.value.elts}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)) or getattr(node, "module", "") == "__future__":
                continue
            scope = parent[node]
            while scope is not tree and not isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef)):
                scope = parent[scope]
            read = {n.id for n in ast.walk(scope) if isinstance(n, ast.Name)}
            for alias in node.names:
                name = (alias.asname or alias.name).split(".")[0]
                if name not in read and name not in exported:
                    unused.append(f"{path.name}:{node.lineno} {name}")
    assert not unused
