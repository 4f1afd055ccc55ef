import json

import pytest
from conftest import brute_nonassociative_triple

from crvar import cli
from crvar import semigroups as sg
from crvar.battery import left_zero


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.fixture()
def lz2_file(tmp_path):
    path = tmp_path / "lz2.json"
    path.write_text(sg.table_to_json(left_zero(2)))
    return str(path)


@pytest.fixture()
def fb2_file(tmp_path):
    path = tmp_path / "fb2.json"
    path.write_text(sg.table_to_json(sg.free_band(2)))
    return str(path)


# ---------------------------------------------------------------------------
# word


def test_word_mirror_worked_example(capsys):
    code, out, _ = run(capsys, "word", "mirror", "p(q(rs)^-1t)^-1u")
    assert code == 0
    assert out.strip() == "u(t(sr)^-1q)^-1p"


def test_word_validate_false_exit_one(capsys):
    code, out, _ = run(capsys, "word", "validate", "()^-1")
    assert code == 1
    assert out.startswith("false")


def test_word_validate_true(capsys):
    code, out, _ = run(capsys, "word", "validate", "x(x)^-1")
    assert code == 0
    assert out.strip() == "true"


def test_word_malformed_exit_two(capsys):
    code, _, err = run(capsys, "word", "validate", "x%y")
    assert code == 2
    assert "error" in err


def test_word_parse(capsys):
    code, out, _ = run(capsys, "word", "parse", "xy(x)^-1")
    assert code == 0
    assert "irreducible factors: 3" in out


def test_word_zeta_check(capsys):
    code, out, _ = run(capsys, "word", "zeta-check", "x", "((x)^-1)^-1", "--budget", "10")
    assert code == 0
    assert "equivalent, path length 1" in out


def test_word_zeta_unknown_exit_one(capsys):
    code, out, _ = run(capsys, "word", "zeta-check", "x", "y", "--budget", "2")
    assert code == 1
    assert "unknown" in out


# ---------------------------------------------------------------------------
# variety


def test_variety_dual_catalog(capsys):
    code, out, _ = run(capsys, "variety", "dual", "catalog:LZ")
    assert code == 0
    assert out.strip() == "yx = x"


def test_variety_apply_Kl_SG(capsys):
    code, out, _ = run(capsys, "variety", "apply", "--ops", "Kl", "catalog:SG")
    assert code == 0
    assert len(out.strip().splitlines()) == 3


def test_variety_apply_unbalanced_errors(capsys):
    code, _, err = run(capsys, "variety", "apply", "--ops", "K", "catalog:LZ")
    assert code == 2
    assert "content-unbalanced" in err


def test_variety_member_false_with_witness(capsys, fb2_file):
    code, out, _ = run(capsys, "variety", "member", "catalog:LNB", fb2_file)
    assert code == 1
    assert out.startswith("false:")
    assert "fails under" in out


def test_variety_member_true(capsys, fb2_file):
    code, out, _ = run(capsys, "variety", "member", "catalog:B", fb2_file)
    assert code == 0
    assert out.strip() == "true"


def test_variety_basis_file_loading(capsys, tmp_path, fb2_file):
    path = tmp_path / "comm.txt"
    path.write_text("xy = yx\nxx = x\n")
    code, out, _ = run(capsys, "variety", "member", str(path), fb2_file)
    assert code == 1
    code, out, _ = run(capsys, "variety", "apply", "--ops", "T", str(path))
    assert code == 0
    assert len(out.strip().splitlines()) == 4


def test_variety_unbalanced_file_reports_lines(capsys, tmp_path):
    path = tmp_path / "mixed.txt"
    path.write_text("xy = yx\nxy = x\n")
    code, _, err = run(capsys, "variety", "apply", "--ops", "Kl", str(path))
    assert code == 2
    assert "(2,)" in err or "2" in err


def test_variety_member_json_format(capsys, fb2_file):
    code, out, _ = run(
        capsys, "variety", "member", "--format", "json", "catalog:NB", fb2_file
    )
    assert code == 0
    assert json.loads(out) == {"member": True}


def test_variety_member_trivial_identity_skips_enumeration(capsys, tmp_path, monkeypatch):
    # on FB3 this identity has 159^6 assignments; its sides are equal as written
    table = tmp_path / "fb3.json"
    table.write_text(sg.table_to_json(sg.free_band(3)))
    basis = tmp_path / "trivial.txt"
    basis.write_text("xyzuvw = xyzuvw\n")
    monkeypatch.setattr(sg, "compile_identity", None)
    code, out, _ = run(capsys, "variety", "member", "--format", "json", str(basis), str(table))
    assert code == 0
    assert json.loads(out) == {"member": True}


# ---------------------------------------------------------------------------
# malformed input: one line on stderr, exit 2


def assert_input_error(capsys, *argv):
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert err.startswith("error: ")
    assert err.count("\n") == 1


def test_table_with_float_entries(capsys, tmp_path):
    path = tmp_path / "float.json"
    path.write_text('{"op": [[0.0, 1.0], [0.0, 1.0]], "inv": [0, 1]}')
    assert_input_error(capsys, "semigroup", "green", str(path))
    assert_input_error(capsys, "semigroup", "check", str(path))


def test_table_not_utf8(capsys, tmp_path, fb2_file):
    path = tmp_path / "latin1.json"
    path.write_bytes(b'{"name": "caf\xe9", "op": [[0]], "inv": [0]}')
    assert_input_error(capsys, "semigroup", "green", str(path))
    assert_input_error(capsys, "semigroup", "check", str(path))
    assert_input_error(capsys, "variety", "member", str(path), fb2_file)


def test_zeta_check_budget_zero(capsys):
    assert_input_error(capsys, "word", "zeta-check", "xy", "yx", "--budget", "0")


def test_basis_line_with_two_equals(capsys, tmp_path, fb2_file):
    path = tmp_path / "chain.txt"
    path.write_text("x = y = z\n")
    assert_input_error(capsys, "variety", "member", str(path), fb2_file)


def test_unknown_catalog_basis(capsys, fb2_file):
    assert_input_error(capsys, "variety", "member", "catalog:NOPE", fb2_file)


def test_declared_order_mismatch(capsys, tmp_path):
    path = tmp_path / "order.json"
    path.write_text('{"order": 2, "op": [[0]], "inv": [0]}')
    assert_input_error(capsys, "semigroup", "green", str(path))
    assert_input_error(capsys, "semigroup", "check", str(path))


def test_table_name_not_a_string(capsys, tmp_path):
    path = tmp_path / "name.json"
    path.write_text('{"op": [[0]], "inv": [0], "name": ["x"]}')
    with pytest.raises(sg.TableError):
        sg.parse_table(path.read_text())
    for action in ("dual", "check", "green"):
        assert_input_error(capsys, "semigroup", action, str(path))


def test_table_integer_too_long(capsys, tmp_path):
    path = tmp_path / "digits.json"
    path.write_text('{"op": [[' + "1" * 5000 + ']], "inv": [0]}')
    assert_input_error(capsys, "semigroup", "green", str(path))
    assert_input_error(capsys, "semigroup", "check", str(path))


def test_unwritable_output_file(capsys, tmp_path):
    missing = str(tmp_path / "no" / "such" / "out")
    for argv in (
        ("word", "mirror", "xy", "-o", missing),
        ("network", "--theorem", "4.2", "-o", missing),
    ):
        code, _, err = run(capsys, *argv)
        assert code == 2
        assert err.startswith("error: cannot write output file: ")
        assert err.count("\n") == 1


def test_deeply_nested_table_file(capsys, tmp_path):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100000 + "]" * 100000)
    for action in ("green", "check"):
        code, _, err = run(capsys, "semigroup", action, str(path))
        assert (code, err) == (2, "error: input nests too deeply\n")


def test_deeply_nested_word(capsys):
    text = "(" * 3000 + "x" + ")^-1" * 3000
    code, _, err = run(capsys, "word", "parse", text)
    assert (code, err) == (2, "error: input nests too deeply\n")


# ---------------------------------------------------------------------------
# semigroup


def test_semigroup_freeband(capsys, tmp_path):
    out_path = tmp_path / "fb2.json"
    code, _, _ = run(capsys, "semigroup", "freeband", "--generators", "2", "-o", str(out_path))
    assert code == 0
    payload = json.loads(out_path.read_text())
    assert payload["order"] == 6


def test_semigroup_green(capsys, lz2_file):
    code, out, _ = run(capsys, "semigroup", "green", lz2_file)
    assert code == 0
    assert "L: universal" in out
    assert "R: identity" in out


def test_semigroup_check_reports_failure(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"order": 2, "op": [[0, 1], [0, 0]], "inv": [0, 1]}')
    code, out, _ = run(capsys, "semigroup", "check", str(bad))
    assert code == 1
    assert "not associative" in out


def test_semigroup_check_names_the_first_triple_of_a_large_table(capsys, tmp_path):
    S = sg.direct_product(sg.free_band(3), left_zero(2))
    op = [list(row) for row in S.op]
    op[40][7] = op[40][8]
    edited = sg.table(op, S.inv)
    triple = brute_nonassociative_triple(edited)
    assert triple is not None
    path = tmp_path / "edited.json"
    path.write_text(sg.table_to_json(edited))
    code, out, _ = run(capsys, "semigroup", "check", str(path))
    assert code == 1
    assert out == f"order 318: not associative, failing triple {triple}\n"


def test_semigroup_extend_then_L0_identity(capsys, tmp_path, fb2_file):
    ext = tmp_path / "ext.json"
    code, _, _ = run(capsys, "semigroup", "extend", fb2_file, "-o", str(ext))
    assert code == 0
    assert json.loads(ext.read_text())["order"] == 13
    code, out, _ = run(capsys, "semigroup", "congruence", "--kind", "L0", str(ext))
    assert code == 0
    assert out.strip() == "L0: identity"


def test_semigroup_quotient_and_dual(capsys, tmp_path, fb2_file):
    out_path = tmp_path / "q.json"
    code, _, _ = run(capsys, "semigroup", "quotient", "--kind", "tau", fb2_file, "-o", str(out_path))
    assert code == 0
    assert json.loads(out_path.read_text())["order"] == 1
    code, out, _ = run(capsys, "semigroup", "dual", fb2_file)
    assert code == 0
    assert json.loads(out)["order"] == 6


# ---------------------------------------------------------------------------
# network


def test_network_42_depth1_json(capsys):
    code, out, _ = run(capsys, "network", "--theorem", "4.2", "--depth", "1", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert len(payload["nodes"]) == 4
    assert len(payload["covers"]) == 4


def test_network_51_depth2_dot(capsys):
    code, out, _ = run(capsys, "network", "--theorem", "5.1", "--depth", "2", "--format", "dot")
    assert code == 0
    assert out.startswith("digraph")
    assert '"Vr^Kl"' in out


def test_network_51_bound_instantiation(capsys):
    code, out, _ = run(
        capsys,
        "network",
        "--theorem",
        "5.1",
        "--depth",
        "1",
        "--bind",
        "V=S,Vl=LNB,Vr=RNB",
        "--format",
        "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert len(payload["nodes"]) == 9
    with_bases = [n for n in payload["nodes"] if n["basis"] is not None]
    assert len(with_bases) == 6
    assert len(payload["nodes"]) - len(with_bases) == 3


def test_network_61_needs_flags(capsys):
    code, _, err = run(capsys, "network", "--theorem", "6.1", "--depth", "1")
    assert code == 2
    assert "side conditions" in err
    code, out, _ = run(
        capsys, "network", "--theorem", "6.1", "--depth", "1",
        "--assume-side-conditions", "--format", "json",
    )
    assert code == 0
    assert len(json.loads(out)["nodes"]) == 9


def test_network_45_cross_edges(capsys):
    code, out, _ = run(capsys, "network", "--theorem", "4.5", "--depth", "1", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert len(payload["nodes"]) == 10  # 4 + 6, no identifications


def test_outputs_deterministic(capsys):
    results = []
    for _ in range(2):
        code, out, _ = run(capsys, "network", "--theorem", "4.3", "--depth", "3", "--format", "dot")
        assert code == 0
        results.append(out)
    assert results[0] == results[1]


def test_bad_binding_rejected(capsys):
    code, _, err = run(
        capsys, "network", "--theorem", "5.1", "--bind", "V=NOPE", "--format", "json"
    )
    assert code == 2
