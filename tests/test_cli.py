"""Command-line interface: exit codes, emitted documents, summaries."""

import copy
import functools
import gc
import json
import operator
import os
import random
import shutil
import signal
from fractions import Fraction
import subprocess
import sys

import pytest

from phopf.cli import main, run
from phopf.serialize import read_document, write_document

KIND_OF_FILE = {
    "hopf.json": "hopf",
    "algebra.json": "algebra",
    "action.json": "action",
    "coaction.json": "coaction",
    "bimodule.json": "bimodule",
    "bicomodule.json": "bicomodule",
}


def write_hostile(doc, path):
    """Write doc as JSON, floats included, which write_document refuses: a
    hostile document the CLI must reject cleanly."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, ensure_ascii=False)


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def emit(capsys, name, outdir, *extra):
    code, doc = run_json(capsys, ["example", name, "-o", str(outdir),
                                  "--format", "json", *extra])
    assert code == 0 and doc["example"] == name
    return doc["files"]


# ---------------------------------------------------------------------------
# example + check round trips


@pytest.mark.parametrize("name,extra", [
    ("sweedler-bimodule-k", ("--r", "2", "--s", "3")),
    ("sweedler-bicomodule-k", ("--t", "7", "--u", "3")),
    ("en-kg", ("--group", "z4", "--N", "0,2")),
    ("dual-group-action", ("--group", "z4")),
    ("regular-bicomodule", ()),
    ("z2-partial-group", ()),
])
def test_every_example_emits_certified_documents(tmp_path, capsys, name, extra):
    files = emit(capsys, name, tmp_path, *extra)
    assert files
    for path in files:
        base = os.path.basename(path)
        if base not in KIND_OF_FILE:
            continue
        code = main(["check", KIND_OF_FILE[base], path])
        capsys.readouterr()
        assert code == 0, (name, base)


def test_example_text_output_lists_written_files(tmp_path, capsys):
    code = main(["example", "en-kg", "-o", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "wrote" in out and "action.json" in out


@pytest.mark.parametrize("field", ["qq", "gf5", "gf7"])
def test_examples_parameterize_over_fields(tmp_path, capsys, field):
    files = emit(capsys, "sweedler-bimodule-k", tmp_path,
                 "--field", field, "--r", "1", "--s", "2")
    code = main(["check", "bimodule",
                 next(p for p in files if p.endswith("bimodule.json"))])
    capsys.readouterr()
    assert code == 0


def test_example_exit_codes(tmp_path, capsys):
    # characteristic two: the Sweedler algebra does not exist -> semantic failure
    assert main(["example", "sweedler-bimodule-k", "--field", "gf2",
                 "-o", str(tmp_path)]) == 1
    # malformed scalar parameter -> parse failure
    assert main(["example", "sweedler-bimodule-k", "--r", "1.5",
                 "-o", str(tmp_path)]) == 2
    # unknown builtin group -> parse failure
    assert main(["example", "en-kg", "--group", "z9", "-o", str(tmp_path)]) == 2
    capsys.readouterr()


def test_a_negative_fraction_follows_its_option(tmp_path, capsys, monkeypatch):
    # `--r -1/2` is the value -1/2 (argparse took -1/2 for an option and
    # exited 2), and writes the bytes that `--r=-1/2` writes
    monkeypatch.chdir(tmp_path)
    outs = []
    for params, out in ((["--r", "-1/2", "--s", "-3/4"], "spaced"),
                        (["--r=-1/2", "--s=-3/4"], "joined")):
        assert main(["example", "sweedler-bimodule-k", *params, "-o", out]) == 0
        outs.append(capsys.readouterr().out.replace(out, "OUT"))
    assert outs[0] == outs[1] and "r=-1/2 s=-3/4 over QQ" in outs[0]
    assert _written_bytes(tmp_path / "spaced") == _written_bytes(tmp_path / "joined")
    doc = read_document(str(tmp_path / "spaced" / "bimodule.json"))
    assert "-1/2" in json.dumps(doc) and "-3/4" in json.dumps(doc)


def _written_bytes(root):
    return {p.name: p.read_bytes() for p in root.iterdir()}


@pytest.mark.parametrize("params,message", [
    (["--field", "gf\u0667"],                                  # Arabic-Indic 7
     "bad field spec 'gf\u0667': '\u0667' is not an integer in ASCII digits"),
    (["--field", "gf\u00b2"],                                  # superscript 2
     "bad field spec 'gf\u00b2': '\u00b2' is not an integer in ASCII digits"),
    (["--N", "0,\u0662"], "bad index list '0,\u0662'"),       # Arabic-Indic 2
    (["--N", "0,1_0"], "bad index list '0,1_0'"),
    (["--N", " , "], "bad index list ' , '"),
    (["--N", "0,4"], "index list '0,4' outside the group of order 4"),
    (["--N", "-1,0"], "index list '-1,0' outside the group of order 4"),
], ids=["field-arabic-digit", "field-superscript", "index-arabic-digit", "index-underscore",
        "index-empty", "index-past-the-order", "index-negative"])
def test_cli_integers_are_ascii_digits_in_range(tmp_path, capsys, params, message):
    # int() took other scripts' digits and underscores: gf٧ was GF(7), gf²
    # leaked int()'s message, 0,٢ was {0, 2} and 1_0 was 10; an index past
    # the group's order, or none at all, exited 1
    assert main(["example", "en-kg", *params, "-o", str(tmp_path / "out")]) == 2
    assert _one_line_error(capsys).startswith("error: " + message)
    assert not (tmp_path / "out").exists()


def test_an_unknown_group_prints_its_message_unquoted(tmp_path, capsys):
    from phopf._groups import GROUP_NAMES
    assert main(["example", "en-kg", "--group", "Q9", "-o", str(tmp_path)]) == 2
    assert capsys.readouterr().err == \
        "error: unknown group 'Q9' (builtin: %s)\n" % ", ".join(GROUP_NAMES)


@pytest.mark.parametrize("argv,code", [
    (["example", "sweedler-bimodule-k", "--r", "1.5"], 2),   # a malformed scalar
    (["example", "en-kg", "--N", "1"], 1),                    # N without the identity
    (["globalize", "bimodule", "bad.json"], 2),               # not JSON
    (["globalize", "bimodule", "bicomodule.json"], 1),        # not a bimodule's actions
], ids=["example-scalar", "example-subgroup", "globalize-not-json", "globalize-wrong-kind"])
def test_a_failed_command_makes_no_output_directory(tmp_path, capsys, monkeypatch, argv, code):
    # the output directory is made just before the first document is written
    emit(capsys, "regular-bicomodule", tmp_path)
    (tmp_path / "bad.json").write_text("not json", encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    assert main(argv + ["-o", "new"]) == code
    _one_line_error(capsys)
    assert not (tmp_path / "new").exists()


def test_example_certifies_through_its_constructor_only(tmp_path, capsys, monkeypatch):
    # regular_bicomodule is certified by one hopf_check and runs no coaction
    # suite; the command writes what the constructor certified without a
    # second check, and the full suite passes on the written document
    from phopf import coactions, examples
    from phopf.serialize import load_bicomodule
    runs, hopf_runs = [], []
    suite, hopf = coactions._coaction_suite, coactions.hopf_check

    def counted(p, symmetric):
        runs.append(p.side)
        return suite(p, symmetric)

    def counted_hopf(h):
        hopf_runs.append(h.name)
        return hopf(h)

    monkeypatch.setattr(coactions, "_coaction_suite", counted)
    for module in (coactions, examples):
        monkeypatch.setattr(module, "hopf_check", counted_hopf)
    files = emit(capsys, "regular-bicomodule", tmp_path, "--group", "Q8", "--field", "gf7")
    assert runs == [] and len(hopf_runs) == 1
    path = next(p for p in files if p.endswith("bicomodule.json"))
    assert coactions.check_bicomodule(load_bicomodule(path)).passed
    assert runs == ["left", "right"]


def test_dual_group_action_notes_the_globality_its_constructor_required(
        tmp_path, capsys, monkeypatch):
    # dual_regular_action raises unless its action is global, so the note
    # states is_global=True without a second globality test
    from phopf import actions
    calls = []
    is_global = actions.is_global

    def counted(p):
        calls.append(p.name)
        return is_global(p)

    monkeypatch.setattr(actions, "is_global", counted)
    assert main(["example", "dual-group-action", "--group", "s3", "-o", str(tmp_path),
                 "--format", "json"]) == 0
    out = capsys.readouterr().out
    assert out == ('{"example": "dual-group-action", "files": ["%s", "%s"], '
                   '"notes": ["dual of k[s3] acting on it, is_global=True"]}\n'
                   % (tmp_path / "hopf.json", tmp_path / "action.json"))
    assert len(calls) == 1


# ---------------------------------------------------------------------------
# check: the three exit codes


def test_check_flags_a_mutated_structure_constant(tmp_path, capsys):
    files = emit(capsys, "sweedler-bimodule-k", tmp_path, "--r", "2", "--s", "3")
    path = next(p for p in files if p.endswith("bimodule.json"))
    doc = read_document(path)
    row = doc["left"]["map"][-1]
    row[3] = "99"
    write_document(doc, path)
    code = main(["check", "bimodule", path])
    out = capsys.readouterr().out
    assert code == 1 and "FAIL" in out


@pytest.mark.parametrize("side,row,rhs", [
    # ρ(g) gains g⊗x: ρ(g)ρ(x) = -g⊗xg - xg⊗1 - xg⊗xg
    ("right", [1, 1, 2, "1"], [((1, 3), -1), ((3, 0), -1), ((3, 3), -1)]),
    # λ(g) gains x⊗g: λ(g)λ(x) = -g⊗xg - x⊗xg - xg⊗1, Hopf leg first
    ("left", [1, 2, 1, "1"], [((1, 3), -1), ((2, 3), -1), ((3, 0), -1)]),
])
def test_check_reports_a_failing_coaction_with_sorted_witnesses(tmp_path, capsys,
                                                                side, row, rhs):
    # one coaction of the regular H4 bicomodule as its own document, with
    # one entry added on a Hopf leg that the counit kills; the first failure
    # is multiplicativity at (g, x), where both sides should be -Δ(xg)
    files = emit(capsys, "regular-bicomodule", tmp_path)
    bic = read_document(next(p for p in files if p.endswith("bicomodule.json")))
    path = str(tmp_path / "coaction.json")
    write_document({"hopf": "hopf.json", "algebra": bic["algebra"], "side": side,
                    "map": bic[side]["map"] + [row]}, path)
    code, doc = run_json(capsys, ["check", "coaction", path, "--format", "json"])
    assert code == 1 and doc["passed"] is False
    first = doc["failures"][0]
    assert first["law"] == "coaction-multiplicativity" and first["at"] == [1, 2]
    assert first["lhs"] == repr([((1, 3), Fraction(-1)), ((3, 0), Fraction(-1))])
    assert first["rhs"] == repr([(key, Fraction(c)) for key, c in rhs])


def test_check_io_failures(tmp_path, capsys):
    bad = tmp_path / "broken.json"
    bad.write_text("{not json", encoding="utf-8")
    assert main(["check", "hopf", str(bad)]) == 2
    assert main(["check", "hopf", str(tmp_path / "missing.json")]) == 2
    capsys.readouterr()


def _one_line_error(capsys):
    err = capsys.readouterr().err
    assert "Traceback" not in err and err.count("\n") == 1, err
    return err


def test_check_rejects_a_file_that_is_not_utf8(tmp_path, capsys):
    path = tmp_path / "latin1.json"
    path.write_bytes('{"basis": ["\u00e9"]}'.encode("latin-1"))
    assert main(["check", "algebra", str(path)]) == 2
    assert "is not UTF-8 text" in _one_line_error(capsys)


def test_check_rejects_a_file_nested_too_deeply(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100000, encoding="utf-8")
    assert main(["check", "algebra", str(path)]) == 2
    assert "is nested too deeply" in _one_line_error(capsys)


@pytest.mark.parametrize("field", [{"kind": "Rationals"}, {"kind": "PrimeField", "p": 7}],
                         ids=["QQ", "GF7"])
@pytest.mark.parametrize("scalar", ["\u0661", "0_1", "\u00a01"], ids=["arabic", "_", "nbsp"])
def test_check_rejects_a_scalar_outside_the_grammar(tmp_path, capsys, field, scalar):
    # each reads as 1 through int(), which would make k a passing algebra
    path = str(tmp_path / "algebra.json")
    write_document({"field": field, "basis": ["1"], "mul": [[0, 0, 0, scalar]],
                    "unit": ["1"]}, path)
    assert main(["check", "algebra", path]) == 2
    assert "not an integer in ASCII digits" in _one_line_error(capsys)


@pytest.mark.parametrize("row", [[9, 0, 0, "1"], [-1, 0, 0, "1"], [0.0, 0, 0, "1"]],
                         ids=repr)
def test_check_rejects_out_of_range_and_non_integer_indices(tmp_path, capsys, row):
    files = emit(capsys, "regular-bicomodule", tmp_path)
    hopf = next(p for p in files if p.endswith("hopf.json"))
    doc = read_document(hopf)
    doc["mul"].append(row)
    write_hostile(doc, hopf)
    assert main(["check", "hopf", hopf]) == 2
    assert "mul row" in _one_line_error(capsys)


def _prime_field_algebra(tmp_path, p):
    path = str(tmp_path / "algebra.json")
    write_hostile({"field": {"kind": "PrimeField", "p": p}, "basis": ["1"],
                   "mul": [[0, 0, 0, "1"]], "unit": ["1"]}, path)
    return path


def test_check_accepts_a_large_prime_field(tmp_path, capsys):
    assert main(["check", "algebra", _prime_field_algebra(tmp_path, 2 ** 61 - 1)]) == 0
    assert "FAIL" not in capsys.readouterr().out


@pytest.mark.parametrize("p", [7.0, 2 ** 89 - 1], ids=["float", "2^89-1"])
def test_check_rejects_a_bad_characteristic(tmp_path, capsys, p):
    assert main(["check", "algebra", _prime_field_algebra(tmp_path, p)]) == 2
    _one_line_error(capsys)


def test_globalize_rejects_an_out_of_range_comultiplication_row(tmp_path, capsys):
    files = emit(capsys, "regular-bicomodule", tmp_path)
    hopf = next(p for p in files if p.endswith("hopf.json"))
    doc = read_document(hopf)
    doc["comul"].append([9, 0, 0, "1"])
    write_document(doc, hopf)
    path = next(p for p in files if p.endswith("bicomodule.json"))
    assert main(["globalize", "bicomodule", path, "-o", str(tmp_path / "out")]) == 2
    assert "comul row" in _one_line_error(capsys)


def test_check_rejects_an_out_of_range_bimodule_map_row(tmp_path, capsys):
    files = emit(capsys, "sweedler-bimodule-k", tmp_path, "--r", "2", "--s", "3")
    path = next(p for p in files if p.endswith("bimodule.json"))
    doc = read_document(path)
    doc["left"]["map"].append([0, 5, 0, "1"])
    write_document(doc, path)
    assert main(["check", "bimodule", path]) == 2
    assert "map row" in _one_line_error(capsys)


def test_check_json_format_and_root_level_flag(tmp_path, capsys):
    files = emit(capsys, "regular-bicomodule", tmp_path)
    hopf = next(p for p in files if p.endswith("hopf.json"))
    code, doc = run_json(capsys, ["check", "hopf", hopf, "--format", "json"])
    assert code == 0 and doc["passed"] is True
    code, doc = run_json(capsys, ["--format", "json", "check", "hopf", hopf])
    assert code == 0 and doc["passed"] is True


# ---------------------------------------------------------------------------
# globalize


def test_globalize_bimodule_summary_and_document(tmp_path, capsys):
    files = emit(capsys, "sweedler-bimodule-k", tmp_path / "in",
                 "--r", "2", "--s", "3")
    path = next(p for p in files if p.endswith("bimodule.json"))
    outdir = tmp_path / "out"
    code, doc = run_json(capsys, ["globalize", "bimodule", path,
                                  "-o", str(outdir), "--format", "json"])
    assert code == 0
    assert doc["dim_input"] == 1 and doc["dim_b"] == 4
    assert doc["ambient_dim"] == 16 and doc["degenerate_dim"] == 0
    cert = doc["certificate"]
    assert cert["passed"] is True and cert["failures"] == []
    assert cert["laws"] == ["condition1", "condition2", "lemaco1", "lemaco2",
                            "lemaco3", "lemaco4"]
    # the Report shape that `phopf check` prints
    assert sorted(cert) == ["failures", "laws", "passed", "subject"]
    written = read_document(outdir / "globalization.json")
    for key in ("ambient_dim", "phi", "b_basis", "mul", "certificate"):
        assert key in written
    assert written["certificate"] == cert
    assert written["degenerate_dim"] == 0


def test_globalize_bicomodule_reports_the_bridge(tmp_path, capsys):
    files = emit(capsys, "sweedler-bicomodule-k", tmp_path / "in",
                 "--t", "7", "--u", "3")
    path = next(p for p in files if p.endswith("bicomodule.json"))
    outdir = tmp_path / "out"
    code, doc = run_json(capsys, ["globalize", "bicomodule", path,
                                  "-o", str(outdir), "--format", "json"])
    assert code == 0 and doc["dim_b"] == 4
    cert = doc["certificate"]
    assert cert["passed"] is True and cert["laws"] == ["exchange"]
    assert cert["failures"] == []
    assert read_document(outdir / "globalization.json")["certificate"] == cert
    psi = doc["psi"]
    assert psi["monomorphism"] and psi["intertwines_dual_actions"]
    assert psi["restricts_to_isomorphism"]
    assert (outdir / "globalization.json").exists()


# the inputs of the benchmark's globalize workload: the regular bicomodules
# of kZ4 and H4, a Sweedler (r,s) bimodule and a Sweedler (t,u) bicomodule
GLOBALIZE_INPUTS = [
    ("regular-bicomodule", ("--group", "z4"), "bicomodule"),
    ("regular-bicomodule", (), "bicomodule"),
    ("sweedler-bimodule-k", ("--r", "2", "--s", "3"), "bimodule"),
    ("sweedler-bicomodule-k", ("--t", "7", "--u", "3"), "bicomodule"),
]


@pytest.mark.parametrize("name,extra,kind", GLOBALIZE_INPUTS,
                         ids=["kZ4", "H4", "Sweedler (r,s)", "Sweedler (t,u)"])
def test_globalize_never_writes_out_an_ambient_table(tmp_path, capsys, name, extra, kind):
    # the ambients multiply through their legs; reading a pair view or
    # walking the entries of one would write out its n⁶ table, and count
    from phopf.ambient import TensorProductMul
    files = emit(capsys, name, tmp_path / "in", *extra)
    path = next(p for p in files if p.endswith(kind + ".json"))
    count = TensorProductMul.materializations
    code, doc = run_json(capsys, ["globalize", kind, path, "-o", str(tmp_path / "out"),
                                  "--format", "json"])
    assert code == 0 and doc["certificate"]["passed"] and doc["degenerate_dim"] == 0
    assert doc["psi"] is None or all(doc["psi"].values())
    assert TensorProductMul.materializations == count


def test_globalize_text_summary(tmp_path, capsys):
    files = emit(capsys, "sweedler-bimodule-k", tmp_path / "in",
                 "--r", "0", "--s", "0")
    path = next(p for p in files if p.endswith("bimodule.json"))
    code = main(["globalize", "bimodule", path, "-o", str(tmp_path / "out")])
    out = capsys.readouterr().out
    assert code == 0 and "globalization.json" in out
    assert "PASS  condition1" in out and "PASS  lemaco4" in out
    assert "FAIL" not in out


# ---------------------------------------------------------------------------
# smash


def _smash_inputs(tmp_path, capsys):
    bim_files = emit(capsys, "sweedler-bimodule-k", tmp_path / "bm",
                     "--r", "2", "--s", "3")
    bic_files = emit(capsys, "regular-bicomodule", tmp_path / "bc")
    return (next(p for p in bim_files if p.endswith("bimodule.json")),
            next(p for p in bic_files if p.endswith("bicomodule.json")))


def test_smash_writes_a_checkable_algebra(tmp_path, capsys):
    bim, bic = _smash_inputs(tmp_path, capsys)
    out = tmp_path / "smash.json"
    code = main(["smash", bim, bic, "-o", str(out)])
    text = capsys.readouterr().out
    assert code == 0
    assert "idempotent 1 # 1 via route (3)+(4)" in text.replace("♮", "#")
    assert main(["check", "algebra", str(out)]) == 0
    capsys.readouterr()
    doc = read_document(out)
    cert = doc["certificate"]
    assert cert["associative"] is True
    assert cert["unit_pair"] == "idempotent but not the identity"
    assert any(e["route"] == "(3)+(4)" for e in cert["idempotents_found"])


def test_smash_output_into_a_directory(tmp_path, capsys):
    bim, bic = _smash_inputs(tmp_path, capsys)
    outdir = tmp_path / "dir"
    code, doc = run_json(capsys, ["smash", bim, bic, "-o", str(outdir),
                                  "--format", "json"])
    assert code == 0
    assert (outdir / "smash.json").exists()
    assert len(doc["basis"]) == 4 and doc["certificate"]["associative"] is True
    assert doc["output"].endswith("smash.json")


def test_smash_nilpotent_note(tmp_path, capsys):
    bim_files = emit(capsys, "sweedler-bimodule-k", tmp_path / "bm",
                     "--r", "1", "--s", "7")
    bic_files = emit(capsys, "sweedler-bicomodule-k", tmp_path / "bc",
                     "--t", "1/2", "--u", "0")
    code = main(["smash",
                 next(p for p in bim_files if p.endswith("bimodule.json")),
                 next(p for p in bic_files if p.endswith("bicomodule.json"))])
    out = capsys.readouterr().out
    assert code == 0 and "nilpotent" in out


def test_smash_rejects_mismatched_factors(tmp_path, capsys):
    bim_files = emit(capsys, "sweedler-bimodule-k", tmp_path / "bm",
                     "--r", "2", "--s", "3")
    bic_files = emit(capsys, "regular-bicomodule", tmp_path / "bc",
                     "--field", "gf5")
    code = main(["smash",
                 next(p for p in bim_files if p.endswith("bimodule.json")),
                 next(p for p in bic_files if p.endswith("bicomodule.json"))])
    capsys.readouterr()
    assert code == 1


def _ks3_pair_gf7(outdir):
    """The kS3* bimodule on kS3 (dual regular action from the left, trivial
    from the right) and the regular kS3* bicomodule, over GF(7)."""
    from phopf import (GF, dual_regular_action, group_algebra, named_group,
                       regular_bicomodule, trivialize_right)
    labels, table = named_group("S3")
    bim = trivialize_right(dual_regular_action(group_algebra(table, GF(7), labels)))
    bic = regular_bicomodule(bim.hopf)
    outdir.mkdir()
    write_document(bim.hopf.to_json(), str(outdir / "hopf.json"))
    for kind, s in (("bimodule", bim), ("bicomodule", bic)):
        write_document(s.to_json(hopf_ref="hopf.json"), str(outdir / ("%s.json" % kind)))
    return str(outdir / "bimodule.json"), str(outdir / "bicomodule.json")


KS3_SMASH_TEXT = """smash product dim 36, associative: True
1_A # 1_Abar is identity of the smash product
idempotent e # e* via route (1)+(2)
idempotent e # (12)* via route (1)+(2)
idempotent e # (13)* via route (1)+(2)
idempotent e # (23)* via route (1)+(2)
idempotent e # (123)* via route (1)+(2)
idempotent e # (132)* via route (1)+(2)
"""

# sha256 of the --format json output, as the command printed it when it
# still ran a second associativity sweep after construction
KS3_SMASH_JSON_SHA256 = "8557e0075dee74a1c821b7f2fc35bf1a2f7b5a0a651e81f12282e232947623dd"


def test_smash_sweeps_its_product_once(tmp_path, capsys, monkeypatch):
    import hashlib
    from phopf import smash
    bim, bic = _ks3_pair_gf7(tmp_path / "ks3")
    swept = []
    sweep = smash.algebra_check

    def counted(a):
        swept.append(a.dim)
        return sweep(a)

    monkeypatch.setattr(smash, "algebra_check", counted)
    assert main(["smash", bim, bic]) == 0
    assert capsys.readouterr().out == KS3_SMASH_TEXT
    assert swept == [36]
    assert main(["smash", bim, bic, "--format", "json"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == KS3_SMASH_JSON_SHA256
    assert json.loads(out)["certificate"]["associative"] is True
    assert swept == [36, 36]


def test_smash_exit_codes(tmp_path, capsys):
    bim, bic = _ks3_pair_gf7(tmp_path / "ks3")
    doc = read_document(bim)
    row = doc["left"]["map"][0]
    row[-1] = "2" if row[-1] != "2" else "3"
    write_document(doc, bim)
    assert main(["smash", bim, bic]) == 1
    assert main(["smash", str(tmp_path / "missing.json"), bic]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 2 and "Traceback" not in err


# ---------------------------------------------------------------------------
# the process entry points: each goes through cli.run, which is main() and
# then gc.freeze()

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

LAUNCHERS = {
    "python -m phopf.cli": ["-m", "phopf.cli"],
    "python -m phopf": ["-m", "phopf"],
    "run()": ["-c", "import sys; from phopf.cli import run; sys.exit(run())"],
}


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    return env


def test_console_script_help():
    proc = subprocess.run([sys.executable, "-m", "phopf", "--help"],
                          capture_output=True, text=True, env=_env())
    assert proc.returncode == 0
    for word in ("check", "example", "globalize", "smash"):
        assert word in proc.stdout


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """The documents the commands below read, under in/: a Sweedler
    bimodule, a mutant of it that fails, the regular H4 bicomodule and its
    right coaction alone, the dual regular action of kZ4 and a file that is
    not JSON."""
    root = tmp_path_factory.mktemp("entry") / "in"
    for argv in (["example", "sweedler-bimodule-k", "--r", "2", "--s", "3"],
                 ["example", "regular-bicomodule"], ["example", "dual-group-action"]):
        assert main(argv + ["-o", str(root / argv[1]), "--format", "json"]) == 0
    bic = read_document(str(root / "regular-bicomodule" / "bicomodule.json"))
    write_document({"hopf": "hopf.json", "algebra": bic["algebra"], "side": "right",
                    "map": bic["right"]["map"]},
                   str(root / "regular-bicomodule" / "coaction.json"))
    bim = read_document(str(root / "sweedler-bimodule-k" / "bimodule.json"))
    bim["left"]["map"][-1][3] = "99"
    write_document(bim, str(root / "sweedler-bimodule-k" / "failing.json"))
    (root / "malformed.json").write_text("{not json", encoding="utf-8")
    return root


BIM = "in/sweedler-bimodule-k/bimodule.json"
BIC = "in/regular-bicomodule/bicomodule.json"
HOPF = "in/regular-bicomodule/hopf.json"
# argv (paths relative to the working directory) and its exit code
ENTRY_CASES = [
    (["example", name, "--field", field, "-o", "out"], 0)
    for name in ("sweedler-bimodule-k", "sweedler-bicomodule-k", "en-kg",
                 "dual-group-action", "regular-bicomodule", "z2-partial-group")
    for field in ("qq", "gf5")
] + [
    (["globalize", "bimodule", BIM, "-o", "out"], 0),
    (["globalize", "bicomodule", BIC, "-o", "out", "--format", "json"], 0),
    (["smash", BIM, BIC, "-o", "out/smash.json"], 0),
    (["check", "hopf", HOPF], 0),
    (["check", "algebra", HOPF, "--format", "json"], 0),
    (["check", "action", "in/dual-group-action/action.json"], 0),
    (["check", "coaction", "in/regular-bicomodule/coaction.json"], 0),
    (["check", "bimodule", BIM], 0),
    (["check", "bicomodule", BIC, "--format", "json"], 0),
    (["check", "bimodule", "in/sweedler-bimodule-k/failing.json"], 1),
    (["check", "hopf", "in/malformed.json"], 2),
    (["check", "no-such-kind", BIM], 2),
    (["--help"], 0),
]


def _written(root):
    """Every file under root, by relative path, as bytes."""
    return {path.relative_to(root): path.read_bytes()
            for path in root.rglob("*") if path.is_file()}


@pytest.mark.parametrize("argv,code", ENTRY_CASES, ids=[" ".join(c[0][:3]) for c in ENTRY_CASES])
def test_every_entry_point_matches_main_in_process(inputs, tmp_path, capsys, monkeypatch,
                                                   argv, code):
    # same stdout, stderr, exit code and written bytes, from a copy of the
    # inputs in a directory of its own for each launch
    dirs = {name: tmp_path / str(i) for i, name in enumerate(["main"] + list(LAUNCHERS))}
    for d in dirs.values():
        shutil.copytree(inputs, d / "in")
    monkeypatch.chdir(dirs["main"])
    try:
        got = main(list(argv))
    except SystemExit as exc:  # argparse: --help and usage errors
        got = exc.code
    out, err = capsys.readouterr()
    assert got == code, err
    procs = {name: subprocess.Popen([sys.executable] + LAUNCHERS[name] + argv,
                                    cwd=dirs[name], env=_env(), stdout=subprocess.PIPE,
                                    stderr=subprocess.PIPE)
             for name in LAUNCHERS}
    expected = _written(dirs["main"])
    for name, proc in procs.items():
        stdout, stderr = proc.communicate(timeout=120)
        assert (proc.returncode, stdout.decode("utf-8"), stderr.decode("utf-8")) == \
            (code, out, err), name
        assert _written(dirs[name]) == expected, name


# fresh interpreter: the exit code, then the objects the collector tracks and
# the objects it has frozen, after run or main (argv[1]) returns
GC_PROBE = ("import gc, json, sys\n"
            "from phopf.cli import main, run\n"
            "code = (run if sys.argv[1] == 'run' else main)(sys.argv[2:])\n"
            "print(json.dumps([code, len(gc.get_objects()), gc.get_freeze_count()]))\n")


def _gc_probe(entry, argv, cwd):
    proc = subprocess.run([sys.executable, "-c", GC_PROBE, entry] + argv, cwd=cwd,
                          env=_env(), capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_run_leaves_the_exit_collections_nothing_to_visit(inputs):
    # main leaves about 12,900 tracked objects, which the collections at
    # interpreter exit would visit; run freezes every one of them
    argv = ["check", "hopf", HOPF]
    code, tracked, frozen = _gc_probe("main", argv, inputs.parent)
    assert code == 0 and tracked > 1000 and frozen == 0
    assert _gc_probe("run", argv, inputs.parent) == [0, 0, tracked]


def test_main_keeps_a_live_collector_and_run_freezes(inputs, capsys, monkeypatch):
    monkeypatch.chdir(inputs.parent)
    frozen = gc.get_freeze_count()
    assert main(["check", "hopf", HOPF]) == 0
    assert gc.get_freeze_count() == frozen
    try:
        assert run(["check", "bimodule", "in/sweedler-bimodule-k/failing.json"]) == 1
        assert gc.get_freeze_count() > frozen
    finally:
        gc.unfreeze()
    capsys.readouterr()


def test_a_profiler_still_reports_on_a_command(inputs):
    # interpreter finalization still runs: the profiler prints its statistics
    # after the command's own output (a flush and os._exit would skip them)
    proc = subprocess.run([sys.executable, "-m", "cProfile", "-m", "phopf.cli",
                           "check", "hopf", HOPF], cwd=inputs.parent, env=_env(),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    report, stats = proc.stdout.split("PASS  antipode-law\n")
    assert report.startswith("PASS  associativity") and "function calls" in stats
    assert "ncalls" in stats and "cli.py" in stats


# ---------------------------------------------------------------------------
# hostile input: seeded single-node corruptions of a document of every kind


def test_a_json_number_where_a_scalar_string_belongs_exits_two(tmp_path, capsys):
    files = emit(capsys, "regular-bicomodule", tmp_path)
    hopf = next(p for p in files if p.endswith("hopf.json"))
    doc = read_document(hopf)
    doc["unit"][0] = 1
    write_document(doc, hopf)
    assert main(["check", "hopf", hopf]) == 2
    assert "scalar 1 is not a string" in _one_line_error(capsys)


def test_a_basis_label_that_is_not_a_string_exits_two(tmp_path, capsys):
    files = emit(capsys, "regular-bicomodule", tmp_path)
    hopf = next(p for p in files if p.endswith("hopf.json"))
    doc = read_document(hopf)
    doc["basis"][1] = True
    write_document(doc, hopf)
    path = next(p for p in files if p.endswith("bicomodule.json"))
    assert main(["check", "bicomodule", path]) == 2
    assert "not a list of string labels" in _one_line_error(capsys)
    assert main(["globalize", "bicomodule", path, "-o", str(tmp_path / "out")]) == 2
    assert "not a list of string labels" in _one_line_error(capsys)


@pytest.mark.parametrize("flag", ["false", 0, 1, [], None], ids=repr)
@pytest.mark.parametrize("kind,name", [("bimodule", "Sweedler (2,3) bimodule"),
                                       ("action", "kZ4 en-kG action")])
def test_a_symmetric_flag_that_is_not_a_bool_exits_two(tmp_path, capsys, kind, name, flag):
    # read as bool(...), "false" and 1 used to run the 13-law symmetric
    # suite and 0, [] and null the 12-law one, all with exit 0
    from tests.test_scalars import families
    doc = copy.deepcopy(families()[name][1])
    (doc["left"] if kind == "bimodule" else doc)["symmetric"] = flag
    path = str(tmp_path / "doc.json")
    write_document(doc, path)
    assert main(["check", kind, path]) == 2
    assert "symmetric flag must be true or false" in _one_line_error(capsys)


@pytest.mark.parametrize("side", ["up", 3, None, ["left"]], ids=repr)
@pytest.mark.parametrize("kind", ["action", "coaction"])
def test_a_side_that_is_not_left_or_right_exits_two(tmp_path, capsys, kind, side):
    # such a side used to reach the data class and exit 1, the code of a
    # failed axiom
    if kind == "action":
        path = next(p for p in emit(capsys, "dual-group-action", tmp_path)
                    if p.endswith("action.json"))
        doc = read_document(path)
    else:
        files = emit(capsys, "regular-bicomodule", tmp_path)
        bic = read_document(next(p for p in files if p.endswith("bicomodule.json")))
        doc = {"hopf": "hopf.json", "algebra": bic["algebra"], "map": bic["right"]["map"]}
        path = str(tmp_path / "coaction.json")
    doc["side"] = side
    write_document(doc, path)
    assert main(["check", kind, path]) == 2
    assert "side must be 'left' or 'right'" in _one_line_error(capsys)


def test_the_bimodule_document_writes_its_symmetric_flags_as_bools(tmp_path, capsys):
    from phopf.actions import sweedler_k_bimodule
    from phopf.fields import QQ
    b = sweedler_k_bimodule(QQ, 2, 3)
    b.left.symmetric, b.right.symmetric = 1, 0
    doc = b.to_json()
    assert doc["left"]["symmetric"] is True and doc["right"]["symmetric"] is False
    path = str(tmp_path / "bimodule.json")
    write_document(doc, path)
    assert main(["check", "bimodule", path]) == 0
    capsys.readouterr()


JUNK = (None, 7, 2.5, True, [], {}, "", "1/0", 10 ** 30)


class _Hang(BaseException):
    """Raised by the alarm inside a call that overran its time bound; a
    BaseException, so no handler in the CLI can swallow it."""


def _nodes(doc, path=()):
    """The path of every node of a JSON document below its root."""
    items = (doc.items() if isinstance(doc, dict)
             else enumerate(doc) if isinstance(doc, list) else ())
    for key, child in items:
        yield path + (key,)
        yield from _nodes(child, path + (key,))


def _corrupt(doc, rng):
    """A copy of doc with one node deleted or replaced by a junk value."""
    out = copy.deepcopy(doc)
    *head, key = rng.choice(list(_nodes(out)))
    parent = functools.reduce(operator.getitem, head, out)
    if rng.random() < 0.1:
        del parent[key]
    else:
        parent[key] = rng.choice(JUNK)
    return out


def _run_hostile(capsys, argv, bound_s=5):
    """main(argv) under an alarm: nothing may escape it, the exit code is 0,
    1 or 2, exit 2 prints exactly one `error:` line, and the call ends
    within bound_s seconds."""
    def overran(signum, frame):
        raise _Hang("%r ran longer than %d s" % (argv, bound_s))

    previous = signal.signal(signal.SIGALRM, overran)
    signal.alarm(bound_s)
    try:
        code = main(argv)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    err = capsys.readouterr().err.splitlines()
    assert code in (0, 1, 2), (argv, code)
    if code == 2:
        assert len(err) == 1 and err[0].startswith("error: "), (argv, err)
    else:
        assert len(err) <= 1, (argv, err)
    return code


# kind -> (document family of tests.test_scalars, commands run on it); DOC
# is the corrupted file, OUT an output directory, and SMASH_BIM/SMASH_BIC
# the clean smash partner
FUZZ_TARGETS = {
    "hopf": ("H4", [["check", "hopf", "DOC"]]),
    "algebra": ("H4 algebra", [["check", "algebra", "DOC"]]),
    "action": ("kZ4 en-kG action", [["check", "action", "DOC"]]),
    "coaction": ("H4 right coaction", [["check", "coaction", "DOC"]]),
    "bimodule": ("Sweedler (2,3) bimodule",
                 [["check", "bimodule", "DOC"],
                  ["globalize", "bimodule", "DOC", "-o", "OUT"],
                  ["smash", "DOC", "SMASH_BIC"]]),
    "bicomodule": ("Sweedler (t,u) bicomodule",
                   [["check", "bicomodule", "DOC"],
                    ["globalize", "bicomodule", "DOC", "-o", "OUT"],
                    ["smash", "SMASH_BIM", "DOC"]]),
}


@pytest.mark.parametrize("kind", list(FUZZ_TARGETS))
def test_cli_survives_single_node_corruptions(kind, tmp_path, capsys):
    from tests.test_scalars import families
    docs = families()
    name, commands = FUZZ_TARGETS[kind]
    files = {"DOC": str(tmp_path / "doc.json"), "OUT": str(tmp_path / "out")}
    for key, partner in (("SMASH_BIM", "Sweedler (2,3) bimodule"),
                         ("SMASH_BIC", "Sweedler (t,u) bicomodule")):
        files[key] = str(tmp_path / (key + ".json"))
        write_document(docs[partner][1], files[key])
    argvs = [[files.get(a, a) for a in cmd] for cmd in commands]

    write_document(docs[name][1], files["DOC"])
    for argv in argvs:
        assert _run_hostile(capsys, argv) == 0, argv
    rng = random.Random("fuzz " + kind)
    codes = set()
    for _ in range(150):
        write_hostile(_corrupt(docs[name][1], rng), files["DOC"])
        codes.update(_run_hostile(capsys, argv) for argv in argvs)
    assert 2 in codes
