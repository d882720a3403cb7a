"""Command-line interface: exit codes, emitted documents, summaries."""

import json
import os
import subprocess
import sys

import pytest

from phopf.cli import main
from phopf.serialize import read_document, write_document

KIND_OF_FILE = {
    "hopf.json": "hopf",
    "algebra.json": "algebra",
    "action.json": "action",
    "coaction.json": "coaction",
    "bimodule.json": "bimodule",
    "bicomodule.json": "bicomodule",
}


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


@pytest.mark.parametrize("row", [[9, 0, 0, "1"], [-1, 0, 0, "1"], [0.0, 0, 0, "1"]],
                         ids=repr)
def test_check_rejects_out_of_range_and_non_integer_indices(tmp_path, capsys, row):
    files = emit(capsys, "regular-bicomodule", tmp_path)
    hopf = next(p for p in files if p.endswith("hopf.json"))
    doc = read_document(hopf)
    doc["mul"].append(row)
    write_document(doc, hopf)
    assert main(["check", "hopf", hopf]) == 2
    assert "mul row" in _one_line_error(capsys)


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


# ---------------------------------------------------------------------------
# the module entry point


def test_console_script_help():
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-m", "phopf", "--help"],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    for word in ("check", "example", "globalize", "smash"):
        assert word in proc.stdout
