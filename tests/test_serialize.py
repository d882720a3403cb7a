"""Document layer: JSON round trips, file references, error taxonomy."""

import json
import os

import pytest

from phopf.fields import GF, QQ
from phopf.algebras import AlgebraData, HopfData, sweedler_h4
from phopf.actions import sweedler_k_bimodule
from phopf.coactions import sweedler_k_bicomodule
from phopf.cli import z2_partial_group_example
from phopf.serialize import (DocumentError, load_action, load_algebra,
                             load_bicomodule, load_bimodule, load_coaction,
                             load_group_action, load_hopf, read_document,
                             write_document)


@pytest.fixture(params=[QQ, GF(5)], ids=["QQ", "GF5"])
def field(request):
    return request.param


# ---------------------------------------------------------------------------
# lossless round trips


def test_hopf_round_trip(field, tmp_path):
    h = sweedler_h4(field)
    path = tmp_path / "hopf.json"
    write_document(h.to_json(), path)
    back = load_hopf(read_document(path))
    assert back.field == h.field and back.basis == h.basis
    assert back.mul.entries == h.mul.entries
    assert back.comul.entries == h.comul.entries
    assert back.unit == h.unit and back.counit == h.counit
    assert back.antipode == h.antipode


def test_algebra_round_trip(field):
    h = sweedler_h4(field)
    a = AlgebraData(field, h.basis, h.mul, h.unit, name="underlying")
    back = load_algebra(a.to_json())
    assert back.mul.entries == a.mul.entries and back.unit == a.unit


def test_bimodule_round_trip(field, tmp_path):
    b = sweedler_k_bimodule(field, 2, 3)
    path = tmp_path / "bimodule.json"
    write_document(b.to_json(), path)
    back = load_bimodule(read_document(path))
    assert back.left.map.entries == b.left.map.entries
    assert back.right.map.entries == b.right.map.entries
    assert back.left.symmetric == b.left.symmetric
    assert back.left.side == "left" and back.right.side == "right"


def test_action_round_trip(field):
    b = sweedler_k_bimodule(field, 1, 4)
    back = load_action(b.left.to_json())
    assert back.side == "left"
    assert back.map.entries == b.left.map.entries


def test_bicomodule_round_trip(field, tmp_path):
    b = sweedler_k_bicomodule(field, 2, 4)
    path = tmp_path / "bicomodule.json"
    write_document(b.to_json(), path)
    back = load_bicomodule(read_document(path))
    assert back.left.map.entries == b.left.map.entries
    assert back.right.map.entries == b.right.map.entries


def test_coaction_round_trip(field):
    b = sweedler_k_bicomodule(field, 1, 3)
    back = load_coaction(b.right.to_json())
    assert back.side == "right"
    assert back.map.entries == b.right.map.entries


def test_group_action_round_trip(field, tmp_path):
    gpa = z2_partial_group_example(field)
    path = tmp_path / "group.json"
    write_document(gpa.to_json(), path)
    back = load_group_action(read_document(path))
    assert back.table == gpa.table
    assert back.idempotents == gpa.idempotents
    assert back.alphas == gpa.alphas
    assert back.labels == gpa.labels


# ---------------------------------------------------------------------------
# file references resolve relative to the referring document


def test_file_references_are_relative_to_the_document(tmp_path, monkeypatch):
    nested = tmp_path / "inner"
    nested.mkdir()
    h = sweedler_h4(QQ)
    b = sweedler_k_bimodule(QQ, 2, 3)
    write_document(h.to_json(), nested / "hopf.json")
    doc = b.to_json(hopf_ref="hopf.json")
    write_document(doc, nested / "bimodule.json")
    monkeypatch.chdir(tmp_path)          # cwd is NOT the document directory
    back = load_bimodule(str(nested / "bimodule.json"))
    assert back.left.map.entries == b.left.map.entries
    assert back.hopf.basis == h.basis


def test_loaders_accept_paths_and_inline_nodes(tmp_path):
    h = sweedler_h4(QQ)
    path = tmp_path / "h.json"
    write_document(h.to_json(), path)
    assert load_hopf(str(path)).basis == load_hopf(h.to_json()).basis


# ---------------------------------------------------------------------------
# error taxonomy: malformed documents raise DocumentError,
# semantically invalid structures raise plain ValueError


def test_missing_keys_raise_document_error():
    with pytest.raises(DocumentError):
        load_hopf({"field": {"kind": "Rationals"}, "basis": ["1"]})
    with pytest.raises(DocumentError):
        load_algebra({"basis": ["1"], "mul": []})


def test_bad_scalars_raise_document_error():
    h = sweedler_h4(QQ).to_json()
    doc = {"hopf": h, "algebra": {"field": {"kind": "Rationals"}, "basis": ["1"],
                                  "mul": [[0, 0, 0, "1"]], "unit": ["1"]},
           "side": "left", "map": [[0, 0, 0, "1/0"]]}
    with pytest.raises(DocumentError):
        load_action(doc)
    doc["map"] = [[0, 0, 0, "1.5"]]
    with pytest.raises(DocumentError):
        load_action(doc)


BAD_INDEX_ROWS = [[9, 0, 0, "1"], [-1, 0, 0, "1"], [0.0, 0, 0, "1"],
                  [True, 0, 0, "1"], ["0", 0, 0, "1"], [0, 0, "1"],
                  [0, 0, 0, 0, "1"]]


@pytest.mark.parametrize("row", BAD_INDEX_ROWS, ids=repr)
@pytest.mark.parametrize("key", ["mul", "comul"])
def test_bad_structure_constant_rows_raise_document_error(key, row):
    doc = sweedler_h4(QQ).to_json()
    doc[key].append(row)
    with pytest.raises(DocumentError, match=key):
        load_hopf(doc)
    if key == "mul":
        del doc["comul"], doc["counit"], doc["antipode"]
        with pytest.raises(DocumentError, match=key):
            load_algebra(doc)


@pytest.mark.parametrize("row", [[4, 0, "1"], [0, -1, "1"], [0, 1.0, "1"],
                                 [0, "1"], [0, 0, 0, "1"]], ids=repr)
def test_bad_antipode_rows_raise_document_error(row):
    doc = sweedler_h4(QQ).to_json()
    doc["antipode"].append(row)
    with pytest.raises(DocumentError, match="antipode"):
        load_hopf(doc)


@pytest.mark.parametrize("row", [[0, 5, 0, "1"], [4, 0, 0, "1"], [0, 0, 0.0, "1"],
                                 [0, 0, "1"]], ids=repr)
def test_bad_action_map_rows_raise_document_error(row):
    doc = sweedler_k_bimodule(QQ, 2, 3).to_json()
    doc["left"]["map"].append(row)
    with pytest.raises(DocumentError, match="map"):
        load_bimodule(doc)


@pytest.mark.parametrize("side,row", [("right", [0, 0, 4, "1"]),
                                      ("right", [0, 1, 0, "1"]),
                                      ("left", [0, 0, 1, "1"]),
                                      ("left", [0, 4, 0, "1"])], ids=repr)
def test_coaction_map_rows_are_bounded_by_their_own_shape(side, row):
    # coefficient algebra k (dim 1) and H4 (dim 4): the Hopf slot is the
    # last one of a right coaction and the middle one of a left coaction
    doc = sweedler_k_bicomodule(QQ, 7, 3).to_json()
    doc[side]["map"].append(row)
    with pytest.raises(DocumentError, match="map"):
        load_bicomodule(doc)


@pytest.mark.parametrize("row", [[-1, 0, "5"], [-2, 0.0, "0"], [2, 0, "1"],
                                 [0, True, "1"], [0, "1"], [0, 0, 0, "1"]],
                         ids=repr)
def test_bad_alpha_rows_raise_document_error(row):
    # each alpha is a (dim A)² matrix: a negative index used to wrap around
    # to the last row and a float index used to be truncated by int()
    doc = z2_partial_group_example(QQ).to_json()
    doc["alphas"][1].append(row)
    with pytest.raises(DocumentError, match="alphas"):
        load_group_action(doc)


@pytest.mark.parametrize("entry", [1.0, "1", True], ids=repr)
def test_group_table_entries_must_be_json_ints(entry):
    doc = z2_partial_group_example(QQ).to_json()
    doc["group"][0][1] = entry
    with pytest.raises(DocumentError, match="group table"):
        load_group_action(doc)


def test_field_mismatch_between_parts_raises_document_error():
    h = sweedler_h4(QQ).to_json()
    a = {"field": {"kind": "PrimeField", "p": 5}, "basis": ["1"],
         "mul": [[0, 0, 0, "1"]], "unit": ["1"]}
    doc = {"hopf": h, "algebra": a, "side": "left", "map": [[0, 0, 0, "1"]]}
    with pytest.raises(DocumentError):
        load_action(doc)


def test_semantic_violations_pass_through_as_value_error():
    h = sweedler_h4(QQ).to_json()
    a = {"field": {"kind": "Rationals"}, "basis": ["1"],
         "mul": [[0, 0, 0, "1"]], "unit": ["1"]}
    doc = {"hopf": h, "algebra": a, "side": "left",
           "map": [[0, 0, 0, "2"]]}            # 1_H no longer acts as identity
    with pytest.raises(ValueError) as err:
        load_action(doc)
    assert not isinstance(err.value, DocumentError)


def test_read_document_failures(tmp_path):
    missing = tmp_path / "nope.json"
    with pytest.raises(OSError):
        read_document(missing)
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    with pytest.raises(json.JSONDecodeError):
        read_document(bad)


def test_write_document_emits_trailing_newline(tmp_path):
    path = tmp_path / "out.json"
    write_document({"a": 1}, path)
    text = path.read_text(encoding="utf-8")
    assert text.endswith("\n") and json.loads(text) == {"a": 1}
