"""Document layer: JSON round trips, file references, error taxonomy."""

import io
import json
import os

import pytest
from hypothesis import given, settings, strategies as st

from phopf import _json_writer, cli, examples, serialize
from phopf._json_writer import write_json
from phopf.fields import GF, QQ
from phopf.algebras import AlgebraData, Count, HopfData
from phopf.examples import (group_algebra, regular_bicomodule, sweedler_h4,
                            sweedler_k_bicomodule)
from phopf.actions import check_bimodule, sweedler_k_bimodule
from phopf.coactions import check_bicomodule
from phopf.globalize import standard_globalize_bicomodule
from phopf.group_actions import load_group_action, z2_partial_group_example
from phopf.serialize import (DocumentError, load_action, load_algebra,
                             load_bicomodule, load_bimodule, load_coaction,
                             load_hopf, read_document, write_document)
from tests.test_scalars import FAMILIES, KINDS, family, map_scalars, reduce_mod


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
# byte-identical round trips of every document kind: to_json, load, to_json


def _text(doc):
    return json.dumps(doc, indent=2, ensure_ascii=False)


def _as_halves(s):
    """An integral scalar n written as "2n/2" (so 2 is written "4/2")."""
    return s if "/" in s else "%d/2" % (2 * int(s))


def _over(name, field):
    kind, doc = family(name)
    return kind, doc if field == "QQ" else reduce_mod(doc, 7)


@pytest.mark.parametrize("field", ["QQ", "GF7"])
@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_every_document_kind_round_trips_byte_for_byte(name, field):
    kind, doc = _over(name, field)
    once = KINDS[kind][0](doc).to_json()
    assert _text(once) == _text(doc)
    assert _text(KINDS[kind][0](once).to_json()) == _text(once)


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_documents_written_with_unreduced_fractions_load_to_the_same_document(name):
    kind, doc = family(name)
    halves = map_scalars(doc, _as_halves)
    assert "4/2" in _text(halves) or "2/2" in _text(halves)
    assert _text(KINDS[kind][0](halves).to_json()) == _text(doc)


@pytest.mark.parametrize("field", ["QQ", "GF7"])
@pytest.mark.parametrize("name,kind", [("H4 bicomodule", "bicomodule"),
                                       ("Sweedler (2,3) bimodule", "bimodule"),
                                       ("Sweedler (t,u) bicomodule", "bicomodule")])
def test_globalization_and_smash_documents_round_trip(name, kind, field, tmp_path):
    # the globalization of a structure and of its document, written once
    # as written and once with every integral scalar as "2n/2", are the
    # same document; the smash document loads back as the same algebra
    from phopf.cli import main
    kind, doc = _over(name, field)
    texts = []
    for n, variant in enumerate([doc] + ([map_scalars(doc, _as_halves)]
                                         if field == "QQ" else [])):
        path = str(tmp_path / ("in%d.json" % n))
        write_document(variant, path)
        out = tmp_path / ("out%d" % n)
        assert main(["globalize", kind, path, "-o", str(out)]) == 0
        texts.append((out / "globalization.json").read_text(encoding="utf-8"))
    assert len(set(texts)) == 1

    f = QQ if field == "QQ" else GF(7)
    bim = load_bimodule(doc) if kind == "bimodule" else sweedler_k_bimodule(f, 2, 3)
    bic = (load_bicomodule(doc) if kind == "bicomodule"
           else regular_bicomodule(sweedler_h4(f)))
    write_document(bim.to_json(), tmp_path / "bim.json")
    write_document(bic.to_json(), tmp_path / "bic.json")
    smash = str(tmp_path / "smash.json")
    assert main(["smash", str(tmp_path / "bim.json"), str(tmp_path / "bic.json"),
                 "-o", smash]) == 0
    written = read_document(smash)
    del written["certificate"]
    assert _text(load_algebra(written).to_json()) == _text(written)


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


@pytest.mark.parametrize("kind", ["bimodule", "bicomodule"])
def test_a_two_sided_document_loads_its_shared_parts_once(kind, tmp_path, monkeypatch):
    # one read of the referenced hopf.json, one Hopf algebra and one algebra
    # for both sides, so each certificate the check reads is decided once;
    # loading each side on its own read hopf.json twice and decided twice
    from phopf import serialize
    from tests.test_algebras import _decisions
    s = (sweedler_k_bimodule(QQ, 2, 3) if kind == "bimodule"
         else regular_bicomodule(sweedler_h4(QQ)))
    write_document(s.hopf.to_json(), tmp_path / "hopf.json")
    write_document(s.to_json(hopf_ref="hopf.json"), tmp_path / ("%s.json" % kind))
    reads = []
    read = serialize.read_document

    def counted(path):
        reads.append(os.path.basename(path))
        return read(path)

    monkeypatch.setattr(serialize, "read_document", counted)
    decided = _decisions(monkeypatch)
    loader, check = ((load_bimodule, check_bimodule) if kind == "bimodule"
                     else (load_bicomodule, check_bicomodule))
    back = loader(str(tmp_path / ("%s.json" % kind)))
    assert reads == ["%s.json" % kind, "hopf.json"]
    assert back.left.hopf is back.right.hopf and back.left.alg is back.right.alg
    assert check(back).passed
    assert decided == ({"_decide_algebra": 1, "_decide_coalgebra": 1}
                       if kind == "bimodule" else {})


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


@pytest.mark.parametrize("change,match", [
    ("short idempotent", "idempotent needs 2 entries"),
    ("long idempotent", "idempotent needs 2 entries"),
    ("one label", "one label per group element"),
    ("one alpha", "one map per group element")])
def test_a_group_action_of_the_wrong_shape_raises_document_error(change, match):
    # a short idempotent used to load and pass the check as if padded, a
    # long one to raise IndexError inside it, and one label for two
    # elements to load
    doc = z2_partial_group_example(QQ).to_json()
    if change == "short idempotent":
        doc["idempotents"][1] = doc["idempotents"][1][:1]
    elif change == "long idempotent":
        doc["idempotents"][1].append("0")
    elif change == "one label":
        doc["labels"] = ["e"]
    else:
        doc["alphas"].pop()
    with pytest.raises(DocumentError, match=match):
        load_group_action(doc)


@pytest.mark.parametrize("change,what", [
    ({"labels": "eg"}, "labels"), ({"idempotents": [["1", "1"], "10"]}, "idempotent"),
    ({"idempotents": {"e": ["1", "1"], "g": ["1", "0"]}}, "idempotents"),
    ({"alphas": [[[0, 0, "1"], [1, 1, "1"]], {}]}, "alphas")], ids=repr)
def test_a_group_action_vector_or_row_list_that_is_not_a_list_raises(change, what):
    # a string was read character by character, so labels "eg" and the
    # idempotent "10" loaded as ["e", "g"] and ["1", "0"], and an alpha {}
    # loaded as the zero map
    doc = z2_partial_group_example(QQ).to_json()
    assert (doc["labels"], doc["idempotents"][1]) == (["e", "g"], ["1", "0"])
    doc.update(change)
    with pytest.raises(DocumentError, match="%s is not a list" % what):
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


def _interrupted(fh, node):
    fh.write('{\n  "a": 1')
    raise KeyboardInterrupt


@pytest.mark.parametrize("doc,patch,error", [
    ({"a": 1, "b": 1.5}, None, TypeError),
    ({"a": 1}, _interrupted, KeyboardInterrupt),
], ids=["float", "interrupt"])
def test_a_failed_write_leaves_the_target_as_it_was(tmp_path, monkeypatch, doc, patch, error):
    # the text goes to a file beside the target, which replaces it only once
    # written; here the writer raises after its first write
    if patch is not None:
        monkeypatch.setattr(_json_writer, "write_json", patch)
    path = tmp_path / "out.json"
    path.write_bytes(b'{"old": true}\n')
    with pytest.raises(error):
        write_document(doc, str(path))
    assert path.read_bytes() == b'{"old": true}\n'
    assert os.listdir(tmp_path) == ["out.json"]


# ---------------------------------------------------------------------------
# the writer: the bytes of json.dump, one flat row per write


def _dumped(doc):
    """What json.dump writes for doc with indent=2 and ensure_ascii=False,
    and the newline write_document adds."""
    fh = io.StringIO()
    json.dump(doc, fh, indent=2, ensure_ascii=False)
    return fh.getvalue() + "\n"


def _recording(monkeypatch, module):
    """Wrap module.write_document so it records each (document, path)."""
    written = []

    def record(doc, path):
        written.append((doc, str(path)))
        return write_document(doc, path)

    monkeypatch.setattr(module, "write_document", record)
    return written


def _assert_written_as_json_dump(written):
    assert written
    for doc, path in written:
        with open(path, "rb") as fh:
            assert fh.read() == _dumped(doc).encode("utf-8"), path


@pytest.mark.parametrize("name", sorted(examples._EXAMPLES))
def test_every_example_document_is_written_as_json_dump_writes_it(name, field, tmp_path,
                                                                   monkeypatch):
    written = _recording(monkeypatch, examples)
    spec = "qq" if field == QQ else "gf5"
    assert cli.main(["example", name, "--field", spec, "-o", str(tmp_path)]) == 0
    _assert_written_as_json_dump(written)


def test_globalize_and_smash_documents_are_written_as_json_dump_writes_them(
        tmp_path, monkeypatch, capsys):
    inputs = {"bim": ["sweedler-bimodule-k", "--r", "2", "--s", "3"],
              "tu": ["sweedler-bicomodule-k", "--t", "1/2", "--u", "-3"],
              "h4": ["regular-bicomodule"],
              "s3": ["regular-bicomodule", "--group", "S3"]}
    for out, argv in inputs.items():
        assert cli.main(["example"] + argv + ["-o", str(tmp_path / out)]) == 0
    # both commands import write_document from serialize when they run
    written = _recording(monkeypatch, serialize)
    bim = str(tmp_path / "bim" / "bimodule.json")
    for kind, src in (("bimodule", "bim"), ("bicomodule", "tu"), ("bicomodule", "h4"),
                      ("bicomodule", "s3")):
        path = str(tmp_path / src / ("%s.json" % kind))
        assert cli.main(["globalize", kind, path, "-o", str(tmp_path / src / "glob")]) == 0
    bic = str(tmp_path / "h4" / "bicomodule.json")
    assert cli.main(["smash", bim, bic, "-o", str(tmp_path / "smash.json")]) == 0
    assert cli.main(["smash", bim, bic, "-o", str(tmp_path / "smash-dir")]) == 0
    capsys.readouterr()
    assert len(written) == 6
    _assert_written_as_json_dump(written)


def test_the_kz16_globalization_document_is_written_as_json_dump_writes_it(tmp_path):
    n = 16
    h = group_algebra([[(i + j) % n for j in range(n)] for i in range(n)], QQ, name="kZ16")
    doc = standard_globalize_bicomodule(regular_bicomodule(h)).to_json()
    write_document(doc, tmp_path / "globalization.json")
    _assert_written_as_json_dump([(doc, tmp_path / "globalization.json")])


_SCALARS = (st.none() | st.booleans() | st.integers() | st.integers(-10 ** 60, 10 ** 60)
            | st.integers(-10 ** 6, 10 ** 6).map(Count)
            | st.text() | st.sampled_from(['"', "\\", "\x00\x1f\n\t\r\x7f", "é", "\U0001F600",
                                          " ", "a\"b\\c"]))
_VALUES = st.recursive(
    _SCALARS,
    lambda inner: (st.lists(inner, max_size=5) | st.lists(inner, max_size=5).map(tuple)
                   | st.dictionaries(st.text(max_size=4), inner, max_size=5)),
    max_leaves=30)


@settings(max_examples=300, deadline=None)
@given(_VALUES)
def test_generated_values_are_written_as_json_dump_writes_them(value):
    fh = io.StringIO()
    write_json(fh, value)
    assert fh.getvalue() + "\n" == _dumped(value)


class _Shown(int):
    """An int that repr shows as something else; JSON writes the int."""

    def __repr__(self):
        return "_Shown(%d)" % self


@pytest.mark.parametrize("value", [
    [], {}, [[]], [{}], {"a": []}, {"a": {}}, [[], [[]], {}], (), ((),), ("x", 1),
    "x", -7, 10 ** 40, Count(3), _Shown(4), True, False, None,
    [Count(2), _Shown(-1), True, None, "é"],
    {"k": [1, [2, [3, {}]], {"z": (4, 5)}], "e": "é\U0001F600", "t": True}], ids=repr)
def test_edge_values_are_written_as_json_dump_writes_them(value, tmp_path):
    write_document(value, tmp_path / "v.json")
    _assert_written_as_json_dump([(value, tmp_path / "v.json")])


@pytest.mark.parametrize("value", [1.5, [1, 2.0], ["a", 0.5], [[1, 2], 3.0],
                                   {"a": 1.0}, {1: "a"}, {"a": {None: 1}}, [{2: []}]],
                         ids=repr)
def test_a_float_or_a_key_that_is_not_a_string_raises_type_error(value, tmp_path):
    with pytest.raises(TypeError):
        write_document(value, tmp_path / "v.json")


def _check_set_up():
    """(hopf, structure) pairs of the five documents the check workload of
    the benchmark writes: the dual regular action of kZ12, and the kQ8*
    bimodule on kQ8 and the regular kQ8* bicomodule, two Hopf algebras in
    all."""
    from phopf.actions import dual_regular_action, trivialize_right
    from phopf._groups import named_group
    z12 = group_algebra([[(i + j) % 12 for j in range(12)] for i in range(12)], QQ)
    act = dual_regular_action(z12)
    bim = trivialize_right(dual_regular_action(group_algebra(named_group("Q8")[1], QQ)))
    return [(act.hopf, [act]), (bim.hopf, [bim, regular_bicomodule(bim.hopf)])]


def _old_to_json(s, hopf_ref=None, algebra_ref=None):
    """The document of an action, a coaction or a pair as their to_json
    wrote it when each side serialized H and A again for a pair."""
    show = s.hopf.field.show
    doc = {"hopf": hopf_ref if hopf_ref is not None else s.hopf.to_json(),
           "algebra": algebra_ref if algebra_ref is not None else AlgebraData.to_json(s.alg)}
    if hasattr(s, "side"):
        doc["side"] = s.side
        doc["map"] = [[i, j, k, show(c)] for (i, j, k), c in sorted(s.map.entries.items())]
        if hasattr(s, "symmetric"):
            doc["symmetric"] = bool(s.symmetric)
        return doc
    for side in ("left", "right"):
        q = getattr(s, side)
        doc[side] = {"map": _old_to_json(q)["map"]}
        if hasattr(q, "symmetric"):
            doc[side]["symmetric"] = bool(q.symmetric)
    return doc


def test_a_set_up_serializes_each_hopf_algebra_once(tmp_path, monkeypatch):
    # the pair documents used to build each side's whole document, inline H
    # and A included, and keep its map: 6 Hopf serializations, not 2
    set_up = _check_set_up()
    calls = []
    to_json = HopfData.to_json

    def counted(h):
        calls.append(h)
        return to_json(h)

    monkeypatch.setattr(HopfData, "to_json", counted)
    for t, (hopf, structures) in enumerate(set_up):
        write_document(hopf.to_json(), tmp_path / ("hopf%d.json" % t))
        for s in structures:
            write_document(s.to_json(hopf_ref="hopf.json"), tmp_path / "s.json")
    assert len(calls) == 2
    monkeypatch.undo()
    for _, structures in set_up:
        for s in structures:
            for q in [s] + [getattr(s, side) for side in ("left", "right") if hasattr(s, side)]:
                for refs in ({}, {"hopf_ref": "hopf.json"},
                             {"hopf_ref": "hopf.json", "algebra_ref": "algebra.json"}):
                    assert _text(q.to_json(**refs)) == _text(_old_to_json(q, **refs))


def test_the_set_up_documents_take_few_writes():
    # json.dump wrote them in 4,701 writes, one per token
    class Counting(io.StringIO):
        writes = 0

        def write(self, text):
            self.writes += 1
            return super().write(text)

    total = 0
    for hopf, structures in _check_set_up():
        for doc in [hopf.to_json()] + [s.to_json(hopf_ref="hopf.json") for s in structures]:
            fh = Counting()
            write_json(fh, doc)
            assert fh.getvalue() + "\n" == _dumped(doc)
            total += fh.writes + 1
    assert total <= 1400, total
