"""Rational scalars: an integral rational is an int, a non-integral one a
Fraction.  Oracles that this representation changes no verdict, witness
or document, a gate on the Fraction work it saves, and the ℚ structures
against their reductions mod p."""

import contextlib
import copy
import functools
import io
import json
from fractions import Fraction

import pytest

from phopf.fields import GF, QQ, Field
from phopf.algebras import algebra_check, hopf_check
from phopf.examples import (group_algebra, regular_bicomodule, sweedler_h4,
                            sweedler_k_bicomodule)
from phopf._groups import named_group
from phopf.actions import (check_bimodule, check_lpma, check_rpma,
                           dual_regular_action, sweedler_k_bimodule,
                           trivialize_right)
from phopf.coactions import check_bicomodule, check_lpca, check_rpca
from phopf.cli import main
from phopf.group_actions import (check_group_partial_action, en_kg_example,
                                 load_group_action, z2_partial_group_example)
from phopf.serialize import (load_action, load_algebra, load_bicomodule,
                             load_bimodule, load_coaction, load_hopf,
                             write_document)


# ---------------------------------------------------------------------------
# documents: the scalars of every document kind, and the built-in families

# keys whose value is a list of rows [index, ..., "scalar"]
ROW_KEYS = ("mul", "comul", "antipode", "map")
# keys whose value is a list of scalars (or, for "idempotents", of lists)
VECTOR_KEYS = ("unit", "counit")


def map_scalars(doc, fn, field=None):
    """A copy of a document with every scalar string s replaced by fn(s) and,
    if `field` is given, every field record by field.to_json()."""
    out = {}
    for key, value in doc.items():
        if key == "field" and field is not None:
            value = field.to_json()
        elif key in ROW_KEYS:
            value = [row[:-1] + [fn(row[-1])] for row in value]
        elif key == "alphas":
            value = [[row[:-1] + [fn(row[-1])] for row in rows] for rows in value]
        elif key in VECTOR_KEYS:
            value = [fn(c) for c in value]
        elif key == "idempotents":
            value = [[fn(c) for c in v] for v in value]
        elif isinstance(value, dict):
            value = map_scalars(value, fn, field)
        out[key] = value
    return out


def reduce_mod(doc, p):
    """A ℚ document read over GF(p) (no denominator may be divisible by p)."""
    f = GF(p)
    return map_scalars(doc, lambda s: f.show(f.of(QQ.parse(s))), f)


def _scalar_rows(doc, path=()):
    """Paths (key, ..., row) of every row of every table of a document."""
    for key, value in doc.items():
        if key in ROW_KEYS:
            yield from ((path + (key, r)) for r in range(len(value)))
        elif key == "alphas":
            yield from ((path + (key, g, r)) for g in range(len(value))
                        for r in range(len(value[g])))
        elif isinstance(value, dict):
            yield from _scalar_rows(value, path + (key,))


def mutations(doc, per_doc=8):
    """(label, document) for single-entry ±1 moves of about `per_doc`
    rows spread over all of the document's tables."""
    paths = list(_scalar_rows(doc))
    step = max(1, len(paths) // per_doc)
    for n, path in enumerate(paths[::step]):
        delta = 1 if n % 2 == 0 else -1
        out = copy.deepcopy(doc)
        row = out
        for key in path:
            row = row[key]
        row[-1] = QQ.show(QQ.parse(row[-1]) + delta)
        yield "%s %+d" % ("/".join(map(str, path)), delta), out


def _side_suite(checkers):
    return lambda s: checkers[s.side != "left"](s)


# kind -> (loader, suite)
KINDS = {
    "algebra": (load_algebra, algebra_check),
    "hopf": (load_hopf, hopf_check),
    "action": (load_action, _side_suite((check_lpma, check_rpma))),
    "coaction": (load_coaction, _side_suite((check_lpca, check_rpca))),
    "bimodule": (load_bimodule, check_bimodule),
    "bicomodule": (load_bicomodule, check_bicomodule),
    "group action": (load_group_action, check_group_partial_action),
}


Z4_TABLE = [[(i + j) % 4 for j in range(4)] for i in range(4)]


def _group_algebra(name):
    labels, table = named_group(name)
    return group_algebra(table, QQ, labels, name="k" + name)


@functools.lru_cache(maxsize=None)
def _h4():
    return sweedler_h4(QQ)


@functools.lru_cache(maxsize=None)
def _z4():
    return group_algebra(Z4_TABLE, QQ, name="kZ4")


@functools.lru_cache(maxsize=None)
def _kq8_star():
    return trivialize_right(dual_regular_action(_group_algebra("Q8")))


# name -> (kind, builder) of the built-in families, named here so that a
# fault in a constructor fails the tests that read that family, not the
# collection of every module that imports this one
FAMILIES = {
    "H4": ("hopf", _h4),
    "kZ4": ("hopf", _z4),
    "kS3": ("hopf", lambda: _group_algebra("S3")),
    "kQ8*": ("hopf", lambda: _kq8_star().hopf),
    "H4 algebra": ("algebra", _h4),
    "kS3* action": ("action", lambda: dual_regular_action(_group_algebra("S3"))),
    "kZ4 en-kG action": ("action", lambda: en_kg_example(Z4_TABLE, [0, 2], QQ)[1]),
    "kQ8* bimodule": ("bimodule", _kq8_star),
    "Sweedler (2,3) bimodule": ("bimodule", lambda: sweedler_k_bimodule(QQ, 2, 3)),
    "Sweedler (1/2,-3/4) bimodule":
        ("bimodule", lambda: sweedler_k_bimodule(QQ, Fraction(1, 2), Fraction(-3, 4))),
    "H4 bicomodule": ("bicomodule", lambda: regular_bicomodule(_h4())),
    "H4 right coaction": ("coaction", lambda: regular_bicomodule(_h4()).right),
    "kZ4 bicomodule": ("bicomodule", lambda: regular_bicomodule(_z4())),
    "kQ8* bicomodule": ("bicomodule", lambda: regular_bicomodule(_kq8_star().hopf)),
    "Sweedler (t,u) bicomodule":
        ("bicomodule", lambda: sweedler_k_bicomodule(QQ, 3, Fraction(-2, 5))),
    "Z2 group action": ("group action", lambda: z2_partial_group_example(QQ)),
}


@functools.lru_cache(maxsize=None)
def family(name):
    """(kind, ℚ document) of the built-in family `name`; the (t, u)
    bicomodule, the (1/2, -3/4) bimodule and the en-kG action are not
    integral."""
    kind, build = FAMILIES[name]
    s = build()
    doc = (s.to_json() if kind != "algebra"
           else {key: s.to_json()[key] for key in ("field", "basis", "mul", "unit")})
    return kind, json.loads(json.dumps(doc))


def families():
    """name -> (kind, ℚ document) of every built-in family."""
    return {name: family(name) for name in FAMILIES}


INTEGRAL = ("kZ4", "kS3", "kQ8* bimodule", "kQ8* bicomodule", "H4 bicomodule")


# ---------------------------------------------------------------------------
# the old representation: every rational scalar a Fraction


@contextlib.contextmanager
def fraction_scalars():
    """Every Field made while this is active gives Fraction scalars over ℚ,
    integral or not: the representation before integral rationals were
    ints."""
    init, saved = Field.__init__, {name: vars(Field)[name]
                                   for name in ("parse", "of", "inv")}

    def as_fraction(fn):
        def wrapped(self, *args):
            x = fn(self, *args)
            return Fraction(x) if self.p is None else x
        return wrapped

    def fraction_init(self, p=None):
        init(self, p)
        if p is None:
            self.zero, self.one = Fraction(0), Fraction(1)

    Field.__init__ = fraction_init
    for name, fn in saved.items():
        setattr(Field, name, as_fraction(fn))
    try:
        yield
    finally:
        Field.__init__ = init
        for name, fn in saved.items():
            setattr(Field, name, fn)


def _verdict(kind, doc):
    """The suite's JSON report, or the loader's message if the data class
    rejects the document (a coaction whose counit law fails, say)."""
    loader, suite = KINDS[kind]
    try:
        structure = loader(doc)
    except ValueError as exc:
        return {"passed": False, "rejected": str(exc)}
    return suite(structure).to_json()


def _both_representations(kind, doc):
    with fraction_scalars():
        old = _verdict(kind, doc)
    return old, _verdict(kind, doc)


def test_fraction_scalars_is_the_old_representation():
    doc = family("H4 bicomodule")[1]
    with fraction_scalars():
        b = load_bicomodule(doc)
        assert type(b.hopf.field.one) is Fraction
        assert all(type(c) is Fraction for c in b.left.map.entries.values())
    b = load_bicomodule(doc)
    assert type(b.hopf.field.one) is int
    assert all(type(c) is int for c in b.left.map.entries.values())


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_reports_do_not_depend_on_the_scalar_representation(name):
    # every suite's JSON report, on the certified structure and on
    # single-entry moves of it, is the same whether each rational scalar
    # is a Fraction or (when integral) an int
    kind, doc = family(name)
    old, new = _both_representations(kind, doc)
    assert new["passed"] and new == old
    failing = 0
    for label, moved in mutations(doc):
        old, new = _both_representations(kind, moved)
        assert new == old, label
        failing += not new["passed"]
    assert failing


@pytest.mark.parametrize("name", ["H4 bicomodule", "kZ4 bicomodule",
                                  "Sweedler (2,3) bimodule",
                                  "Sweedler (1/2,-3/4) bimodule",
                                  "Sweedler (t,u) bicomodule"])
def test_globalizations_do_not_depend_on_the_scalar_representation(name, tmp_path):
    kind, doc = family(name)
    path = str(tmp_path / "input.json")
    write_document(doc, path)

    def globalize(out):
        with contextlib.redirect_stdout(io.StringIO()) as buf:
            assert main(["globalize", kind, path, "-o", str(tmp_path / out),
                         "--format", "json"]) == 0
        with open(tmp_path / out / "globalization.json", encoding="utf-8") as fh:
            return buf.getvalue(), fh.read()

    with fraction_scalars():
        old = globalize("old")
    new = globalize("new")
    assert new[1] == old[1]
    assert new[0] == old[0].replace(str(tmp_path / "old"), str(tmp_path / "new"))


# ---------------------------------------------------------------------------
# the Fraction work an integral structure no longer does


@contextlib.contextmanager
def counting_fractions():
    """Count Fraction constructions (every one goes through __new__, or
    through _from_coprime_ints where that exists)."""
    count = [0]
    saved = {name: vars(Fraction)[name] for name in ("__new__", "_from_coprime_ints")
             if name in vars(Fraction)}

    def counted(fn):
        def wrapped(*args, **kwargs):
            count[0] += 1
            return fn(*args, **kwargs)
        return wrapped

    for name, attr in saved.items():
        fn = attr.__func__
        setattr(Fraction, name, type(attr)(counted(fn)))
    try:
        yield count
    finally:
        for name, attr in saved.items():
            setattr(Fraction, name, attr)


def test_fraction_counter_counts_arithmetic():
    with counting_fractions() as count:
        x = Fraction(1, 3) * Fraction(3, 7) + 1
    assert x == Fraction(8, 7) and count[0] >= 3
    with counting_fractions() as count:
        assert 6 * 7 - 2 == 40
    assert count[0] == 0


@pytest.mark.parametrize("argv,name", [
    (["globalize", "bicomodule", "{doc}", "-o", "{out}"], "kZ4 bicomodule"),
    (["check", "bimodule", "{doc}"], "kQ8* bimodule"),
])
def test_integral_commands_build_almost_no_fractions(argv, name, tmp_path):
    # 25,803 Fractions for the kZ4 globalization and 6,426 for the kQ8*
    # bimodule check when every rational scalar was a Fraction, 44 and 8
    # while Field.inv built one for each ±1 pivot, and none since
    doc = str(tmp_path / "input.json")
    write_document(family(name)[1], doc)
    argv = [a.format(doc=doc, out=str(tmp_path / "out")) for a in argv]
    with counting_fractions() as count:
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(argv) == 0
    assert count[0] == 0, count[0]


# ---------------------------------------------------------------------------
# ℚ against GF(p): a law that holds over ℤ holds mod p


@pytest.mark.parametrize("p", [5, 7])
@pytest.mark.parametrize("name", INTEGRAL)
def test_rational_verdicts_agree_with_their_reductions(name, p):
    kind, doc = family(name)
    assert _verdict(kind, doc)["passed"]
    assert _verdict(kind, reduce_mod(doc, p))["passed"]
    caught = 0
    for label, moved in mutations(doc):
        if not _verdict(kind, reduce_mod(moved, p))["passed"]:
            caught += 1
            assert not _verdict(kind, moved)["passed"], label
    assert caught
