"""Reading and writing the toolkit's JSON documents.

Writers live on the data classes (each has to_json); this module supplies
the inverse loaders plus file plumbing.  The Hopf algebra and coefficient
algebra inside an action/coaction document may be stored inline as JSON
objects or referenced by file name; references resolve relative to the
directory of the referring file, so a bundle of files moves as a unit.

Malformed documents (missing keys, bad scalar syntax, wrong shapes) raise
DocumentError; mathematically invalid but well-formed content raises the
data classes' own ValueError, so callers can tell a parse failure from a
semantic one."""

import json
import os

from .algebras import AlgebraData, HopfData, json_rows
from .actions import GroupPartialActionData, PartialActionData, PartialBimoduleData
from .coactions import PartialCoactionData, PartialBicomoduleData


class DocumentError(ValueError):
    """A JSON document that does not follow the expected schema."""


def read_document(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def write_document(doc, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, ensure_ascii=False)
        fh.write("\n")


def _resolve(node, base_dir):
    """File-or-inline: a string names a file relative to base_dir.  Returns
    (document, directory to resolve the document's own references in)."""
    if isinstance(node, str):
        path = node if os.path.isabs(node) else os.path.join(base_dir, node)
        return read_document(path), os.path.dirname(path) or "."
    if isinstance(node, dict):
        return node, base_dir
    raise DocumentError("expected an object or a file reference, got %r" % (node,))


def _guard(fn, what):
    try:
        return fn()
    except DocumentError:
        raise
    except (KeyError, IndexError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise DocumentError("malformed %s document: %s" % (what, exc))


# ---------------------------------------------------------------------------
# loaders, one per document kind


def load_algebra(node, base_dir="."):
    doc, _ = _resolve(node, base_dir)
    return _guard(lambda: AlgebraData.from_json(doc), "algebra")


def load_hopf(node, base_dir="."):
    doc, _ = _resolve(node, base_dir)
    return _guard(lambda: HopfData.from_json(doc), "hopf")


def _action_parts(doc, base, cls, key_side=None):
    """Hopf algebra, algebra, side, map entries and symmetry flag of a
    one-sided `cls` (PartialActionData or PartialCoactionData) document."""
    hopf = load_hopf(doc["hopf"], base)
    alg = load_algebra(doc["algebra"], base)
    if hopf.field != alg.field:
        raise ValueError("the hopf and algebra parts live over different fields")
    sub = doc if key_side is None else doc[key_side]
    side = sub["side"] if key_side is None else key_side
    entries = dict(json_rows(sub["map"], cls.shape(hopf, alg, side), hopf.field, "map"))
    return hopf, alg, side, entries, bool(sub.get("symmetric", False))


def load_action(node, base_dir="."):
    doc, base = _resolve(node, base_dir)
    hopf, alg, side, entries, sym = _guard(
        lambda: _action_parts(doc, base, PartialActionData), "action")
    return PartialActionData(hopf, alg, side, entries, symmetric=sym)


def load_bimodule(node, base_dir="."):
    doc, base = _resolve(node, base_dir)
    lp = _guard(lambda: _action_parts(doc, base, PartialActionData, "left"),
                "bimodule")
    rp = _guard(lambda: _action_parts(doc, base, PartialActionData, "right"),
                "bimodule")
    left = PartialActionData(*lp[:4], symmetric=lp[4])
    right = PartialActionData(*rp[:4], symmetric=rp[4])
    return PartialBimoduleData(left, right)


def load_coaction(node, base_dir="."):
    doc, base = _resolve(node, base_dir)
    hopf, alg, side, entries, _ = _guard(
        lambda: _action_parts(doc, base, PartialCoactionData), "coaction")
    return PartialCoactionData(hopf, alg, side, entries)


def load_bicomodule(node, base_dir="."):
    doc, base = _resolve(node, base_dir)
    lp = _guard(lambda: _action_parts(doc, base, PartialCoactionData, "left"),
                "bicomodule")
    rp = _guard(lambda: _action_parts(doc, base, PartialCoactionData, "right"),
                "bicomodule")
    left = PartialCoactionData(*lp[:4])
    right = PartialCoactionData(*rp[:4])
    return PartialBicomoduleData(left, right)


def load_group_action(node, base_dir="."):
    doc, base = _resolve(node, base_dir)

    def parts():
        table = doc["group"]
        if any(type(x) is not int for row in table for x in row):
            raise ValueError("group table entries must be integers")
        alg = load_algebra(doc["algebra"], base)
        f = alg.field
        m = alg.dim
        idem = [[f.parse(c) for c in v] for v in doc["idempotents"]]
        alphas = []
        for rows in doc["alphas"]:
            mat = [[f.zero] * m for _ in range(m)]
            for (i, j), c in json_rows(rows, (m, m), f, "alphas"):
                mat[i][j] = c
            alphas.append(mat)
        return table, alg, idem, alphas, doc.get("labels")

    table, alg, idem, alphas, labels = _guard(parts, "group action")
    return GroupPartialActionData(table, alg, idem, alphas, labels=labels)
