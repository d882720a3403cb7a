"""Reading and writing the toolkit's JSON documents.

Each data class builds its document with to_json, serializing each part
once (a pair holds H and A once, and each side's map_json); every document
is written by write_document, one flat row per write, and read back by the
loaders here.  The Hopf algebra and coefficient algebra inside an
action/coaction document may be stored inline as JSON objects or
referenced by file name; references resolve relative to the directory of
the referring file, so a bundle of files moves as a unit.

Malformed documents (missing keys, bad scalar syntax, wrong shapes) raise
DocumentError; mathematically invalid but well-formed content raises the
data classes' own ValueError, so callers can tell a parse failure from a
semantic one.

The action and coaction data classes are imported by the loaders that
build them, so reading an algebra or a Hopf algebra loads only `algebras`."""

import json
import os

from .algebras import AlgebraData, HopfData, json_rows


class DocumentError(ValueError):
    """A JSON document that does not follow the expected schema."""


def read_document(path):
    """The JSON document at `path`; DocumentError if it is not UTF-8 or
    nests too deeply to parse."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except UnicodeDecodeError as exc:
            raise DocumentError("%s is not UTF-8 text: %s" % (path, exc))
        except RecursionError:
            raise DocumentError("%s is nested too deeply to read" % path)


def write_document(doc, path):
    """Write `doc` to `path`: the UTF-8 text json.dump writes with indent=2
    and ensure_ascii=False, then a newline.  Each flat list of scalars (a
    map row, a dense row of phi) is one join and one write, and no larger
    text is built.  A document holds dicts with string keys, lists, tuples,
    strings, ints (a Count too), booleans and None: a float raises
    TypeError.  The text goes to `path`.<pid>.tmp, which then replaces
    `path`; if anything raises, that file is removed and `path` is as it was."""
    from ._json_writer import write_json
    tmp = "%s.%d.tmp" % (path, os.getpid())
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            write_json(fh, doc)
            fh.write("\n")
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


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


def _action_parts(doc, base, cls, sides=None):
    """Hopf algebra, algebra and one (side, map entries, symmetry flag) per
    side of a `cls` (PartialActionData or PartialCoactionData) document: a
    one-sided document names its side, a two-sided one keeps each side's
    map under the keys `sides`.  The Hopf algebra and the algebra are loaded
    once and shared by every side."""
    hopf = load_hopf(doc["hopf"], base)
    alg = load_algebra(doc["algebra"], base)
    if hopf.field != alg.field:
        raise ValueError("the hopf and algebra parts live over different fields")
    parts = []
    for key_side in sides or (None,):
        sub = doc if key_side is None else doc[key_side]
        side = key_side or sub["side"]
        if side not in ("left", "right"):
            raise ValueError("side must be 'left' or 'right', got %r" % (side,))
        entries = dict(json_rows(sub["map"], cls.shape(hopf, alg, side), hopf.field, "map"))
        symmetric = sub.get("symmetric", False)
        if type(symmetric) is not bool:
            raise ValueError("the symmetric flag must be true or false, got %r" % (symmetric,))
        parts.append((side, entries, symmetric))
    return hopf, alg, parts


def load_action(node, base_dir="."):
    from .actions import PartialActionData
    doc, base = _resolve(node, base_dir)
    hopf, alg, [(side, entries, sym)] = _guard(
        lambda: _action_parts(doc, base, PartialActionData), "action")
    return PartialActionData(hopf, alg, side, entries, symmetric=sym)


def load_bimodule(node, base_dir="."):
    from .actions import PartialActionData, PartialBimoduleData
    doc, base = _resolve(node, base_dir)
    hopf, alg, parts = _guard(
        lambda: _action_parts(doc, base, PartialActionData, ("left", "right")), "bimodule")
    left, right = (PartialActionData(hopf, alg, side, entries, symmetric=sym)
                   for side, entries, sym in parts)
    return PartialBimoduleData(left, right)


def load_coaction(node, base_dir="."):
    from .coactions import PartialCoactionData
    doc, base = _resolve(node, base_dir)
    hopf, alg, [(side, entries, _)] = _guard(
        lambda: _action_parts(doc, base, PartialCoactionData), "coaction")
    return PartialCoactionData(hopf, alg, side, entries)


def load_bicomodule(node, base_dir="."):
    from .coactions import PartialBicomoduleData, PartialCoactionData
    doc, base = _resolve(node, base_dir)
    hopf, alg, parts = _guard(
        lambda: _action_parts(doc, base, PartialCoactionData, ("left", "right")), "bicomodule")
    left, right = (PartialCoactionData(hopf, alg, side, entries)
                   for side, entries, _ in parts)
    return PartialBicomoduleData(left, right)
