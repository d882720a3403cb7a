"""Command-line front end.

Commands
    phopf check {hopf|algebra|action|coaction|bimodule|bicomodule} FILE
        Re-run the full axiom suite of a stored structure.
    phopf example NAME [--r R --s S --t T --u U --group G --N 0,2]
                       [--field qq|gf<p>] [-o DIR]
        Write a ready-made example to disk; every file is certified before
        it is written, by the constructor that builds it, which raises on
        any failing law:
            sweedler-bimodule-k    sweedler_k_bimodule (each side's action
                                   suite, then the compatibility law)
            sweedler-bicomodule-k  sweedler_k_bicomodule (check_bicomodule)
            en-kg                  en_kg_example (algebra_check of the coset
                                   algebra, then the action suite)
            dual-group-action      dual_regular_action (hopf_check of the
                                   dual; the action must be global)
            regular-bicomodule     regular_bicomodule (hopf_check; both
                                   coactions must be global)
            z2-partial-group       group_to_kg (check_group_partial_action,
                                   then the symmetric action suite)
    phopf globalize {bimodule|bicomodule} FILE -o DIR
        Construct the standard globalization and report its certificate, a
        Report in the shape `phopf check` prints (laws condition1,
        condition2, lemaco1-4 for a bimodule; exchange for a bicomodule).
    phopf smash BIMODULE_FILE BICOMODULE_FILE [-o PATH]
        Build the smash product of the two stored factors.

Every subcommand takes --format {text|json}.  All numeric parameters use
the exact scalar grammar "n" or "n/d" — no floats.

Exit codes: 0 success / checks passed, 1 semantic failure (an axiom or a
construction failed), 2 unreadable or malformed input.

Every command is a fresh process, so this module imports at its top only
what parsing the command line needs; each command imports the modules it
runs when it runs, and so compiles only the modules it runs.  Functions are
looked up through their modules at call time, so a wrapper put on a module
attribute sees every call.  run(), every process's entry point, is main()
then gc.freeze(), so the exit-time collections skip the heap it leaves."""

import argparse
import gc
import importlib
import json
import os
import sys

from .fields import GF, QQ
from .serialize import DocumentError, write_document


# ---------------------------------------------------------------------------
# small parsing helpers


def _field_spec(spec):
    s = spec.strip().lower()
    if s == "qq":
        return QQ
    if s.startswith("gf") and s[2:].isdigit():
        try:
            return GF(int(s[2:]))
        except ValueError as exc:
            raise DocumentError("bad field spec %r: %s" % (spec, exc))
    raise DocumentError("bad field spec %r (use qq or gf<p>)" % spec)


def _scalar(field, text):
    try:
        return field.parse(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise DocumentError("bad scalar %r: %s" % (text, exc))


def _indices(text):
    try:
        return [int(x) for x in text.split(",") if x.strip() != ""]
    except ValueError:
        raise DocumentError("bad index list %r (use e.g. 0,2)" % text)


def _group(name):
    from ._groups import named_group
    try:
        return named_group(name)
    except KeyError as exc:
        raise DocumentError(str(exc))


def _lookup(module, name):
    """`phopf.<module>.<name>`, importing the module on first use."""
    return getattr(importlib.import_module("." + module, __package__), name)


def _emit(report, fmt):
    if fmt == "json":
        print(json.dumps(report.to_json(), ensure_ascii=False))
    else:
        for line in report.lines():
            print(line)


# ---------------------------------------------------------------------------
# phopf check


# kind -> (loader in serialize, module of the checker, checker); a pair of
# checkers is (left, right), picked by the side of the loaded structure
_CHECK = {
    "hopf": ("load_hopf", "algebras", "hopf_check"),
    "algebra": ("load_algebra", "algebras", "algebra_check"),
    "action": ("load_action", "actions", ("check_lpma", "check_rpma")),
    "coaction": ("load_coaction", "coactions", ("check_lpca", "check_rpca")),
    "bimodule": ("load_bimodule", "actions", "check_bimodule"),
    "bicomodule": ("load_bicomodule", "coactions", "check_bicomodule"),
}


def cmd_check(args, fmt):
    loader, module, checker = _CHECK[args.kind]
    structure = _lookup("serialize", loader)(args.file)
    if not isinstance(checker, str):
        checker = checker[structure.side != "left"]
    rep = _lookup(module, checker)(structure)
    _emit(rep, fmt)
    return 0 if rep.passed else 1


# ---------------------------------------------------------------------------
# phopf example


def _write_pair(outdir, structure, kind):
    """Write hopf.json and the structure's document, which refers to it."""
    hopf_path = os.path.join(outdir, "hopf.json")
    struct_path = os.path.join(outdir, "%s.json" % kind)
    write_document(structure.hopf.to_json(), hopf_path)
    write_document(structure.to_json(hopf_ref="hopf.json"), struct_path)
    return [hopf_path, struct_path]


def _ex_sweedler_bimodule(args, field, outdir):
    from .actions import sweedler_k_bimodule
    b = sweedler_k_bimodule(field, _scalar(field, args.r), _scalar(field, args.s))
    return _write_pair(outdir, b, "bimodule"), ["r=%s s=%s over %s" % (args.r, args.s, field)]


def _ex_sweedler_bicomodule(args, field, outdir):
    from .coactions import sweedler_k_bicomodule
    b = sweedler_k_bicomodule(field, _scalar(field, args.t), _scalar(field, args.u))
    return _write_pair(outdir, b, "bicomodule"), ["t=%s u=%s over %s" % (args.t, args.u, field)]


def _ex_en_kg(args, field, outdir):
    from .actions import is_global
    from .group_actions import en_kg_example
    labels, table = _group(args.group or "z4")
    act = en_kg_example(table, _indices(args.N), field, labels)[1]
    return _write_pair(outdir, act, "action"), [
        "|G|=%d, |N|=%d, is_global=%s" % (len(table), len(set(_indices(args.N))), is_global(act))]


def _ex_dual_group_action(args, field, outdir):
    from .algebras import group_algebra
    from .actions import dual_regular_action
    labels, table = _group(args.group or "z4")
    h = group_algebra(table, field, labels)
    act = dual_regular_action(h)  # raises unless the action is global
    return _write_pair(outdir, act, "action"), [
        "dual of k[%s] acting on it, is_global=True" % (args.group or "z4")]


def _ex_regular_bicomodule(args, field, outdir):
    from .algebras import group_algebra, sweedler_h4
    from .coactions import regular_bicomodule
    if args.group:
        labels, table = _group(args.group)
        h = group_algebra(table, field, labels)
    else:
        h = sweedler_h4(field)
    b = regular_bicomodule(h)
    return _write_pair(outdir, b, "bicomodule"), [
        "comultiplication coacting on %s from both sides" % h.name]


def _ex_z2_partial_group(args, field, outdir):
    from .group_actions import group_to_kg, z2_partial_group_example
    gpa = z2_partial_group_example(field)
    act = group_to_kg(gpa)
    group_path = os.path.join(outdir, "group-action.json")
    write_document(gpa.to_json(), group_path)
    files = [group_path] + _write_pair(outdir, act, "action")
    return files, ["order-2 group on k x k plus its group-algebra counterpart"]


_EXAMPLES = {
    "sweedler-bimodule-k": _ex_sweedler_bimodule,
    "sweedler-bicomodule-k": _ex_sweedler_bicomodule,
    "en-kg": _ex_en_kg,
    "dual-group-action": _ex_dual_group_action,
    "regular-bicomodule": _ex_regular_bicomodule,
    "z2-partial-group": _ex_z2_partial_group,
}


def cmd_example(args, fmt):
    field = _field_spec(args.field)
    os.makedirs(args.out, exist_ok=True)
    files, notes = _EXAMPLES[args.name](args, field, args.out)
    if fmt == "json":
        print(json.dumps({"example": args.name, "files": files, "notes": notes},
                         ensure_ascii=False))
    else:
        for note in notes:
            print(note)
        for path in files:
            print("wrote %s" % path)
    return 0


# ---------------------------------------------------------------------------
# phopf globalize


def cmd_globalize(args, fmt):
    from .serialize import load_bicomodule, load_bimodule
    from .globalize import (maximal_degenerate_subbimodule, psi_map,
                            standard_globalize_bicomodule,
                            standard_globalize_bimodule)
    os.makedirs(args.out, exist_ok=True)
    psi_flags = None
    if args.kind == "bimodule":
        b = load_bimodule(args.file)
        g = g_for_mstar = standard_globalize_bimodule(b)
    else:
        from .coactions import bicomodule_to_bimodule
        b = load_bicomodule(args.file)
        g = standard_globalize_bicomodule(b)
        g_for_mstar = standard_globalize_bimodule(bicomodule_to_bimodule(b))
        # psi_map raises unless its index permutation is a bijection
        _, intertwines, restricted = psi_map(b.hopf, b.alg, g, g_for_mstar)
        psi_flags = {"monomorphism": True,
                     "intertwines_dual_actions": intertwines,
                     "restricts_to_isomorphism": restricted}
    mstar_dim = maximal_degenerate_subbimodule(g_for_mstar).dim
    doc = g.to_json()
    doc["degenerate_dim"] = mstar_dim
    if psi_flags is not None:
        doc["psi"] = psi_flags
    path = os.path.join(args.out, "globalization.json")
    write_document(doc, path)
    if fmt == "json":
        print(json.dumps({"output": path, "dim_input": b.alg.dim, "dim_b": g.dim,
                          "ambient_dim": g.ambient.algebra.dim,
                          "certificate": g.certificate.to_json(),
                          "degenerate_dim": mstar_dim,
                          "psi": psi_flags}, ensure_ascii=False))
    else:
        print("input algebra dim %d -> globalized carrier dim %d (ambient %d)"
              % (b.alg.dim, g.dim, g.ambient.algebra.dim))
        for line in g.certificate.lines():
            print(line)
        print("maximal degenerate submodule dim %d" % mstar_dim)
        if psi_flags is not None:
            print("psi: " + "  ".join("%s=%s" % (k, v)
                                      for k, v in sorted(psi_flags.items())))
        print("wrote %s" % path)
    return 0


# ---------------------------------------------------------------------------
# phopf smash


def cmd_smash(args, fmt):
    from .serialize import load_bicomodule, load_bimodule
    from .smash import _idempotents_and_unit_pair, smash_product
    bim = load_bimodule(args.bimodule)
    bic = load_bicomodule(args.bicomodule)
    s = smash_product(bim, bic)  # raises unless algebra_check proves A ♮ Ā associative
    found, unit_note = _idempotents_and_unit_pair(s)
    doc = s.alg.to_json()
    doc["certificate"] = {"associative": True,
                          "idempotents_found": found,
                          "unit_pair": unit_note}
    path = None
    if args.out:
        path = (args.out if args.out.endswith(".json")
                else os.path.join(args.out, "smash.json"))
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        write_document(doc, path)
    if fmt == "json":
        out = dict(doc)
        if path:
            out["output"] = path
        print(json.dumps(out, ensure_ascii=False))
    else:
        print("smash product dim %d, associative: True" % s.alg.dim)
        print("1_A # 1_Abar is %s" % unit_note)
        if found:
            for entry in found:
                print("idempotent %s # %s via route %s"
                      % (entry["a"], entry["u"], entry["route"]))
        else:
            print("no idempotent basis pairs found")
        if path:
            print("wrote %s" % path)
    return 0


# ---------------------------------------------------------------------------
# wiring


def _build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("text", "json"), default=None,
                        help="report style (default text)")
    ap = argparse.ArgumentParser(
        prog="phopf",
        description="Exact toolkit for partial (co)module algebra structures "
                    "over finite-dimensional Hopf algebras.")
    ap.add_argument("--format", dest="root_format", choices=("text", "json"),
                    default=None, help=argparse.SUPPRESS)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", parents=[common],
                       help="re-run the axiom suite of a stored structure")
    p.add_argument("kind", choices=sorted(_CHECK))
    p.add_argument("file")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("example", parents=[common],
                       help="write a certified built-in example to disk")
    p.add_argument("name", choices=sorted(_EXAMPLES))
    p.add_argument("--field", default="qq", help="qq or gf<p> (default qq)")
    p.add_argument("--r", default="0", help="left action parameter")
    p.add_argument("--s", default="0", help="right action parameter")
    p.add_argument("--t", default="0", help="left coaction parameter")
    p.add_argument("--u", default="0", help="right coaction parameter")
    p.add_argument("--group", default=None, help="built-in group name")
    p.add_argument("--N", default="0", help="subgroup element indices, e.g. 0,2")
    p.add_argument("-o", "--out", default=".", help="output directory")
    p.set_defaults(func=cmd_example)

    p = sub.add_parser("globalize", parents=[common],
                       help="construct and certify the standard globalization")
    p.add_argument("kind", choices=("bimodule", "bicomodule"))
    p.add_argument("file")
    p.add_argument("-o", "--out", required=True, help="output directory")
    p.set_defaults(func=cmd_globalize)

    p = sub.add_parser("smash", parents=[common],
                       help="build the smash product of two stored factors")
    p.add_argument("bimodule")
    p.add_argument("bicomodule")
    p.add_argument("-o", "--out", default=None,
                   help="output file (.json) or directory")
    p.set_defaults(func=cmd_smash)
    return ap


def main(argv=None):
    args = _build_parser().parse_args(argv)
    fmt = args.format or args.root_format or "text"
    try:
        return args.func(args, fmt)
    except (OSError, json.JSONDecodeError, DocumentError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except (ValueError, AssertionError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1


def run(argv=None):
    """main(argv), then gc.freeze() (see the module docstring)."""
    code = main(argv)
    gc.freeze()
    return code


if __name__ == "__main__":
    sys.exit(run())
