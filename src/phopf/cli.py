"""Command-line front end.

Commands
    phopf check {hopf|algebra|action|coaction|bimodule|bicomodule} FILE
        Re-run the full axiom suite of a stored structure.
    phopf example NAME [--r R --s S --t T --u U --group G --N 0,2]
                       [--field qq|gf<p>] [-o DIR]
        Write a ready-made example to disk; every file is certified before
        it is written.
    phopf globalize {bimodule|bicomodule} FILE -o DIR
        Construct the standard globalization and report its certificate, a
        Report in the shape `phopf check` prints (laws condition1,
        condition2, lemaco1-4 for a bimodule; exchange for a bicomodule).
    phopf smash BIMODULE_FILE BICOMODULE_FILE [-o PATH]
        Build the smash product of the two stored factors.

Every subcommand takes --format {text|json}.  All numeric parameters use
the exact scalar grammar "n" or "n/d" — no floats.

Exit codes: 0 success / checks passed, 1 semantic failure (an axiom or a
construction failed), 2 unreadable or malformed input."""

import argparse
import json
import os
import sys

from .fields import GF, QQ
from .linalg import Tensor3
from .algebras import (AlgebraData, algebra_check, dict_of_vec, group_algebra,
                       hopf_check, mul_dicts, sweedler_h4)
from ._groups import GROUP_NAMES, named_group
from .actions import (GroupPartialActionData, check_bimodule,
                      check_group_partial_action, check_lpma, check_rpma,
                      dual_regular_action, en_kg_example, group_to_kg, is_global,
                      sweedler_k_bimodule)
from .coactions import (bicomodule_to_bimodule, check_bicomodule, check_lpca,
                        check_rpca, regular_bicomodule, sweedler_k_bicomodule)
from .globalize import (maximal_degenerate_subbimodule, psi_map,
                        standard_globalize_bicomodule,
                        standard_globalize_bimodule)
from .smash import check_smash_associativity, find_idempotent, smash_product
from .serialize import (DocumentError, load_action, load_algebra, load_bicomodule,
                        load_bimodule, load_coaction, load_hopf, write_document)


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
    try:
        return named_group(name)
    except KeyError as exc:
        raise DocumentError(str(exc))


def _emit(report, fmt):
    if fmt == "json":
        print(json.dumps(report.to_json(), ensure_ascii=False))
    else:
        for line in report.lines():
            print(line)


# ---------------------------------------------------------------------------
# phopf check


_CHECK = {
    "hopf": (load_hopf, hopf_check),
    "algebra": (load_algebra, algebra_check),
    "action": (load_action,
               lambda p: check_lpma(p) if p.side == "left" else check_rpma(p)),
    "coaction": (load_coaction,
                 lambda p: check_lpca(p) if p.side == "left" else check_rpca(p)),
    "bimodule": (load_bimodule, check_bimodule),
    "bicomodule": (load_bicomodule, check_bicomodule),
}


def cmd_check(args, fmt):
    loader, checker = _CHECK[args.kind]
    rep = checker(loader(args.file))
    _emit(rep, fmt)
    return 0 if rep.passed else 1


# ---------------------------------------------------------------------------
# phopf example


def _require_certified(rep, what):
    """Gate every example on its full axiom suite before anything is written."""
    if not rep.passed:
        raise AssertionError("refusing to write an uncertified %s" % what)


def _write_pair(outdir, hopf, structure, kind):
    hopf_path = os.path.join(outdir, "hopf.json")
    struct_path = os.path.join(outdir, "%s.json" % kind)
    write_document(hopf.to_json(), hopf_path)
    write_document(structure.to_json(hopf_ref="hopf.json"), struct_path)
    return [hopf_path, struct_path]


def _ex_sweedler_bimodule(args, field, outdir):
    b = sweedler_k_bimodule(field, _scalar(field, args.r), _scalar(field, args.s))
    _require_certified(check_bimodule(b), "bimodule")
    files = _write_pair(outdir, b.hopf, b, "bimodule")
    return files, ["r=%s s=%s over %s" % (args.r, args.s, field)]


def _ex_sweedler_bicomodule(args, field, outdir):
    b = sweedler_k_bicomodule(field, _scalar(field, args.t), _scalar(field, args.u))
    _require_certified(check_bicomodule(b), "bicomodule")
    files = _write_pair(outdir, b.hopf, b, "bicomodule")
    return files, ["t=%s u=%s over %s" % (args.t, args.u, field)]


def _ex_en_kg(args, field, outdir):
    labels, table = _group(args.group or "z4")
    act = en_kg_example(table, _indices(args.N), field, labels)[1]
    _require_certified(check_lpma(act), "action")
    files = _write_pair(outdir, act.hopf, act, "action")
    return files, ["|G|=%d, |N|=%d, is_global=%s"
                   % (len(table), len(set(_indices(args.N))), is_global(act))]


def _ex_dual_group_action(args, field, outdir):
    labels, table = _group(args.group or "z4")
    h = group_algebra(table, field, labels)
    act = dual_regular_action(h)
    _require_certified(check_lpma(act), "action")
    files = _write_pair(outdir, act.hopf, act, "action")
    return files, ["dual of k[%s] acting on it, is_global=%s"
                   % (args.group or "z4", is_global(act))]


def _ex_regular_bicomodule(args, field, outdir):
    if args.group:
        labels, table = _group(args.group)
        h = group_algebra(table, field, labels)
    else:
        h = sweedler_h4(field)
    b = regular_bicomodule(h)
    _require_certified(check_bicomodule(b), "bicomodule")
    files = _write_pair(outdir, b.hopf, b, "bicomodule")
    return files, ["comultiplication coacting on %s from both sides" % h.name]


def z2_partial_group_example(field):
    """Partial action of the order-2 group on k x k: the non-identity
    element is defined only on the first coordinate ideal, where it acts as
    the identity map."""
    one, zero = field.one, field.zero
    mul = Tensor3((2, 2, 2))
    mul.add(0, 0, 0, one)
    mul.add(1, 1, 1, one)
    alg = AlgebraData(field, ["e1", "e2"], mul, [one, one], name="k x k")
    idem = [[one, one], [one, zero]]
    alphas = [[[one, zero], [zero, one]],
              [[one, zero], [zero, zero]]]
    return GroupPartialActionData([[0, 1], [1, 0]], alg, idem, alphas,
                                  labels=["e", "g"])


def _ex_z2_partial_group(args, field, outdir):
    gpa = z2_partial_group_example(field)
    _require_certified(check_group_partial_action(gpa), "group action")
    act = group_to_kg(gpa)
    _require_certified(check_lpma(act, symmetric=True), "action")
    group_path = os.path.join(outdir, "group-action.json")
    write_document(gpa.to_json(), group_path)
    files = [group_path] + _write_pair(outdir, act.hopf, act, "action")
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
    os.makedirs(args.out, exist_ok=True)
    psi_flags = None
    if args.kind == "bimodule":
        b = load_bimodule(args.file)
        g = g_for_mstar = standard_globalize_bimodule(b)
    else:
        b = load_bicomodule(args.file)
        g = standard_globalize_bicomodule(b)
        g_for_mstar = standard_globalize_bimodule(bicomodule_to_bimodule(b))
        _, mono, intertwines, restricted = psi_map(b.hopf, b.alg, g, g_for_mstar)
        psi_flags = {"monomorphism": mono,
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
    bim = load_bimodule(args.bimodule)
    bic = load_bicomodule(args.bicomodule)
    s = smash_product(bim, bic)
    rep = check_smash_associativity(s)
    A, U = s.left_factor.alg, s.right_factor.alg
    f = A.field
    pvA, pvU = A.mul.pair_view(), U.mul.pair_view()
    found = []
    for i in range(A.dim):
        if mul_dicts(pvA, {i: f.one}, {i: f.one}) != {i: f.one}:
            continue
        a = [f.one if t == i else f.zero for t in range(A.dim)]
        for j in range(U.dim):
            if mul_dicts(pvU, {j: f.one}, {j: f.one}) != {j: f.one}:
                continue
            u = [f.one if t == j else f.zero for t in range(U.dim)]
            is_idem, route = find_idempotent(s, a, u)
            if is_idem:
                found.append({"a": A.basis[i], "u": U.basis[j], "route": route})
    one_pair = dict_of_vec(s.pair_vec(A.unit, U.unit))
    square = mul_dicts(s.alg.mul.pair_view(), one_pair, one_pair)
    if s.alg.unit is not None:
        unit_note = "identity of the smash product"
    elif square == one_pair:
        unit_note = "idempotent but not the identity"
    elif not square:
        unit_note = "nilpotent: (1 # 1)^2 = 0"
    else:
        unit_note = "neither idempotent nor nilpotent"
    doc = s.alg.to_json()
    doc["certificate"] = {"associative": bool(rep.passed),
                          "idempotents_found": found,
                          "unit_pair": unit_note}
    path = None
    if args.out:
        if args.out.endswith(".json"):
            path = args.out
            parent = os.path.dirname(path)
            if parent:
                os.makedirs(parent, exist_ok=True)
        else:
            os.makedirs(args.out, exist_ok=True)
            path = os.path.join(args.out, "smash.json")
        write_document(doc, path)
    if fmt == "json":
        out = dict(doc)
        if path:
            out["output"] = path
        print(json.dumps(out, ensure_ascii=False))
    else:
        print("smash product dim %d, associative: %s" % (s.alg.dim, rep.passed))
        print("1_A # 1_Abar is %s" % unit_note)
        if found:
            for entry in found:
                print("idempotent %s # %s via route %s"
                      % (entry["a"], entry["u"], entry["route"]))
        else:
            print("no idempotent basis pairs found")
        if path:
            print("wrote %s" % path)
    return 0 if rep.passed else 1


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
    p.add_argument("--group", default=None,
                   help="built-in group name (%s)" % ", ".join(GROUP_NAMES))
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


if __name__ == "__main__":
    sys.exit(main())
