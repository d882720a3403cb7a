"""The built-in examples of `phopf example` and the constructors they start
from; no other command compiles them.  A coaction constructor imports
phopf.coactions when it runs, and a builder the modules of its structure."""

import json
import os

from .algebras import (DUAL, AlgebraData, HopfData, _carried, _pair_stamp, _record_proved,
                       _record_side, hopf_check)
from .fields import GF, QQ, _integer
from .linalg import Tensor3, unit_vec
from .serialize import DocumentError, write_document


# ---------------------------------------------------------------------------
# constructors

def group_algebra(table, field, labels=None, name=None):
    """Group algebra of a finite group given by its multiplication table:
    basis u_g with u_g u_h = u_{gh}, Δ(u_g) = u_g⊗u_g, ε(u_g) = 1,
    S(u_g) = u_{g⁻¹}.

    Certified without a sweep once check_group_table accepts the table:
    group associativity gives associativity and coassociativity, u_e is the
    unit, ε(u_g) = 1 gives the counit law, Δ and ε are multiplicative as
    (u_g⊗u_g)(u_h⊗u_h) = u_gh⊗u_gh, and S(u_g)u_g = u_e = ε(u_g)1."""
    from ._groups import check_group_table, group_identity, group_inverses
    bad = check_group_table(table)
    if bad is not None:
        raise ValueError("not a group table: fails %s" % bad)
    n = len(table)
    if labels is None:
        labels = ["g%d" % i for i in range(n)]
    e = group_identity(table)
    inv = group_inverses(table)
    one = field.one
    mul = {(i, j, table[i][j]): one for i in range(n) for j in range(n)}
    comul = {(i, i, i): one for i in range(n)}
    counit = [one] * n
    antipode = [[field.zero] * n for _ in range(n)]
    for j in range(n):
        antipode[inv[j]][j] = one
    h = HopfData(field, labels, mul, unit_vec(field, n, e), comul, counit, antipode,
                 name=name or "kG")
    _record_proved(h)
    return h


def sweedler_h4(field):
    """The 4-dimensional Sweedler Hopf algebra ⟨1, g, x, xg⟩ with g² = 1,
    x² = 0, gx = −xg, Δ(g) = g⊗g, Δ(x) = x⊗g + 1⊗x, S(g) = g, S(x) = −xg.
    Needs characteristic ≠ 2."""
    if field.char == 2:
        raise ValueError("the Sweedler algebra degenerates in characteristic 2")
    one = field.one
    mul = {}
    for i in range(1, 4):
        mul[(0, i, i)] = one
        mul[(i, 0, i)] = one
    mul[(0, 0, 0)] = one
    mul[(1, 1, 0)] = one          # g·g = 1
    mul[(1, 2, 3)] = -one         # g·x = -xg
    mul[(1, 3, 2)] = -one         # g·xg = -x
    mul[(2, 1, 3)] = one          # x·g = xg
    mul[(3, 1, 2)] = one          # xg·g = x
    comul = {
        (0, 0, 0): one,
        (1, 1, 1): one,
        (2, 2, 1): one, (2, 0, 2): one,   # Δ(x) = x⊗g + 1⊗x
        (3, 3, 0): one, (3, 1, 3): one,   # Δ(xg) = xg⊗1 + g⊗xg
    }
    counit = [one, one, field.zero, field.zero]
    antipode = [[field.zero] * 4 for _ in range(4)]
    antipode[0][0] = one
    antipode[1][1] = one
    antipode[3][2] = -one         # S(x) = -xg
    antipode[2][3] = one          # S(xg) = x
    h = HopfData(field, ["1", "g", "x", "xg"], mul, unit_vec(field, 4, 0),
                 comul, counit, antipode, name="H4")
    hopf_check(h).require("Sweedler algebra", AssertionError)
    return h


def scalar_algebra(field):
    """The base field as a 1-dimensional unital algebra."""
    return AlgebraData(field, ["1"], {(0, 0, 0): field.one}, [field.one], name="k")


def trivial_coaction(hopf, alg, side="right"):
    """a ↦ a⊗1_H (right) or a ↦ 1_H⊗a (left) — the global coaction through
    the unit of H, whose dual family sends a to p_g(1_H)·a."""
    from .coactions import PartialCoactionData, _certify_coaction
    if side not in DUAL:
        raise ValueError("side must be 'left' or 'right'")
    dual = Tensor3((hopf.dim, alg.dim, alg.dim),
                   {(g, i, i): c for g, c in hopf.unit_dict().items() for i in range(alg.dim)})
    p = PartialCoactionData(hopf, alg, side, dual.transpose(DUAL[side][1]),
                            name="trivial %s coaction of %s on %s"
                            % (side, hopf.name, alg.name))
    return _certify_coaction(p)


def _regular(h, side):
    from .coactions import PartialCoactionData
    return PartialCoactionData(h, h, side, dict(h.comul.entries),
                               name="regular %s coaction of %s" % (side, h.name))


# For λ = ρ = Δ on A = H every law of the coaction suites is a Hopf-algebra
# law: the counit laws, Δ multiplicative, Δ(1) = 1⊗1 with the unit law, and
# coassociativity, which also gives the bicomodule compatibility.  So the
# regular constructors are certified by hopf_check(h), and record the
# Reports of the suites.

def regular_coaction(h, side="right"):
    """The comultiplication of h read as a (global) coaction of h on its own
    underlying algebra; certified by hopf_check(h)."""
    from .coactions import check_global_unit
    p = _regular(h, side)
    hopf_check(h).require("constructed coaction", AssertionError)
    if not check_global_unit(p):
        raise AssertionError("regular coaction must be global")
    _record_side(p, p.LAWS[:-1])
    return p


def regular_bicomodule(h):
    """λ = ρ = comultiplication on A = H; global on both sides, with the
    compatibility law given by coassociativity; certified by hopf_check(h)."""
    from .coactions import PartialBicomoduleData, _decide_bicomodule, check_global_unit
    b = PartialBicomoduleData(_regular(h, "left"), _regular(h, "right"))
    hopf_check(h).require("regular bicomodule", AssertionError)
    if not (check_global_unit(b.left) and check_global_unit(b.right)):
        raise AssertionError("regular coaction must be global")
    for p in (b.left, b.right):
        _record_side(p, p.LAWS[:-1])
    _carried(b, "suite", _pair_stamp(b), lambda b: _decide_bicomodule(b, compatible=True))
    return b


def sweedler_k_bicomodule(field, t, u):
    """The two-parameter family of partial bicomodule structures of the
    four-dimensional Hopf algebra on the base field:
    λ(1) = (1/2 + 1/2·g + t·xg) ⊗ 1 and ρ(1) = 1 ⊗ (1/2 + 1/2·g + u·x).
    Valid for every pair (t, u); the 1/2-pattern makes both sides genuinely
    partial."""
    from fractions import Fraction
    from .coactions import PartialBicomoduleData, PartialCoactionData, check_bicomodule
    H = sweedler_h4(field)
    A = scalar_algebra(field)
    half = field.of(Fraction(1, 2))
    t = field.of(t)
    u = field.of(u)
    lam = {(0, 0, 0): half, (0, 1, 0): half}
    if t:
        lam[(0, 3, 0)] = t
    rho = {(0, 0, 0): half, (0, 0, 1): half}
    if u:
        rho[(0, 0, 2)] = u
    left = PartialCoactionData(H, A, "left", lam,
                               name="H4 left coaction (t=%s) on k" % field.show(t))
    right = PartialCoactionData(H, A, "right", rho,
                                name="H4 right coaction (u=%s) on k" % field.show(u))
    b = PartialBicomoduleData(left, right)
    check_bicomodule(b).require("Sweedler (t,u) bicomodule", AssertionError)
    return b


# ---------------------------------------------------------------------------
# phopf example

def _field_spec(spec):
    s = spec.strip().lower()
    if s == "qq":
        return QQ
    if s.startswith("gf"):
        try:
            return GF(_integer(s[2:]))
        except ValueError as exc:
            raise DocumentError("bad field spec %r: %s" % (spec, exc))
    raise DocumentError("bad field spec %r (use qq or gf<p>)" % spec)


def _scalar(field, text):
    try:
        return field.parse(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise DocumentError("bad scalar %r: %s" % (text, exc))


def _indices(text, order):
    """The element indices of --N, in ASCII digits, each below the group's order."""
    try:
        indices = [_integer(x.strip(" \t")) for x in text.split(",") if x.strip(" \t")]
    except ValueError:
        indices = []
    if not indices:
        raise DocumentError("bad index list %r (use e.g. 0,2)" % text)
    if not all(0 <= x < order for x in indices):
        raise DocumentError("index list %r outside the group of order %d" % (text, order))
    return indices


def _group(name):
    from ._groups import named_group
    try:
        return named_group(name)
    except KeyError as exc:
        raise DocumentError(exc.args[0])


def _write_pair(outdir, structure, kind):
    """Make outdir; write hopf.json and the structure's document, which refers to it."""
    os.makedirs(outdir, exist_ok=True)
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
    b = sweedler_k_bicomodule(field, _scalar(field, args.t), _scalar(field, args.u))
    return _write_pair(outdir, b, "bicomodule"), ["t=%s u=%s over %s" % (args.t, args.u, field)]


def _ex_en_kg(args, field, outdir):
    from .actions import is_global
    from .group_actions import en_kg_example
    labels, table = _group(args.group or "z4")
    N = _indices(args.N, len(table))
    act = en_kg_example(table, N, field, labels)[1]
    return _write_pair(outdir, act, "action"), [
        "|G|=%d, |N|=%d, is_global=%s" % (len(table), len(set(N)), is_global(act))]


def _ex_dual_group_action(args, field, outdir):
    from .actions import dual_regular_action
    labels, table = _group(args.group or "z4")
    h = group_algebra(table, field, labels)
    act = dual_regular_action(h)  # raises unless the action is global
    return _write_pair(outdir, act, "action"), [
        "dual of k[%s] acting on it, is_global=True" % (args.group or "z4")]


def _ex_regular_bicomodule(args, field, outdir):
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
    pair = _write_pair(outdir, act, "action")
    group_path = os.path.join(outdir, "group-action.json")
    write_document(gpa.to_json(), group_path)
    return [group_path] + pair, ["order-2 group on k x k plus its group-algebra counterpart"]


_EXAMPLES = {
    "sweedler-bimodule-k": _ex_sweedler_bimodule,
    "sweedler-bicomodule-k": _ex_sweedler_bicomodule,
    "en-kg": _ex_en_kg,
    "dual-group-action": _ex_dual_group_action,
    "regular-bicomodule": _ex_regular_bicomodule,
    "z2-partial-group": _ex_z2_partial_group,
}


def command(args, fmt):
    """The body of `phopf example` (see phopf.cli)."""
    field = _field_spec(args.field)
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
