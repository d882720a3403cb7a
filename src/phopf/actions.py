"""Partial module-algebra structures for a Hopf algebra acting on a unital
algebra, on either side or both.

An action is a coefficient table: entry (i, j, k) of the map tensor is the
coefficient of a_k in h_i ⇀ a_j (left) or in a_j ↼ h_i (right).  A law is
swept over all basis tuples by Report.sweep, which proves it outright by
multilinearity, or recorded by its proof when the laws that prove it have
been checked (see _action_suite and trivial_action).  Actions and bimodules
carry their Reports (see algebras._carried).

The actions induced from a global one (induce_left, induce_bimodule) are in
phopf.induced, and the dictionary between partial actions of a group
algebra kG and partial group actions is in phopf.group_actions.
"""

from .algebras import (DUAL, Report, _carried, _Pair, _pair_stamp, _record_side, _side_report,
                       algebra_check, coalgebra_check, dict_acc, dual_hopf, hopf_check,
                       mul_dicts, structure_json, vec_of_dict)
from .linalg import Tensor3, acts_by_scalars, apply_cols


class PartialActionData:
    """One-sided partial action.  `map` entry (i, j, k): coefficient of
    basis a_k in h_i ⇀ a_j (side 'left') or a_j ↼ h_i (side 'right').
    Construction enforces that 1_H acts as the identity map; everything else
    is certified by check_lpma / check_rpma (LAWS, in Report order), which
    ask for the last, symmetry, when not told and `symmetric` is set."""

    LAWS = ("unit-action", "action-multiplicativity", "action-composition",
            "action-composition-nonunital", "composition-forms-equivalence", "action-symmetry")

    def __init__(self, hopf, alg, side, map_entries, symmetric=False, name=""):
        if side not in ("left", "right"):
            raise ValueError("side must be 'left' or 'right'")
        if alg.unit is None:
            raise ValueError("partial actions need a unital algebra")
        self.hopf = hopf
        self.alg = alg
        self.side = side
        dims = self.shape(hopf, alg, side)
        if isinstance(map_entries, dict):
            map_entries = Tensor3(dims, map_entries)
        if map_entries.dims != dims:
            raise ValueError("action tensor shaped %r" % (map_entries.dims,))
        self.map = map_entries
        self.symmetric = symmetric
        self.name = name or ("%s %s-acts on %s" % (hopf.name, side, alg.name))
        self._certificates = {}
        pv = self.map.pair_view()
        one = hopf.field.one
        u_h = hopf.unit_dict()
        for j in range(alg.dim):
            if mul_dicts(pv, u_h, {j: one}) != {j: one}:
                raise ValueError("1_H must act as the identity (violated at basis %s)"
                                 % alg.basis[j])

    @staticmethod
    def shape(hopf, alg, side):
        """Dimensions of the map tensor of an action on either side."""
        return (hopf.dim, alg.dim, alg.dim)

    def apply(self, h, a):
        """h ⇀ a (left) or a ↼ h (right); h, a sparse dicts."""
        return mul_dicts(self.map.pair_view(), h, a)

    def matrix(self, i):
        """Dense operator matrix of basis element h_i (columns = images)."""
        return self.map.slice_matrix(i, self.hopf.field.zero)

    def map_json(self):
        """The map rows and symmetric flag, in this and a bimodule's document."""
        return {"map": self.map.to_json(self.hopf.field.show),
                "symmetric": bool(self.symmetric)}

    def to_json(self, hopf_ref=None, algebra_ref=None):
        return structure_json(self, hopf_ref, algebra_ref, side=self.side, **self.map_json())

    def __repr__(self):
        return "PartialActionData(%s)" % self.name


class PartialBimoduleData(_Pair):
    """A left and a right partial action of the same Hopf algebra on the same
    algebra; compatibility h⇀(a↼g) = (h⇀a)↼g certified by check_bimodule."""

    kind = "action"


# ---------------------------------------------------------------------------
# axiom suites

def _action_suite(p, symmetric, carried=None):
    """Every law of a partial module algebra, evaluated from tables built
    once per call: col[i][j] = h_i acting on a_j (on_a is its transpose),
    h_i acting on 1_A, and (h·g) acting on each a_j, built the first time
    the pair (h, g) is read.  A zero factor is skipped before any product
    in A is formed.  Given `carried`, p's Report without the symmetry law,
    it sweeps that law alone into it.

    The right suite is the left one read through A^op, H^op and Δ^cop: the
    mirror is a choice of product order, not a second copy of the loops.

    The two laws with four basis indices are recorded by their proofs
    (below) and swept only when a premise fails, so a failing law keeps its
    witnesses; tests/test_actions.py keeps the full sweep as the reference."""
    H, A = p.hopf, p.alg
    n, m = H.dim, A.dim
    f = H.field
    one = f.one
    empty = {}
    left = p.side == "left"
    col = p.map.columns()
    on_a = [[col[i][j] for i in range(n)] for j in range(m)]
    on_unit = [apply_cols(col[i], A.unit_dict()) for i in range(n)]
    pv_a = A.mul.pair_view()
    pv_a_op = {(j, i): row for (i, j), row in pv_a.items()}
    pv_h = H.mul.pair_view()
    hop = pv_h if left else {(j, i): row for (i, j), row in pv_h.items()}
    iv = H.comul.in1_view()
    legs = [[(h1, h2, w) for (h1, h2), w in iv.get(i, empty).items()] for i in range(n)]
    units = [{j: one} for j in range(m)]

    def vec(d):
        return vec_of_dict(d, m, f)

    def multiplicativity():
        """Yield (index, h⇀(ab), (h₁⇀a)(h₂⇀b)) at every basis tuple
        [right: (ab)↼h and (a↼h₁)(b↼h₂)]."""
        for i in range(n):
            for ja in range(m):
                for jb in range(m):
                    rhs = {}
                    for h1, h2, w in legs[i]:
                        if col[h1][ja] and col[h2][jb]:
                            for k, c in mul_dicts(pv_a, col[h1][ja], col[h2][jb]).items():
                                dict_acc(rhs, k, w * c)
                    yield (i, ja, jb), apply_cols(col[i], pv_a.get((ja, jb), empty)), rhs

    hg_cols = {}

    def hg(key):
        """(q·g) acting on every a_j, for the pair key = (q, g) of hop."""
        got = hg_cols.get(key)
        if got is None:
            got = hg_cols[key] = [apply_cols(on_a[j], hop[key]) for j in range(m)]
        return got

    def composition(flip, unital):
        """Yield (index, lhs, rhs) at every basis tuple where
        h⇀[a(g⇀b)] = (h₁⇀a)(h₂g⇀b) fails, read through A^op and Δ^cop when
        flip; unital puts h⇀(g⇀b) = (h₁⇀1_A)(h₂g⇀b) in its place."""
        pva = pv_a_op if flip else pv_a
        for i in range(n):
            terms = [(h2, w, h1) if flip else (h1, w, h2) for h1, h2, w in legs[i]]
            for g in range(n):
                tg = [(q, w, hg((r, g))) for q, w, r in terms if hop.get((r, g))]
                for jb in range(m):
                    inner = col[g][jb]
                    for ja in ([None] if unital else range(m)):
                        if unital:
                            lhs = apply_cols(col[i], inner)
                        else:
                            lhs = apply_cols(col[i], mul_dicts(pva, units[ja], inner)) \
                                if inner else {}
                        rhs = {}
                        for q, w, gcols in tg:
                            t1 = on_unit[q] if unital else col[q][ja]
                            if t1 and gcols[jb]:
                                for k, c in mul_dicts(pva, t1, gcols[jb]).items():
                                    dict_acc(rhs, k, w * c)
                        if lhs != rhs:
                            yield (i, g, jb) if unital else (i, g, ja, jb), lhs, rhs

    premises = None

    def premises_hold():
        """P: multiplicativity holds, A is associative with a two-sided
        unit, and Δ is coassociative.  Read on first use only, from the
        certificates A and H carry (see algebras.algebra_check)."""
        nonlocal premises
        if premises is None:
            premises = (multiplicative
                        and algebra_check(A).passed and coalgebra_check(H).passed)
        return premises

    if carried is not None:
        rep, multiplicative = carried, not carried.failures_for("action-multiplicativity")
    else:
        rep = Report(p.name, p.alg.field)
        u_h = H.unit_dict()
        rep.sweep("unit-action", (((j,), p.apply(u_h, units[j]), units[j]) for j in range(m)), vec)
        multiplicative = rep.sweep("action-multiplicativity", multiplicativity(), vec)

        # composition against the unit:
        #   left:  h⇀(g⇀b)   = (h₁⇀1_A)(h₂g⇀b)
        #   right: (b↼g)↼h   = (b↼gh₁)(1_A↼h₂)
        comp_ok = rep.sweep("action-composition", composition(not left, True), vec)

        # the same composition law with an extra algebra factor in place of 1_A:
        #   left:  h⇀[a(g⇀b)] = (h₁⇀a)(h₂g⇀b)
        #   right: [(b↼g)a]↼h = (b↼gh₁)(a↼h₂)
        # Under P it follows from the unital form (left side; the right side
        # is the same proof through A^op, H^op and Δ^cop):
        #   h⇀[a(g⇀b)] = (h₁⇀a)(h₂⇀(g⇀b))             multiplicativity
        #              = (h₁⇀a)[(h₂⇀1_A)(h₃g⇀b)]       unital form, coassociativity
        #              = [(h₁⇀a)(h₂⇀1_A)](h₃g⇀b)       associativity
        #              = (h₁⇀a)(h₂g⇀b)                  multiplicativity, a·1_A = a
        # so it is swept only when the unital form or a premise fails.
        nonunital_ok = rep.sweep("action-composition-nonunital",
                                 () if comp_ok and premises_hold()
                                 else composition(not left, False), vec)

        # for unital algebras the two composition forms must agree as predicates
        unital_ok = comp_ok and multiplicative
        verdict = {True: "holds", False: "fails"}
        rep.sweep("composition-forms-equivalence", [((), "unital form " + verdict[unital_ok],
                                                     "general form " + verdict[nonunital_ok])]
                  if unital_ok != nonunital_ok else ())

    if symmetric:
        # left:  h⇀[(g⇀b)a] = (h₁g⇀b)(h₂⇀a)
        # right: [a(b↼g)]↼h = (a↼h₁)(b↼gh₂)
        # Under P it follows, by the mirror of the proof above, from its
        # unital form h⇀(g⇀b) = (h₁g⇀b)(h₂⇀1_A), which is probed first
        # without recording; that form is its a = 1_A case, so when the
        # probe fails the sweep fails too and records the witnesses.
        rep.sweep("action-symmetry",
                  () if premises_hold() and next(composition(left, True), None) is None
                  else composition(left, False), vec)
    return rep


def check_lpma(p, symmetric=None):
    """Left partial module-algebra suite; `symmetric` adds the symmetry law
    (defaults to the action's own flag), which p's one Report gains the
    first time it is asked for (see algebras._side_report)."""
    return _side_report(p, "left", p.symmetric if symmetric is None else symmetric, _action_suite)


def check_rpma(p, symmetric=None):
    """Right partial module-algebra suite (mirror of check_lpma)."""
    return _side_report(p, "right", p.symmetric if symmetric is None else symmetric, _action_suite)


def check_bimodule(b):
    """Both one-sided suites, each with the symmetry law when its action's
    flag is set, plus the compatibility law h⇀(a↼g) = (h⇀a)↼g on all basis
    triples.  The sides carry their Reports, and b that of its own law."""
    rep = Report("%s bimodule on %s" % (b.hopf.name, b.alg.name), b.alg.field)
    rep.merge(check_lpma(b.left), prefix="left/").merge(check_rpma(b.right), prefix="right/")
    return rep.merge(_carried(b, "suite", _pair_stamp(b), _decide_bimodule))


def _decide_bimodule(b, compatible=False):
    """The Report of the compatibility law of b, swept unless `compatible`
    (a constructor's proof)."""
    rep = Report("%s bimodule on %s" % (b.hopf.name, b.alg.name), b.alg.field)
    n, m = b.hopf.dim, b.alg.dim
    f = b.hopf.field
    one = f.one
    L, R = b.left.apply, b.right.apply
    rep.sweep("bimodule-compatibility", () if compatible else (
        ((i, j, g), L({i: one}, R({g: one}, {j: one})), R({g: one}, L({i: one}, {j: one})))
        for i in range(n) for j in range(m) for g in range(n)),
        lambda d: vec_of_dict(d, m, f))
    return rep


def is_global(p):
    """True iff the action of every h on 1_A is ε(h)·1_A."""
    return acts_by_scalars(p.map.columns(), p.hopf.counit, p.alg.unit_dict())


def _certify_action(p, expect_symmetric=None):
    """Check p with the symmetry law, raise if any other law fails, and set
    p.symmetric from the verdict of the symmetry law.  p carries that one
    Report, and a check without the symmetry law reads it with the law left
    out, so the checks that follow decide nothing."""
    rep = (check_lpma if p.side == "left" else check_rpma)(p, symmetric=True)
    for law, idx, _, _ in rep.failures:
        if law != "action-symmetry":
            raise AssertionError("constructed action failed %s at %s" % (law, idx))
    p.symmetric = not rep.failures
    if expect_symmetric and not p.symmetric:
        raise AssertionError("constructed action unexpectedly non-symmetric")
    return p


# ---------------------------------------------------------------------------
# constructors

def trivial_action(hopf, alg, side="left"):
    """h⇀a = ε(h)a (or the right mirror) — the global action through the
    counit.  Certified by proof when hopf passes hopf_check and alg
    algebra_check, by the full suite otherwise."""
    ent = {}
    for i in range(hopf.dim):
        if hopf.counit[i]:
            for j in range(alg.dim):
                ent[(i, j, j)] = hopf.counit[i]
    p = PartialActionData(hopf, alg, side, ent, symmetric=True,
                          name="trivial %s ε-action of %s on %s" % (side, hopf.name, alg.name))
    # Every law of the suite holds for h⇀a = ε(h)a (either side) when H is
    # a Hopf algebra and A is associative with a two-sided unit:
    # multiplicativity ε(h)ab = ε(h₁)ε(h₂)ab is the counit law; the unital
    # and general composition laws and symmetry read ε(h)ε(g)ab =
    # ε(h₁)ε(h₂g)ab, by ε multiplicative, the counit law and 1_A·b = b; and
    # 1_H⇀a = a is ε(1_H) = 1.
    if hopf_check(hopf).passed and algebra_check(alg).passed:
        _record_side(p, p.LAWS)
        return p
    return _certify_action(p, expect_symmetric=True)


def trivialize_right(left):
    """Pair a certified left action with the trivial right ε-action.  The
    right action is certified in trivial_action and the left one by its
    carried or decided suite.  The compatibility law is recorded by its
    proof: against the ε-action it reads h⇀(ε(g)a) = ε(g)(h⇀a), the
    linearity of h⇀."""
    b = PartialBimoduleData(left, trivial_action(left.hopf, left.alg, side="right"))
    _carried(b, "suite", _pair_stamp(b), lambda b: _decide_bimodule(b, compatible=True))
    check_bimodule(b).require("trivialized bimodule", AssertionError)
    return b


def sweedler_k_bimodule(field, r, s):
    """The two-parameter family of partial bimodule structures of the
    Sweedler algebra on the base field: g acts as zero on both sides,
    x⇀1 = r, xg⇀1 = −r from the left and 1↼x = s, 1↼xg = +s from the
    right.  (Flipping either sign of the xg value breaks the composition law
    — the exhaustive checker exhibits the witness.)"""
    from .examples import scalar_algebra, sweedler_h4
    H = sweedler_h4(field)
    A = scalar_algebra(field)
    r = field.of(r)
    s = field.of(s)
    one = field.one
    left = PartialActionData(H, A, "left",
                             {(0, 0, 0): one, (2, 0, 0): r, (3, 0, 0): -r},
                             name="H4 left (r=%s) on k" % field.show(r))
    right = PartialActionData(H, A, "right",
                              {(0, 0, 0): one, (2, 0, 0): s, (3, 0, 0): s},
                              name="H4 right (s=%s) on k" % field.show(s))
    b = PartialBimoduleData(_certify_action(left), _certify_action(right))
    check_bimodule(b).require("Sweedler (r,s) pair", AssertionError)
    return b


def dual_regular_action(h):
    """The global left action of H* on H dual to comultiplication:
    f ▷ a = a₁ f(a₂).  For a group algebra this is p_g ▷ u_h = δ_{g,h} u_h.

    Certified by the hopf_check of dual_hopf: each law of H* is the
    transpose of a law of h, so h is a Hopf algebra, and then f ▷ a is a
    global, hence symmetric, module algebra over H*: its Report is recorded."""
    dual = dual_hopf(h)
    # the dual family of the regular right coaction
    p = PartialActionData(dual, h, "left", h.comul.transpose(DUAL["right"][0]),
                          symmetric=True,
                          name="%s regular-dual action on %s" % (dual.name, h.name))
    if not is_global(p):
        raise AssertionError("regular dual action must be global")
    _record_side(p, p.LAWS)
    return p
