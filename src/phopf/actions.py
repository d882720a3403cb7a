"""Partial module-algebra structures for a Hopf algebra acting on a unital
algebra, on either side or both.

An action is a coefficient table: entry (i, j, k) of the map tensor is the
coefficient of a_k in h_i ⇀ a_j (left) or in a_j ↼ h_i (right).  A law is
checked on all basis tuples, which proves it outright by multilinearity, or
recorded by its proof when the laws that prove it have been checked (see
_action_suite and trivial_action).

The module also houses the dictionary between symmetric unital partial
actions of a group algebra kG and partial group actions given by ideals
D_g = A·1_g (central idempotents 1_g) and isomorphisms α_g: D_{g⁻¹} → D_g.
"""

from fractions import Fraction

from .algebras import (DUAL, AlgebraData, HopfData, Report, algebra_check,
                       coalgebra_check, dict_acc, dict_of_vec, dual_hopf,
                       group_algebra, hopf_check, mul_dicts, vec_of_dict)
from .linalg import (Subspace, Tensor3, acts_by_scalars, apply_cols, col_dicts,
                     restrict_ops, restrict_product, unit_vec)
from ._groups import check_group_table, group_identity, group_inverses


def same_algebra(a, b):
    return (a is b) or (a.field == b.field and a.basis == b.basis
                        and a.mul.entries == b.mul.entries and a.unit == b.unit)


def same_hopf(a, b):
    return same_algebra(a, b) and isinstance(a, HopfData) and isinstance(b, HopfData) \
        and a.comul.entries == b.comul.entries and a.counit == b.counit \
        and a.antipode == b.antipode


class PartialActionData:
    """One-sided partial action.  `map` entry (i, j, k): coefficient of
    basis a_k in h_i ⇀ a_j (side 'left') or a_j ↼ h_i (side 'right').
    Construction enforces that 1_H acts as the identity map; everything else
    is certified by check_lpma / check_rpma."""

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

    def to_json(self, hopf_ref=None, algebra_ref=None):
        show = self.hopf.field.show
        return {
            "hopf": hopf_ref if hopf_ref is not None else self.hopf.to_json(),
            "algebra": algebra_ref if algebra_ref is not None else AlgebraData.to_json(self.alg),
            "side": self.side,
            "map": [[i, j, k, show(c)] for (i, j, k), c in sorted(self.map.entries.items())],
            "symmetric": bool(self.symmetric),
        }

    def __repr__(self):
        return "PartialActionData(%s)" % self.name


class PartialBimoduleData:
    """A left and a right partial action of the same Hopf algebra on the same
    algebra; compatibility h⇀(a↼g) = (h⇀a)↼g certified by check_bimodule."""

    def __init__(self, left, right):
        if left.side != "left" or right.side != "right":
            raise ValueError("need one left and one right action")
        if not same_hopf(left.hopf, right.hopf):
            raise ValueError("the two actions use different Hopf algebras")
        if not same_algebra(left.alg, right.alg):
            raise ValueError("the two actions act on different algebras")
        self.left = left
        self.right = right
        self.hopf = left.hopf
        self.alg = left.alg

    def to_json(self, hopf_ref=None, algebra_ref=None):
        return {
            "hopf": hopf_ref if hopf_ref is not None else self.hopf.to_json(),
            "algebra": algebra_ref if algebra_ref is not None else AlgebraData.to_json(self.alg),
            "left": {"map": self.left.to_json()["map"],
                     "symmetric": bool(self.left.symmetric)},
            "right": {"map": self.right.to_json()["map"],
                      "symmetric": bool(self.right.symmetric)},
        }

    def __repr__(self):
        return "PartialBimoduleData(%s on %s)" % (self.hopf.name, self.alg.name)


# ---------------------------------------------------------------------------
# axiom suites

def _action_suite(p, symmetric, left):
    """Every law of a partial module algebra, evaluated from tables built
    once per call: col[i][j] = h_i acting on a_j (on_a is its transpose),
    h_i acting on 1_A, and (h·g) acting on each a_j, built the first time
    the pair (h, g) is read.  A zero factor is skipped before any product
    in A is formed.

    The right suite is the left one read through A^op, H^op and Δ^cop: the
    mirror is a choice of product order, not a second copy of the loops.

    The two laws with four basis indices are recorded by their proofs
    (below) and swept only when a premise fails, so a failing law keeps its
    witnesses; tests/test_actions.py keeps the full sweep as the reference."""
    rep = Report(p.name, p.alg.field)
    H, A = p.hopf, p.alg
    n, m = H.dim, A.dim
    f = H.field
    one = f.one
    empty = {}
    pv_act = p.map.pair_view()
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

    def fail(law, idx, lhs, rhs):
        rep.fail(law, idx, vec_of_dict(lhs, m, f), vec_of_dict(rhs, m, f))

    rep.law("unit-action")
    u_h = H.unit_dict()
    for j in range(m):
        got = mul_dicts(pv_act, u_h, units[j])
        if got != units[j]:
            rep.fail("unit-action", (j,), vec_of_dict(got, m, f), A.basis_vec(j))

    # multiplicativity: h⇀(ab) = (h₁⇀a)(h₂⇀b)   [right: (ab)↼h = (a↼h₁)(b↼h₂)]
    rep.law("action-multiplicativity")
    for i in range(n):
        for ja in range(m):
            for jb in range(m):
                lhs = apply_cols(col[i], pv_a.get((ja, jb), empty))
                rhs = {}
                for h1, h2, w in legs[i]:
                    if col[h1][ja] and col[h2][jb]:
                        for k, c in mul_dicts(pv_a, col[h1][ja], col[h2][jb]).items():
                            dict_acc(rhs, k, w * c)
                if lhs != rhs:
                    fail("action-multiplicativity", (i, ja, jb), lhs, rhs)

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

    def sweep(law, flip, unital):
        """Record every failure of a composition form under law; True when
        there is none."""
        ok = True
        for idx, lhs, rhs in composition(flip, unital):
            ok = False
            fail(law, idx, lhs, rhs)
        return ok

    premises = None

    def premises_hold():
        """P: multiplicativity holds, A is associative with a two-sided
        unit, and Δ is coassociative.  Read on first use only, from the
        certificates A and H carry (see algebras.algebra_check)."""
        nonlocal premises
        if premises is None:
            premises = (not rep.failures_for("action-multiplicativity")
                        and algebra_check(A).passed and coalgebra_check(H).passed)
        return premises

    # composition against the unit:
    #   left:  h⇀(g⇀b)   = (h₁⇀1_A)(h₂g⇀b)
    #   right: (b↼g)↼h   = (b↼gh₁)(1_A↼h₂)
    rep.law("action-composition")
    comp_ok = sweep("action-composition", not left, True)

    # the same composition law with an extra algebra factor in place of 1_A:
    #   left:  h⇀[a(g⇀b)] = (h₁⇀a)(h₂g⇀b)
    #   right: [(b↼g)a]↼h = (b↼gh₁)(a↼h₂)
    # Under P it follows from the unital form (left side; the right side is
    # the same proof through A^op, H^op and Δ^cop):
    #   h⇀[a(g⇀b)] = (h₁⇀a)(h₂⇀(g⇀b))             multiplicativity
    #              = (h₁⇀a)[(h₂⇀1_A)(h₃g⇀b)]       unital form, coassociativity
    #              = [(h₁⇀a)(h₂⇀1_A)](h₃g⇀b)       associativity
    #              = (h₁⇀a)(h₂g⇀b)                  multiplicativity, a·1_A = a
    # so it is swept only when the unital form or a premise fails.
    rep.law("action-composition-nonunital")
    nonunital_ok = (comp_ok and premises_hold()) or \
        sweep("action-composition-nonunital", not left, False)

    # for unital algebras the two composition forms must agree as predicates
    rep.law("composition-forms-equivalence")
    unital_ok = comp_ok and not rep.failures_for("action-multiplicativity")
    if unital_ok != nonunital_ok:
        rep.fail("composition-forms-equivalence", (),
                 "unital form %s" % ("holds" if unital_ok else "fails"),
                 "general form %s" % ("holds" if nonunital_ok else "fails"))

    if symmetric:
        # left:  h⇀[(g⇀b)a] = (h₁g⇀b)(h₂⇀a)
        # right: [a(b↼g)]↼h = (a↼h₁)(b↼gh₂)
        # Under P it follows, by the mirror of the proof above, from its
        # unital form h⇀(g⇀b) = (h₁g⇀b)(h₂⇀1_A), which is probed first
        # without recording; that form is its a = 1_A case, so when the
        # probe fails the sweep fails too and records the witnesses.
        rep.law("action-symmetry")
        if not (premises_hold() and next(composition(left, True), None) is None):
            sweep("action-symmetry", left, False)
    return rep


def check_lpma(p, symmetric=None):
    """Left partial module-algebra suite; `symmetric` adds the symmetry law
    (defaults to the action's own flag)."""
    if p.side != "left":
        raise ValueError("check_lpma expects a left action")
    return _action_suite(p, p.symmetric if symmetric is None else symmetric, left=True)


def check_rpma(p, symmetric=None):
    """Right partial module-algebra suite (mirror of check_lpma)."""
    if p.side != "right":
        raise ValueError("check_rpma expects a right action")
    return _action_suite(p, p.symmetric if symmetric is None else symmetric, left=False)


def check_bimodule(b):
    """Both one-sided suites plus the compatibility law h⇀(a↼g) = (h⇀a)↼g
    on all basis triples."""
    rep = Report("%s bimodule on %s" % (b.hopf.name, b.alg.name), b.alg.field)
    rep.merge(check_lpma(b.left), prefix="left/")
    rep.merge(check_rpma(b.right), prefix="right/")
    return _compatibility(b, rep)


def _compatibility(b, rep):
    """Check the bimodule-compatibility law h⇀(a↼g) = (h⇀a)↼g on all basis
    triples into `rep`, and return it."""
    n, m = b.hopf.dim, b.alg.dim
    f = b.hopf.field
    one = f.one
    rep.law("bimodule-compatibility")
    for i in range(n):
        for j in range(m):
            for g in range(n):
                lhs = b.left.apply({i: one}, b.right.apply({g: one}, {j: one}))
                rhs = b.right.apply({g: one}, b.left.apply({i: one}, {j: one}))
                if lhs != rhs:
                    rep.fail("bimodule-compatibility", (i, j, g),
                             vec_of_dict(lhs, m, f), vec_of_dict(rhs, m, f))
    return rep


def is_global(p):
    """True iff the action of every h on 1_A is ε(h)·1_A."""
    return acts_by_scalars(p.map.columns(), p.hopf.counit, p.alg.unit_dict())


def _certify_action(p, expect_symmetric=None):
    """Run the full suite with the symmetry law included; demote the flag if
    only symmetry fails, raise if anything else does."""
    suite = check_lpma if p.side == "left" else check_rpma
    rep = suite(p, symmetric=True)
    other = [x for x in rep.failures if x[0] != "action-symmetry"]
    if other:
        law, idx, lhs, rhs = other[0]
        raise AssertionError("constructed action failed %s at %s" % (law, idx))
    sym = not rep.failures_for("action-symmetry")
    if expect_symmetric and not sym:
        raise AssertionError("constructed action unexpectedly non-symmetric")
    p.symmetric = sym
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
        return p
    return _certify_action(p, expect_symmetric=True)


def trivialize_right(left):
    """Pair a certified left action with the trivial right ε-action.  The
    right action is certified in trivial_action and the left one by its
    suite here.  The compatibility law needs no check: against the
    ε-action it reads h⇀(ε(g)a) = ε(g)(h⇀a), the linearity of h⇀."""
    b = PartialBimoduleData(left, trivial_action(left.hopf, left.alg, side="right"))
    Report().merge(check_lpma(left), prefix="left/").require(
        "trivialized bimodule", AssertionError)
    return b


def sweedler_k_bimodule(field, r, s):
    """The two-parameter family of partial bimodule structures of the
    Sweedler algebra on the base field: g acts as zero on both sides,
    x⇀1 = r, xg⇀1 = −r from the left and 1↼x = s, 1↼xg = +s from the
    right.  (Flipping either sign of the xg value breaks the composition law
    — the exhaustive checker exhibits the witness.)"""
    from .algebras import scalar_algebra, sweedler_h4
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
    _compatibility(b, Report()).require("Sweedler (r,s) pair", AssertionError)
    return b


def dual_regular_action(h):
    """The global left action of H* on H dual to comultiplication:
    f ▷ a = a₁ f(a₂).  For a group algebra this is p_g ▷ u_h = δ_{g,h} u_h.

    Certified by the hopf_check of dual_hopf: each law of H* is the
    transpose of a law of h, so h is a Hopf algebra, and then f ▷ a is a
    global, hence symmetric, module algebra over H*."""
    dual = dual_hopf(h)
    # the dual family of the regular right coaction
    p = PartialActionData(dual, h, "left", h.comul.transpose(DUAL["right"][0]),
                          symmetric=True,
                          name="%s regular-dual action on %s" % (dual.name, h.name))
    if not is_global(p):
        raise AssertionError("regular dual action must be global")
    return p


def _left_ideal(B, e):
    """Set-up shared by the structures induced on e·B: check that e is an
    idempotent and a left identity on e·B, and build e·B as an algebra with
    unit e.  Returns (span of e·B, e as a sparse dict, the algebra)."""
    f = B.field
    e_d = dict_of_vec(e)
    if B.mul_dict(e_d, e_d) != e_d:
        raise ValueError("e is not idempotent")
    span = Subspace(B.dim, f, (B.mul_dict(e_d, {j: f.one}) for j in range(B.dim)))
    for r in span.rows:
        if B.mul_dict(e_d, r) != r:
            raise ValueError("e is not a left identity on e·B")
    unit_a = span.coords(e_d)
    if unit_a is None:
        raise ValueError("e does not lie in e·B")
    A = AlgebraData(f, ["a%d" % i for i in range(span.dim)],
                    restrict_product(span.coords, span.rows, B.mul_dict), unit_a,
                    name="e·%s" % B.name)
    return span, e_d, A


def _unital_subalgebra(B, span, unit_a):
    """Set-up shared by the structures induced on a unital subalgebra A of
    B: check that unit_a lies in the subspace span, is an idempotent and an
    identity on it, and that span is closed under the product; then build A
    with the restricted product and certify it.  Returns the basis rows of
    span and unit_a, both as sparse dicts, and A."""
    rows = span.rows
    u_d = dict_of_vec(unit_a)
    if not span.contains(u_d):
        raise ValueError("unit_A must lie in A")
    if B.mul_dict(u_d, u_d) != u_d:
        raise ValueError("unit_A is not idempotent")
    for i, r in enumerate(rows):
        if B.mul_dict(u_d, r) != r or B.mul_dict(r, u_d) != r:
            raise ValueError("unit_A is not an identity on A (basis %d)" % i)
        for j, r2 in enumerate(rows):
            if not span.contains(B.mul_dict(r, r2)):
                raise ValueError("A is not closed under multiplication at (%d, %d)" % (i, j))
    A = AlgebraData(B.field, ["a%d" % i for i in range(len(rows))],
                    restrict_product(span.coords, rows, B.mul_dict),
                    span.coords(u_d), name="corner of %s" % B.name)
    algebra_check(A).require("induced corner", AssertionError)
    return rows, u_d, A


def _corner_witness(B, left, right, rows, u_d, span):
    """First witness (a, h, k, b) — subalgebra basis, Hopf, Hopf, subalgebra
    basis indices — where (a◁h)(k▷b) ≠ (a◁h)·1_A·(k▷b) or the common value
    leaves A; None when this corner condition holds.  The two operator
    families on B are column maps, one operator per Hopf basis element."""
    for ia, a in enumerate(rows):
        for h, right_h in enumerate(right):
            a_h = apply_cols(right_h, a)
            for k, left_k in enumerate(left):
                for ib, b in enumerate(rows):
                    k_b = apply_cols(left_k, b)
                    lhs = B.mul_dict(a_h, k_b)
                    rhs = B.mul_dict(a_h, B.mul_dict(u_d, k_b))
                    if lhs != rhs or not span.contains(lhs):
                        return (ia, h, k, ib)
    return None


def induce_left(glob, e):
    """Restrict a global left action on B to A = e·B (e idempotent) by
    h⇀a = e·(h▷a).  Returns the induced partial action on A's row-reduced
    basis.

    A must be a unital ideal, e·B·(1−e) = 0: the product rule of the
    induced action reads e·x·e·y = e·x·y for x, y in B.  Otherwise
    ValueError names a basis element b of B with e·b·(1−e) ≠ 0."""
    if glob.side != "left":
        raise ValueError("induce_left needs a left action")
    if not is_global(glob):
        raise ValueError("induce_left needs a global action")
    B = glob.alg
    span, e_d, A = _left_ideal(B, e)
    for j in range(B.dim):
        eb = B.mul_dict(e_d, {j: B.field.one})
        if B.mul_dict(eb, e_d) != eb:
            raise ValueError("e·B is not a unital ideal: e·b·(1−e) ≠ 0 at b = %s"
                             % B.basis[j])
    act = restrict_ops(lambda a: span.coords(B.mul_dict(e_d, a)),
                       span.rows, glob.map.columns(), "left action")
    p = PartialActionData(glob.hopf, A, "left", act,
                          name="%s induced on e·%s" % (glob.hopf.name, B.name))
    return _certify_action(p)


def induce_bimodule(bim, a_span, unit_a):
    """Restrict a global bimodule structure on B to a unital subalgebra A
    (given as a subspace with its own unit) by h⇀a = 1_A(h▷a) and
    a↼h = (a◁h)1_A.  Requires the corner condition
    (a◁h)(k▷b) = (a◁h)·1_A·(k▷b) with both sides inside A; rejected with a
    witness (a, h, k, b) otherwise."""
    B = bim.alg
    H = bim.hopf
    if not (is_global(bim.left) and is_global(bim.right)):
        raise ValueError("induce_bimodule needs global actions on both sides")
    rows, u_d, A = _unital_subalgebra(B, a_span, unit_a)
    left_cols, right_cols = bim.left.map.columns(), bim.right.map.columns()
    w = _corner_witness(B, left_cols, right_cols, rows, u_d, a_span)
    if w is not None:
        raise ValueError("corner condition fails at witness (a=%d, h=%s, k=%s, b=%d)"
                         % (w[0], H.basis[w[1]], H.basis[w[2]], w[3]))
    lt = restrict_ops(lambda a: a_span.coords(B.mul_dict(u_d, a)), rows, left_cols,
                      "left action")
    rt = restrict_ops(lambda a: a_span.coords(B.mul_dict(a, u_d)), rows, right_cols,
                      "right action")
    left = PartialActionData(H, A, "left", lt, name="induced left on corner")
    right = PartialActionData(H, A, "right", rt, name="induced right on corner")
    out = PartialBimoduleData(_certify_action(left), _certify_action(right))
    _compatibility(out, Report()).require("induced bimodule", AssertionError)
    return out


# ---------------------------------------------------------------------------
# partial group actions vs. partial kG-actions

class GroupPartialActionData:
    """Unital partial action of a finite group on a unital algebra A:
    for each group element g a central idempotent 1_g (cutting the ideal
    D_g = A·1_g) and an algebra isomorphism α_g: D_{g⁻¹} → D_g.

    α_g is stored as a full operator matrix on A, normalized so that the
    matrix already includes the projection onto its domain:
    M_g = M_g ∘ (right multiplication by 1_{g⁻¹}).  The checker enforces the
    normalization, which makes the kG round-trip an exact coordinate
    identity."""

    def __init__(self, table, alg, idempotents, alphas, labels=None):
        bad = check_group_table(table)
        if bad is not None:
            raise ValueError("not a group table: fails %s" % bad)
        self.table = [list(r) for r in table]
        self.alg = alg
        of = alg.field.of
        self.idempotents = [[of(c) for c in v] for v in idempotents]
        self.alphas = [[[of(c) for c in r] for r in mat] for mat in alphas]
        self.labels = list(labels) if labels else ["g%d" % i for i in range(len(table))]
        n = len(self.table)
        if len(self.idempotents) != n or len(self.alphas) != n:
            raise ValueError("need one idempotent and one map per group element")
        self.identity = group_identity(self.table)
        self.inverses = group_inverses(self.table)

    def to_json(self, algebra_ref=None):
        show = self.alg.field.show
        return {
            "group": [list(r) for r in self.table],
            "labels": list(self.labels),
            "algebra": algebra_ref if algebra_ref is not None else AlgebraData.to_json(self.alg),
            "idempotents": [[show(c) for c in v] for v in self.idempotents],
            "alphas": [[[i, j, show(row[j])]
                        for i, row in enumerate(mat) for j in range(len(row)) if row[j]]
                       for mat in self.alphas],
        }

    def __repr__(self):
        return "GroupPartialActionData(|G|=%d on %s)" % (len(self.table), self.alg.name)


def check_group_partial_action(gpa):
    """Certify a partial group action: central idempotents, identity
    component trivial, canonical normalization of the α matrices,
    multiplicative isomorphisms with the right domains and ranges, the
    domain-translation law α_g(1_{g⁻¹}1_h) = 1_g 1_{gh}, and the composition
    law α_g∘α_h = α_{gh} on D_{h⁻¹} ∩ D_{(gh)⁻¹}."""
    A = gpa.alg
    f = A.field
    n = len(gpa.table)
    m = A.dim
    one = f.one
    rep = Report("partial %d-group action on %s" % (n, A.name), f)
    ids = [dict_of_vec(v) for v in gpa.idempotents]
    inv = gpa.inverses
    alphas = [col_dicts(a) for a in gpa.alphas]

    rep.law("idempotent-central")
    for g in range(n):
        u = ids[g]
        if A.mul_dict(u, u) != u:
            rep.fail("idempotent-central", (g,),
                     vec_of_dict(A.mul_dict(u, u), m, f), vec_of_dict(u, m, f))
        for j in range(m):
            lhs = A.mul_dict(u, {j: one})
            rhs = A.mul_dict({j: one}, u)
            if lhs != rhs:
                rep.fail("idempotent-central", (g, j),
                         vec_of_dict(lhs, m, f), vec_of_dict(rhs, m, f))

    rep.law("identity-component")
    e = gpa.identity
    if ids[e] != A.unit_dict():
        rep.fail("identity-component", (e,), gpa.idempotents[e], A.unit)
    ident = [[one if i == j else f.zero for j in range(m)] for i in range(m)]
    if gpa.alphas[e] != ident:
        rep.fail("identity-component", (e,), gpa.alphas[e], "identity matrix")

    rep.law("canonical-normalization")
    for g in range(n):
        for j in range(m):
            dom = A.mul_dict({j: one}, ids[inv[g]])
            lhs = apply_cols(alphas[g], dom)
            rhs = apply_cols(alphas[g], {j: one})
            if lhs != rhs:
                rep.fail("canonical-normalization", (g, j),
                         vec_of_dict(lhs, m, f), vec_of_dict(rhs, m, f))

    rep.law("image-in-range")
    for g in range(n):
        for j in range(m):
            img = apply_cols(alphas[g], {j: one})
            cut = A.mul_dict(img, ids[g])
            if img != cut:
                rep.fail("image-in-range", (g, j),
                         vec_of_dict(img, m, f), vec_of_dict(cut, m, f))

    rep.law("unit-translation")
    for g in range(n):
        got = apply_cols(alphas[g], ids[inv[g]])
        if got != ids[g]:
            rep.fail("unit-translation", (g,),
                     vec_of_dict(got, m, f), gpa.idempotents[g])

    rep.law("iso-multiplicative")
    for g in range(n):
        # a_j·1_{g⁻¹} and its image under α_g, once per basis element
        dom = [A.mul_dict({j: one}, ids[inv[g]]) for j in range(m)]
        img = [apply_cols(alphas[g], d) for d in dom]
        for i in range(m):
            for j in range(m):
                lhs = apply_cols(alphas[g], A.mul_dict(dom[i], dom[j]))
                rhs = A.mul_dict(img[i], img[j])
                if lhs != rhs:
                    rep.fail("iso-multiplicative", (g, i, j),
                             vec_of_dict(lhs, m, f), vec_of_dict(rhs, m, f))

    rep.law("domain-translation")
    for g in range(n):
        for h in range(n):
            got = apply_cols(alphas[g], A.mul_dict(ids[inv[g]], ids[h]))
            want = A.mul_dict(ids[g], ids[gpa.table[g][h]])
            if got != want:
                rep.fail("domain-translation", (g, h),
                         vec_of_dict(got, m, f), vec_of_dict(want, m, f))

    rep.law("composition")
    for g in range(n):
        for h in range(n):
            gh = gpa.table[g][h]
            for j in range(m):
                r = A.mul_dict(A.mul_dict({j: one}, ids[inv[h]]), ids[inv[gh]])
                lhs = apply_cols(alphas[g], apply_cols(alphas[h], r))
                rhs = apply_cols(alphas[gh], r)
                if lhs != rhs:
                    rep.fail("composition", (g, h, j),
                             vec_of_dict(lhs, m, f), vec_of_dict(rhs, m, f))
    return rep


def group_to_kg(gpa):
    """Partial kG-action g⇀a = α_g(a·1_{g⁻¹}) from a certified partial group
    action; always symmetric."""
    check_group_partial_action(gpa).require("partial group action")
    f = gpa.alg.field
    hopf = group_algebra(gpa.table, f, ["u_%s" % s for s in gpa.labels],
                         name="k[%d-group]" % len(gpa.table))
    n, m = len(gpa.table), gpa.alg.dim
    act = Tensor3((n, m, m))
    # normalized matrices already include ·1_{g⁻¹}, so columns are the action
    for g in range(n):
        for j in range(m):
            for i in range(m):
                act.add(g, j, i, gpa.alphas[g][i][j])
    p = PartialActionData(hopf, gpa.alg, "left", act,
                          name="kG-action from partial group action")
    return _certify_action(p, expect_symmetric=True)


def kg_to_group(p):
    """Recover the partial group action 1_g = g⇀1_A, α_g(a·1_{g⁻¹}) = g⇀a
    from a certified symmetric partial action of a group algebra."""
    if p.side != "left":
        raise ValueError("kg_to_group expects a left action")
    H = p.hopf
    n = H.dim
    one = H.field.one
    # the Hopf algebra must be an honest group algebra on its basis
    if H.comul.entries != {(i, i, i): one for i in range(n)}:
        raise ValueError("the acting Hopf algebra is not a group algebra "
                         "(basis not group-like)")
    table = []
    for i in range(n):
        row = []
        for j in range(n):
            prod = H.mul.pair_view().get((i, j), {})
            if len(prod) != 1 or set(prod.values()) != {one}:
                raise ValueError("the acting Hopf algebra is not a group algebra")
            row.append(next(iter(prod)))
        table.append(row)
    check_lpma(p, symmetric=True).require("kg_to_group input")
    A = p.alg
    m = A.dim
    f = A.field
    idempotents = [vec_of_dict(p.apply({g: one}, A.unit_dict()), m, f) for g in range(n)]
    alphas = [p.matrix(g) for g in range(n)]
    gpa = GroupPartialActionData(table, A, idempotents, alphas,
                                 labels=[b[2:] if b.startswith("u_") else b for b in H.basis])
    check_group_partial_action(gpa).require("derived group data of the input")
    return gpa


# ---------------------------------------------------------------------------
# the averaged-idempotent example on a group algebra

def en_kg_example(table, normal_subgroup, field, labels=None):
    """A = e_N·kG for a normal subgroup N with e_N = (1/|N|) Σ_{n∈N} u_n,
    acted on by the dual group algebra: p_g ⇀ e_N u_h = (1/|N|) e_N u_h when
    g⁻¹h ∈ N and 0 otherwise.  Returns (A, action); the action is partial
    (not global) as soon as |N| > 1."""
    bad = check_group_table(table)
    if bad is not None:
        raise ValueError("not a group table: fails %s" % bad)
    n = len(table)
    if labels is None:
        labels = ["g%d" % i for i in range(n)]
    N = sorted(set(normal_subgroup))
    e = group_identity(table)
    inv = group_inverses(table)
    if not N or any(not (0 <= x < n) for x in N):
        raise ValueError("subgroup indices out of range")
    nset = set(N)
    if e not in nset:
        raise ValueError("N must contain the identity")
    for a in N:
        if inv[a] not in nset:
            raise ValueError("N is not closed under inverses")
        for b in N:
            if table[a][b] not in nset:
                raise ValueError("N is not closed under multiplication")
    for g in range(n):
        for a in N:
            if table[table[g][a]][inv[g]] not in nset:
                raise ValueError("N is not normal in G")
    if field.char and len(N) % field.char == 0:
        raise ValueError("characteristic divides |N|")

    # coset representatives: minimal index in each coset N·h
    rep_of = {}
    reps = []
    for h in range(n):
        r = min(table[a][h] for a in N)
        rep_of[h] = r
    for h in range(n):
        if rep_of[h] == h:
            reps.append(h)
    idx = {r: t for t, r in enumerate(reps)}
    m = len(reps)
    one = field.one
    scale = field.of(Fraction(1, len(N)))

    mul = Tensor3((m, m, m))
    for r1 in reps:
        for r2 in reps:
            mul.add(idx[r1], idx[r2], idx[rep_of[table[r1][r2]]], one)
    A = AlgebraData(field, ["eN·u_%s" % labels[r] for r in reps], mul,
                    unit_vec(field, m, idx[rep_of[e]]), name="eN·kG")
    algebra_check(A).require("coset algebra", AssertionError)

    hopf = dual_hopf(group_algebra(table, field, ["u_%s" % s for s in labels], name="kG"))
    act = Tensor3((n, m, m))
    for g in range(n):
        for h in reps:
            if table[inv[g]][h] in nset:
                act.add(g, idx[h], idx[h], scale)
    p = PartialActionData(hopf, A, "left", act,
                          name="dual action on eN·kG")
    return A, _certify_action(p)
