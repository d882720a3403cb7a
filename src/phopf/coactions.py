"""Partial comodule-algebra structures: a unital algebra coacted on by a
Hopf algebra from either side or both sides at once.

A right coaction is a coefficient table: entry (i, j, k) of the map tensor
is the coefficient of a_j ⊗ h_k in ρ(a_i).  A left coaction stores the Hopf
leg first: entry (i, j, k) is the coefficient of h_j ⊗ a_k in λ(a_i).
Every law is checked on all basis tuples, which proves it outright by
multilinearity.

In finite dimension a coaction of H and an action of the dual Hopf algebra
on the other side carry the same data; the bridges between the two live
here as pure coordinate transposes, together with the constructions that
induce a partial coaction by cutting a global one down to an ideal or to a
unital subalgebra.
"""

from fractions import Fraction

from .algebras import (Report, dict_acc, dict_of_vec, dual_hopf, scalar_algebra,
                       sweedler_h4, t2_mul, t2_of_dicts, t3_mul, vec_of_dict)
from .actions import (PartialActionData, PartialBimoduleData, _certify_action,
                      _compatibility, _corner_witness, _dict_coords, _left_ideal,
                      _unital_subalgebra, same_algebra, same_hopf)
from .linalg import Subspace, Tensor3, subspace_span, transport


class PartialCoactionData:
    """One-sided partial coaction.  Side 'right': `map` entry (i, j, k) is
    the coefficient of a_j ⊗ h_k in ρ(a_i).  Side 'left' keeps the Hopf leg
    first: entry (i, j, k) is the coefficient of h_j ⊗ a_k in λ(a_i).
    Construction enforces the counit law ((I⊗ε)ρ = id, resp. (ε⊗I)λ = id)
    unless `unchecked` is set; the remaining laws are certified by
    check_rpca / check_lpca."""

    def __init__(self, hopf, alg, side, map_entries, name="", unchecked=False):
        if side not in ("left", "right"):
            raise ValueError("side must be 'left' or 'right'")
        if alg.unit is None:
            raise ValueError("partial coactions need a unital algebra")
        self.hopf = hopf
        self.alg = alg
        self.side = side
        dims = self.shape(hopf, alg, side)
        if isinstance(map_entries, dict):
            map_entries = Tensor3(dims, map_entries)
        if map_entries.dims != dims:
            raise ValueError("coaction tensor shaped %r" % (map_entries.dims,))
        self.map = map_entries
        self.name = name or ("%s %s-coacts on %s" % (hopf.name, side, alg.name))
        if not unchecked:
            one = hopf.field.one
            for i in range(alg.dim):
                if self.counit_contract(i) != {i: one}:
                    raise ValueError("counit law fails at basis %s" % alg.basis[i])

    @staticmethod
    def shape(hopf, alg, side):
        """Dimensions of the map tensor of a coaction on `side`."""
        return ((alg.dim, alg.dim, hopf.dim) if side == "right"
                else (alg.dim, hopf.dim, alg.dim))

    def coact(self, i):
        """Image of basis element a_i as a sparse dict over leg pairs."""
        return dict(self.map.in1_view().get(i, {}))

    def coact_dict(self, x):
        """Coaction applied to a sparse dict over the algebra basis."""
        iv = self.map.in1_view()
        out = {}
        for i, c in x.items():
            for key, d in iv.get(i, {}).items():
                dict_acc(out, key, c * d)
        return out

    def counit_contract(self, i):
        """ε applied to the Hopf leg of the image of a_i (a sparse vector)."""
        eps = self.hopf.counit
        out = {}
        for (j, k), c in self.map.in1_view().get(i, {}).items():
            a_idx, h_idx = (j, k) if self.side == "right" else (k, j)
            e = eps[h_idx]
            if e:
                dict_acc(out, a_idx, c * e)
        return out

    def unit_image(self):
        """Image of 1_A as a sparse dict over leg pairs."""
        return self.coact_dict(self.alg.unit_dict())

    def to_json(self, hopf_ref=None, algebra_ref=None):
        show = self.hopf.field.show
        return {
            "hopf": hopf_ref if hopf_ref is not None else self.hopf.to_json(),
            "algebra": algebra_ref if algebra_ref is not None else self.alg.to_json(),
            "side": self.side,
            "map": [[i, j, k, show(c)] for (i, j, k), c in sorted(self.map.entries.items())],
        }

    def __repr__(self):
        return "PartialCoactionData(%s)" % self.name


class PartialBicomoduleData:
    """A left and a right partial coaction of the same Hopf algebra on the
    same algebra; compatibility (I_H⊗ρ)λ = (λ⊗I_H)ρ certified by
    check_bicomodule."""

    def __init__(self, left, right):
        if left.side != "left" or right.side != "right":
            raise ValueError("need one left and one right coaction")
        if not same_hopf(left.hopf, right.hopf):
            raise ValueError("the two coactions use different Hopf algebras")
        if not same_algebra(left.alg, right.alg):
            raise ValueError("the two coactions live on different algebras")
        self.left = left
        self.right = right
        self.hopf = left.hopf
        self.alg = left.alg

    def to_json(self, hopf_ref=None, algebra_ref=None):
        return {
            "hopf": hopf_ref if hopf_ref is not None else self.hopf.to_json(),
            "algebra": algebra_ref if algebra_ref is not None else self.alg.to_json(),
            "left": {"map": self.left.to_json()["map"]},
            "right": {"map": self.right.to_json()["map"]},
        }

    def __repr__(self):
        return "PartialBicomoduleData(%s on %s)" % (self.hopf.name, self.alg.name)


# ---------------------------------------------------------------------------
# axiom suites

def _double_coact(p, i):
    """(ρ⊗I)ρ(a_i) over legs (A,H,H), resp. (I⊗λ)λ(a_i) over (H,H,A)."""
    iv = p.map.in1_view()
    out = {}
    if p.side == "right":
        for (j, k), c in iv.get(i, {}).items():
            for (q, r), d in iv.get(j, {}).items():
                dict_acc(out, (q, r, k), c * d)
    else:
        for (j, k), c in iv.get(i, {}).items():
            for (q, r), d in iv.get(k, {}).items():
                dict_acc(out, (j, q, r), c * d)
    return out


def _comul_spread(p, i):
    """(I⊗Δ)ρ(a_i) over legs (A,H,H), resp. (Δ⊗I)λ(a_i) over (H,H,A)."""
    iv = p.map.in1_view()
    ivc = p.hopf.comul.in1_view()
    out = {}
    if p.side == "right":
        for (j, k), c in iv.get(i, {}).items():
            for (q, r), d in ivc.get(k, {}).items():
                dict_acc(out, (j, q, r), c * d)
    else:
        for (j, k), c in iv.get(i, {}).items():
            for (q, r), d in ivc.get(j, {}).items():
                dict_acc(out, (q, r, k), c * d)
    return out


def _unit_factor(p):
    """ρ(1_A)⊗1_H over legs (A,H,H), resp. 1_H⊗λ(1_A) over (H,H,A)."""
    img = p.unit_image()
    u_h = p.hopf.unit_dict()
    out = {}
    if p.side == "right":
        for (j, k), c in img.items():
            for r, d in u_h.items():
                out[(j, k, r)] = c * d
    else:
        for r, d in u_h.items():
            for (j, k), c in img.items():
                out[(r, j, k)] = d * c
    return out


def _t3_views(p):
    pv_a = p.alg.mul.pair_view()
    pv_h = p.hopf.mul.pair_view()
    return (pv_a, pv_h, pv_h) if p.side == "right" else (pv_h, pv_h, pv_a)


def _coaction_suite(p, symmetric):
    rep = Report(p.name)
    H, A = p.hopf, p.alg
    m = A.dim
    f = H.field
    right = p.side == "right"

    rep.law("counit-coaction")
    for i in range(m):
        got = p.counit_contract(i)
        if got != {i: f.one}:
            rep.fail("counit-coaction", (i,),
                     vec_of_dict(got, m, f), A.basis_vec(i))

    rep.law("coaction-multiplicativity")
    pv_a = A.mul.pair_view()
    pv_h = H.mul.pair_view()
    legs = (pv_a, pv_h) if right else (pv_h, pv_a)
    for i in range(m):
        ci = p.coact(i)
        for j in range(m):
            lhs = p.coact_dict(pv_a.get((i, j), {}))
            rhs = t2_mul(legs[0], legs[1], ci, p.coact(j))
            if lhs != rhs:
                rep.fail("coaction-multiplicativity", (i, j), lhs, rhs)

    # the coassociativity law of a partial coaction carries the image of the
    # unit as an extra factor: on the unit-factor side it reads
    #   (ρ⊗I)ρ(a) = (ρ(1)⊗1_H)·[(I⊗Δ)ρ(a)]      (right)
    #   (I⊗λ)λ(a) = [(Δ⊗I)λ(a)]·(1_H⊗λ(1))      (left)
    # and the symmetric variant multiplies the factor from the other side.
    rep.law("coaction-coassociativity")
    v0, v1, v2 = _t3_views(p)
    uf = _unit_factor(p)
    for i in range(m):
        lhs = _double_coact(p, i)
        spread = _comul_spread(p, i)
        rhs = (t3_mul(v0, v1, v2, uf, spread) if right
               else t3_mul(v0, v1, v2, spread, uf))
        if lhs != rhs:
            rep.fail("coaction-coassociativity", (i,), lhs, rhs)

    if symmetric:
        rep.law("coaction-symmetry")
        for i in range(m):
            lhs = _double_coact(p, i)
            spread = _comul_spread(p, i)
            rhs = (t3_mul(v0, v1, v2, spread, uf) if right
                   else t3_mul(v0, v1, v2, uf, spread))
            if lhs != rhs:
                rep.fail("coaction-symmetry", (i,), lhs, rhs)
    return rep


def check_rpca(p, symmetric=False):
    """Right partial comodule-algebra suite; `symmetric` adds the variant of
    the coassociativity law with the unit factor on the other side."""
    if p.side != "right":
        raise ValueError("check_rpca expects a right coaction")
    return _coaction_suite(p, symmetric)


def check_lpca(p, symmetric=False):
    """Left partial comodule-algebra suite (mirror of check_rpca)."""
    if p.side != "left":
        raise ValueError("check_lpca expects a left coaction")
    return _coaction_suite(p, symmetric)


def check_bicomodule(b):
    """Both one-sided suites plus the compatibility law
    (I_H⊗ρ)λ = (λ⊗I_H)ρ on all basis elements."""
    rep = Report("%s bicomodule on %s" % (b.hopf.name, b.alg.name))
    rep.merge(check_lpca(b.left), prefix="left/")
    rep.merge(check_rpca(b.right), prefix="right/")
    iv_l = b.left.map.in1_view()
    iv_r = b.right.map.in1_view()
    rep.law("bicomodule-compatibility")
    for i in range(b.alg.dim):
        lhs = {}
        for (j, k), c in iv_l.get(i, {}).items():
            for (q, r), d in iv_r.get(k, {}).items():
                dict_acc(lhs, (j, q, r), c * d)
        rhs = {}
        for (j, k), c in iv_r.get(i, {}).items():
            for (q, r), d in iv_l.get(j, {}).items():
                dict_acc(rhs, (q, r, k), c * d)
        if lhs != rhs:
            rep.fail("bicomodule-compatibility", (i,), lhs, rhs)
    return rep


def check_global_unit(p):
    """True iff the coaction sends 1_A to 1_A⊗1_H (resp. 1_H⊗1_A).  When the
    strict comodule-algebra axioms hold — coassociativity without the unit
    factor — the affirmative answer is a theorem, asserted here as a
    built-in cross-check."""
    H, A = p.hopf, p.alg
    img = p.unit_image()
    if p.side == "right":
        want = t2_of_dicts(A.unit_dict(), H.unit_dict())
    else:
        want = t2_of_dicts(H.unit_dict(), A.unit_dict())
    flag = img == want

    base = _coaction_suite(p, symmetric=False)
    strict = not (base.failures_for("counit-coaction")
                  or base.failures_for("coaction-multiplicativity"))
    if strict:
        for i in range(A.dim):
            if _double_coact(p, i) != _comul_spread(p, i):
                strict = False
                break
    if strict and not flag:
        raise AssertionError("strictly coassociative coaction must send the unit to 1⊗1")
    return flag


def _certify_coaction(p):
    suite = check_rpca if p.side == "right" else check_lpca
    rep = suite(p)
    if not rep.passed:
        law, idx, lhs, rhs = rep.failures[0]
        raise AssertionError("constructed coaction failed %s at %s" % (law, idx))
    return p


def _certify_bicomodule(b, what):
    rep = check_bicomodule(b)
    if not rep.passed:
        raise AssertionError("%s failed %s" % (what, rep.failures[0][0]))
    return b


# ---------------------------------------------------------------------------
# constructors

def trivial_coaction(hopf, alg, side="right"):
    """a ↦ a⊗1_H (right) or a ↦ 1_H⊗a (left) — the global coaction through
    the unit of H."""
    u_h = hopf.unit_dict()
    ent = {}
    for i in range(alg.dim):
        for r, c in u_h.items():
            ent[(i, i, r) if side == "right" else (i, r, i)] = c
    p = PartialCoactionData(hopf, alg, side, ent,
                            name="trivial %s coaction of %s on %s"
                            % (side, hopf.name, alg.name))
    return _certify_coaction(p)


def regular_coaction(h, side="right"):
    """The comultiplication of h read as a (global) coaction of h on its own
    underlying algebra."""
    p = PartialCoactionData(h, h, side, dict(h.comul.entries),
                            name="regular %s coaction of %s" % (side, h.name))
    _certify_coaction(p)
    if not check_global_unit(p):
        raise AssertionError("regular coaction must be global")
    return p


def regular_bicomodule(h):
    """λ = ρ = comultiplication on A = H; global on both sides, with the
    compatibility law given by coassociativity."""
    b = PartialBicomoduleData(regular_coaction(h, "left"),
                              regular_coaction(h, "right"))
    return _certify_bicomodule(b, "regular bicomodule")


def sweedler_k_bicomodule(field, t, u):
    """The two-parameter family of partial bicomodule structures of the
    four-dimensional Hopf algebra on the base field:
    λ(1) = (1/2 + 1/2·g + t·xg) ⊗ 1 and ρ(1) = 1 ⊗ (1/2 + 1/2·g + u·x).
    Valid for every pair (t, u); the 1/2-pattern makes both sides genuinely
    partial."""
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
    return _certify_bicomodule(b, "Sweedler (t,u) bicomodule")


# ---------------------------------------------------------------------------
# the finite-dimensional duality bridges

def _dual_action(p):
    """The partial action of the dual Hopf algebra that reads the coaction p,
    by a pure coordinate transpose and without certification."""
    hs = dual_hopf(p.hopf)
    ent = {}
    if p.side == "right":
        for (i, j, k), c in p.map.entries.items():
            ent[(k, i, j)] = c
        return PartialActionData(hs, p.alg, "left", ent,
                                 name="dual action of %s" % p.name)
    for (i, j, k), c in p.map.entries.items():
        ent[(j, i, k)] = c
    return PartialActionData(hs, p.alg, "right", ent,
                             name="dual action of %s" % p.name)


def coaction_to_dual_action(p):
    """Reread a partial coaction of H as a partial action of the dual Hopf
    algebra: a right coaction gives the left action f▷a = Σ a_j·f(h_k), a
    left coaction gives the right action a◁f = Σ f(h_j)·a_k.  A pure
    coordinate transpose; partiality, globality and symmetry carry over.
    The result is certified by its full action suite."""
    return _certify_action(_dual_action(p))


def dual_action_to_coaction(p):
    """Inverse reread: a left partial action of H gives the right partial
    coaction ρ(a) = Σ_i (h_i ⇀ a) ⊗ p_i of the dual Hopf algebra, and a
    right action gives the left coaction λ(a) = Σ_i p_i ⊗ (a ↼ h_i)."""
    hs = dual_hopf(p.hopf)
    ent = {}
    if p.side == "left":
        for (i, j, k), c in p.map.entries.items():
            ent[(j, k, i)] = c
        co = PartialCoactionData(hs, p.alg, "right", ent,
                                 name="dual coaction of %s" % p.name)
    else:
        for (i, j, k), c in p.map.entries.items():
            ent[(j, i, k)] = c
        co = PartialCoactionData(hs, p.alg, "left", ent,
                                 name="dual coaction of %s" % p.name)
    return _certify_coaction(co)


def bicomodule_to_bimodule(b):
    """Partial bicomodule of H ⇒ partial bimodule of the dual Hopf algebra:
    the left action comes from ρ, the right action from λ; compatibility
    carries over.  Each dual action is certified by its full suite as it is
    built, so only the compatibility law is checked on the pair."""
    left = coaction_to_dual_action(b.right)
    right = coaction_to_dual_action(b.left)
    out = PartialBimoduleData(left, right)
    rep = _compatibility(out, Report())
    if not rep.passed:
        raise AssertionError("dual bimodule failed %s" % rep.failures[0][0])
    return out


def bimodule_to_bicomodule(b):
    """Converse bridge: partial bimodule of H ⇒ partial bicomodule of the
    dual Hopf algebra, with ρ from the left action and λ from the right."""
    rho = dual_action_to_coaction(b.left)
    lam = dual_action_to_coaction(b.right)
    out = PartialBicomoduleData(lam, rho)
    return _certify_bicomodule(out, "dual bicomodule")


# ---------------------------------------------------------------------------
# induced partial coactions

def _restrict_coaction(t, side, span, cut):
    """A coaction tensor t (laid out as PartialCoactionData.map on `side`)
    restricted to a subspace of its algebra: one slice per Hopf leg of the
    image of each basis row, passed through cut (a map of sparse dicts) and
    written in subspace coordinates."""
    iv = t.in1_view()
    n = t.dims[2] if side == "right" else t.dims[1]

    def slices():
        for i, row in enumerate(span.rows):
            per_h = {}
            for x, cx in enumerate(row):
                if cx:
                    for (j, k), c in iv.get(x, {}).items():
                        h, a = (k, j) if side == "right" else (j, k)
                        dict_acc(per_h.setdefault(h, {}), a, cx * c)
            for h, a in per_h.items():
                yield i, h, cut(a)

    out = transport(_dict_coords(span), (span.dim, n, span.dim), slices(),
                    "%s coaction" % side)
    return out.transpose((0, 2, 1)) if side == "right" else out


def induce_right_coaction(glob, e):
    """Restrict a global right coaction on B to the right ideal e·B generated
    by an idempotent e: the induced map a ↦ (e⊗1_H)ρ(a) is a partial right
    coaction on the ideal with unit e."""
    if glob.side != "right":
        raise ValueError("induce_right_coaction needs a right coaction")
    if not check_global_unit(glob):
        raise ValueError("induce_right_coaction needs a global coaction")
    B = glob.alg
    span, e_d, A = _left_ideal(B, e)
    ent = _restrict_coaction(glob.map, "right", span, lambda a: B.mul_dict(e_d, a))
    p = PartialCoactionData(glob.hopf, A, "right", ent,
                            name="%s induced on e·%s" % (glob.hopf.name, B.name))
    return _certify_coaction(p)


def _exchange_witness(bicom, rows, u_d, span):
    """First pair (i, j) of subalgebra basis indices where
    (λ(a_i)⊗1)(1⊗ρ(b_j)) ≠ (λ(a_i)⊗1)(1⊗1_A⊗1)(1⊗ρ(b_j)) or the common
    value leaves H⊗A⊗H; None when the exchange condition holds."""
    B, H = bicom.alg, bicom.hopf
    f = B.field
    pv_b = B.mul.pair_view()
    pv_h = H.mul.pair_view()
    u_h = H.unit_dict()
    mid = {}
    for r1, c1 in u_h.items():
        for q, cq in u_d.items():
            for r2, c2 in u_h.items():
                mid[(r1, q, r2)] = c1 * cq * c2
    for i, a in enumerate(rows):
        lam_ext = {}
        for (pq, q), c in bicom.left.coact_dict(a).items():
            for r, d in u_h.items():
                lam_ext[(pq, q, r)] = c * d
        for jb, b in enumerate(rows):
            rho_ext = {}
            for (q, s), c in bicom.right.coact_dict(b).items():
                for r, d in u_h.items():
                    rho_ext[(r, q, s)] = d * c
            lhs = t3_mul(pv_h, pv_b, pv_h, lam_ext, rho_ext)
            rhs = t3_mul(pv_h, pv_b, pv_h, lam_ext,
                         t3_mul(pv_h, pv_b, pv_h, mid, rho_ext))
            if lhs != rhs:
                return (i, jb)
            per_slice = {}
            for (pq, q, s), c in lhs.items():
                per_slice.setdefault((pq, s), {})[q] = c
            for dv in per_slice.values():
                if not span.contains(vec_of_dict(dv, B.dim, f)):
                    return (i, jb)
    return None


def induce_bicomodule(bicom, a_basis, unit_a):
    """Restrict a global bicomodule on B to a unital subalgebra A (its unit
    need not be 1_B) by ρ̄(a) = (1_A⊗1_H)ρ(a) and λ̄(a) = λ(a)(1_H⊗1_A).
    Requires the exchange condition
    (λ(a)⊗1)(1⊗ρ(b)) = (λ(a)⊗1)(1⊗1_A⊗1)(1⊗ρ(b)) with both sides inside
    H⊗A⊗H; rejected with a witness pair (a, b) otherwise."""
    B = bicom.alg
    H = bicom.hopf
    f = B.field
    if not (check_global_unit(bicom.left) and check_global_unit(bicom.right)):
        raise ValueError("induce_bicomodule needs a global bicomodule")
    span = a_basis if isinstance(a_basis, Subspace) \
        else subspace_span(list(a_basis), B.dim, f)
    rows, u_d, A = _unital_subalgebra(B, span, unit_a)

    w = _exchange_witness(bicom, rows, u_d, span)
    if w is not None:
        raise ValueError("exchange condition fails at witness pair (a=%d, b=%d)" % w)

    rho = _restrict_coaction(bicom.right.map, "right", span,
                             lambda a: B.mul_dict(u_d, a))
    lam = _restrict_coaction(bicom.left.map, "left", span,
                             lambda a: B.mul_dict(a, u_d))
    left = PartialCoactionData(H, A, "left", lam,
                               name="induced left coaction on corner of %s" % B.name)
    right = PartialCoactionData(H, A, "right", rho,
                                name="induced right coaction on corner of %s" % B.name)
    out = PartialBicomoduleData(left, right)
    return _certify_bicomodule(out, "induced bicomodule")


def check_vesgo_equivalence(bicom, a_basis, unit_a):
    """The exchange condition for a unital subalgebra A of a global
    bicomodule comes in two forms: (i) through the dual-Hopf actions,
    (a◁f)(g▷b) = (a◁f)·1_A·(g▷b) with all values inside A for every pair of
    dual basis functionals, and (ii) the tensor identity
    (λ(a)⊗1)(1⊗ρ(b)) = (λ(a)⊗1)(1⊗1_A⊗1)(1⊗ρ(b)) inside H⊗A⊗H.  Both are
    evaluated independently and the pair of truth values is returned; their
    agreement is a theorem, asserted on every call.  The bicomodule is
    certified once on entry (ValueError at its first failed law); the dual
    actions are its coordinate transposes and are not certified again."""
    B = bicom.alg
    rep = check_bicomodule(bicom)
    if not rep.passed:
        law, idx, _, _ = rep.failures[0]
        raise ValueError("input bicomodule fails %s at %s" % (law, idx))
    if not (check_global_unit(bicom.left) and check_global_unit(bicom.right)):
        raise ValueError("check_vesgo_equivalence needs a global bicomodule")
    span = a_basis if isinstance(a_basis, Subspace) \
        else subspace_span(list(a_basis), B.dim, B.field)
    rows = [dict_of_vec(r) for r in span.rows]
    u_d = dict_of_vec(unit_a)

    tri = _dual_action(bicom.right)    # f ▷ b
    trr = _dual_action(bicom.left)     # a ◁ f
    cond_i = _corner_witness(tri, trr, rows, u_d, span) is None
    cond_ii = _exchange_witness(bicom, rows, u_d, span) is None
    if cond_i != cond_ii:
        raise AssertionError("the two exchange-condition forms must agree")
    return (cond_i, cond_ii)
