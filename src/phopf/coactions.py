"""Partial comodule-algebra structures: a unital algebra coacted on by a
Hopf algebra from either side or both sides at once.

A right coaction is a coefficient table: entry (i, j, k) of the map tensor
is the coefficient of a_j ⊗ h_k in ρ(a_i).  A left coaction stores the Hopf
leg first: entry (i, j, k) is the coefficient of h_j ⊗ a_k in λ(a_i).
Every law is swept over all basis tuples by Report.sweep, which proves it
outright by multilinearity.  One suite serves both sides: it reads a left coaction λ as
the right coaction τλ over the opposite coproduct (see the axiom suites
below), and it forms every product in A⊗H and A⊗H⊗H with
algebras.tensor_mul, on operands indexed once.  The witnesses of its
tensor-valued laws are sorted items keyed in the coaction's own layout.

In finite dimension a coaction of H and an action of the dual Hopf algebra
on the other side carry the same data: transposed by algebras.DUAL, the
map tensor of a coaction is the map tensor of that action.  The bridges
between the two are that transpose, and wherever a coaction serves as an
operator family it is read as its dual family (PartialCoactionData.dual_cols):
to test it for ε-triviality, to restrict it to an ideal or a unital
subalgebra (phopf.induced), and in the exchange condition, which
phopf.induced and phopf.globalize decide through the two dual families.
Only the duality bridges read actions, so they import phopf.actions when
they run, and checking a coaction loads no action code.
Coactions and bicomodules carry their Reports (see algebras._carried).
"""

from .algebras import (DUAL, Report, _carried, _carries, _leg_index, _Pair, _pair_stamp,
                       _record_side, _side_report, _side_stamp, algebra_check, dict_acc,
                       dual_hopf, hopf_check, structure_json, tensor_mul, vec_of_dict)
from .linalg import Tensor3, acts_by_scalars


class PartialCoactionData:
    """One-sided partial coaction.  Side 'right': `map` entry (i, j, k) is
    the coefficient of a_j ⊗ h_k in ρ(a_i).  Side 'left' keeps the Hopf leg
    first: entry (i, j, k) is the coefficient of h_j ⊗ a_k in λ(a_i).
    Construction enforces the counit law ((I⊗ε)ρ = id, resp. (ε⊗I)λ = id);
    the remaining laws are certified by check_rpca / check_lpca (LAWS)."""

    LAWS = ("counit-coaction", "coaction-multiplicativity", "coaction-coassociativity",
            "coaction-symmetry")

    def __init__(self, hopf, alg, side, map_entries, name=""):
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
        self._certificates = {}
        reading = _RightReading(self)
        for i in range(alg.dim):
            if reading.counit(i) != {i: hopf.field.one}:
                raise ValueError("counit law fails at basis %s" % alg.basis[i])

    @staticmethod
    def shape(hopf, alg, side):
        """Dimensions of the map tensor of a coaction on `side`."""
        return ((alg.dim, alg.dim, hopf.dim) if side == "right"
                else (alg.dim, hopf.dim, alg.dim))

    def coact_dict(self, x):
        """Coaction applied to a sparse dict over the algebra basis."""
        return self.map.apply_in1(x)

    def dual_cols(self):
        """The coaction as its dual operator family (see algebras.DUAL):
        [g][j] = {k: c}, the image of a_j under the dual basis element p_g.
        Built once per map (see Tensor3.transpose_view).  Read-only."""
        return self.map.transpose_view(DUAL[self.side][0]).columns()

    def map_json(self):
        """The map rows, in this and a bicomodule's document."""
        return {"map": self.map.to_json(self.hopf.field.show)}

    def to_json(self, hopf_ref=None, algebra_ref=None):
        return structure_json(self, hopf_ref, algebra_ref, side=self.side, **self.map_json())

    def __repr__(self):
        return "PartialCoactionData(%s)" % self.name


class PartialBicomoduleData(_Pair):
    """A left and a right partial coaction of the same Hopf algebra on the
    same algebra; compatibility (I_H⊗ρ)λ = (λ⊗I_H)ρ certified by
    check_bicomodule."""

    kind = "coaction"


# ---------------------------------------------------------------------------
# axiom suites
#
# Every law is evaluated in the layout of a right coaction, over legs (A, H)
# and (A, H, H).  A left coaction λ is read as τλ: a ↦ Σ a_k ⊗ h_j.
# Reversing the legs of every tensor turns (I⊗λ)λ into (τλ⊗I)τλ, (Δ⊗I)λ
# into (I⊗Δ^cop)τλ and 1_H⊗λ(1) into τλ(1)⊗1_H, and keeps the order of
# componentwise products, so each left law is the right one over Δ^cop with
# the unit factor on the other side of the product: the mirror is a choice
# of tables, not a second copy of the loops.

class _RightReading:
    """A coaction read as a right one: `co` maps i to {(j, k): c}, the terms
    a_j ⊗ h_k of the image of a_i, and `comul` is Δ (Δ^cop for a left
    coaction) as {i: {(q, r): c}}.  `unit_first` says on which side of the
    product the coassociativity law puts its unit factor."""

    def __init__(self, p):
        right = p.side == "right"
        self.alg, self.hopf = p.alg, p.hopf
        self.co_map = p.map if right else p.map.transpose((0, 2, 1))
        self.co = self.co_map.in1_view()
        self.comul = (p.hopf.comul if right
                      else p.hopf.comul.transpose((0, 2, 1))).in1_view()
        self.unit_first = right
        self.step = 1 if right else -1

    def counit(self, i):
        """(I⊗ε)ρ(a_i) as a sparse vector."""
        eps = self.hopf.counit
        out = {}
        for (j, k), c in self.co.get(i, {}).items():
            if eps[k]:
                dict_acc(out, j, c * eps[k])
        return out

    def witness(self, d):
        """A tensor as sorted items, keyed in the coaction's own layout."""
        return sorted((key[::self.step], c) for key, c in d.items())

    def double(self, i):
        """(ρ⊗I)ρ(a_i) over legs (A, H, H)."""
        out = {}
        for (j, k), c in self.co.get(i, {}).items():
            for (q, r), d in self.co.get(j, {}).items():
                dict_acc(out, (q, r, k), c * d)
        return out

    def spread(self, i):
        """(I⊗Δ)ρ(a_i) over legs (A, H, H)."""
        out = {}
        for (j, k), c in self.co.get(i, {}).items():
            for (q, r), d in self.comul.get(k, {}).items():
                dict_acc(out, (j, q, r), c * d)
        return out


def _counit_and_multiplicativity(r, rep):
    """The counit law (I⊗ε)ρ = id and the law ρ(ab) = ρ(a)ρ(b) of the
    reading r, checked into rep."""
    A, H = r.alg, r.hopf
    m = A.dim
    f = A.field
    empty = {}
    rep.sweep("counit-coaction", (((i,), r.counit(i), {i: f.one}) for i in range(m)),
              lambda d: vec_of_dict(d, m, f))
    pv_a = A.mul.pair_view()
    muls = (A.mul, H.mul)
    co = [_leg_index(r.co.get(i, empty)) for i in range(m)]
    rep.sweep("coaction-multiplicativity", (
        ((i, j), r.co_map.apply_in1(pv_a.get((i, j), empty)),
         tensor_mul(muls, co[i], co[j], indexed=True)) for i in range(m) for j in range(m)),
        r.witness)
    return rep


def _coaction_suite(p, symmetric, carried=None):
    """Every law of a partial comodule algebra, on the right reading of p.
    Witnesses of the tensor-valued laws are sorted items in p's own layout.
    Given `carried`, p's Report without the symmetry law, it sweeps that law alone into it.

    The coassociativity law carries the image of the unit as an extra
    factor: (ρ⊗I)ρ(a) = (ρ(1)⊗1_H)·[(I⊗Δ)ρ(a)], which a left coaction reads
    as (I⊗λ)λ(a) = [(Δ⊗I)λ(a)]·(1_H⊗λ(1)); the symmetric variant multiplies
    the factor from the other side."""
    r = _RightReading(p)
    A, H = p.alg, p.hopf
    rep = _counit_and_multiplicativity(r, Report(p.name, p.alg.field)) \
        if carried is None else carried
    u_h = H.unit_dict()
    unit_factor = _leg_index({(j, k, t): c * d
                              for (j, k), c in r.co_map.apply_in1(A.unit_dict()).items()
                              for t, d in u_h.items()})
    muls = (A.mul, H.mul, H.mul)
    doubles = [r.double(i) for i in range(A.dim)]
    spreads = [_leg_index(r.spread(i)) for i in range(A.dim)]
    laws = [("coaction-coassociativity", r.unit_first)] if carried is None else []
    if symmetric:
        laws.append(("coaction-symmetry", not r.unit_first))
    for law, unit_first in laws:
        rep.sweep(law, (((i,), lhs, tensor_mul(muls, unit_factor, spread, indexed=True)
                         if unit_first else tensor_mul(muls, spread, unit_factor, indexed=True))
                        for i, (lhs, spread) in enumerate(zip(doubles, spreads))), r.witness)
    return rep


def check_rpca(p, symmetric=False):
    """Right partial comodule-algebra suite; `symmetric` adds the variant of
    the coassociativity law with the unit factor on the other side, which
    p's one Report gains the first time it is asked for."""
    return _side_report(p, "right", symmetric, _coaction_suite)


def check_lpca(p, symmetric=False):
    """Left partial comodule-algebra suite (mirror of check_rpca)."""
    return _side_report(p, "left", symmetric, _coaction_suite)


def check_bicomodule(b):
    """Both one-sided suites plus the compatibility law
    (I_H⊗ρ)λ = (λ⊗I_H)ρ on all basis elements."""
    return _carried(b, "suite", _pair_stamp(b), _decide_bicomodule)


def _decide_bicomodule(b, compatible=False):
    """The Report of check_bicomodule from the Reports both sides carry; the
    compatibility law is swept unless `compatible` (a constructor's proof)."""
    rep = Report("%s bicomodule on %s" % (b.hopf.name, b.alg.name), b.alg.field)
    rep.merge(check_lpca(b.left), prefix="left/")
    rep.merge(check_rpca(b.right), prefix="right/")
    iv_l = b.left.map.in1_view()
    iv_r = b.right.map.in1_view()

    def sides():
        for i in range(b.alg.dim):
            lhs = {}
            for (j, k), c in iv_l.get(i, {}).items():
                for (q, r), d in iv_r.get(k, {}).items():
                    dict_acc(lhs, (j, q, r), c * d)
            rhs = {}
            for (j, k), c in iv_r.get(i, {}).items():
                for (q, r), d in iv_l.get(j, {}).items():
                    dict_acc(rhs, (q, r, k), c * d)
            yield (i,), lhs, rhs

    rep.sweep("bicomodule-compatibility", () if compatible else sides(),
              lambda d: sorted(d.items()))
    return rep


def check_global_unit(p):
    """True iff the coaction sends 1_A to 1_A⊗1_H (resp. 1_H⊗1_A).  When the
    strict comodule-algebra axioms hold — coassociativity without the unit
    factor — the affirmative answer is a theorem: a negative answer is
    cross-checked against them, and raises AssertionError if they hold."""
    if _coacts_trivially(p, p.alg.unit_dict()):
        return True
    r = _RightReading(p)
    if _counit_and_multiplicativity(r, Report()).passed and \
            all(r.double(i) == r.spread(i) for i in range(p.alg.dim)):
        raise AssertionError("strictly coassociative coaction must send the unit to 1⊗1")
    return False


def _coacts_trivially(p, u):
    """Whether the coaction p sends u (a sparse dict) to u ⊗ 1_H (right
    side), resp. 1_H ⊗ u (left side): each p_g of its dual family sends u
    to p_g(1_H)·u."""
    return acts_by_scalars(p.dual_cols(), p.hopf.unit, u)


def _certify_coaction(p):
    (check_rpca if p.side == "right" else check_lpca)(p).require(
        "constructed coaction", AssertionError)
    return p


# ---------------------------------------------------------------------------
# the finite-dimensional duality bridges

def _dual_action(p, hs):
    """The partial action of hs, the certified dual of p's Hopf algebra,
    that reads the coaction p, by the transpose of algebras.DUAL and without
    certification."""
    from .actions import PartialActionData
    perm, _, side = DUAL[p.side]
    return PartialActionData(hs, p.alg, side, p.map.transpose(perm),
                             name="dual action of %s" % p.name)


def _transposable(s, stamp, laws):
    """Whether s carries a Report under `stamp`, its stamp now, that passes
    each of `laws`, while H passes hopf_check and A algebra_check: then each
    of those laws transposes to a law of the dual reading of s."""
    return _carries(s, "suite", stamp, laws) \
        and hopf_check(s.hopf).passed and algebra_check(s.alg).passed


def _by_duality(p, q):
    """q, the dual reading of p, carrying the transposes of the laws p's
    carried Report passes: all but symmetry when p passes all of its own but
    symmetry, and symmetry too when p's Report holds and passes it."""
    # Under the premises of _transposable each law of either suite is the
    # transpose of one of the other: counit ⇄ 1⇀a = a, multiplicativity ⇄
    # multiplicativity, coassociativity and its symmetric variant ⇄ the
    # unital composition and symmetry laws, whose general forms then follow
    # (see actions._action_suite).
    stamp = _side_stamp(p)
    if _transposable(p, stamp, p.LAWS[:-1]):
        _record_side(q, q.LAWS if _carries(p, "suite", stamp, p.LAWS[-1:]) else q.LAWS[:-1])
    return q


def coaction_to_dual_action(p, hs=None):
    """Reread a partial coaction of H as a partial action of hs, the dual
    Hopf algebra (built when not given): a right coaction gives the left
    action f▷a = Σ a_j·f(h_k), a left coaction gives the right action
    a◁f = Σ f(h_j)·a_k.  A pure coordinate transpose; partiality, globality
    and symmetry carry over.  p gains its symmetry law first, so that every
    law of the action is recorded by _by_duality when p passes its own."""
    from .actions import _certify_action
    hs = dual_hopf(p.hopf) if hs is None else hs
    (check_rpca if p.side == "right" else check_lpca)(p, symmetric=True)
    return _certify_action(_by_duality(p, _dual_action(p, hs)))


def dual_action_to_coaction(p):
    """Inverse reread: a left partial action of H gives the right partial
    coaction ρ(a) = Σ_i (h_i ⇀ a) ⊗ p_i of the dual Hopf algebra, and a
    right action gives the left coaction λ(a) = Σ_i p_i ⊗ (a ↼ h_i),
    certified by its suite or by p's Report (see _by_duality)."""
    hs = dual_hopf(p.hopf)
    side = DUAL[p.side][2]
    co = PartialCoactionData(hs, p.alg, side, p.map.transpose(DUAL[side][1]),
                             name="dual coaction of %s" % p.name)
    return _certify_coaction(_by_duality(p, co))


def bicomodule_to_bimodule(b):
    """Partial bicomodule of H ⇒ partial bimodule of the dual Hopf algebra:
    the left action comes from ρ, the right action from λ; compatibility
    carries over.  The dual Hopf algebra is certified once for both sides,
    and each dual action as coaction_to_dual_action certifies it.  The
    bimodule compatibility law is the transpose of the bicomodule one: it
    is recorded by that proof when b is _transposable under its pair stamp,
    and swept otherwise."""
    from .actions import PartialBimoduleData, _decide_bimodule, check_bimodule
    hs = dual_hopf(b.hopf)
    out = PartialBimoduleData(coaction_to_dual_action(b.right, hs),
                              coaction_to_dual_action(b.left, hs))
    if _transposable(b, _pair_stamp(b), ("bicomodule-compatibility",)):
        _carried(out, "suite", _pair_stamp(out), lambda o: _decide_bimodule(o, compatible=True))
    check_bimodule(out).require("dual bimodule", AssertionError)
    return out


def bimodule_to_bicomodule(b):
    """Converse bridge: partial bimodule of H ⇒ partial bicomodule of the
    dual Hopf algebra, with ρ from the left action and λ from the right."""
    rho = dual_action_to_coaction(b.left)
    lam = dual_action_to_coaction(b.right)
    out = PartialBicomoduleData(lam, rho)
    check_bicomodule(out).require("dual bicomodule", AssertionError)
    return out

