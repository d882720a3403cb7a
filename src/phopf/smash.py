"""Partial (L,R)-smash products.

Given a partial bimodule algebra A (two-sided partial actions ⇀, ↼ of a
Hopf algebra H) and a partial bicomodule algebra Ā (two-sided partial
coactions λ, ρ of the same H), the smash product lives on A ⊗ Ā with

    (a ♮ u)(b ♮ v) = (a ↼ v⁺¹)(u⁻¹ ⇀ b) ♮ u⁻⁰ v⁺⁰,

writing ρ(v) = v⁺⁰ ⊗ v⁺¹ for the right coaction and λ(u) = u⁻¹ ⊗ u⁻⁰ for
the left one.  smash_product forms only the nonzero terms of this formula.
Associativity is a theorem for certified inputs, but smash_product
re-proves it for every instance with algebra_check, which sweeps the rows
of a generating set of the left nucleus and falls back to every row when
one of them fails (see algebras._decide_algebra).  The
module also decides when a pair of idempotents makes a ♮ u idempotent,
decides the ε-triviality of the action on a behind criteria (1) and (2),
and cuts out the unital corner algebra e·S·e at any idempotent e, each
from dense vectors of the right length.  The body of `phopf smash` is
`command`."""

import json
import os

from .algebras import (AlgebraData, algebra_check, dict_acc, dict_of_vec, mul_dicts,
                       same_hopf, vec_of_dict)
from .actions import check_bimodule
from .coactions import _coacts_trivially, check_bicomodule
from .linalg import Subspace, Tensor3, acts_by_scalars, restrict_product


# ---------------------------------------------------------------------------
# the smash product


class SmashAlgebra:
    """Smash product of a partial bimodule algebra (`left_factor`) and a
    partial bicomodule algebra (`right_factor`) over one Hopf algebra.
    `alg` carries the product on the basis {a_i ♮ u_j}, flattened as
    i·dim Ā + j; its unit is set only when 1_A ♮ 1_Ā really is a two-sided
    identity (as happens for global inputs) and is left None otherwise."""

    def __init__(self, left_factor, right_factor, alg):
        self.left_factor = left_factor
        self.right_factor = right_factor
        self.hopf = left_factor.hopf
        self.alg = alg

    def pair_vec(self, a_vec, u_vec):
        """The element a ♮ u as a dense vector of the smash algebra."""
        _sparse(self.left_factor.alg, a_vec, "a")
        _sparse(self.right_factor.alg, u_vec, "u")
        return [ca * cu for ca in a_vec for cu in u_vec]

    def __repr__(self):
        return "SmashAlgebra(%s, dim=%d)" % (self.alg.name, self.alg.dim)


def _sparse(alg, vec, what):
    """The dense vector `vec` of alg as a sparse dict; ValueError unless it
    has one entry per basis element."""
    if len(vec) != alg.dim:
        raise ValueError("%s has %d entries, but %s has dimension %d"
                         % (what, len(vec), alg.name, alg.dim))
    return dict_of_vec(vec)


def _two_sided_unit(alg, e):
    """Whether the dense vector e is a two-sided identity of alg."""
    pv = alg.mul.pair_view()
    one = alg.field.one
    ed = dict_of_vec(e)
    for t in range(alg.dim):
        if mul_dicts(pv, ed, {t: one}) != {t: one}:
            return False
        if mul_dicts(pv, {t: one}, ed) != {t: one}:
            return False
    return True


def smash_product(bimodule, bicomodule):
    """Build A ♮ Ā.  Both factors must certify (the Reports they carry, or
    their axiom suites) and share one Hopf algebra; the product (built by
    _smash_table) is then proven associative by check_smash_associativity,
    and construction raises ValueError if it is not, so a returned product
    needs no second check."""
    if not same_hopf(bimodule.hopf, bicomodule.hopf):
        raise ValueError("mismatched Hopf references between the factors")
    A, U = bimodule.alg, bicomodule.alg
    if A.field != U.field:
        raise ValueError("factors live over different fields")
    check_bimodule(bimodule).require("uncertified bimodule factor")
    check_bicomodule(bicomodule).require("uncertified bicomodule factor")
    f = A.field
    mul = _smash_table(bimodule, bicomodule)
    labels = ["%s ♮ %s" % (a, u) for a in A.basis for u in U.basis]
    name = "%s ♮ %s" % (A.name, U.name)
    one_s = [ca * cu for ca in A.unit for cu in U.unit]
    unit = one_s if _two_sided_unit(AlgebraData(f, labels, mul, None, name=name),
                                    one_s) else None
    s = SmashAlgebra(bimodule, bicomodule, AlgebraData(f, labels, mul, unit, name=name))
    check_smash_associativity(s).require("smash product")
    return s


def _smash_table(bimodule, bicomodule):
    """The multiplication tensor of A ♮ Ā on the basis {a_i ♮ u_j}, by a
    keyed join, for any two factors over one Hopf algebra and one field.
    The terms c₁·u_l0⊗h of ρ(u_l) with a_i ↼ h ≠ 0 and the terms c₂·h'⊗u_j0
    of λ(u_j) with h' ⇀ a_k ≠ 0 are listed once, and they meet only where
    u_j0 u_l0 ≠ 0.  Each product (a_i ↼ h)(h' ⇀ a_k) in A is formed once,
    however many such meetings use it."""
    A, U = bimodule.alg, bicomodule.alg
    dA, dU = A.dim, U.dim
    pvA = A.mul.pair_view()
    # the nonzero terms of each side: c₁·u_l0⊗h in ρ(u_l) with the a_i that
    # h acts on from the right without vanishing, keyed by l0, and c₂·h⊗u_j0
    # in λ(u_j) with the a_k that h acts on from the left
    right_terms = {}
    right_cols = bimodule.right.map.columns()
    for l, terms in bicomodule.right.map.in1_view().items():
        for (l0, lh), c1 in terms.items():
            a_imgs = [(i, img) for i, img in enumerate(right_cols[lh]) if img]
            if a_imgs:
                right_terms.setdefault(l0, []).append((l, lh, c1, a_imgs))
    left_terms = []
    left_cols = bimodule.left.map.columns()
    for j, terms in bicomodule.left.map.in1_view().items():
        for (jh, j0), c2 in terms.items():
            b_imgs = [(k, img) for k, img in enumerate(left_cols[jh]) if img]
            if b_imgs:
                left_terms.append((j, j0, jh, c2, b_imgs))

    # join them where u_j0 u_l0 ≠ 0; (a_i ↼ lh)(jh ⇀ a_k) is formed once
    entries = {}
    products = {}
    partnersU = U.mul.partner_view()
    for j, j0, jh, c2, b_imgs in left_terms:
        for l0, u_img in partnersU.get(j0, {}).items():
            for l, lh, c1, a_imgs in right_terms.get(l0, ()):
                c12 = c1 * c2
                for i, a_img in a_imgs:
                    row = i * dU + j
                    for k, b_img in b_imgs:
                        key = (lh, i, jh, k)
                        ab = products.get(key)
                        if ab is None:
                            ab = products[key] = mul_dicts(pvA, a_img, b_img)
                        col = k * dU + l
                        for m, ca in ab.items():
                            base = m * dU
                            for p, cu in u_img.items():
                                dict_acc(entries, (row, col, base + p), c12 * ca * cu)
    N = dA * dU
    return Tensor3((N, N, N), entries)


def check_smash_associativity(s):
    """Associativity of the smash product on every basis triple, by
    algebra_check (plus the unit law whenever a unit was detected).
    Certified factors always pass; a failure carries the witness triple and
    indicates an input that silently violated an axiom."""
    return algebra_check(s.alg)


# ---------------------------------------------------------------------------
# idempotents a ♮ u


def check_ker_eps_invariance(bimodule, a_vec):
    """For a nonzero a in the bimodule algebra decide, per side, whether the
    action is ε-trivial on a: h ⇀ a = ε(h)·a for every basis h (resp.
    a ↼ h), which says Ker ε kills a, since H = Ker ε ⊕ k·1_H.  Returns the
    boolean for the left and for the right action."""
    a = _sparse(bimodule.alg, a_vec, "a")
    if not a:
        raise ValueError("need a ≠ 0: the zero vector is invariant only vacuously")
    return tuple(acts_by_scalars(act.map.columns(), bimodule.hopf.counit, a)
                 for act in (bimodule.left, bimodule.right))


def find_idempotent(s, a_vec, u_vec):
    """Decide whether a ♮ u is idempotent, for idempotents a of the bimodule
    factor and u of the bicomodule factor, and report which sufficient
    hypothesis held, scanning a fixed order for deterministic diagnostics:
    "(1)+(2)" — the action is ε-trivial on a on both sides (see
    check_ker_eps_invariance); then the mixed pairs "(1)+(4)", "(2)+(3)",
    "(3)+(4)", where (3) is ρ(u) = u ⊗ 1_H and (4) is λ(u) = 1_H ⊗ u; then
    "direct" when a ♮ u squares to itself with no hypothesis holding.  The
    verdict always comes from squaring a ♮ u — the route is a label, never
    a substitute — and a non-idempotent a ♮ u returns (False, "none")."""
    A, U = s.left_factor.alg, s.right_factor.alg
    x = dict_of_vec(s.pair_vec(a_vec, u_vec))
    a = dict_of_vec(a_vec)
    u = dict_of_vec(u_vec)
    if not a or mul_dicts(A.mul.pair_view(), a, a) != a:
        raise ValueError("a must be a nonzero idempotent of the bimodule factor")
    if not u or mul_dicts(U.mul.pair_view(), u, u) != u:
        raise ValueError("u must be a nonzero idempotent of the bicomodule factor")
    if mul_dicts(s.alg.mul.pair_view(), x, x) != x:
        return (False, "none")
    cond1, cond2 = check_ker_eps_invariance(s.left_factor, a_vec)
    cond3 = _coacts_trivially(s.right_factor.right, u)
    cond4 = _coacts_trivially(s.right_factor.left, u)
    for route, holds in (("(1)+(2)", cond1 and cond2),
                         ("(1)+(4)", cond1 and cond4),
                         ("(2)+(3)", cond2 and cond3),
                         ("(3)+(4)", cond3 and cond4)):
        if holds:
            return (True, route)
    return (True, "direct")


def _idempotents_and_unit_pair(s):
    """What `phopf smash` reports of s: each pair a ♮ u of basis idempotents
    that find_idempotent finds idempotent, as {"a", "u", "route"}, and what
    1_A ♮ 1_Ā is in s."""
    A, U = s.left_factor.alg, s.right_factor.alg
    one = A.field.one

    def idempotents(alg):  # the basis elements e with e² = e
        pv = alg.mul.pair_view()
        return [t for t in range(alg.dim) if mul_dicts(pv, {t: one}, {t: one}) == {t: one}]

    idem_u = idempotents(U)
    found = []
    for i in idempotents(A):
        for j in idem_u:
            is_idem, route = find_idempotent(s, A.basis_vec(i), U.basis_vec(j))
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
    return found, unit_note


# ---------------------------------------------------------------------------
# the corner algebra e·S·e


class CornerAlgebra:
    """Corner e·S·e of a smash product S at an idempotent e: the span of all
    sandwiches e·b·e over the basis of S, with the induced multiplication
    and e itself as the identity."""

    def __init__(self, parent, idempotent, span, alg):
        self.parent = parent
        self.idempotent = list(idempotent)
        self.span = span
        self.alg = alg

    @property
    def dim(self):
        return self.alg.dim

    def include(self, coords):
        """Corner coordinates → ambient smash vector (dense)."""
        span = self.span
        return vec_of_dict(span.from_coords(coords), span.ambient_dim, span.field)

    def __repr__(self):
        return "CornerAlgebra(dim=%d in %s)" % (self.dim, self.parent.alg.name)


def unital_corner(s, e_vec):
    """Cut the corner e·S·e out of the smash product S: basis from the span
    of all sandwiches e·b·e, multiplication restricted (the corner is closed
    under it), and unit = e.  The result is asserted to pass the full
    algebra check.  Rejects e when e² ≠ e or e = 0."""
    f = s.alg.field
    pv = s.alg.mul.pair_view()
    e = _sparse(s.alg, e_vec, "e")
    if not e or mul_dicts(pv, e, e) != e:
        raise ValueError("e must be a nonzero idempotent of the smash product "
                         "(e² ≠ e or e = 0)")
    dim_s = s.alg.dim
    sandwiches = [mul_dicts(pv, mul_dicts(pv, e, {t: f.one}), e)
                  for t in range(dim_s)]
    span = Subspace(dim_s, f, sandwiches)
    mul = restrict_product(span.coords, span.rows, s.alg.mul_dict)
    ue = span.coords(e)
    if ue is None:
        raise AssertionError("the idempotent fell outside its own corner")
    alg = AlgebraData(f, ["c%d" % t for t in range(span.dim)], mul, ue,
                      name="corner of %s" % s.alg.name)
    algebra_check(alg).require("corner algebra", AssertionError)
    return CornerAlgebra(s, e_vec, span, alg)


def command(args, fmt):
    """The body of `phopf smash` (see phopf.cli)."""
    from .serialize import load_bicomodule, load_bimodule, write_document
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
