"""Partial actions and coactions induced by cutting a global one on B down
to an ideal e·B or to a unital subalgebra A of B (whose unit need not be
1_B).  A two-sided structure restricts under the corner condition
(bimodules) or the exchange condition (bicomodules), and a failing input is
rejected with a witness."""

from .algebras import AlgebraData, algebra_check, dict_of_vec, t2_of_dicts, tensor_mul
from .actions import (PartialActionData, PartialBimoduleData, _certify_action,
                      check_bimodule, is_global)
from .coactions import (PartialBicomoduleData, PartialCoactionData, _certify_bicomodule,
                        _certify_coaction, _exchange_products, _restrict_coaction,
                        check_global_unit)
from .linalg import Subspace, apply_cols, restrict_ops, restrict_product, subspace_span


# ---------------------------------------------------------------------------
# the set-up shared by induced actions and coactions

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


# ---------------------------------------------------------------------------
# induced partial actions

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
    check_bimodule(out).require("induced bimodule", AssertionError)
    return out



# ---------------------------------------------------------------------------
# induced partial coactions

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
    ent = _restrict_coaction(glob.dual_cols(), "right", span, lambda a: B.mul_dict(e_d, a))
    p = PartialCoactionData(glob.hopf, A, "right", ent,
                            name="%s induced on e·%s" % (glob.hopf.name, B.name))
    return _certify_coaction(p)


def _exchange_witness(bicom, rows, u_d, span):
    """First pair (i, j) of subalgebra basis indices where
    (λ(a_i)⊗1)(1⊗ρ(b_j)) ≠ (λ(a_i)⊗1)(1⊗1_A⊗1)(1⊗ρ(b_j)) or the common
    value leaves H⊗A⊗H; None when the exchange condition holds."""
    B, H = bicom.alg, bicom.hopf
    one_a = t2_of_dicts(u_d, H.unit_dict())     # 1_A ⊗ 1_H
    lams = [bicom.left.coact_dict(a) for a in rows]
    rhos = [bicom.right.coact_dict(b) for b in rows]
    # (1⊗1_A⊗1)(1⊗ρ(b)) = 1⊗[(1_A⊗1_H)ρ(b)], since 1_H·1_H = 1_H
    cut = [tensor_mul((B.mul, H.mul), one_a, rho) for rho in rhos]
    for (pair, lhs), (_, rhs) in zip(_exchange_products(H, (B.mul,), lams, rhos),
                                     _exchange_products(H, (B.mul,), lams, cut)):
        if lhs != rhs:
            return pair
        per_slice = {}
        for (pq, q, s), c in lhs.items():
            per_slice.setdefault((pq, s), {})[q] = c
        for dv in per_slice.values():
            if not span.contains(dv):
                return pair
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

    rho = _restrict_coaction(bicom.right.dual_cols(), "right", span,
                             lambda a: B.mul_dict(u_d, a))
    lam = _restrict_coaction(bicom.left.dual_cols(), "left", span,
                             lambda a: B.mul_dict(a, u_d))
    left = PartialCoactionData(H, A, "left", lam,
                               name="induced left coaction on corner of %s" % B.name)
    right = PartialCoactionData(H, A, "right", rho,
                                name="induced right coaction on corner of %s" % B.name)
    out = PartialBicomoduleData(left, right)
    return _certify_bicomodule(out, "induced bicomodule")
