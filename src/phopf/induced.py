"""Partial actions and coactions induced by cutting a global one on B down
to an ideal e·B or to a unital subalgebra A of B (whose unit need not be
1_B).  Every operator family, a coaction's as its dual family, restricts
through one step, _restrict.  A two-sided structure restricts under the
corner condition (bimodules) or the exchange condition (bicomodules), which
is the corner condition of the dual families, and a failing input is
rejected with a witness."""

from itertools import product

from .algebras import DUAL, AlgebraData, algebra_check, dict_of_vec
from .actions import (PartialActionData, PartialBimoduleData, _certify_action,
                      check_bimodule, is_global)
from .coactions import (PartialBicomoduleData, PartialCoactionData, _certify_coaction,
                        check_bicomodule, check_global_unit)
from .linalg import Subspace, apply_cols, restrict_ops, restrict_product, subspace_span


# ---------------------------------------------------------------------------
# the set-up shared by induced actions and coactions

def _left_ideal(B, e):
    """Set-up shared by the structures induced on e·B: check that e is an
    idempotent and a left identity on e·B, and that e·B is a unital ideal,
    e·B·(1−e) = 0, so that e is its unit (ValueError names a basis element b
    of B with e·b·(1−e) ≠ 0); then build e·B as an algebra with unit e.
    Returns (span of e·B, e as a sparse dict, the algebra).  A dense e of
    another length than dim B raises ValueError."""
    f = B.field
    e_d = dict_of_vec(e, B.dim, "e")
    if B.mul_dict(e_d, e_d) != e_d:
        raise ValueError("e is not idempotent")
    ebs = [B.mul_dict(e_d, {j: f.one}) for j in range(B.dim)]
    for j, eb in enumerate(ebs):
        if B.mul_dict(e_d, eb) != eb:
            raise ValueError("e is not a left identity on e·B")
        if B.mul_dict(eb, e_d) != eb:
            raise ValueError("e·B is not a unital ideal: e·b·(1−e) ≠ 0 at b = %s"
                             % B.basis[j])
    span = Subspace(B.dim, f, ebs)
    A = AlgebraData(f, ["a%d" % i for i in range(span.dim)],
                    restrict_product(span.coords, span.rows, B.mul_dict), span.coords(e_d),
                    name="e·%s" % B.name)
    return span, e_d, A


def _unital_subalgebra(B, a_basis, unit_a):
    """Set-up shared by the structures induced on a unital subalgebra A of
    B, given as a linalg.Subspace or as dense spanning rows: check that
    unit_a lies in A, is an idempotent and an identity on it, and that A is
    closed under the product; then build A with the restricted product and
    certify it.  Returns the span of A, unit_a as a sparse dict, and A.  A
    span, a row or a dense unit_a of another length than dim B raises
    ValueError."""
    span = a_basis if isinstance(a_basis, Subspace) \
        else subspace_span(a_basis, B.dim, B.field)
    if span.ambient_dim != B.dim:
        raise ValueError("A lies in a space of dimension %d, not %d = dim B"
                         % (span.ambient_dim, B.dim))
    rows = span.rows
    u_d = dict_of_vec(unit_a, B.dim, "unit_A")
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
    return span, u_d, A


def _restrict(span, cut, ops, what):
    """The operator family `ops` (column maps) restricted to `span`: each
    image of a basis row passes through cut (a map of sparse dicts) and is
    written in span coordinates (see linalg.restrict_ops).  A coaction,
    given as its dual family, transposes the result by algebras.DUAL."""
    return restrict_ops(lambda a: span.coords(cut(a)), span.rows, ops, what)


def _corner_witness(B, left, right, span, u_d):
    """First witness (a, h, k, b) — subalgebra basis, Hopf, Hopf, subalgebra
    basis indices, in (a, b, h, k) order — where (a◁h)(k▷b) ≠
    (a◁h)·1_A·(k▷b) or the common value leaves A; None when this corner
    condition holds.  The two operator families on B are column maps, one
    operator per Hopf basis element; a zero factor is skipped, as both
    sides then vanish."""
    def factors(ops, v):
        return [(g, y) for g, y in enumerate(apply_cols(op, v) for op in ops) if y]

    a_h = [factors(right, a) for a in span.rows]
    k_b = [factors(left, b) for b in span.rows]
    for ia, xs in enumerate(a_h):
        for ib, ys in enumerate(k_b):
            for (h, x), (k, y) in product(xs, ys):
                lhs = B.mul_dict(x, y)
                if lhs != B.mul_dict(x, B.mul_dict(u_d, y)) or not span.contains(lhs):
                    return (ia, h, k, ib)
    return None


# ---------------------------------------------------------------------------
# induced partial actions

def induce_left(glob, e):
    """Restrict a global left action on B to A = e·B (e idempotent) by
    h⇀a = e·(h▷a).  Returns the induced partial action on A's row-reduced
    basis.

    A must be a unital ideal, e·B·(1−e) = 0 (see _left_ideal): the
    product rule of the induced action reads e·x·e·y = e·x·y for x, y in B."""
    if glob.side != "left":
        raise ValueError("induce_left needs a left action")
    if not is_global(glob):
        raise ValueError("induce_left needs a global action")
    B = glob.alg
    span, e_d, A = _left_ideal(B, e)
    act = _restrict(span, lambda a: B.mul_dict(e_d, a), glob.map.columns(), "left action")
    p = PartialActionData(glob.hopf, A, "left", act,
                          name="%s induced on e·%s" % (glob.hopf.name, B.name))
    return _certify_action(p)


def induce_bimodule(bim, a_basis, unit_a):
    """Restrict a global bimodule structure on B to a unital subalgebra A
    (given as a subspace or by spanning rows, with its own unit) by
    h⇀a = 1_A(h▷a) and a↼h = (a◁h)1_A.  Requires the corner condition
    (a◁h)(k▷b) = (a◁h)·1_A·(k▷b) with both sides inside A; rejected with a
    witness (a, h, k, b) otherwise."""
    B = bim.alg
    H = bim.hopf
    if not (is_global(bim.left) and is_global(bim.right)):
        raise ValueError("induce_bimodule needs global actions on both sides")
    span, u_d, A = _unital_subalgebra(B, a_basis, unit_a)
    left_cols, right_cols = bim.left.map.columns(), bim.right.map.columns()
    w = _corner_witness(B, left_cols, right_cols, span, u_d)
    if w is not None:
        raise ValueError("corner condition fails at witness (a=%d, h=%s, k=%s, b=%d)"
                         % (w[0], H.basis[w[1]], H.basis[w[2]], w[3]))
    lt = _restrict(span, lambda a: B.mul_dict(u_d, a), left_cols, "left action")
    rt = _restrict(span, lambda a: B.mul_dict(a, u_d), right_cols, "right action")
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
    coaction on the ideal with unit e, which must be a unital ideal (see
    _left_ideal)."""
    if glob.side != "right":
        raise ValueError("induce_right_coaction needs a right coaction")
    if not check_global_unit(glob):
        raise ValueError("induce_right_coaction needs a global coaction")
    B = glob.alg
    span, e_d, A = _left_ideal(B, e)
    ent = _restrict(span, lambda a: B.mul_dict(e_d, a), glob.dual_cols(), "right coaction")
    p = PartialCoactionData(glob.hopf, A, "right", ent.transpose(DUAL["right"][1]),
                            name="%s induced on e·%s" % (glob.hopf.name, B.name))
    return _certify_coaction(p)


def induce_bicomodule(bicom, a_basis, unit_a):
    """Restrict a global bicomodule on B to a unital subalgebra A (given as
    a subspace or by spanning rows; its unit need not be 1_B) by
    ρ̄(a) = (1_A⊗1_H)ρ(a) and λ̄(a) = λ(a)(1_H⊗1_A).  Requires the exchange
    condition (λ(a)⊗1)(1⊗ρ(b)) = (λ(a)⊗1)(1⊗1_A⊗1)(1⊗ρ(b)) with both sides
    inside H⊗A⊗H: with λ(a) = Σ_h h⊗(a◁p_h) and ρ(b) = Σ_k (p_k▷b)⊗k, the
    corner condition of the dual families.  Rejected with a witness pair
    (a, b) otherwise."""
    B = bicom.alg
    H = bicom.hopf
    if not (check_global_unit(bicom.left) and check_global_unit(bicom.right)):
        raise ValueError("induce_bicomodule needs a global bicomodule")
    span, u_d, A = _unital_subalgebra(B, a_basis, unit_a)
    w = _corner_witness(B, bicom.right.dual_cols(), bicom.left.dual_cols(), span, u_d)
    if w is not None:
        raise ValueError("exchange condition fails at witness pair (a=%d, b=%d)"
                         % (w[0], w[3]))
    rho = _restrict(span, lambda a: B.mul_dict(u_d, a), bicom.right.dual_cols(), "right coaction")
    lam = _restrict(span, lambda a: B.mul_dict(a, u_d), bicom.left.dual_cols(), "left coaction")
    left = PartialCoactionData(H, A, "left", lam.transpose(DUAL["left"][1]),
                               name="induced left coaction on corner of %s" % B.name)
    right = PartialCoactionData(H, A, "right", rho.transpose(DUAL["right"][1]),
                                name="induced right coaction on corner of %s" % B.name)
    out = PartialBicomoduleData(left, right)
    check_bicomodule(out).require("induced bicomodule", AssertionError)
    return out
