"""Globalization candidates from outside (comparison map, minimal quotient,
free candidate), and the sweeps of the product rule and of the global
operator laws, which the standard constructions prove when H passes
hopf_check: phopf.globalize imports this module only where a premise fails."""

from itertools import product

from .algebras import AlgebraData, dict_acc, dict_of_vec, mul_dicts, vec_of_dict
from .ambient import LegOperator, TensorProductMul
from .globalize import (GlobalizationCandidate, _carrier, _require_shape, _translates,
                        maximal_degenerate_subbimodule, verify_globalization)
from .linalg import Tensor3, apply_cols, col_dicts, nullspace, rows_of_cols, rref, solve


def _product_rule(b):
    """The product rule of the globalization of the partial bimodule b,

        (h▷θ(a)◁k)(h'▷θ(b)◁k') = Σ h₁▷θ[(a↼k·S(k'₁))(S(h₂)h'⇀b)]◁k'₂,

    as a function of the basis triples (h, a, k), (h', b, k') returning the
    right-hand side as {(h₁, t, k'₂): c}, the coefficient of h₁▷θ(a_t)◁k'₂.
    The twisted factors a↼k·S(w₁) and S(h₂)h'⇀b are tabulated once, and
    each of their products in A is formed the first time it is read."""
    H, A = b.hopf, b.alg
    n, da = H.dim, A.dim
    one = H.field.one
    pvH = H.mul.pair_view()
    pvA = A.mul.pair_view()
    iv = H.comul.in1_view()
    empty = {}
    s_cols = col_dicts(H.antipode)
    right_fac, left_fac, fac_prods = {}, {}, {}
    for x in range(n):
        for y in range(n):
            kt = mul_dicts(pvH, {x: one}, s_cols[y])   # k·S(w₁) at (k, w₁) = (x, y)
            ht = mul_dicts(pvH, s_cols[x], {y: one})   # S(h₂)h' at (h₂, h') = (x, y)
            for m in range(da):
                right_fac[(x, y, m)] = b.right.apply(kt, {m: one})
                left_fac[(x, y, m)] = b.left.apply(ht, {m: one})

    def rule(h, m, k, hp, mb, kp):
        out = {}
        for (h1, h2), c1 in iv.get(h, empty).items():
            lf = left_fac[(h2, hp, mb)]
            if not lf:
                continue
            for (w1, w2), c2 in iv.get(kp, empty).items():
                rf = right_fac[(k, w1, m)]
                if not rf:
                    continue
                key = (k, w1, m, h2, hp, mb)
                prod = fac_prods.get(key)
                if prod is None:
                    prod = fac_prods[key] = mul_dicts(pvA, rf, lf)
                cc = c1 * c2
                for t, ct in prod.items():
                    dict_acc(out, (h1, t, w2), cc * ct)
        return out

    return rule


def _require_global_bimodule(algebra, hopf, left_cols, right_cols):
    """Raise unless the operator families make the (possibly non-unital)
    algebra a two-sided global module algebra: the Hopf unit acts as the
    identity, composition follows the Hopf product, the families commute,
    and products distribute through the comultiplication.

    The right family is a left one over H^op: its laws are the left laws
    with the two operators of a composition applied in the other order."""
    n = hopf.dim
    dB = algebra.dim
    f = hopf.field
    one = f.one
    pvB = algebra.mul.pair_view()
    pvH = hopf.mul.pair_view()
    iv = hopf.comul.in1_view()
    u_h = hopf.unit_dict()
    empty = {}
    # (side label, column maps, composition in H^op)
    families = (("left", left_cols, False), ("right", right_cols, True))

    def combine(terms, cols, x):
        """Σ c·cols[p] over the terms (p, c), applied to basis vector x."""
        out = {}
        for p, c in terms:
            for t, d in cols[p][x].items():
                dict_acc(out, t, c * d)
        return out

    for x in range(dB):
        for side, cols, _ in families:
            if combine(u_h.items(), cols, x) != {x: one}:
                raise ValueError("candidate fails the %s unit-operator law at basis %d"
                                 % (side, x))

    for g in range(n):
        for h in range(n):
            prod = pvH.get((g, h), empty)
            for x in range(dB):
                for side, cols, op in families:
                    outer, inner = (h, g) if op else (g, h)
                    lhs = apply_cols(cols[outer], cols[inner][x])
                    if lhs != combine(prod.items(), cols, x):
                        raise ValueError("candidate fails %s operator-composition "
                                         "at (%s, %s, basis %d)"
                                         % (side, hopf.basis[g], hopf.basis[h], x))

    for g in range(n):
        for k in range(n):
            for x in range(dB):
                if apply_cols(left_cols[g], right_cols[k][x]) != \
                        apply_cols(right_cols[k], left_cols[g][x]):
                    raise ValueError("candidate operator families do not commute "
                                     "at (%s, %s, basis %d)"
                                     % (hopf.basis[g], hopf.basis[k], x))

    for i in range(n):
        di = iv.get(i, empty)
        for x in range(dB):
            for y in range(dB):
                mxy = pvB.get((x, y), empty)
                for side, cols, _ in families:
                    lhs = apply_cols(cols[i], mxy)
                    rhs = {}
                    for (i1, i2), c in di.items():
                        for t, d in mul_dicts(pvB, cols[i1][x], cols[i2][y]).items():
                            dict_acc(rhs, t, c * d)
                    if lhs != rhs:
                        raise ValueError("candidate fails the %s operator product "
                                         "rule at (%s, %d, %d)"
                                         % (side, hopf.basis[i], x, y))


# ---------------------------------------------------------------------------
# comparison with the standard globalization

def comparison_map(candidate, std):
    """Linear map sending each operator translate h▷θ(a)◁k of the candidate
    to the matching translate of the standard globalization.

    Well-definedness is verified by mapping every linear relation among the
    candidate translates to the standard side; the map is then checked to be
    an algebra map commuting with both operator families and matching the
    embeddings.  Returns (pmap, surjective, injective): pmap[i] is the image
    of candidate basis element i, a column map; surjectivity is asserted since
    the standard side is spanned by its translates.  A candidate of the wrong
    shape raises ValueError.
    """
    H, A = std.hopf, std.coeff
    n, da = H.dim, A.dim
    f = H.field
    dC = candidate.algebra.dim
    dS = std.algebra.dim

    _require_shape(candidate, H, A)
    theta_c, left_c, right_c = candidate.theta, candidate.left_ops, candidate.right_ops
    theta_s, left_s, right_s = std.theta, std.left_ops, std.right_ops
    v_cols = list(_translates(n, left_c, right_c, theta_c))
    w_cols = list(_translates(n, left_s, right_s, theta_s))

    ncols = len(v_cols)
    for z in nullspace(rows_of_cols(v_cols).values(), f, ncols):
        if apply_cols(w_cols, z):
            raise ValueError("comparison map is ill-defined: the relation with "
                             "coefficients %r among the candidate translates "
                             "maps to a nonzero element"
                             % (vec_of_dict(z, ncols, f),))

    pmap = []
    for i in range(dC):
        x = solve(v_cols, {i: f.one}, f)
        if x is None:
            raise ValueError("candidate basis vector %d lies outside the span "
                             "of its operator translates" % i)
        pmap.append(apply_cols(w_cols, x))

    rank, _, _ = rref(pmap, f)
    surjective = rank == dS
    if not surjective:
        raise AssertionError("comparison map failed to reach the standard globalization")
    injective = rank == dC

    # the map must be multiplicative, operator-equivariant, and match the
    # embeddings; failures here would contradict well-definedness
    pvC = candidate.algebra.mul.pair_view()
    pvS = std.algebra.mul.pair_view()
    empty = {}
    for i in range(dC):
        for j in range(dC):
            lhs = apply_cols(pmap, pvC.get((i, j), empty))
            rhs = mul_dicts(pvS, pmap[i], pmap[j])
            if lhs != rhs:
                raise AssertionError("comparison map is not multiplicative at "
                                     "basis pair (%d, %d)" % (i, j))
    for g in range(n):
        for i in range(dC):
            if apply_cols(pmap, left_c[g][i]) != apply_cols(left_s[g], pmap[i]):
                raise AssertionError("comparison map does not commute with left "
                                     "operator %s" % H.basis[g])
            if apply_cols(pmap, right_c[g][i]) != apply_cols(right_s[g], pmap[i]):
                raise AssertionError("comparison map does not commute with right "
                                     "operator %s" % H.basis[g])
    for m in range(da):
        if apply_cols(pmap, theta_c[m]) != theta_s[m]:
            raise AssertionError("comparison map does not match the embeddings "
                                 "at basis %s" % A.basis[m])

    return pmap, surjective, injective


# ---------------------------------------------------------------------------
# minimality

def minimalize(candidate, bimodule=None):
    """Quotient a candidate globalization by its maximal degenerate invariant
    subspace, which must be a two-sided ideal (it is, for any verified
    candidate).  The quotient carries the induced product, operator families,
    and embedding.  When the partial bimodule is supplied, the quotient is
    re-verified and must come out minimal."""
    M = maximal_degenerate_subbimodule(candidate)
    if M.dim == 0:
        return candidate
    Bp = candidate.algebra
    f = Bp.field
    dB = Bp.dim
    pvB = Bp.mul.pair_view()

    for r in M.rows:
        for x in range(dB):
            if not M.contains(mul_dicts(pvB, {x: f.one}, r)) or \
               not M.contains(mul_dicts(pvB, r, {x: f.one})):
                raise ValueError("the degenerate subspace is not a two-sided "
                                 "ideal; the candidate cannot be minimalized")

    piv = set(M.pivots)
    keep = [c for c in range(dB) if c not in piv]

    def project(v):
        res = M.reduce(v)
        return [res.get(c, f.zero) for c in keep]

    out = _carrier(project, [{c: f.one} for c in keep], candidate, candidate.theta,
                   candidate.coeff, "q", "minimal quotient of %s" % Bp.name)
    if bimodule is not None:
        verify_globalization(out, bimodule).require("quotient candidate", AssertionError)
        if maximal_degenerate_subbimodule(out).dim != 0:
            raise AssertionError("quotient candidate is still not minimal")
    return out


# ---------------------------------------------------------------------------
# the free candidate on the full tensor space

def free_candidate_bimodule(b):
    """Candidate globalization on all of H⊗A⊗H: the embedding is
    a ↦ 1⊗a⊗1, the operator families multiply the outer legs, and the
    product twists through the antipode:

        (p⊗a⊗q)(p'⊗b⊗q') = Σ p₁ ⊗ (a↼q·S(q'₁))·(S(p₂)·p'⇀b) ⊗ q'₂.

    Every verification requirement except associativity of this product holds
    by construction; associativity depends on the instance, so the result is
    returned unverified — run verify_globalization to test it."""
    H, A = b.hopf, b.alg
    f = H.field
    layout = TensorProductMul((H.mul, A.mul, H.mul))  # tensor_hah's indices
    N, flat = layout.dims[2], layout.flat
    triples = list(map(layout.split, range(N)))
    rule = _product_rule(b)
    mul = Tensor3((N, N, N))
    for x, y in product(triples, repeat=2):
        for z, c in rule(*x, *y).items():
            mul.add(flat(x), flat(y), flat(z), c)

    theta = [dict_of_vec(layout.pure((H.unit, A.basis_vec(m), H.unit), f))
             for m in range(A.dim)]

    # left multiplication on the first leg, right multiplication on the last
    left_ops = [list(op) for op in LegOperator.family(layout, 0, H.mul)]
    right_ops = [list(op) for op in
                 LegOperator.family(layout, 2, H.mul.transpose((1, 0, 2)))]

    names = ["%s⊗%s⊗%s" % (H.basis[u], A.basis[m], H.basis[v]) for u, m, v in triples]
    alg = AlgebraData(f, names, mul, None,
                      name="twisted tensor candidate over %s" % A.name)
    return GlobalizationCandidate(alg, theta, left_ops, right_ops, A,
                                  name="twisted tensor candidate over %s" % A.name)
