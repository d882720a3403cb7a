"""Globalization of partial module-algebra and comodule-algebra structures.

A partial bimodule structure on A embeds into a global one: inside the
convolution algebra Hom(H⊗H, A), send a to the functional k⊗k' ↦ k⇀a↼k' and
take the span of its translates under both operator families.  That span is
an algebra on which both families act globally, and the embedding turns the
partial products into honest ones.  The dual picture embeds a partial
bicomodule structure into the three-fold tensor H⊗A⊗H.  This module builds
both constructions, certifies the defining conditions on every basis tuple
of the carrier (or by proof, see verify_globalization; phopf.candidates
holds the sweeps and the candidates from outside), and measures how far a
candidate is from minimal; `command` is the body of `phopf globalize`.
The ambients themselves are certified through their factors when they are
built (see algebras.hom_hh_a and algebras.tensor_hah).  Each is a three-leg
tensor product of its factors and multiplies through those legs
(ambient.TensorProductMul), so nothing here reads a stored table of its
n⁶(dim A)³ structure constants.  Each of their operators moves one leg
(ambient.LegOperator) and is read as column maps.  Every vector of ambient
length is a sparse dict: the translates and the closure go straight into
the sparse echelon basis of linalg.Subspace, and the bridge psi_map is an
index permutation.  Candidates hold column maps (see linalg.apply_cols);
only the documents write dense rows.

A candidate globalization is any object carrying `algebra` (an AlgebraData,
possibly without unit), `theta` (the embedding of A into it, one column per
basis element of A), `left_ops` / `right_ops` (one operator of dim B columns
per basis element of the acting Hopf algebra), and `coeff` (the coefficient
algebra A).  The standard constructions return richer objects that also
qualify as candidates.
"""

import json
import os
from itertools import islice, product

from .algebras import (DUAL, AlgebraData, Count, Report, _dual_structure, algebra_check,
                       dict_acc, hom_hh_a, hopf_check, mul_dicts, same_algebra, same_hopf,
                       tensor_hah)
from .actions import check_bimodule
from .linalg import (Subspace, apply_cols, closure_fixpoint, nullspace, restrict_ops,
                     restrict_product, rows_of_cols, rref, transport)


def _embed(cols, coords, d):
    """An embedding given by ambient columns, written in target coordinates."""
    return transport(coords, (1, len(cols), d),
                     ((0, m, col) for m, col in enumerate(cols)),
                     "embedding").columns()[0]


# ---------------------------------------------------------------------------
# certificates and candidate records
#
# Both standard constructions, and verify_globalization, certify through an
# algebras.Report: one law per condition, and the first offending tuple of
# basis labels as the index of its one failure.

def _first_failure(rep, law, cases):
    """Sweep `law` over the first case (index, lhs, rhs) whose two sides
    differ, its one failure; later cases are not evaluated."""
    rep.sweep(law, islice((case for case in cases if case[1] != case[2]), 1))


class GlobalizationCandidate:
    """A bare candidate record: algebra, embedding and the two operator
    families as column maps, and the coefficient algebra.  Nothing is
    checked here; run verify_globalization."""

    def __init__(self, algebra, theta, left_ops, right_ops, coeff, name=""):
        self.algebra = algebra
        self.theta = theta
        self.left_ops = left_ops
        self.right_ops = right_ops
        self.coeff = coeff
        self.name = name or ("candidate over %s" % coeff.name)

    def __repr__(self):
        return "GlobalizationCandidate(%s, dim %d)" % (self.name, self.algebra.dim)


class _StandardGlobalization:
    """What the two standard globalizations share: the carrier `algebra` on
    the rows of `b_basis` inside `ambient`, the ambient embedding `phi`, and
    the `certificate` Report."""

    @property
    def dim(self):
        return self.algebra.dim

    def to_json(self):
        show = self.hopf.field.show
        zero = show(self.hopf.field.zero)
        n = self.ambient.algebra.dim
        return {
            "ambient_dim": n,
            "phi": [[show(col[r]) if r in col else zero for col in self.phi]
                    for r in range(n)],
            "b_basis": [[show(row[j]) if j in row else zero for j in range(n)]
                        for row in self.b_basis.rows],
            "mul": self.algebra.mul.to_json(show),
            "certificate": self.certificate.to_json(),
        }

    def __repr__(self):
        return ("%s(%s on %s, dim %d)"
                % (type(self).__name__, self.hopf.name, self.coeff.name, self.dim))


class BimoduleGlobalization(_StandardGlobalization):
    """Standard globalization of a partial bimodule structure.

    ambient    — the Hom(H⊗H, A) bundle (algebra, left_ops, right_ops)
    phi        — the embedding of A in ambient coordinates, as column maps
    b_basis    — row-reduced span of the operator translates of the image
    algebra    — induced product on that span in span coordinates; the unit
                 is kept when the ambient unit lies in the span
    left_ops, right_ops — restricted operator families, as column maps
    theta      — the embedding written in span coordinates, as column maps
    certificate — the verify_globalization Report
    """

    def __init__(self, hopf, coeff, ambient, phi, b_basis, algebra,
                 left_ops, right_ops, theta, certificate=None):
        self.hopf = hopf
        self.coeff = coeff
        self.ambient = ambient
        self.phi = phi
        self.b_basis = b_basis
        self.algebra = algebra
        self.left_ops = left_ops
        self.right_ops = right_ops
        self.theta = theta
        self.certificate = certificate


class BicomoduleGlobalization(_StandardGlobalization):
    """Standard globalization of a partial bicomodule structure.

    ambient    — the H⊗A⊗H bundle (algebra, coactions, dual operator families)
    theta      — the embedding of A in ambient coordinates, as column maps
                 (also readable as `phi`, the name the bimodule side uses)
    b_basis    — the subspace generated from the image by the dual operators
                 and the product
    algebra    — induced product in span coordinates
    induced_rho, induced_lam — restrictions of the outer-leg coactions
    theta_b    — the embedding written in span coordinates, as column maps
    certificate — Report of the exchange condition
    """

    def __init__(self, hopf, coeff, ambient, theta, b_basis, algebra,
                 induced_rho, induced_lam, theta_b, certificate):
        self.hopf = hopf
        self.coeff = coeff
        self.ambient = ambient
        self.theta = theta
        self.b_basis = b_basis
        self.algebra = algebra
        self.induced_rho = induced_rho
        self.induced_lam = induced_lam
        self.theta_b = theta_b
        self.certificate = certificate

    @property
    def phi(self):
        return self.theta


# ---------------------------------------------------------------------------
# the standard bimodule globalization

def standard_globalize_bimodule(b):
    """Globalize a certified partial bimodule structure on A inside the
    convolution algebra Hom(H⊗H, A).

    The embedding sends a to the functional k⊗k' ↦ k⇀a↼k'; the returned
    object carries the span of all operator translates of the image with its
    induced product, both restricted operator families, and a certificate
    from verify_globalization (construction fails if any check does), which
    records the carrier's global laws by their proof (below).
    """
    check_bimodule(b).require("input bimodule")
    H, A = b.hopf, b.alg
    n, da = H.dim, A.dim
    f = H.field
    one = f.one
    amb = hom_hh_a(H, A)
    big = amb.algebra.dim

    # the embedding, one ambient column per basis element of A
    phi = []
    for m in range(da):
        col = {}
        for i in range(n):
            w = b.left.apply({i: one}, {m: one})
            for j in range(n):
                for t, c in b.right.apply({j: one}, w).items():
                    col[amb.index(i, j, t)] = c
        phi.append(col)

    span = Subspace(big, f, _translates(n, amb.left_ops, amb.right_ops, phi))
    dB = span.dim

    mul = restrict_product(span.coords, span.rows, amb.algebra.mul_dict)
    left_ops = restrict_ops(span.coords, span.rows, amb.left_ops,
                            "left operator family").columns()
    right_ops = restrict_ops(span.coords, span.rows, amb.right_ops,
                             "right operator family").columns()
    theta = _embed(phi, span.coords, dB)
    unit_b = span.coords(amb.algebra.unit_dict())
    alg_b = AlgebraData(f, ["b%d" % i for i in range(dB)], mul, unit_b,
                        name="globalization of %s" % A.name)

    glob = BimoduleGlobalization(H, A, amb, phi, span, alg_b,
                                 left_ops, right_ops, theta)
    # When H passes hopf_check, the certified Hom(H⊗H, A) is a global
    # bimodule algebra over H: (h▷F)(k⊗k') = F(kh⊗k') and (F◁h)(k⊗k') =
    # F(k⊗hk') compose by the product of H, move different legs and
    # distribute over convolution as Δ is multiplicative.  The restrictions
    # succeeded, so the carrier's families obey the same laws.
    glob.certificate = _verify(glob, b, hopf_check(H).passed).require(
        "standard globalization", AssertionError)
    return glob


# ---------------------------------------------------------------------------
# verification

def _require_shape(candidate, hopf, coeff):
    """Raise ValueError naming the first mismatch unless each family has one
    operator per Hopf basis element, θ one column per basis element of A,
    each operator one column per candidate basis element, and every column
    key is a candidate basis index."""
    dB = candidate.algebra.dim
    families = (("left", candidate.left_ops), ("right", candidate.right_ops))
    if any(len(ops) != hopf.dim for _, ops in families):
        raise ValueError("need one operator per Hopf basis element on each side")
    named = [("the embedding", candidate.theta, "the coefficient algebra", coeff.dim)] + [
        ("the %s operator %s" % (side, hopf.basis[g]), op, "the candidate", dB)
        for side, ops in families for g, op in enumerate(ops)]
    for what, cols, per, width in named:
        if len(cols) != width:
            raise ValueError("%s has %d columns, not one per basis element of %s (%d)"
                             % (what, len(cols), per, width))
        for j, col in enumerate(cols):
            for k in col:
                if k not in range(dB):
                    raise ValueError("%s has row %r in column %d, outside a candidate "
                                     "of dimension %d" % (what, k, j, dB))


def _translates(n, left_cols, right_cols, theta_cols):
    """The operator translates h▷θ(a)◁k in (h, a, k) order, one at a time."""
    return (apply_cols(left_cols[h], apply_cols(right_cols[k], theta_cols[m]))
            for h in range(n) for m in range(len(theta_cols)) for k in range(n))


def verify_globalization(candidate, b):
    """Certify a candidate globalization of the partial bimodule b.

    Structural faults raise ValueError: a non-associative candidate algebra,
    a candidate of the wrong shape (see _require_shape), operator families
    that are not a two-sided global module-algebra structure (swept here,
    on a candidate from outside), or a non-injective embedding.  Everything
    else is reported in
    the returned Report, whose laws are, in order: condition1 compares
    (θ(a)◁h)(g▷θ(b)) with θ[(a↼h)(g⇀b)] on all basis tuples; condition2
    checks that the operator translates h▷θ(a)◁k span the whole candidate
    (its index is (span dim, candidate dim)); lemaco1 … lemaco4 are the
    derived identities, the general product rule
        (h▷θ(a)◁k)(h'▷θ(b)◁k') = Σ h₁▷θ[(a↼k·S(k'₁))(S(h₂)h'⇀b)]◁k'₂
    and absorption θ(1)(h▷θ(a)) = θ(h⇀a), (θ(a)◁h)θ(1) = θ(a↼h),
    θ(1)(h▷θ(a)◁k)θ(1) = θ(h⇀a↼k).  lemaco1 is recorded by its proof from
    condition1 when that holds and H passes hopf_check, and swept on all
    basis tuples otherwise.  Each law records at most one failure, indexed
    by the first offending tuple of basis labels.
    """
    return _verify(candidate, b, False)


def _verify(candidate, b, global_laws_proved):
    """verify_globalization, sweeping the global laws unless proved."""
    H, A = b.hopf, b.alg
    n, da = H.dim, A.dim
    f = H.field
    one = f.one
    Bp = candidate.algebra
    dB = Bp.dim

    algebra_check(Bp).require("candidate algebra")

    _require_shape(candidate, H, A)
    theta_d, left_cols, right_cols = candidate.theta, candidate.left_ops, candidate.right_ops
    if not global_laws_proved:
        from .candidates import _require_global_bimodule
        _require_global_bimodule(Bp, H, left_cols, right_cols)

    rank, _, _ = rref(theta_d, f)
    if rank != da:
        raise ValueError("embedding is not injective (rank %d of %d)" % (rank, da))

    pvB = Bp.mul.pair_view()
    pvA = A.mul.pair_view()
    cert = Report(Bp.name, f)
    translates = list(_translates(n, left_cols, right_cols, theta_d))

    def tr(h, m, k):
        return translates[(h * da + m) * n + k]

    def condition1():
        for h in range(n):
            for m in range(da):
                lhs_left = apply_cols(right_cols[h], theta_d[m])
                a_part = b.right.apply({h: one}, {m: one})
                for g in range(n):
                    for mb in range(da):
                        yield ((H.basis[h], A.basis[m], H.basis[g], A.basis[mb]),
                               mul_dicts(pvB, lhs_left,
                                         apply_cols(left_cols[g], theta_d[mb])),
                               apply_cols(theta_d, mul_dicts(
                                   pvA, a_part, b.left.apply({g: one}, {mb: one}))))

    _first_failure(cert, "condition1", condition1())
    span = Subspace(dB, f, translates)
    _first_failure(cert, "condition2", [((span.dim, dB), Count(span.dim), Count(dB))])

    def lemaco1():
        from .candidates import _product_rule
        rule = _product_rule(b)
        for h, m, k, hp, mb, kp in product(range(n), range(da), range(n),
                                           range(n), range(da), range(n)):
            rhs = {}
            for key, c in rule(h, m, k, hp, mb, kp).items():
                for i, d in tr(*key).items():
                    dict_acc(rhs, i, c * d)
            yield ((H.basis[h], A.basis[m], H.basis[k],
                    H.basis[hp], A.basis[mb], H.basis[kp]),
                   mul_dicts(pvB, tr(h, m, k), tr(hp, mb, kp)), rhs)

    theta1 = apply_cols(theta_d, A.unit_dict())
    # lemaco1 follows from condition1 when H is a Hopf algebra, for the
    # candidate is then a global bimodule algebra over H (checked above).
    # Write X = h▷θ(a)◁k, Y = h'▷θ(b)◁k'.  The right product rule and the
    # antipode give U(Z◁k') = ((U◁S(k'₁))Z)◁k'₂, and the left ones give
    # (h▷W)Z = h₁▷(W(S(h₂)▷Z)), so
    #   XY = h₁▷[(θ(a)◁k·S(k'₁))(S(h₂)h'▷θ(b))]◁k'₂
    # by coassociativity and the composition laws.  condition1, extended
    # bilinearly in its two Hopf arguments, turns the bracket into
    # θ[(a↼k·S(k'₁))(S(h₂)h'⇀b)], which is _product_rule.  So the n⁴·(dim A)²
    # tuples are swept, with their witness, only when a premise fails.
    _first_failure(cert, "lemaco1", lemaco1() if cert.failures_for("condition1")
                   or not hopf_check(H).passed else ())
    _first_failure(cert, "lemaco2", (
        ((H.basis[h], A.basis[m]),
         mul_dicts(pvB, theta1, apply_cols(left_cols[h], theta_d[m])),
         apply_cols(theta_d, b.left.apply({h: one}, {m: one})))
        for h in range(n) for m in range(da)))
    _first_failure(cert, "lemaco3", (
        ((H.basis[h], A.basis[m]),
         mul_dicts(pvB, apply_cols(right_cols[h], theta_d[m]), theta1),
         apply_cols(theta_d, b.right.apply({h: one}, {m: one})))
        for h in range(n) for m in range(da)))
    _first_failure(cert, "lemaco4", (
        ((H.basis[h], A.basis[m], H.basis[k]),
         mul_dicts(pvB, theta1, mul_dicts(pvB, tr(h, m, k), theta1)),
         apply_cols(theta_d, b.right.apply({k: one}, b.left.apply({h: one}, {m: one}))))
        for h in range(n) for m in range(da) for k in range(n)))
    return cert


# ---------------------------------------------------------------------------
# minimality

def maximal_degenerate_subbimodule(candidate):
    """Largest subspace M of the candidate with θ(1)·M·θ(1) = 0 that is
    invariant under both operator families; the candidate is minimal exactly
    when the result is zero.

    Computed as a decreasing fixpoint: start from the kernel of
    m ↦ θ(1)·m·θ(1) and repeatedly cut down to the members whose operator
    images all stay inside, until stable.
    """
    Bp = candidate.algebra
    f = Bp.field
    dB = Bp.dim
    theta1 = apply_cols(candidate.theta, candidate.coeff.unit_dict())
    pvB = Bp.mul.pair_view()

    squeeze = [mul_dicts(pvB, mul_dicts(pvB, theta1, {j: f.one}), theta1)
               for j in range(dB)]
    cur = Subspace(dB, f, nullspace(rows_of_cols(squeeze).values(), f, dB))

    # a constraint row c maps to c·op, the combination of op's rows
    op_rows = [[rows.get(i, {}) for i in range(dB)] for rows in map(
        rows_of_cols, list(candidate.left_ops) + list(candidate.right_ops))]
    for _ in range(dB + 1):
        cons = cur.constraint_matrix()
        if not cons:
            return cur
        stacked = cons + [apply_cols(rows, crow) for rows in op_rows for crow in cons]
        nxt = Subspace(dB, f, nullspace(stacked, f, dB))
        if nxt.dim == cur.dim:
            return nxt
        cur = nxt
    raise RuntimeError("degenerate-subspace fixpoint did not stabilize")


# ---------------------------------------------------------------------------
# the standard bicomodule globalization

def standard_globalize_bicomodule(b):
    """Globalize a certified partial bicomodule structure on A inside the
    three-fold tensor H⊗A⊗H with componentwise product and outer-leg
    comultiplications as coactions.

    The embedding is the composite coaction (λ⊗I)ρ, which equals (I⊗ρ)λ by
    the compatibility law certified on entry; the carrier is generated from
    the image by the two dual-basis operator families together with the
    product, computed as one combined fixpoint (the tests compare it with
    a staged closure).  The coactions are restricted to the carrier, where
    they form a global two-sided comodule algebra: by its proof (below)
    when H passes hopf_check, and otherwise by a sweep that raises
    ValueError.  The certificate is a Report of one law, `exchange`: the
    condition
        (λ(θ(a))⊗1)(1⊗ρ(θ(b))) = (I⊗θ⊗I)[(λ̄(a)⊗1)(1⊗ρ̄(b))]
    on all basis pairs, whose first failure is indexed by the pair of basis
    labels.  The construction raises if the certificate fails.
    """
    from .coactions import _exchange_products, _restrict_coaction, check_bicomodule
    check_bicomodule(b).require("input bicomodule")
    H, A = b.hopf, b.alg
    da = A.dim
    f = H.field
    amb = tensor_hah(H, A)
    N = amb.algebra.dim

    rho_of = b.right.map.in1_view()
    lam_of = b.left.map.in1_view()
    empty = {}

    theta_d = []
    for i in range(da):
        col = {}
        for (j, k), c in rho_of.get(i, empty).items():
            for (p, q), c2 in lam_of.get(j, empty).items():
                dict_acc(col, amb.index(p, q, k), c * c2)
        theta_d.append(col)

    seed = Subspace(N, f, theta_d)
    if seed.dim != da:
        raise ValueError("composite embedding is not injective (rank %d of %d)"
                         % (seed.dim, da))

    span = closure_fixpoint(seed, amb.dual_left_ops + amb.dual_right_ops,
                            [amb.algebra.mul])
    dB = span.dim

    mul = restrict_product(span.coords, span.rows, amb.algebra.mul_dict)
    induced_rho = _restrict_coaction(amb.dual_left_ops, "right", span, lambda a: a)
    induced_lam = _restrict_coaction(amb.dual_right_ops, "left", span, lambda a: a)
    unit_b = span.coords(amb.algebra.unit_dict())
    alg_b = AlgebraData(f, ["b%d" % i for i in range(dB)], mul, unit_b,
                        name="globalization of %s" % A.name)
    # When H passes hopf_check, the certified H⊗A⊗H is a global bicomodule
    # algebra under Δ on its outer legs (counit, coassociative, different
    # legs, multiplicative), and the restrictions succeeded.  Otherwise the
    # laws are swept as those of the dual operator families.
    if not hopf_check(H).passed:
        from .candidates import _require_global_bimodule
        _require_global_bimodule(alg_b, _dual_structure(H),
                                 induced_rho.transpose(DUAL["right"][0]).columns(),
                                 induced_lam.transpose(DUAL["left"][0]).columns())

    # the exchange condition, in ambient coordinates: compare the five-leg
    # products of the ambient coactions of embedded elements with the image
    # of the partial-coaction product.  The products run over the factor
    # legs (H, H, A, H, H), the ambient's three legs between the outer H's.
    pv_a = A.mul.pair_view()
    amb_mul = amb.algebra.mul
    split = amb_mul.split

    def coact(ops, col, key):
        # Σ_g (op_g applied to col) keyed by key(g, y), summed in the order
        # column index x, then g, then y
        out = {}
        for x, c in col.items():
            for g, op in enumerate(ops):
                for y, d in op[x].items():
                    dict_acc(out, key(g, y), c * d)
        return out

    def exchange():
        lams = [coact(amb.dual_right_ops, col, lambda g, y: (g,) + split(y))
                for col in theta_d]
        rhos = [coact(amb.dual_left_ops, col, lambda g, y: split(y) + (g,))
                for col in theta_d]
        for (i, j), prod in _exchange_products(H, amb_mul.legs, lams, rhos):
            lhs = {(p, amb_mul.flat(key), q): c for (p, *key, q), c in prod.items()}
            rhs = {}
            for (p, q), c1 in lam_of.get(i, empty).items():
                for (u, v), c2 in rho_of.get(j, empty).items():
                    cc = c1 * c2
                    for t, ct in pv_a.get((q, u), empty).items():
                        for x, cx in theta_d[t].items():
                            dict_acc(rhs, (p, x, v), cc * ct * cx)
            yield (A.basis[i], A.basis[j]), lhs, rhs

    cert = Report(alg_b.name, f)
    _first_failure(cert, "exchange", exchange())
    theta_b = _embed(theta_d, span.coords, dB)
    return BicomoduleGlobalization(H, A, amb, theta_d, span, alg_b, induced_rho,
                                   induced_lam, theta_b,
                                   cert.require("standard globalization", AssertionError))


# ---------------------------------------------------------------------------
# the bridge between the two standard globalizations

def psi_map(hopf, coeff, bicomodule_glob, bimodule_glob):
    """Match the two standard globalizations of one partial bicomodule
    structure: the index permutation

        h_u ⊗ a ⊗ h_v  ↦  (functional sending f⊗g to g(h_u)·a·f(h_v))

    maps the three-fold tensor onto the convolution algebra over the dual
    Hopf algebra.  Verifies that it is injective, an algebra map, that it
    intertwines both dual operator families, that it matches the two
    embeddings exactly, and that it restricts to an isomorphism between the
    two generated carriers.  The algebra-map property is read off the legs
    of the two ambient products (see ambient.TensorProductMul).  The
    comodule side must be taken over `hopf` and the module side over exactly
    its dual structure constants, equalities that need no Hopf certificate.
    Returns (perm, intertwines, restricted_iso): perm[x] is the index that
    basis element x of the three-fold tensor maps to."""
    H, A = hopf, coeff
    f = H.field
    bg, std = bicomodule_glob, bimodule_glob
    if not same_hopf(bg.hopf, H):
        raise ValueError("the comodule-side globalization must be taken over "
                         "the Hopf algebra")
    if not same_hopf(std.hopf, _dual_structure(H)):
        raise ValueError("the module-side globalization must be taken over "
                         "the dual Hopf algebra")
    if not same_algebra(std.coeff, A) or not same_algebra(bg.coeff, A):
        raise ValueError("the two globalizations must share the coefficient algebra")
    amb_x = bg.ambient
    amb_k = std.ambient
    N = amb_x.algebra.dim
    if amb_k.algebra.dim != N:
        raise ValueError("ambient dimensions disagree (%d vs %d)"
                         % (N, amb_k.algebra.dim))

    mul_x, mul_k = amb_x.algebra.mul, amb_k.algebra.mul
    perm = [mul_k.flat((v, u, m)) for u, m, v in map(mul_x.split, range(N))]
    if len(set(perm)) != N:
        raise AssertionError("index permutation is not a bijection")

    def push(d):
        return {perm[x]: c for x, c in d.items()}

    # Both products are leg products: (μ_H, μ_A, μ_H) over (u, m, v) and
    # (Δᵀ, Δᵀ, μ_A) over (v, u, m), with Δᵀ the product of H*.  Equal legs
    # under the permutation make it an algebra map; the checks above make
    # them equal for ambients built by tensor_hah and hom_hh_a.
    if mul_k.legs != (mul_x.legs[2], mul_x.legs[0], mul_x.legs[1]):
        raise AssertionError("the permutation is not an algebra map: the "
                             "ambient legs differ")
    if push(amb_x.algebra.unit_dict()) != amb_k.algebra.unit_dict():
        raise AssertionError("the permutation does not match the units")

    # Every operator of both families moves one leg.  The permutation
    # carries leg 2 of X onto leg 0 of K and leg 0 of X onto leg 1 of K, so
    # it intertwines two operators exactly when their leg matrices agree.
    def same_legs(xs, x_leg, ks, k_leg):
        return len(xs) == len(ks) and all(
            x.leg == x_leg and k.leg == k_leg and x.cols == k.cols
            for x, k in zip(xs, ks))

    intertwines = (same_legs(amb_x.dual_left_ops, 2, amb_k.left_ops, 0)
                   and same_legs(amb_x.dual_right_ops, 0, amb_k.right_ops, 1))

    for m, (x_col, k_col) in enumerate(zip(bg.theta, std.phi)):
        if push(x_col) != k_col:
            raise AssertionError("the permutation does not match the embeddings "
                                 "at basis %s" % A.basis[m])

    image = Subspace(N, f, map(push, bg.b_basis.rows))
    restricted_iso = (image.dim == bg.b_basis.dim and image == std.b_basis)

    return perm, intertwines, restricted_iso


def command(args, fmt):
    """The body of `phopf globalize` (see phopf.cli)."""
    from .serialize import load_bicomodule, load_bimodule, write_document
    psi_flags = None
    if args.kind == "bimodule":
        b = load_bimodule(args.file)
        g = g_for_mstar = standard_globalize_bimodule(b)
    else:
        from .coactions import bicomodule_to_bimodule
        b = load_bicomodule(args.file)
        g = standard_globalize_bicomodule(b)
        g_for_mstar = standard_globalize_bimodule(bicomodule_to_bimodule(b))
        # psi_map raises unless its index permutation is a bijection
        _, intertwines, restricted = psi_map(b.hopf, b.alg, g, g_for_mstar)
        psi_flags = {"monomorphism": True,
                     "intertwines_dual_actions": intertwines,
                     "restricts_to_isomorphism": restricted}
    mstar_dim = maximal_degenerate_subbimodule(g_for_mstar).dim
    doc = g.to_json()
    doc["degenerate_dim"] = mstar_dim
    if psi_flags is not None:
        doc["psi"] = psi_flags
    os.makedirs(args.out, exist_ok=True)
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
