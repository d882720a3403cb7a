"""Globalization of partial module-algebra and comodule-algebra structures.

A partial bimodule structure on A embeds into a global one: inside the
convolution algebra Hom(H⊗H, A), send a to the functional k⊗k' ↦ k⇀a↼k' and
take the span of its translates under both operator families.  That span is
an algebra on which both families act globally, and the embedding turns the
partial products into honest ones.  The dual picture embeds a partial
bicomodule structure into the three-fold tensor H⊗A⊗H.  This module builds
both constructions, certifies the defining conditions on every basis tuple
of the carrier, compares arbitrary candidates against the standard one, and
measures how far a candidate is from minimal.  The ambients themselves are
certified through their factors when they are built (see
algebras.hom_hh_a and algebras.tensor_hah); their operator families are
sparse column maps, while candidates carry dense matrices.

A candidate globalization is any object carrying `algebra` (an AlgebraData,
possibly without unit), `theta` (matrix of the embedding of A into it),
`left_ops` / `right_ops` (one square matrix per basis element of the acting
Hopf algebra), and `coeff` (the coefficient algebra A).  The standard
constructions return richer objects that also qualify as candidates.
"""

from itertools import product

from .algebras import (AlgebraData, Report, algebra_check, dict_acc,
                       dict_of_vec, dual_hopf, hom_hh_a, mul_dicts, t3_mul,
                       tensor_hah, vec_of_dict)
from .actions import check_bimodule, same_algebra, same_hopf
from .coactions import _restrict_coaction, check_bicomodule
from .linalg import (Subspace, Tensor3, apply_cols, closure_fixpoint,
                     col_dicts, mat_transpose, nullspace, restrict_product,
                     rref, solve, subspace_span, transport, unit_vec, zeros)


def _restrict_ops(ops, sections, coords, field, what):
    """An operator family (column maps) restricted to a subspace or a
    quotient with basis `sections`: one dense matrix per operator."""
    d = len(sections)
    t = transport(coords, (len(ops), d, d),
                  ((g, j, vec_of_dict(apply_cols(op, dict_of_vec(s)), len(op), field))
                   for g, op in enumerate(ops) for j, s in enumerate(sections)),
                  what)
    return [t.slice_matrix(g, field.zero) for g in range(len(ops))]


def _embed(cols, coords, d, zero):
    """An embedding given by ambient columns, written in target coordinates."""
    return transport(coords, (1, len(cols), d),
                     ((0, m, col) for m, col in enumerate(cols)),
                     "embedding").slice_matrix(0, zero)


# ---------------------------------------------------------------------------
# certificates and candidate records
#
# Both standard constructions, and verify_globalization, certify through an
# algebras.Report: one law per condition, and the first offending tuple of
# basis labels as the index of its one failure.

def _first_failure(rep, law, cases):
    """Add `law` to the report and record the first case (index, lhs, rhs)
    whose two sides differ as its failure; later cases are not evaluated."""
    rep.law(law)
    for idx, lhs, rhs in cases:
        if lhs != rhs:
            rep.fail(law, idx, lhs, rhs)
            return


class GlobalizationCandidate:
    """A bare candidate record: algebra, embedding matrix, the two operator
    families, and the coefficient algebra.  Nothing is checked here; run
    verify_globalization."""

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
        return {
            "ambient_dim": self.ambient.algebra.dim,
            "phi": [[show(c) for c in row] for row in self.phi],
            "b_basis": [[show(c) for c in row] for row in self.b_basis.rows],
            "mul": [[i, j, k, show(c)]
                    for (i, j, k), c in sorted(self.algebra.mul.entries.items())],
            "certificate": self.certificate.to_json(),
        }

    def __repr__(self):
        return ("%s(%s on %s, dim %d)"
                % (type(self).__name__, self.hopf.name, self.coeff.name, self.dim))


class BimoduleGlobalization(_StandardGlobalization):
    """Standard globalization of a partial bimodule structure.

    ambient    — the Hom(H⊗H, A) bundle (algebra, left_ops, right_ops)
    phi        — matrix of the embedding of A in ambient coordinates
    b_basis    — row-reduced span of the operator translates of the image
    algebra    — induced product on that span in span coordinates; the unit
                 is kept when the ambient unit lies in the span
    left_ops, right_ops — operator families restricted to the span
    theta      — the embedding written in span coordinates
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
    theta      — matrix of the embedding of A in ambient coordinates (also
                 readable as `phi`, the name the bimodule side uses)
    b_basis    — the subspace generated from the image by the dual operators
                 and the product
    algebra    — induced product in span coordinates
    induced_rho, induced_lam — restrictions of the outer-leg coactions
    theta_b    — the embedding written in span coordinates
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
    from verify_globalization (construction fails if any check does).
    """
    rep = check_bimodule(b)
    if not rep.passed:
        law, idx, _, _ = rep.failures[0]
        raise ValueError("input bimodule fails %s at %s" % (law, idx))
    H, A = b.hopf, b.alg
    n, da = H.dim, A.dim
    f = H.field
    one = f.one
    amb = hom_hh_a(H, A)
    big = amb.algebra.dim

    # the embedding, one ambient column per basis element of A
    phi = [[f.zero] * da for _ in range(big)]
    for m in range(da):
        for i in range(n):
            w = b.left.apply({i: one}, {m: one})
            for j in range(n):
                val = b.right.apply({j: one}, w)
                for t, c in val.items():
                    phi[amb.index(i, j, t)][m] = c
    phi_cols = [[phi[r][m] for r in range(big)] for m in range(da)]
    phi_d = [dict_of_vec(col) for col in phi_cols]

    # spanning translates in lexicographic (left, coefficient, right) order
    cols = []
    for h in range(n):
        lop = amb.left_ops[h]
        for m in range(da):
            for k in range(n):
                w = apply_cols(lop, apply_cols(amb.right_ops[k], phi_d[m]))
                cols.append(vec_of_dict(w, big, f))
    span = Subspace(big, f, cols)
    dB = span.dim

    mul = restrict_product(span.coords, span.rows, amb.algebra.mulvec)
    left_ops = _restrict_ops(amb.left_ops, span.rows, span.coords, f,
                             "left operator family")
    right_ops = _restrict_ops(amb.right_ops, span.rows, span.coords, f,
                              "right operator family")
    theta = _embed(phi_cols, span.coords, dB, f.zero)
    unit_b = span.coords(amb.algebra.unit)
    alg_b = AlgebraData(f, ["b%d" % i for i in range(dB)], mul, unit_b,
                        name="globalization of %s" % A.name)

    glob = BimoduleGlobalization(H, A, amb, phi, span, alg_b,
                                 left_ops, right_ops, theta)
    glob.certificate = _require_passed(verify_globalization(glob, b),
                                       "standard globalization")
    return glob


# ---------------------------------------------------------------------------
# verification

def _require_passed(cert, what):
    """Return a passing certificate; raise at the first failure otherwise."""
    if not cert.passed:
        law, idx, _, _ = cert.failures[0]
        raise AssertionError("%s fails its certificate: %s at %s"
                             % (what, law, idx))
    return cert


def _require_global_bimodule(algebra, hopf, left_cols, right_cols):
    """Raise unless the operator families make the (possibly non-unital)
    algebra a two-sided global module algebra: the Hopf unit acts as the
    identity, composition follows the Hopf product, the families commute,
    and products distribute through the comultiplication."""
    n = hopf.dim
    dB = algebra.dim
    f = hopf.field
    one = f.one
    pvB = algebra.mul.pair_view()
    pvH = hopf.mul.pair_view()
    iv = hopf.comul.in1_view()
    u_h = dict_of_vec(hopf.unit)
    empty = {}

    for x in range(dB):
        for cols, side in ((left_cols, "left"), (right_cols, "right")):
            acc = {}
            for i, c in u_h.items():
                for t, d in cols[i][x].items():
                    dict_acc(acc, t, c * d)
            if acc != {x: one}:
                raise ValueError("candidate fails the %s unit-operator law at basis %d"
                                 % (side, x))

    for g in range(n):
        for h in range(n):
            prod = pvH.get((g, h), empty)
            for x in range(dB):
                lhs = apply_cols(left_cols[g], left_cols[h][x])
                rhs = {}
                for p, c in prod.items():
                    for t, d in left_cols[p][x].items():
                        dict_acc(rhs, t, c * d)
                if lhs != rhs:
                    raise ValueError("candidate fails left operator-composition "
                                     "at (%s, %s, basis %d)"
                                     % (hopf.basis[g], hopf.basis[h], x))
                lhs = apply_cols(right_cols[h], right_cols[g][x])
                rhs = {}
                for p, c in prod.items():
                    for t, d in right_cols[p][x].items():
                        dict_acc(rhs, t, c * d)
                if lhs != rhs:
                    raise ValueError("candidate fails right operator-composition "
                                     "at (%s, %s, basis %d)"
                                     % (hopf.basis[g], hopf.basis[h], x))

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
                lhs = apply_cols(left_cols[i], mxy)
                rhs = {}
                for (i1, i2), c in di.items():
                    term = mul_dicts(pvB, left_cols[i1][x], left_cols[i2][y])
                    for t, d in term.items():
                        dict_acc(rhs, t, c * d)
                if lhs != rhs:
                    raise ValueError("candidate fails the left operator product "
                                     "rule at (%s, %d, %d)" % (hopf.basis[i], x, y))
                lhs = apply_cols(right_cols[i], mxy)
                rhs = {}
                for (i1, i2), c in di.items():
                    term = mul_dicts(pvB, right_cols[i1][x], right_cols[i2][y])
                    for t, d in term.items():
                        dict_acc(rhs, t, c * d)
                if lhs != rhs:
                    raise ValueError("candidate fails the right operator product "
                                     "rule at (%s, %d, %d)" % (hopf.basis[i], x, y))


def verify_globalization(candidate, b):
    """Certify a candidate globalization of the partial bimodule b.

    Structural faults raise ValueError: a non-associative candidate algebra,
    operator families that are not a two-sided global module-algebra
    structure, or a non-injective embedding.  Everything else is reported in
    the returned Report, whose laws are, in order: condition1 compares
    (θ(a)◁h)(g▷θ(b)) with θ[(a↼h)(g⇀b)] on all basis tuples; condition2
    checks that the operator translates h▷θ(a)◁k span the whole candidate
    (its index is (span dim, candidate dim)); lemaco1 … lemaco4 are the
    derived identities, the general product rule
        (h▷θ(a)◁k)(h'▷θ(b)◁k') = Σ h₁▷θ[(a↼k·S(k'₁))(S(h₂)h'⇀b)]◁k'₂
    and absorption θ(1)(h▷θ(a)) = θ(h⇀a), (θ(a)◁h)θ(1) = θ(a↼h),
    θ(1)(h▷θ(a)◁k)θ(1) = θ(h⇀a↼k).  Each law records at most one failure,
    indexed by the first offending tuple of basis labels.
    """
    H, A = b.hopf, b.alg
    n, da = H.dim, A.dim
    f = H.field
    one = f.one
    Bp = candidate.algebra
    dB = Bp.dim

    rep = algebra_check(Bp)
    if not rep.passed:
        law, idx, _, _ = rep.failures[0]
        raise ValueError("candidate algebra fails %s at %s" % (law, idx))

    left_cols = [col_dicts(op) for op in candidate.left_ops]
    right_cols = [col_dicts(op) for op in candidate.right_ops]
    if len(left_cols) != n or len(right_cols) != n:
        raise ValueError("need one operator per Hopf basis element on each side")
    _require_global_bimodule(Bp, H, left_cols, right_cols)

    theta_d = [dict_of_vec([candidate.theta[r][m] for r in range(dB)])
               for m in range(da)]
    rank, _, _ = rref([vec_of_dict(d, dB, f) for d in theta_d], f)
    if rank != da:
        raise ValueError("embedding is not injective (rank %d of %d)" % (rank, da))

    def theta_of(dct):
        out = {}
        for m, c in dct.items():
            for i, d in theta_d[m].items():
                dict_acc(out, i, c * d)
        return out

    pvB = Bp.mul.pair_view()
    pvA = A.mul.pair_view()
    pvH = H.mul.pair_view()
    iv = H.comul.in1_view()
    s_cols = [dict_of_vec([H.antipode[r][j] for r in range(n)]) for j in range(n)]
    cert = Report(Bp.name)

    # the operator translates h▷θ(a)◁k, built once in (h, a, k) order
    translates = [apply_cols(left_cols[h], apply_cols(right_cols[k], theta_d[m]))
                  for h in range(n) for m in range(da) for k in range(n)]

    def tr(h, m, k):
        return translates[(h * da + m) * n + k]

    def tr_of(h, dct, k):
        """h▷θ(x)◁k for x given by its coordinates dct."""
        out = {}
        for m, c in dct.items():
            for i, d in tr(h, m, k).items():
                dict_acc(out, i, c * d)
        return out

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
                               theta_of(mul_dicts(pvA, a_part,
                                                  b.left.apply({g: one}, {mb: one}))))

    _first_failure(cert, "condition1", condition1())
    span = Subspace(dB, f, [vec_of_dict(w, dB, f) for w in translates])
    _first_failure(cert, "condition2", [((span.dim, dB), span.dim, dB)])

    right_fac = {}
    for k in range(n):
        for w1 in range(n):
            kt = mul_dicts(pvH, {k: one}, s_cols[w1])
            for m in range(da):
                right_fac[(k, w1, m)] = b.right.apply(kt, {m: one})
    left_fac = {}
    for h2 in range(n):
        for hp in range(n):
            ht = mul_dicts(pvH, s_cols[h2], {hp: one})
            for m in range(da):
                left_fac[(h2, hp, m)] = b.left.apply(ht, {m: one})

    def lemaco1():
        for h, m, k, hp, mb, kp in product(range(n), range(da), range(n),
                                           range(n), range(da), range(n)):
            rhs = {}
            for (h1, h2), c1 in iv.get(h, {}).items():
                for (w1, w2), c2 in iv.get(kp, {}).items():
                    prod = mul_dicts(pvA, right_fac[(k, w1, m)],
                                     left_fac[(h2, hp, mb)])
                    if prod:
                        cc = c1 * c2
                        for t, d in tr_of(h1, prod, w2).items():
                            dict_acc(rhs, t, cc * d)
            yield ((H.basis[h], A.basis[m], H.basis[k],
                    H.basis[hp], A.basis[mb], H.basis[kp]),
                   mul_dicts(pvB, tr(h, m, k), tr(hp, mb, kp)), rhs)

    theta1 = theta_of(dict_of_vec(A.unit))
    _first_failure(cert, "lemaco1", lemaco1())
    _first_failure(cert, "lemaco2", (
        ((H.basis[h], A.basis[m]),
         mul_dicts(pvB, theta1, apply_cols(left_cols[h], theta_d[m])),
         theta_of(b.left.apply({h: one}, {m: one})))
        for h in range(n) for m in range(da)))
    _first_failure(cert, "lemaco3", (
        ((H.basis[h], A.basis[m]),
         mul_dicts(pvB, apply_cols(right_cols[h], theta_d[m]), theta1),
         theta_of(b.right.apply({h: one}, {m: one})))
        for h in range(n) for m in range(da)))
    _first_failure(cert, "lemaco4", (
        ((H.basis[h], A.basis[m], H.basis[k]),
         mul_dicts(pvB, theta1, mul_dicts(pvB, tr(h, m, k), theta1)),
         theta_of(b.right.apply({k: one}, b.left.apply({h: one}, {m: one}))))
        for h in range(n) for m in range(da) for k in range(n)))
    return cert


# ---------------------------------------------------------------------------
# comparison with the standard globalization

def comparison_map(candidate, std):
    """Linear map sending each operator translate h▷θ(a)◁k of the candidate
    to the matching translate of the standard globalization.

    Well-definedness is verified by mapping every linear relation among the
    candidate translates to the standard side; the map is then checked to be
    an algebra map commuting with both operator families and matching the
    embeddings.  Returns (matrix, surjective, injective); surjectivity is
    asserted since the standard side is spanned by its translates.
    """
    H, A = std.hopf, std.coeff
    n, da = H.dim, A.dim
    f = H.field
    dC = candidate.algebra.dim
    dS = std.algebra.dim

    left_c = [col_dicts(op) for op in candidate.left_ops]
    right_c = [col_dicts(op) for op in candidate.right_ops]
    left_s = [col_dicts(op) for op in std.left_ops]
    right_s = [col_dicts(op) for op in std.right_ops]
    theta_c = [dict_of_vec([candidate.theta[r][m] for r in range(dC)])
               for m in range(da)]
    theta_s = [dict_of_vec([std.theta[r][m] for r in range(dS)])
               for m in range(da)]

    v_cols, w_cols = [], []
    for h in range(n):
        for m in range(da):
            for k in range(n):
                v = apply_cols(left_c[h], apply_cols(right_c[k], theta_c[m]))
                w = apply_cols(left_s[h], apply_cols(right_s[k], theta_s[m]))
                v_cols.append(vec_of_dict(v, dC, f))
                w_cols.append(vec_of_dict(w, dS, f))

    ncols = len(v_cols)
    v_rows = [[v_cols[j][i] for j in range(ncols)] for i in range(dC)]
    for z in nullspace(v_rows, f, ncols):
        image = zeros(f, dS)
        for j, c in enumerate(z):
            if c:
                col = w_cols[j]
                for i in range(dS):
                    if col[i]:
                        image[i] = image[i] + c * col[i]
        if any(image):
            raise ValueError("comparison map is ill-defined: the relation with "
                             "coefficients %r among the candidate translates "
                             "maps to a nonzero element" % (z,))

    phi_map = [[f.zero] * dC for _ in range(dS)]
    for i in range(dC):
        x = solve(v_cols, unit_vec(f, dC, i), f)
        if x is None:
            raise ValueError("candidate basis vector %d lies outside the span "
                             "of its operator translates" % i)
        for j, c in enumerate(x):
            if c:
                col = w_cols[j]
                for r in range(dS):
                    if col[r]:
                        phi_map[r][i] = phi_map[r][i] + c * col[r]

    rank, _, _ = rref([list(row) for row in phi_map], f)
    surjective = rank == dS
    if not surjective:
        raise AssertionError("comparison map failed to reach the standard globalization")
    col_rank, _, _ = rref([[phi_map[r][i] for r in range(dS)]
                           for i in range(dC)], f)
    injective = col_rank == dC

    # the map must be multiplicative, operator-equivariant, and match the
    # embeddings; failures here would contradict well-definedness
    pmap = col_dicts(phi_map)
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

    return phi_map, surjective, injective


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
    A = candidate.coeff
    f = Bp.field
    dB = Bp.dim
    theta1 = {}
    for m, c in dict_of_vec(A.unit).items():
        for r in range(dB):
            if candidate.theta[r][m]:
                dict_acc(theta1, r, c * candidate.theta[r][m])
    pvB = Bp.mul.pair_view()

    squeeze = []
    for j in range(dB):
        w = mul_dicts(pvB, mul_dicts(pvB, theta1, {j: f.one}), theta1)
        squeeze.append(w)
    t_rows = [[squeeze[j].get(i, f.zero) for j in range(dB)] for i in range(dB)]
    if not any(any(row) for row in t_rows):
        cur = Subspace(dB, f, [unit_vec(f, dB, i) for i in range(dB)])
    else:
        cur = Subspace(dB, f, nullspace(t_rows, f, dB))

    ops = list(candidate.left_ops) + list(candidate.right_ops)
    for _ in range(dB + 1):
        cons = cur.constraint_matrix()
        if not cons:
            return cur
        stacked = [list(r) for r in cons]
        for op in ops:
            for crow in cons:
                stacked.append([sum((crow[t] * op[t][j] for t in range(dB)
                                     if crow[t]), start=f.zero)
                                for j in range(dB)])
        nxt = Subspace(dB, f, nullspace(stacked, f, dB))
        if nxt.dim == cur.dim:
            return nxt
        cur = nxt
    raise RuntimeError("degenerate-subspace fixpoint did not stabilize")


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
        rd = dict_of_vec(r)
        for x in range(dB):
            if not M.contains(vec_of_dict(mul_dicts(pvB, {x: f.one}, rd), dB, f)) or \
               not M.contains(vec_of_dict(mul_dicts(pvB, rd, {x: f.one}), dB, f)):
                raise ValueError("the degenerate subspace is not a two-sided "
                                 "ideal; the candidate cannot be minimalized")

    piv = set(M.pivots)
    keep = [c for c in range(dB) if c not in piv]
    dQ = len(keep)

    def project(v):
        res = M.reduce(v)
        return [res[c] for c in keep]

    sections = [unit_vec(f, dB, c) for c in keep]
    mul_q = restrict_product(project, sections, Bp.mulvec)
    left_q = _restrict_ops([col_dicts(op) for op in candidate.left_ops],
                           sections, project, f, "left operator family")
    right_q = _restrict_ops([col_dicts(op) for op in candidate.right_ops],
                            sections, project, f, "right operator family")
    theta_q = _embed([[candidate.theta[r][m] for r in range(dB)]
                      for m in range(candidate.coeff.dim)], project, dQ, f.zero)
    unit_q = None
    if Bp.unit is not None:
        unit_q = project(Bp.unit)
    alg_q = AlgebraData(f, ["q%d" % i for i in range(dQ)], mul_q, unit_q,
                        name="minimal quotient of %s" % Bp.name)
    out = GlobalizationCandidate(alg_q, theta_q, left_q, right_q,
                                 candidate.coeff,
                                 name="minimal quotient of %s" % getattr(
                                     candidate, "name", Bp.name))
    if bimodule is not None:
        _require_passed(verify_globalization(out, bimodule), "quotient candidate")
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
    n, da = H.dim, A.dim
    f = H.field
    one = f.one
    N = n * da * n

    def idx(u, m, v):
        return (u * da + m) * n + v

    pvH = H.mul.pair_view()
    pvA = A.mul.pair_view()
    iv = H.comul.in1_view()
    s_cols = [dict_of_vec([H.antipode[r][j] for r in range(n)]) for j in range(n)]

    right_fac = {}
    for v in range(n):
        for w1 in range(n):
            kt = mul_dicts(pvH, {v: one}, s_cols[w1])
            for m in range(da):
                right_fac[(v, w1, m)] = b.right.apply(kt, {m: one})
    left_fac = {}
    for u2 in range(n):
        for up in range(n):
            ht = mul_dicts(pvH, s_cols[u2], {up: one})
            for m in range(da):
                left_fac[(u2, up, m)] = b.left.apply(ht, {m: one})

    mul = Tensor3((N, N, N))
    for u in range(n):
        for (u1, u2), c1 in iv.get(u, {}).items():
            for vp in range(n):
                for (w1, w2), c2 in iv.get(vp, {}).items():
                    cc = c1 * c2
                    for v in range(n):
                        for up in range(n):
                            for m in range(da):
                                a1 = right_fac[(v, w1, m)]
                                if not a1:
                                    continue
                                for mp in range(da):
                                    a2 = left_fac[(u2, up, mp)]
                                    if not a2:
                                        continue
                                    prod = mul_dicts(pvA, a1, a2)
                                    for t, ct in prod.items():
                                        mul.add(idx(u, m, v), idx(up, mp, vp),
                                                idx(u1, t, w2), cc * ct)

    theta = [[f.zero] * da for _ in range(N)]
    for i in range(n):
        if not H.unit[i]:
            continue
        for j in range(n):
            if not H.unit[j]:
                continue
            c = H.unit[i] * H.unit[j]
            for m in range(da):
                theta[idx(i, m, j)][m] = theta[idx(i, m, j)][m] + c

    left_ops = [[[f.zero] * N for _ in range(N)] for _ in range(n)]
    right_ops = [[[f.zero] * N for _ in range(N)] for _ in range(n)]
    for (g, u, p), c in H.mul.entries.items():
        mat = left_ops[g]
        for m in range(da):
            for v in range(n):
                mat[idx(p, m, v)][idx(u, m, v)] = mat[idx(p, m, v)][idx(u, m, v)] + c
    for (v, g, q), c in H.mul.entries.items():
        mat = right_ops[g]
        for u in range(n):
            for m in range(da):
                mat[idx(u, m, q)][idx(u, m, v)] = mat[idx(u, m, q)][idx(u, m, v)] + c

    names = ["%s⊗%s⊗%s" % (H.basis[u], A.basis[m], H.basis[v])
             for u in range(n) for m in range(da) for v in range(n)]
    alg = AlgebraData(f, names, mul, None,
                      name="twisted tensor candidate over %s" % A.name)
    return GlobalizationCandidate(alg, theta, left_ops, right_ops, A,
                                  name="twisted tensor candidate over %s" % A.name)


# ---------------------------------------------------------------------------
# the standard bicomodule globalization

def _dual_cols(t, side, n, d):
    """A coaction tensor on a d-dimensional algebra (laid out as
    PartialCoactionData.map) read as the column maps of n operators of the
    dual Hopf algebra; the coordinate transpose of
    coactions.coaction_to_dual_action.  A right coaction gives the left
    family, a left coaction the right one."""
    cols = [[{} for _ in range(d)] for _ in range(n)]
    for (i, j, k), c in t.entries.items():
        if side == "right":
            cols[k][i][j] = c
        else:
            cols[j][i][k] = c
    return cols


def _require_global_bicomodule(algebra, hopf, rho, lam):
    """Raise ValueError unless the coactions ρ and λ make the (possibly
    non-unital) algebra a two-sided global comodule algebra.  In finite
    dimension that is the statement that ρ, as the left operator family of
    the dual Hopf algebra, and λ, as its right one, make it a global
    bimodule algebra: the counit laws, coassociativity, compatibility and
    multiplicativity are the unit, composition, commutation and product
    laws of _require_global_bimodule."""
    n, d = hopf.dim, algebra.dim
    _require_global_bimodule(algebra, dual_hopf(hopf),
                             _dual_cols(rho, "right", n, d),
                             _dual_cols(lam, "left", n, d))


def two_stage_closure(ambient, seed):
    """The staged computation of the generated subalgebra: first close the
    seed under the two dual operator families alone, then close the result
    under the product alone.  Used as an oracle for the combined fixpoint."""
    stage1 = closure_fixpoint(seed, ambient.dual_left_ops + ambient.dual_right_ops, [])
    return closure_fixpoint(stage1, [], [ambient.algebra.mul])


def standard_globalize_bicomodule(b):
    """Globalize a certified partial bicomodule structure on A inside the
    three-fold tensor H⊗A⊗H with componentwise product and outer-leg
    comultiplications as coactions.

    The embedding is the composite coaction (λ⊗I)ρ, which equals (I⊗ρ)λ by
    the compatibility law certified on entry; the carrier is generated from
    the image by the two dual-basis operator families together with the
    product, computed as one combined fixpoint (two_stage_closure is its
    staged oracle).  The coactions are restricted to the carrier, the
    restricted structure must be a global two-sided comodule algebra
    (_require_global_bicomodule raises otherwise), and the certificate is a
    Report of one law, `exchange`: the condition
        (λ(θ(a))⊗1)(1⊗ρ(θ(b))) = (I⊗θ⊗I)[(λ̄(a)⊗1)(1⊗ρ̄(b))]
    on all basis pairs, whose first failure is indexed by the pair of basis
    labels.  The construction raises if the certificate fails.
    """
    rep = check_bicomodule(b)
    if not rep.passed:
        law, idx, _, _ = rep.failures[0]
        raise ValueError("input bicomodule fails %s at %s" % (law, idx))
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

    theta_cols = [vec_of_dict(col, N, f) for col in theta_d]
    theta = mat_transpose(theta_cols)
    rank, _, _ = rref(theta_cols, f)
    if rank != da:
        raise ValueError("composite embedding is not injective (rank %d of %d)"
                         % (rank, da))

    seed = subspace_span(theta_cols, N, f)
    span = closure_fixpoint(seed, amb.dual_left_ops + amb.dual_right_ops,
                            [amb.algebra.mul])
    dB = span.dim

    mul = restrict_product(span.coords, span.rows, amb.algebra.mulvec)
    induced_rho = _restrict_coaction(amb.rho, "right", span, lambda a: a)
    induced_lam = _restrict_coaction(amb.lam, "left", span, lambda a: a)
    unit_b = span.coords(amb.algebra.unit)
    alg_b = AlgebraData(f, ["b%d" % i for i in range(dB)], mul, unit_b,
                        name="globalization of %s" % A.name)
    _require_global_bicomodule(alg_b, H, induced_rho, induced_lam)

    # the exchange condition, in ambient coordinates: compare the five-leg
    # products of the ambient coactions of embedded elements with the image
    # of the partial-coaction product
    pv_h = H.mul.pair_view()
    pv_x = amb.algebra.mul.pair_view()
    pv_a = A.mul.pair_view()
    u_h = dict_of_vec(H.unit)
    rho_iv = amb.rho.in1_view()
    lam_iv = amb.lam.in1_view()

    def exchange():
        for i in range(da):
            lam_theta = {}
            for x, cx in theta_d[i].items():
                for (p, xp), c in lam_iv.get(x, empty).items():
                    for u0, cu in u_h.items():
                        dict_acc(lam_theta, (p, xp, u0), cx * c * cu)
            for j in range(da):
                rho_theta = {}
                for x, cx in theta_d[j].items():
                    for (xp, k), c in rho_iv.get(x, empty).items():
                        for u0, cu in u_h.items():
                            dict_acc(rho_theta, (u0, xp, k), cx * c * cu)
                rhs = {}
                for (p, q), c1 in lam_of.get(i, empty).items():
                    for (u, v), c2 in rho_of.get(j, empty).items():
                        cc = c1 * c2
                        for t, ct in pv_a.get((q, u), empty).items():
                            for x, cx in theta_d[t].items():
                                dict_acc(rhs, (p, x, v), cc * ct * cx)
                yield ((A.basis[i], A.basis[j]),
                       t3_mul(pv_h, pv_x, pv_h, lam_theta, rho_theta), rhs)

    cert = Report(alg_b.name)
    _first_failure(cert, "exchange", exchange())
    theta_b = _embed(theta_cols, span.coords, dB, f.zero)
    return BicomoduleGlobalization(H, A, amb, theta, span, alg_b, induced_rho,
                                   induced_lam, theta_b,
                                   _require_passed(cert, "standard globalization"))


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
    two generated carriers.  Returns (matrix, injective, intertwines,
    restricted_iso)."""
    H, A = hopf, coeff
    n, da = H.dim, A.dim
    f = H.field
    bg, std = bicomodule_glob, bimodule_glob
    if not same_hopf(std.hopf, dual_hopf(H)):
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

    perm = [0] * N
    for u in range(n):
        for m in range(da):
            for v in range(n):
                perm[amb_x.index(u, m, v)] = amb_k.index(v, u, m)
    psi = [[f.zero] * N for _ in range(N)]
    for x, t in enumerate(perm):
        psi[t][x] = f.one
    mono = len(set(perm)) == N
    if not mono:
        raise AssertionError("index permutation is not a bijection")

    def push(d):
        return {perm[x]: c for x, c in d.items()}

    pv_x = amb_x.algebra.mul.pair_view()
    pv_k = amb_k.algebra.mul.pair_view()
    empty = {}
    for x in range(N):
        for y in range(N):
            lhs = push(pv_x.get((x, y), empty))
            rhs = pv_k.get((perm[x], perm[y]), empty)
            if lhs != rhs:
                raise AssertionError("the permutation is not an algebra map at "
                                     "basis pair (%d, %d)" % (x, y))
    if push(dict_of_vec(amb_x.algebra.unit)) != dict_of_vec(amb_k.algebra.unit):
        raise AssertionError("the permutation does not match the units")

    intertwines = True
    x_left, x_right = amb_x.dual_left_ops, amb_x.dual_right_ops
    k_left, k_right = amb_k.left_ops, amb_k.right_ops
    for g in range(n):
        for x in range(N):
            if push(x_left[g][x]) != k_left[g][perm[x]] or \
                    push(x_right[g][x]) != k_right[g][perm[x]]:
                intertwines = False
                break
        if not intertwines:
            break

    for m in range(da):
        lhs = push(dict_of_vec([bg.theta[r][m] for r in range(N)]))
        rhs = dict_of_vec([std.phi[r][m] for r in range(N)])
        if lhs != rhs:
            raise AssertionError("the permutation does not match the embeddings "
                                 "at basis %s" % A.basis[m])

    image = Subspace(N, f, [vec_of_dict(push(dict_of_vec(r)), N, f)
                            for r in bg.b_basis.rows])
    restricted_iso = (image.dim == bg.b_basis.dim and image == std.b_basis)

    return psi, mono, intertwines, restricted_iso
