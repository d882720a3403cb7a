"""Partial group actions, given by ideals D_g = A·1_g (central idempotents
1_g) and isomorphisms α_g: D_{g⁻¹} → D_g, and the dictionary
(group_to_kg, kg_to_group) with symmetric unital partial actions of the
group algebra kG; also the averaged-idempotent example e_N·kG.  Each law
of a partial group action is swept over its basis tuples by Report.sweep."""

from .algebras import (AlgebraData, Report, algebra_check, dict_of_vec, dual_hopf, json_rows,
                       vec_of_dict)
from .actions import PartialActionData, _certify_action, check_lpma
from .examples import group_algebra
from .linalg import Tensor3, apply_cols, col_dicts, unit_vec
from .serialize import _guard, _resolve, load_algebra
from ._groups import check_group_table, group_identity, group_inverses


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
        if alg.unit is None:
            raise ValueError("partial group actions need a unital algebra")
        _check_shapes(len(table), alg.dim, idempotents, alphas, labels)
        self.table = [list(r) for r in table]
        self.alg = alg
        of = alg.field.of
        self.idempotents = [[of(c) for c in v] for v in idempotents]
        self.alphas = [[[of(c) for c in r] for r in mat] for mat in alphas]
        self.labels = list(labels) if labels else ["g%d" % i for i in range(len(table))]
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


def _check_shapes(n, m, idempotents, alphas, labels):
    """Raise ValueError unless each of the n group elements has an idempotent
    of length m = dim A, an m × m matrix and, when labels are given, a label."""
    if len(idempotents) != n or len(alphas) != n:
        raise ValueError("need one idempotent and one map per group element")
    if any(len(v) != m for v in idempotents):
        raise ValueError("each idempotent needs %d entries, one per basis element" % m)
    if any(len(mat) != m or any(len(r) != m for r in mat) for mat in alphas):
        raise ValueError("each map needs a %d x %d matrix" % (m, m))
    if labels is not None and len(labels) != n:
        raise ValueError("need one label per group element, got %r" % (labels,))


def load_group_action(node, base_dir="."):
    """The partial group action of a document (see serialize for `node`,
    `base_dir` and the errors), loaded here beside its class, so a command
    that reads no group action does not compile its loader."""
    doc, base = _resolve(node, base_dir)

    def parts():
        table = doc["group"]
        if any(type(x) is not int for row in table for x in row):
            raise ValueError("group table entries must be integers")
        alg = load_algebra(doc["algebra"], base)
        f = alg.field
        m = alg.dim
        idem = [[f.parse(c) for c in v] for v in doc["idempotents"]]
        alphas = []
        for rows in doc["alphas"]:
            mat = [[f.zero] * m for _ in range(m)]
            for (i, j), c in json_rows(rows, (m, m), f, "alphas"):
                mat[i][j] = c
            alphas.append(mat)
        _check_shapes(len(table), m, idem, alphas, doc.get("labels"))
        return table, alg, idem, alphas, doc.get("labels")

    table, alg, idem, alphas, labels = _guard(parts, "group action")
    return GroupPartialActionData(table, alg, idem, alphas, labels=labels)


def z2_partial_group_example(field):
    """Partial action of the order-2 group on k x k: the non-identity
    element is defined only on the first coordinate ideal, where it acts as
    the identity map."""
    one, zero = field.one, field.zero
    mul = Tensor3((2, 2, 2))
    mul.add(0, 0, 0, one)
    mul.add(1, 1, 1, one)
    alg = AlgebraData(field, ["e1", "e2"], mul, [one, one], name="k x k")
    idem = [[one, one], [one, zero]]
    alphas = [[[one, zero], [zero, one]],
              [[one, zero], [zero, zero]]]
    return GroupPartialActionData([[0, 1], [1, 0]], alg, idem, alphas,
                                  labels=["e", "g"])


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

    def vec(d):
        return vec_of_dict(d, m, f)

    rep.sweep("idempotent-central", (
        case for g in range(n) for case in
        [((g,), A.mul_dict(ids[g], ids[g]), ids[g])]
        + [((g, j), A.mul_dict(ids[g], {j: one}), A.mul_dict({j: one}, ids[g]))
           for j in range(m)]), vec)

    # as the document holds them; a failing α_e is set against "identity matrix"
    e = gpa.identity
    ident = [[one if i == j else f.zero for j in range(m)] for i in range(m)]
    rep.sweep("identity-component",
              [((e,), gpa.idempotents[e], A.unit), ((e,), gpa.alphas[e], ident)],
              lambda w: "identity matrix" if w is ident else w)

    rep.sweep("canonical-normalization", (
        ((g, j), apply_cols(alphas[g], A.mul_dict({j: one}, ids[inv[g]])),
         apply_cols(alphas[g], {j: one})) for g in range(n) for j in range(m)), vec)

    rep.sweep("image-in-range", (
        ((g, j), img, A.mul_dict(img, ids[g])) for g in range(n) for j in range(m)
        for img in [apply_cols(alphas[g], {j: one})]), vec)

    rep.sweep("unit-translation", (
        ((g,), apply_cols(alphas[g], ids[inv[g]]), ids[g]) for g in range(n)), vec)

    def iso_multiplicative():
        for g in range(n):
            # a_j·1_{g⁻¹} and its image under α_g, once per basis element
            dom = [A.mul_dict({j: one}, ids[inv[g]]) for j in range(m)]
            img = [apply_cols(alphas[g], d) for d in dom]
            for i in range(m):
                for j in range(m):
                    yield ((g, i, j), apply_cols(alphas[g], A.mul_dict(dom[i], dom[j])),
                           A.mul_dict(img[i], img[j]))

    rep.sweep("iso-multiplicative", iso_multiplicative(), vec)

    rep.sweep("domain-translation", (
        ((g, h), apply_cols(alphas[g], A.mul_dict(ids[inv[g]], ids[h])),
         A.mul_dict(ids[g], ids[gpa.table[g][h]])) for g in range(n) for h in range(n)), vec)

    def composition():
        for g in range(n):
            for h in range(n):
                gh = gpa.table[g][h]
                for j in range(m):
                    r = A.mul_dict(A.mul_dict({j: one}, ids[inv[h]]), ids[inv[gh]])
                    yield ((g, h, j), apply_cols(alphas[g], apply_cols(alphas[h], r)),
                           apply_cols(alphas[gh], r))

    rep.sweep("composition", composition(), vec)
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
    from fractions import Fraction
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
