"""Globalization layer: standard constructions, certificates, comparison,
minimalization, and the bicomodule-side bridge."""

from fractions import Fraction

import pytest

import random

from phopf.fields import GF, QQ
from phopf.linalg import Subspace, Tensor3, dict_acc, nullspace
from phopf._groups import named_group
from phopf.algebras import (AlgebraData, algebra_check, dict_of_vec,
                            dual_hopf, group_algebra, scalar_algebra,
                            sweedler_h4)
from phopf.actions import (PartialBimoduleData, dual_regular_action,
                           en_kg_example, sweedler_k_bimodule, trivial_action,
                           trivialize_right)
from phopf.coactions import (PartialBicomoduleData, bicomodule_to_bimodule,
                             bimodule_to_bicomodule, induce_bicomodule,
                             regular_bicomodule, sweedler_k_bicomodule,
                             trivial_coaction)
from phopf.globalize import (GlobalizationCandidate,
                             _require_global_bicomodule, comparison_map,
                             free_candidate_bimodule,
                             maximal_degenerate_subbimodule, minimalize,
                             psi_map, standard_globalize_bicomodule,
                             standard_globalize_bimodule, two_stage_closure,
                             verify_globalization)


GLOBALIZATION_LAWS = ("condition1", "condition2", "lemaco1", "lemaco2",
                      "lemaco3", "lemaco4")


def _staged_carrier(g):
    """The staged closure oracle, seeded with the span of θ's columns."""
    N = g.ambient.algebra.dim
    cols = [[g.theta[r][m] for r in range(N)] for m in range(g.coeff.dim)]
    return two_stage_closure(g.ambient, Subspace(N, g.hopf.field, cols))


def _identity(field, n):
    return [[field.one if i == j else field.zero for j in range(n)] for i in range(n)]


def _trivial_bimodule(field):
    h = sweedler_h4(field)
    a = scalar_algebra(field)
    return PartialBimoduleData(trivial_action(h, a, "left"),
                               trivial_action(h, a, "right"))


# ---------------------------------------------------------------------------
# standard globalization of bimodules


def test_global_input_globalizes_to_the_coefficient_algebra():
    g = standard_globalize_bimodule(_trivial_bimodule(QQ))
    assert g.dim == 1
    assert g.certificate.passed and not g.certificate.failures
    assert maximal_degenerate_subbimodule(g).dim == 0
    pm, sur, inj = comparison_map(g, g)
    assert sur and inj and pm == [[QQ.one]]


@pytest.mark.parametrize("r,s", [(2, 3), (0, 0)])
def test_sweedler_standard_globalization_is_four_dimensional(r, s):
    b = sweedler_k_bimodule(QQ, r, s)
    g = standard_globalize_bimodule(b)
    assert g.dim == 4
    assert g.certificate.passed and not g.certificate.failures
    assert g.algebra.unit is not None
    assert algebra_check(g.algebra).passed
    # the standard globalization is already minimal
    assert maximal_degenerate_subbimodule(g).dim == 0
    pm, sur, inj = comparison_map(g, g)
    assert sur and inj and pm == _identity(QQ, g.dim)


def test_standard_globalization_over_prime_field():
    g = standard_globalize_bimodule(sweedler_k_bimodule(GF(5), 2, 3))
    assert g.dim == 4 and g.certificate.passed


def test_certificate_reporting():
    g = standard_globalize_bimodule(sweedler_k_bimodule(QQ, 2, 3))
    cert = g.certificate
    assert cert.lines() == ["PASS  %s" % law for law in GLOBALIZATION_LAWS]
    doc = cert.to_json()
    assert doc["passed"] is True and doc["laws"] == list(GLOBALIZATION_LAWS)
    assert doc["failures"] == []


def test_globalization_document_schema():
    g = standard_globalize_bimodule(sweedler_k_bimodule(QQ, 2, 3))
    doc = g.to_json()
    for key in ("ambient_dim", "phi", "b_basis", "mul", "certificate"):
        assert key in doc
    assert doc["ambient_dim"] == 16 and len(doc["b_basis"]) == 4


# ---------------------------------------------------------------------------
# candidates, comparison, minimalization


def test_free_candidate_pipeline_on_the_sweedler_family():
    b = sweedler_k_bimodule(QQ, 2, 3)
    std = standard_globalize_bimodule(b)
    cand = free_candidate_bimodule(b)
    assert cand.algebra.dim == 16
    assert algebra_check(cand.algebra).passed
    cert = verify_globalization(cand, b)
    assert cert.passed, cert.failures
    pm, sur, inj = comparison_map(cand, std)
    assert sur and not inj
    mstar = maximal_degenerate_subbimodule(cand)
    assert mstar.dim == 12
    ker = Subspace(16, QQ, nullspace([list(r) for r in pm], QQ, 16))
    assert ker == mstar
    mini = minimalize(cand, b)
    assert mini.algebra.dim == 4
    assert maximal_degenerate_subbimodule(mini).dim == 0
    pm2, sur2, inj2 = comparison_map(mini, std)
    assert sur2 and inj2


def test_free_candidate_pipeline_on_a_global_input():
    b = _trivial_bimodule(QQ)
    std = standard_globalize_bimodule(b)
    cand = free_candidate_bimodule(b)
    assert cand.algebra.dim == 16
    assert verify_globalization(cand, b).passed
    assert maximal_degenerate_subbimodule(cand).dim == 15
    mini = minimalize(cand, b)
    assert mini.algebra.dim == 1
    _, sur, inj = comparison_map(mini, std)
    assert sur and inj


def test_scaled_embedding_fails_the_reproduction_condition():
    b = sweedler_k_bimodule(QQ, 2, 3)
    std = standard_globalize_bimodule(b)
    two = QQ.of(2)
    bad_theta = [[two * std.theta[r][m] for m in range(b.alg.dim)]
                 for r in range(std.dim)]
    mutant = GlobalizationCandidate(std.algebra, bad_theta, std.left_ops,
                                    std.right_ops, b.alg, name="scaled")
    cert = verify_globalization(mutant, b)
    assert cert.laws == list(GLOBALIZATION_LAWS) and not cert.passed
    # one failure per law, at the first offending tuple of basis labels
    assert {law: idx for law, idx, _, _ in cert.failures} == {
        "condition1": ("1", "1", "1", "1"),
        "lemaco1": ("1", "1", "1", "1", "1", "1"),
        "lemaco2": ("1", "1"), "lemaco3": ("1", "1"),
        "lemaco4": ("1", "1", "1")}


# structural faults of a candidate raise ValueError instead of being reported


def _sweedler_candidate(**parts):
    b = sweedler_k_bimodule(QQ, 2, 3)
    std = standard_globalize_bimodule(b)
    kw = dict(algebra=std.algebra, theta=std.theta, left_ops=std.left_ops,
              right_ops=std.right_ops)
    kw.update({k: v(std) for k, v in parts.items()})
    return b, GlobalizationCandidate(coeff=b.alg, **kw)


def test_verify_rejects_a_nonassociative_candidate():
    def bent(std):                     # the carrier is k⁴ on idempotents b_i
        mul = dict(std.algebra.mul.entries)
        mul[(0, 1, 1)] = QQ.one        # b0·b1 = b1: (b1b0)b1 = 0 ≠ b1(b0b1)
        return AlgebraData(QQ, std.algebra.basis, mul, None)
    b, cand = _sweedler_candidate(algebra=bent)
    assert not algebra_check(cand.algebra).passed
    with pytest.raises(ValueError, match="candidate algebra fails associativity"):
        verify_globalization(cand, b)


def test_verify_rejects_a_broken_composition_law():
    def scaled(std):                   # g acts as 2·(g acting); g·g = 1
        two = QQ.of(2)
        ops = [list(op) for op in std.left_ops]
        ops[1] = [[two * c for c in row] for row in ops[1]]
        return ops
    b, cand = _sweedler_candidate(left_ops=scaled)
    with pytest.raises(ValueError, match="left operator-composition"):
        verify_globalization(cand, b)


def test_verify_rejects_operator_families_that_do_not_commute():
    # translation of kS3* by the group elements of its dual kS3: the left
    # family L_g and the right family R_g = L_{g⁻¹} are each global
    # module-algebra structures, but they do not commute since S3 is not
    # abelian
    act = dual_regular_action(dual_hopf(_ks3()))
    H, A = act.hopf, act.alg
    e = H.unit.index(QQ.one)
    inv = [next(h for h in range(H.dim) if H.mul.get(g, h, e, QQ.zero))
           for g in range(H.dim)]
    left = [act.matrix(g) for g in range(H.dim)]
    cand = GlobalizationCandidate(A, _identity(QQ, A.dim), left,
                                  [left[inv[g]] for g in range(H.dim)], A)
    with pytest.raises(ValueError, match="do not commute"):
        verify_globalization(cand, trivialize_right(act))


def test_verify_rejects_the_wrong_number_of_operators():
    b, cand = _sweedler_candidate(right_ops=lambda std: std.right_ops[:-1])
    with pytest.raises(ValueError, match="one operator per Hopf basis element"):
        verify_globalization(cand, b)


def test_verify_rejects_a_rank_deficient_embedding():
    b, cand = _sweedler_candidate(
        theta=lambda std: [[QQ.zero] * std.coeff.dim for _ in range(std.dim)])
    with pytest.raises(ValueError, match=r"not injective \(rank 0 of 1\)"):
        verify_globalization(cand, b)


def test_minimalize_is_the_identity_on_minimal_candidates():
    b = sweedler_k_bimodule(QQ, 2, 3)
    std = standard_globalize_bimodule(b)
    assert minimalize(std, b) is std


# ---------------------------------------------------------------------------
# standard globalization of bicomodules


def test_bicomodule_globalization_carrier_and_embedding():
    b = sweedler_k_bicomodule(QQ, 7, 3)
    g = standard_globalize_bicomodule(b)
    assert _staged_carrier(g) == g.b_basis
    assert g.dim == 4
    assert g.certificate.passed and g.certificate.laws == ["exchange"]
    # theta(1) = (1/2 + 1/2 g + 7 xg) (x) 1 (x) (1/2 + 1/2 g + 3 x)
    half = QQ.of(Fraction(1, 2))
    th = dict_of_vec([g.theta[r][0] for r in range(g.ambient.algebra.dim)])
    lam_leg = {0: half, 1: half, 3: QQ.of(7)}
    rho_leg = {0: half, 1: half, 2: QQ.of(3)}
    expect = {g.ambient.index(i, 0, j): ci * cj
              for i, ci in lam_leg.items() for j, cj in rho_leg.items()}
    assert th == expect


def test_regular_bicomodule_globalizes_to_itself_in_dimension(h4):
    g = standard_globalize_bicomodule(regular_bicomodule(h4))
    assert _staged_carrier(g) == g.b_basis
    assert g.dim == 4 and g.certificate.passed


def test_bicomodule_globalization_over_prime_field():
    g = standard_globalize_bicomodule(sweedler_k_bicomodule(GF(5), 2, 4))
    assert g.dim == 4 and g.certificate.passed


# ---------------------------------------------------------------------------
# the composite embedding: (λ⊗I)ρ, which the construction computes, equals
# (I⊗ρ)λ by the compatibility law that check_bicomodule certifies


def _composite_embeddings(b):
    """Both composite-embedding formulas, column by column, as dicts over
    (Hopf, algebra, Hopf) index triples."""
    rho, lam = b.right.map.in1_view(), b.left.map.in1_view()
    first, second = [], []
    for i in range(b.alg.dim):
        x, y = {}, {}
        for (j, k), c in rho.get(i, {}).items():
            for (p, q), d in lam.get(j, {}).items():
                dict_acc(x, (p, q, k), c * d)
        for (p, q), c in lam.get(i, {}).items():
            for (j, k), d in rho.get(q, {}).items():
                dict_acc(y, (p, j, k), c * d)
        first.append(x)
        second.append(y)
    return first, second


def _trivial_bicomodule(h, a):
    return PartialBicomoduleData(trivial_coaction(h, a, "left"),
                                 trivial_coaction(h, a, "right"))


def _kz4_index_two_corner():
    o, z = QQ.one, QQ.zero
    return induce_bicomodule(regular_bicomodule(_kg("Z4")),
                             [[o, z, z, z], [z, z, o, z]], [o, z, z, z])


BICOMODULE_FAMILIES = {
    "regular H4/QQ": lambda: regular_bicomodule(sweedler_h4(QQ)),
    "regular H4/GF5": lambda: regular_bicomodule(sweedler_h4(GF(5))),
    "regular H4*": lambda: regular_bicomodule(dual_hopf(sweedler_h4(QQ))),
    "regular kZ4": lambda: regular_bicomodule(_kg("Z4")),
    "regular kS3/GF5": lambda: regular_bicomodule(_kg("S3", GF(5))),
    "regular kQ8*": lambda: regular_bicomodule(dual_hopf(_kg("Q8"))),
    "Sweedler (7,3)": lambda: sweedler_k_bicomodule(QQ, 7, 3),
    "Sweedler (2,3)/GF5": lambda: sweedler_k_bicomodule(GF(5), 2, 3),
    "Sweedler (0,0)": lambda: sweedler_k_bicomodule(QQ, 0, 0),
    "trivial H4 on k": lambda: _trivial_bicomodule(sweedler_h4(QQ),
                                                   scalar_algebra(QQ)),
    "trivial kS3 on kS3": lambda: _trivial_bicomodule(_ks3(), _ks3()),
    "dual of Sweedler (r,s)": lambda: bimodule_to_bicomodule(
        sweedler_k_bimodule(QQ, 2, 3)),
    "dual of kS3* on kS3": lambda: bimodule_to_bicomodule(
        trivialize_right(dual_regular_action(_ks3()))),
    "dual of e_N kZ4": lambda: bimodule_to_bicomodule(trivialize_right(
        en_kg_example(named_group("Z4")[1], [0, 2], QQ)[1])),
    "induced on the index-two corner of kZ4": _kz4_index_two_corner,
}


@pytest.mark.parametrize("make", BICOMODULE_FAMILIES.values(),
                         ids=BICOMODULE_FAMILIES.keys())
def test_composite_embedding_formulas_agree(make):
    first, second = _composite_embeddings(make())
    assert first == second and any(first)


@pytest.mark.parametrize("name", ["regular H4/QQ", "Sweedler (7,3)",
                                  "Sweedler (2,3)/GF5", "trivial H4 on k",
                                  "induced on the index-two corner of kZ4"])
def test_construction_embeds_by_the_composite_coaction(name):
    b = BICOMODULE_FAMILIES[name]()
    g = standard_globalize_bicomodule(b)
    first, _ = _composite_embeddings(b)
    N = g.ambient.algebra.dim
    for m, col in enumerate(first):
        want = {g.ambient.index(*key): c for key, c in col.items()}
        assert dict_of_vec([g.theta[r][m] for r in range(N)]) == want


# ---------------------------------------------------------------------------
# the global laws of the bicomodule carrier: the coactions read as the dual
# bimodule families against the coaction laws written out directly


def _assert_global_bicomodule(alg_b, hopf, rho, lam):
    """Reference for the global-law check of the bicomodule carrier: raise
    AssertionError unless the restricted coactions make the (possibly
    non-unital) algebra an honest two-sided comodule algebra.  The four
    comodule-algebra laws written out directly for coactions; the library
    checks them as the bimodule laws of the dual Hopf algebra instead."""
    dB = alg_b.dim
    n = hopf.dim
    f = hopf.field
    pvB = alg_b.mul.pair_view()
    pvH = hopf.mul.pair_view()
    iv_rho = rho.in1_view()
    iv_lam = lam.in1_view()
    iv_com = hopf.comul.in1_view()
    empty = {}

    for i in range(dB):
        got = {}
        for (j, k), c in iv_rho.get(i, empty).items():
            if hopf.counit[k]:
                dict_acc(got, j, c * hopf.counit[k])
        if got != {i: f.one}:
            raise AssertionError("restricted right coaction fails the counit "
                                 "law at basis %d" % i)
        got = {}
        for (p, q), c in iv_lam.get(i, empty).items():
            if hopf.counit[p]:
                dict_acc(got, q, c * hopf.counit[p])
        if got != {i: f.one}:
            raise AssertionError("restricted left coaction fails the counit "
                                 "law at basis %d" % i)

    for i in range(dB):
        lhs, rhs = {}, {}
        for (j, k), c in iv_rho.get(i, empty).items():
            for (j2, k2), c2 in iv_rho.get(j, empty).items():
                dict_acc(lhs, (j2, k2, k), c * c2)
            for (k1, k2), c2 in iv_com.get(k, empty).items():
                dict_acc(rhs, (j, k1, k2), c * c2)
        if lhs != rhs:
            raise AssertionError("restricted right coaction is not "
                                 "coassociative at basis %d" % i)
        lhs, rhs = {}, {}
        for (p, q), c in iv_lam.get(i, empty).items():
            for (p2, q2), c2 in iv_lam.get(q, empty).items():
                dict_acc(lhs, (p, p2, q2), c * c2)
            for (p1, p2), c2 in iv_com.get(p, empty).items():
                dict_acc(rhs, (p1, p2, q), c * c2)
        if lhs != rhs:
            raise AssertionError("restricted left coaction is not "
                                 "coassociative at basis %d" % i)
        lhs, rhs = {}, {}
        for (p, q), c in iv_lam.get(i, empty).items():
            for (j, k), c2 in iv_rho.get(q, empty).items():
                dict_acc(lhs, (p, j, k), c * c2)
        for (j, k), c in iv_rho.get(i, empty).items():
            for (p, q), c2 in iv_lam.get(j, empty).items():
                dict_acc(rhs, (p, q, k), c * c2)
        if lhs != rhs:
            raise AssertionError("restricted coactions are not compatible "
                                 "at basis %d" % i)

    rho_d = {i: iv_rho.get(i, empty) for i in range(dB)}
    lam_d = {i: iv_lam.get(i, empty) for i in range(dB)}
    for x in range(dB):
        for y in range(dB):
            mxy = pvB.get((x, y), empty)
            lhs = {}
            for t, c in mxy.items():
                for (j, k), d in rho_d[t].items():
                    dict_acc(lhs, (j, k), c * d)
            rhs = {}
            for (j1, k1), c1 in rho_d[x].items():
                for (j2, k2), c2 in rho_d[y].items():
                    cc = c1 * c2
                    row_b = pvB.get((j1, j2))
                    row_h = pvH.get((k1, k2))
                    if not row_b or not row_h:
                        continue
                    for tb, cb in row_b.items():
                        for th, ch in row_h.items():
                            dict_acc(rhs, (tb, th), cc * cb * ch)
            if lhs != rhs:
                raise AssertionError("restricted right coaction is not "
                                     "multiplicative at basis pair (%d, %d)" % (x, y))
            lhs = {}
            for t, c in mxy.items():
                for (p, q), d in lam_d[t].items():
                    dict_acc(lhs, (p, q), c * d)
            rhs = {}
            for (p1, q1), c1 in lam_d[x].items():
                for (p2, q2), c2 in lam_d[y].items():
                    cc = c1 * c2
                    row_h = pvH.get((p1, p2))
                    row_b = pvB.get((q1, q2))
                    if not row_b or not row_h:
                        continue
                    for th, ch in row_h.items():
                        for tb, cb in row_b.items():
                            dict_acc(rhs, (th, tb), cc * ch * cb)
            if lhs != rhs:
                raise AssertionError("restricted left coaction is not "
                                     "multiplicative at basis pair (%d, %d)" % (x, y))



def _carriers():
    for field in (QQ, GF(5)):
        for b in (regular_bicomodule(sweedler_h4(field)),
                  sweedler_k_bicomodule(field, 2, 3),
                  regular_bicomodule(_kg("Z4", field)),
                  regular_bicomodule(_kg("S3", field))):
            yield standard_globalize_bicomodule(b)


def _verdict(check, g, rho, lam):
    try:
        check(g.algebra, g.hopf, rho, lam)
    except (AssertionError, ValueError) as exc:
        return type(exc)
    return None


def _mutant(t, rng, field):
    """t with one entry changed: half the time a stored entry, otherwise an
    arbitrary position."""
    out = Tensor3(t.dims, dict(t.entries))
    if t.entries and rng.random() < 0.5:
        key = rng.choice(sorted(t.entries))
    else:
        key = tuple(rng.randrange(d) for d in t.dims)
    out.add(*key, field.of(rng.choice([1, -1, 2])))
    return out


def test_carrier_global_laws_agree_with_the_coaction_reference():
    rng = random.Random(20261018)
    rejected = 0
    for g in _carriers():
        rho, lam = g.induced_rho, g.induced_lam
        assert _verdict(_assert_global_bicomodule, g, rho, lam) is None
        assert _verdict(_require_global_bicomodule, g, rho, lam) is None
        for trial in range(40):
            f = g.hopf.field
            if trial % 2:
                rho2, lam2 = _mutant(rho, rng, f), lam
            else:
                rho2, lam2 = rho, _mutant(lam, rng, f)
            ref = _verdict(_assert_global_bicomodule, g, rho2, lam2)
            new = _verdict(_require_global_bicomodule, g, rho2, lam2)
            assert (ref, new) in ((None, None), (AssertionError, ValueError)), \
                (g, trial, ref, new)
            rejected += ref is not None
    assert rejected >= 300


# ---------------------------------------------------------------------------
# S3: ambients of dimension 216, reachable because the ambient is certified
# through its factors instead of by a sweep of its 216³ basis triples


def _kg(name, field=QQ):
    labels, table = named_group(name)
    return group_algebra(table, field, labels)


def _ks3():
    return _kg("S3")


def test_s3_dual_bimodule_globalizes_with_certificate():
    from phopf.actions import dual_regular_action, trivialize_right
    g = standard_globalize_bimodule(trivialize_right(dual_regular_action(_ks3())))
    assert g.ambient.algebra.dim == 216 and g.dim == 6
    assert g.certificate.passed


def test_s3_regular_bicomodule_globalizes():
    g = standard_globalize_bicomodule(regular_bicomodule(_ks3()))
    assert g.ambient.algebra.dim == 216 and g.dim == 6
    assert g.certificate.passed and g.certificate.laws == ["exchange"]
    assert _staged_carrier(g) == g.b_basis


# ---------------------------------------------------------------------------
# the two-sided bridge between the constructions


@pytest.mark.parametrize("field,t,u", [(QQ, 7, 3), (GF(5), 2, 4)],
                         ids=["QQ", "GF5"])
def test_psi_bridge_flags(field, t, u):
    b = sweedler_k_bicomodule(field, t, u)
    bg = standard_globalize_bicomodule(b)
    std_dual = standard_globalize_bimodule(bicomodule_to_bimodule(b))
    psi, mono, intertwines, restricted_iso = psi_map(
        sweedler_h4(field), scalar_algebra(field), bg, std_dual)
    assert mono and intertwines and restricted_iso
    assert len(psi) == std_dual.ambient.algebra.dim


def test_psi_bridge_on_the_one_dimensional_hopf_algebra():
    from phopf._groups import named_group
    from phopf.algebras import group_algebra
    from phopf.coactions import PartialBicomoduleData, PartialCoactionData
    labels, table = named_group("trivial")
    kt = group_algebra(table, QQ, labels)
    a = scalar_algebra(QQ)
    b = PartialBicomoduleData(
        PartialCoactionData(kt, a, "left", {(0, 0, 0): QQ.one}),
        PartialCoactionData(kt, a, "right", {(0, 0, 0): QQ.one}))
    bg = standard_globalize_bicomodule(b)
    assert _staged_carrier(bg) == bg.b_basis
    std = standard_globalize_bimodule(bicomodule_to_bimodule(b))
    _, mono, intertwines, restricted_iso = psi_map(kt, a, bg, std)
    assert mono and intertwines and restricted_iso
