"""Globalization layer: standard constructions, certificates, comparison,
minimalization, and the bicomodule-side bridge."""

import copy
import functools
import os
import pathlib
import subprocess
import sys
import textwrap
from fractions import Fraction
from itertools import product

import pytest

import random

from phopf.fields import GF, QQ
from phopf.linalg import (Subspace, Tensor3, apply_cols, closure_fixpoint,
                          col_dicts, dict_acc, nullspace, rows_of_cols)
from phopf._groups import named_group
from phopf.algebras import (DUAL, AlgebraData, Report, _dual_structure, algebra_check,
                            dict_of_vec, dual_hopf, mul_dicts)
from phopf.examples import (group_algebra, regular_bicomodule, scalar_algebra, sweedler_h4,
                            sweedler_k_bicomodule, trivial_coaction)
from phopf.ambient import LegOperator, TensorProductMul
from phopf.actions import (PartialBimoduleData, dual_regular_action,
                           sweedler_k_bimodule, trivial_action, trivialize_right)
from phopf.coactions import (PartialBicomoduleData, bicomodule_to_bimodule,
                             bimodule_to_bicomodule)
from phopf.group_actions import en_kg_example
from phopf.induced import induce_bicomodule
from phopf.globalize import (BicomoduleGlobalization, BimoduleGlobalization,
                             GlobalizationCandidate, _first_failure,
                             maximal_degenerate_subbimodule, psi_map,
                             standard_globalize_bicomodule, standard_globalize_bimodule,
                             verify_globalization)
from phopf.candidates import (_require_global_bimodule, comparison_map,
                              free_candidate_bimodule, minimalize)


GLOBALIZATION_LAWS = ("condition1", "condition2", "lemaco1", "lemaco2",
                      "lemaco3", "lemaco4")


def two_stage_closure(ambient, seed):
    """The staged computation of the generated subalgebra: first close the
    seed under the two dual operator families alone, then close the result
    under the product alone.  The oracle for the combined fixpoint of
    standard_globalize_bicomodule."""
    stage1 = closure_fixpoint(seed, ambient.dual_left_ops + ambient.dual_right_ops, [])
    return closure_fixpoint(stage1, [], [ambient.algebra.mul])


def _staged_carrier(g):
    """The staged closure oracle, seeded with the span of θ's columns."""
    N = g.ambient.algebra.dim
    return two_stage_closure(g.ambient, Subspace(N, g.hopf.field, g.theta))


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
    assert isinstance(g, BimoduleGlobalization) and g.dim == 1
    assert g.certificate.passed and not g.certificate.failures
    assert maximal_degenerate_subbimodule(g).dim == 0
    pm, sur, inj = comparison_map(g, g)
    assert sur and inj and pm == [{0: QQ.one}]


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
    assert sur and inj and pm == col_dicts(_identity(QQ, g.dim))


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
    ker = Subspace(16, QQ, nullspace(rows_of_cols(pm).values(), QQ, 16))
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
    bad_theta = [{r: two * c for r, c in col.items()} for col in std.theta]
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


@pytest.mark.parametrize("label", ["g", "x", "xg"])
def test_comparison_map_rejects_a_candidate_whose_translates_relate_differently(label):
    # one left operator of the standard Sweedler (2,3) globalization set to
    # zero: the translates through it vanish on the candidate side only, so
    # a linear relation among them maps to a nonzero element
    std = standard_globalize_bimodule(sweedler_k_bimodule(QQ, 2, 3))
    ops = list(std.left_ops)
    h = std.hopf.basis.index(label)
    ops[h] = [{} for _ in range(std.dim)]
    cand = GlobalizationCandidate(std.algebra, std.theta, ops, std.right_ops, std.coeff)
    # the first relation is the translate h▷θ(1)◁1 alone, at index 4·h
    relation = [QQ.zero] * 16
    relation[4 * h] = QQ.one
    with pytest.raises(ValueError) as err:
        comparison_map(cand, std)
    assert str(err.value) == ("comparison map is ill-defined: the relation with "
                              "coefficients %r among the candidate translates "
                              "maps to a nonzero element" % (relation,))


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
        ops = list(std.left_ops)
        ops[1] = [{r: two * c for r, c in col.items()} for col in ops[1]]
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
    left = [col_dicts(act.matrix(g)) for g in range(H.dim)]
    cand = GlobalizationCandidate(A, col_dicts(_identity(QQ, A.dim)), left,
                                  [left[inv[g]] for g in range(H.dim)], A)
    with pytest.raises(ValueError, match="do not commute"):
        verify_globalization(cand, trivialize_right(act))


def test_verify_rejects_the_wrong_number_of_operators():
    b, cand = _sweedler_candidate(right_ops=lambda std: std.right_ops[:-1])
    with pytest.raises(ValueError, match="one operator per Hopf basis element"):
        verify_globalization(cand, b)


def test_verify_rejects_a_rank_deficient_embedding():
    b, cand = _sweedler_candidate(
        theta=lambda std: [{} for _ in range(std.coeff.dim)])
    with pytest.raises(ValueError, match=r"not injective \(rank 0 of 1\)"):
        verify_globalization(cand, b)


# a candidate of the wrong shape raises the same ValueError from both
# functions that read one, before any of its columns is applied
SHAPE_READERS = {
    "verify": lambda b, cand: verify_globalization(cand, b),
    "compare": lambda b, cand: comparison_map(cand, standard_globalize_bimodule(b)),
}


@pytest.mark.parametrize("read", SHAPE_READERS.values(), ids=list(SHAPE_READERS))
def test_a_theta_with_an_extra_column_is_rejected(read):
    b, cand = _sweedler_candidate(theta=lambda std: std.theta + [{0: QQ.one}])
    with pytest.raises(ValueError) as err:
        read(b, cand)
    assert str(err.value) == ("the embedding has 2 columns, not one per basis "
                              "element of the coefficient algebra (1)")


@pytest.mark.parametrize("read", SHAPE_READERS.values(), ids=list(SHAPE_READERS))
def test_an_operator_one_column_short_is_rejected(read):
    def short(std):
        ops = list(std.right_ops)
        ops[2] = ops[2][:-1]
        return ops
    b, cand = _sweedler_candidate(right_ops=short)
    with pytest.raises(ValueError) as err:
        read(b, cand)
    assert str(err.value) == ("the right operator x has 3 columns, not one per "
                              "basis element of the candidate (4)")


def _key_four(cols):
    """A copy of the column maps with a key of 4 added to column 0: on a
    four-dimensional candidate, the extra row of a dense matrix."""
    cols = [dict(col) for col in cols]
    cols[0][4] = QQ.one
    return cols


@pytest.mark.parametrize("part,mutate,what", [
    ("theta", lambda std: _key_four(std.theta), "the embedding"),
    ("left_ops", lambda std: [std.left_ops[0], _key_four(std.left_ops[1])]
     + std.left_ops[2:], "the left operator g")], ids=["theta", "operator"])
@pytest.mark.parametrize("read", SHAPE_READERS.values(), ids=list(SHAPE_READERS))
def test_a_column_key_outside_the_candidate_is_rejected(read, part, mutate, what):
    b, cand = _sweedler_candidate(**{part: mutate})
    with pytest.raises(ValueError) as err:
        read(b, cand)
    assert str(err.value) == ("%s has row 4 in column 0, outside a candidate of "
                              "dimension 4" % what)


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
    th = g.theta[0]
    lam_leg = {0: half, 1: half, 3: QQ.of(7)}
    rho_leg = {0: half, 1: half, 2: QQ.of(3)}
    expect = {g.ambient.index(i, 0, j): ci * cj
              for i, ci in lam_leg.items() for j, cj in rho_leg.items()}
    assert th == expect


def test_regular_bicomodule_globalizes_to_itself_in_dimension(h4):
    g = standard_globalize_bicomodule(regular_bicomodule(h4))
    assert isinstance(g, BicomoduleGlobalization)
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
    assert g.theta == [{g.ambient.index(*key): c for key, c in col.items()}
                       for col in first]


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



def _require_global_bicomodule(algebra, hopf, rho, lam):
    """Raise ValueError unless the coactions ρ and λ make the (possibly
    non-unital) algebra a two-sided global comodule algebra.  In finite
    dimension that is the statement that ρ, as the left operator family of
    the dual Hopf algebra, and λ, as its right one, make it a global
    bimodule algebra: the counit laws, coassociativity, compatibility and
    multiplicativity are the unit, composition, commutation and product
    laws of _require_global_bimodule.  The two families are the coaction
    tensors transposed by algebras.DUAL.  standard_globalize_bicomodule
    records these laws by their proof when the Hopf algebra passes
    hopf_check, so this sweep is the oracle for that record."""
    _require_global_bimodule(algebra, _dual_structure(hopf),
                             rho.transpose(DUAL["right"][0]).columns(),
                             lam.transpose(DUAL["left"][0]).columns())


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
# the global laws of the operator families: one pass over both sides against
# the two copies it replaced


def reference_require_global_bimodule(algebra, hopf, left_cols, right_cols):
    """_require_global_bimodule as it was with the left and right halves of
    operator composition and the product rule written out twice.  Kept here
    only as the differential reference for the mirrored check."""
    n = hopf.dim
    dB = algebra.dim
    one = hopf.field.one
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


def _raised(check, *args):
    try:
        check(*args)
    except ValueError as exc:
        return str(exc)
    return None


def test_mirrored_operator_laws_raise_as_the_reference_does():
    # one entry of one operator changed, on either family, the two families
    # swapped, and one product of the carrier changed (which only the
    # product rule reads): the same message, hence the same first failure
    rng = random.Random(20261018)
    carriers = [standard_globalize_bimodule(b) for b in (
        sweedler_k_bimodule(QQ, 2, 3), sweedler_k_bimodule(GF(5), 1, 4),
        trivialize_right(dual_regular_action(_kg("S3"))),
        trivialize_right(en_kg_example(named_group("Z4")[1], {0, 2}, QQ)[1]))]
    raised = set()
    for g in carriers:
        f = g.hopf.field
        left, right = g.left_ops, g.right_ops
        cases = [(left, right), (right, left)]
        for trial in range(30):
            fam = [[dict(col) for col in op] for op in (left, right)[trial % 2]]
            op, x = rng.randrange(len(fam)), rng.randrange(g.dim)
            dict_acc(fam[op][x], rng.randrange(g.dim), f.of(rng.choice([1, -1, 2])))
            cases.append((fam, right) if trial % 2 == 0 else (left, fam))
        cases = [(g.algebra, lc, rc) for lc, rc in cases]
        for trial in range(10):
            mul = Tensor3(g.algebra.mul.dims, dict(g.algebra.mul.entries))
            mul.add(*(rng.randrange(g.dim) for _ in range(3)), f.one)
            cases.append((AlgebraData(f, g.algebra.basis, mul, None), left, right))
        for alg, lc, rc in cases:
            want = _raised(reference_require_global_bimodule, alg, g.hopf, lc, rc)
            assert _raised(_require_global_bimodule, alg, g.hopf, lc, rc) == want
            raised.add(want and want.split(" at ")[0])
    assert None in raised and len(raised) == 7, raised


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
    perm, intertwines, restricted_iso = psi_map(
        sweedler_h4(field), scalar_algebra(field), bg, std_dual)
    assert intertwines and restricted_iso
    assert sorted(perm) == list(range(std_dual.ambient.algebra.dim))


def test_psi_bridge_on_the_one_dimensional_hopf_algebra():
    from phopf._groups import named_group
    from phopf.examples import group_algebra
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
    _, intertwines, restricted_iso = psi_map(kt, a, bg, std)
    assert intertwines and restricted_iso


# ---------------------------------------------------------------------------
# Q8 and D4: ambients of dimension 512.  The bicomodule side is reachable
# because the exchange products join their terms on nonzero leg products.


@pytest.mark.parametrize("group", ["Q8", "D4"])
def test_order_eight_dual_bimodules_globalize_with_certificate(group):
    g = standard_globalize_bimodule(trivialize_right(dual_regular_action(_kg(group))))
    assert g.ambient.algebra.dim == 512 and g.dim == 8
    assert g.certificate.passed and list(g.certificate.laws) == list(GLOBALIZATION_LAWS)


@pytest.mark.parametrize("group", ["Q8", "D4"])
def test_order_eight_regular_dual_bicomodules_globalize_with_certificate(group):
    g = standard_globalize_bicomodule(regular_bicomodule(dual_hopf(_kg(group))))
    assert g.ambient.algebra.dim == 512 and g.dim == 8
    assert g.certificate.passed and g.certificate.laws == ["exchange"]


# ---------------------------------------------------------------------------
# the ambients multiply through their legs: kZ8 at ambient dimension 512,
# and psi_map's algebra-map property against the pair loop it replaced


@functools.lru_cache(maxsize=None)
def _bridged(name):
    """(bicomodule, its standard globalization, the standard globalization
    of its dual bimodule) for a built-in bicomodule family."""
    b = BRIDGED_FAMILIES[name]()
    return b, standard_globalize_bicomodule(b), \
        standard_globalize_bimodule(bicomodule_to_bimodule(b))


def _trivial_group_bicomodule():
    from phopf.coactions import PartialCoactionData
    kt = _kg("trivial")
    a = scalar_algebra(QQ)
    return PartialBicomoduleData(
        PartialCoactionData(kt, a, "left", {(0, 0, 0): QQ.one}),
        PartialCoactionData(kt, a, "right", {(0, 0, 0): QQ.one}))


# name -> bicomodule; every ambient has dimension at most 512
BRIDGED_FAMILIES = {
    "trivial group": _trivial_group_bicomodule,
    "Sweedler (7,3)": lambda: sweedler_k_bicomodule(QQ, 7, 3),
    "Sweedler (2,4) over GF5": lambda: sweedler_k_bicomodule(GF(5), 2, 4),
    "regular H4": lambda: regular_bicomodule(sweedler_h4(QQ)),
    "regular kZ4": lambda: regular_bicomodule(_kg("Z4")),
    "regular kS3": lambda: regular_bicomodule(_kg("S3")),
    "regular kZ8": lambda: regular_bicomodule(_kg("Z8")),
    "regular kQ8*": lambda: regular_bicomodule(dual_hopf(_kg("Q8"))),
}


def test_kz8_bimodule_globalizes_without_writing_out_its_ambient():
    count = TensorProductMul.materializations
    g = standard_globalize_bimodule(trivialize_right(dual_regular_action(_kg("Z8"))))
    assert g.ambient.algebra.dim == 512 and g.dim == 8
    assert g.certificate.passed and list(g.certificate.laws) == list(GLOBALIZATION_LAWS)
    assert maximal_degenerate_subbimodule(g).dim == 0
    assert TensorProductMul.materializations == count


def test_kz8_bicomodule_globalizes_and_bridges_without_writing_out_its_ambients():
    count = TensorProductMul.materializations
    b = regular_bicomodule(_kg("Z8"))
    bg = standard_globalize_bicomodule(b)
    std = standard_globalize_bimodule(bicomodule_to_bimodule(b))
    assert bg.ambient.algebra.dim == std.ambient.algebra.dim == 512
    assert bg.dim == std.dim == 8
    assert bg.certificate.passed and bg.certificate.laws == ["exchange"]
    assert std.certificate.passed
    _, intertwines, restricted_iso = psi_map(b.hopf, b.alg, bg, std)
    assert intertwines and restricted_iso
    assert maximal_degenerate_subbimodule(std).dim == 0
    assert TensorProductMul.materializations == count


def _kzn(n):
    return group_algebra([[(i + j) % n for j in range(n)] for i in range(n)], QQ,
                         name="kZ%d" % n)


@pytest.mark.parametrize("n", [12, 16])
def test_cyclic_bimodule_globalizes_in_tier_1(n):
    # lemaco1 is recorded by its proof; swept, kZ12 took about ten seconds
    g = standard_globalize_bimodule(trivialize_right(dual_regular_action(_kzn(n))))
    assert g.ambient.algebra.dim == n ** 3 and g.dim == n
    assert g.certificate.passed and list(g.certificate.laws) == list(GLOBALIZATION_LAWS)
    assert maximal_degenerate_subbimodule(g).dim == 0


@pytest.mark.parametrize("n", [12, 16])
def test_cyclic_bicomodule_globalizes_and_bridges_in_tier_1(n):
    b = regular_bicomodule(_kzn(n))
    bg = standard_globalize_bicomodule(b)
    std = standard_globalize_bimodule(bicomodule_to_bimodule(b))
    assert bg.dim == std.dim == n
    assert bg.certificate.passed and bg.certificate.laws == ["exchange"]
    assert std.certificate.passed and list(std.certificate.laws) == list(GLOBALIZATION_LAWS)
    _, intertwines, restricted_iso = psi_map(b.hopf, b.alg, bg, std)
    assert intertwines and restricted_iso
    assert maximal_degenerate_subbimodule(std).dim == 0


def test_kz16_bridge_peaks_below_100_mb():
    # dense ambient rows peak at 282 MB here and sparse ones at about 22 MB
    code = textwrap.dedent("""
        import resource
        from phopf import (QQ, bicomodule_to_bimodule, group_algebra, psi_map,
                           regular_bicomodule, standard_globalize_bicomodule,
                           standard_globalize_bimodule)
        b = regular_bicomodule(group_algebra(
            [[(i + j) % 16 for j in range(16)] for i in range(16)], QQ))
        bg = standard_globalize_bicomodule(b)
        std = standard_globalize_bimodule(bicomodule_to_bimodule(b))
        if psi_map(b.hopf, b.alg, bg, std)[1:] != (True, True):
            raise SystemExit("the bridge failed")
        print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
        """)
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    out = subprocess.run([sys.executable, "-c", code], check=True, capture_output=True,
                         text=True, env=dict(os.environ, PYTHONPATH=str(src))).stdout
    assert int(out) < 100 * 1024      # ru_maxrss counts KiB on Linux


def reference_psi_algebra_map(table_x, table_k, perm):
    """The loop psi_map once ran over every pair of ambient basis elements:
    the first pair (x, y) whose product in table_x the index permutation
    perm does not carry to the product in table_k, or None."""
    N = len(perm)
    pv_x, pv_k = table_x.pair_view(), table_k.pair_view()
    empty = {}
    for x in range(N):
        for y in range(N):
            lhs = {perm[z]: c for z, c in pv_x.get((x, y), empty).items()}
            if lhs != pv_k.get((perm[x], perm[y]), empty):
                return x, y
    return None


@pytest.mark.parametrize("name", list(BRIDGED_FAMILIES))
def test_psi_leg_check_matches_the_pair_loop(name):
    from tests.test_algebras import reference_hom_table, reference_tensor_table
    b, bg, std = _bridged(name)
    perm, intertwines, restricted_iso = psi_map(b.hopf, b.alg, bg, std)
    assert intertwines and restricted_iso
    assert len(perm) <= 512
    assert reference_psi_algebra_map(reference_tensor_table(bg.hopf, bg.coeff),
                                     reference_hom_table(std.hopf, std.coeff),
                                     perm) is None


def _with_mutated_leg(std, leg, key, delta):
    """A copy of the module-side globalization whose ambient product has one
    leg changed at one key."""
    amb, f = std.ambient, std.hopf.field
    legs = list(amb.algebra.mul.legs)
    moved = Tensor3(legs[leg].dims, dict(legs[leg].entries))
    moved.add(*key, f.of(delta))
    legs[leg] = moved
    out = copy.copy(std)
    out.ambient = copy.copy(amb)
    out.ambient.algebra = AlgebraData(f, amb.algebra.basis, TensorProductMul(legs),
                                      amb.algebra.unit)
    return out


@pytest.mark.parametrize("name", ["Sweedler (7,3)", "regular H4"])
def test_psi_rejects_ambient_legs_that_differ(name):
    b, bg, std = _bridged(name)
    perm = psi_map(b.hopf, b.alg, bg, std)[0]
    table_x = bg.ambient.algebra.mul.table()
    rng = random.Random(1207)
    for trial in range(9):
        leg = trial % 3
        d = std.ambient.algebra.mul.radix[leg]
        bad = _with_mutated_leg(std, leg, tuple(rng.randrange(d) for _ in range(3)),
                                rng.choice([-1, 1, 2]))
        assert reference_psi_algebra_map(table_x, bad.ambient.algebra.mul.table(),
                                         perm) is not None
        with pytest.raises(AssertionError, match="^the permutation is not an "
                           "algebra map: the ambient legs differ$"):
            psi_map(b.hopf, b.alg, bg, bad)


def reference_psi_intertwines(bg, std, perm):
    """The loop psi_map once ran over every operator and every ambient basis
    column: whether the index permutation perm carries each dual operator of
    H⊗A⊗H, column by column, onto the matching translation of Hom(H⊗H, A)."""
    amb_x, amb_k = bg.ambient, std.ambient
    for xs, ks in ((amb_x.dual_left_ops, amb_k.left_ops),
                   (amb_x.dual_right_ops, amb_k.right_ops)):
        if len(xs) != len(ks):
            return False
        for x_op, k_op in zip(xs, ks):
            for x, t in enumerate(perm):
                if {perm[y]: c for y, c in x_op[x].items()} != k_op[t]:
                    return False
    return True


@pytest.mark.parametrize("name", list(BRIDGED_FAMILIES))
def test_psi_leg_intertwining_matches_the_column_loop(name):
    b, bg, std = _bridged(name)
    perm, intertwines, _ = psi_map(b.hopf, b.alg, bg, std)
    assert intertwines and reference_psi_intertwines(bg, std, perm)


def _with_mutated_operator(std, family, g, j, k, delta):
    """A copy of the module-side globalization whose ambient operator g of
    `family` has its leg matrix changed at column j, row k."""
    amb = std.ambient
    ops = list(getattr(amb, family))
    cols = [dict(col) for col in ops[g].cols]
    dict_acc(cols[j], k, std.hopf.field.of(delta))
    ops[g] = LegOperator(amb.algebra.mul, ops[g].leg, cols)
    out = copy.copy(std)
    out.ambient = copy.copy(amb)
    setattr(out.ambient, family, ops)
    return out


@pytest.mark.parametrize("name", ["Sweedler (7,3)", "regular H4", "regular kZ4"])
def test_psi_does_not_intertwine_a_mutated_leg_matrix(name):
    b, bg, std = _bridged(name)
    perm = psi_map(b.hopf, b.alg, bg, std)[0]
    n = b.hopf.dim
    rng = random.Random(1307)
    for trial in range(9):
        family = ("left_ops", "right_ops")[trial % 2]
        bad = _with_mutated_operator(std, family, rng.randrange(n), rng.randrange(n),
                                     rng.randrange(n), rng.choice([-1, 1, 2]))
        assert not reference_psi_intertwines(bg, bad, perm)
        _, intertwines, restricted_iso = psi_map(b.hopf, b.alg, bg, bad)
        assert restricted_iso and not intertwines


def test_psi_needs_both_sides_over_the_given_hopf_algebra():
    b, bg, std = _bridged("regular H4")
    other_bg = _bridged("regular kZ4")[1]
    with pytest.raises(ValueError, match="comodule-side globalization"):
        psi_map(b.hopf, b.alg, other_bg, std)
    with pytest.raises(ValueError, match="module-side globalization"):
        psi_map(b.hopf, b.alg, bg, _bridged("regular kZ4")[2])


# ---------------------------------------------------------------------------
# the product rule against the two loops it replaced


def _twisted_factors(b):
    """a↼k·S(w₁) at (k, w₁, a) and S(h₂)h'⇀b at (h₂, h', b), as tabulated
    by the two reference loops below."""
    H, A = b.hopf, b.alg
    n, da = H.dim, A.dim
    one = H.field.one
    pvH = H.mul.pair_view()
    s_cols = [dict_of_vec([H.antipode[r][j] for r in range(n)]) for j in range(n)]
    right_fac, left_fac = {}, {}
    for v in range(n):
        for w1 in range(n):
            kt = mul_dicts(pvH, {v: one}, s_cols[w1])
            for m in range(da):
                right_fac[(v, w1, m)] = b.right.apply(kt, {m: one})
    for u2 in range(n):
        for up in range(n):
            ht = mul_dicts(pvH, s_cols[u2], {up: one})
            for m in range(da):
                left_fac[(u2, up, m)] = b.left.apply(ht, {m: one})
    return right_fac, left_fac


def reference_free_candidate_mul(b):
    """The multiplication table free_candidate_bimodule built with its own
    loop before the product rule was shared with verify_globalization."""
    H, A = b.hopf, b.alg
    n, da = H.dim, A.dim
    N = n * da * n

    def idx(u, m, v):
        return (u * da + m) * n + v

    pvA = A.mul.pair_view()
    iv = H.comul.in1_view()
    right_fac, left_fac = _twisted_factors(b)
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
    return mul


def reference_lemaco1(candidate, b):
    """The lemaco1 cases verify_globalization generated with its own loop
    before the product rule was shared with free_candidate_bimodule."""
    H, A = b.hopf, b.alg
    n, da = H.dim, A.dim
    pvB = candidate.algebra.mul.pair_view()
    pvA = A.mul.pair_view()
    iv = H.comul.in1_view()
    left_cols, right_cols = candidate.left_ops, candidate.right_ops
    theta_d = candidate.theta
    translates = [apply_cols(left_cols[h], apply_cols(right_cols[k], theta_d[m]))
                  for h in range(n) for m in range(da) for k in range(n)]

    def tr(h, m, k):
        return translates[(h * da + m) * n + k]

    def tr_of(h, dct, k):
        out = {}
        for m, c in dct.items():
            for i, d in tr(h, m, k).items():
                dict_acc(out, i, c * d)
        return out

    right_fac, left_fac = _twisted_factors(b)
    fac_prods = {}
    for h, m, k, hp, mb, kp in product(range(n), range(da), range(n),
                                       range(n), range(da), range(n)):
        rhs = {}
        for (h1, h2), c1 in iv.get(h, {}).items():
            lf = left_fac[(h2, hp, mb)]
            if not lf:
                continue
            for (w1, w2), c2 in iv.get(kp, {}).items():
                rf = right_fac[(k, w1, m)]
                if not rf:
                    continue
                key = (k, w1, m, h2, hp, mb)
                prod = fac_prods.get(key)
                if prod is None:
                    prod = fac_prods[key] = mul_dicts(pvA, rf, lf)
                if prod:
                    cc = c1 * c2
                    for t, d in tr_of(h1, prod, w2).items():
                        dict_acc(rhs, t, cc * d)
        yield ((H.basis[h], A.basis[m], H.basis[k],
                H.basis[hp], A.basis[mb], H.basis[kp]),
               mul_dicts(pvB, tr(h, m, k), tr(hp, mb, kp)), rhs)


def _random_sweedler_bimodule(field, seed):
    rng = random.Random(seed)
    pick = (lambda: Fraction(rng.randint(-9, 9), rng.randint(1, 5))) \
        if field is QQ else (lambda: rng.randrange(field.char))
    return sweedler_k_bimodule(field, pick(), pick())


PRODUCT_RULE_INPUTS = {
    "Sweedler (r,s)/QQ seed 1": lambda: _random_sweedler_bimodule(QQ, 1),
    "Sweedler (r,s)/QQ seed 2": lambda: _random_sweedler_bimodule(QQ, 2),
    "Sweedler (r,s)/GF5 seed 3": lambda: _random_sweedler_bimodule(GF(5), 3),
    "Sweedler (r,s)/GF5 seed 4": lambda: _random_sweedler_bimodule(GF(5), 4),
    "kZ4* on kZ4": lambda: trivialize_right(dual_regular_action(_kg("Z4"))),
    "H4* on H4": lambda: trivialize_right(dual_regular_action(sweedler_h4(QQ))),
}


@pytest.mark.parametrize("make", PRODUCT_RULE_INPUTS.values(),
                         ids=list(PRODUCT_RULE_INPUTS))
def test_free_candidate_product_matches_the_reference_loop(make):
    b = make()
    assert free_candidate_bimodule(b).algebra.mul.entries == \
        reference_free_candidate_mul(b).entries


def reference_free_candidate_maps(b):
    """θ and the two operator families free_candidate_bimodule wrote with
    its own loops over the basis of H⊗A⊗H before they were built from the
    legs."""
    H, A = b.hopf, b.alg
    n, da = H.dim, A.dim
    f = H.field
    N = n * da * n

    def idx(u, m, v):
        return (u * da + m) * n + v

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
    return theta, left_ops, right_ops


@pytest.mark.parametrize("make", PRODUCT_RULE_INPUTS.values(),
                         ids=list(PRODUCT_RULE_INPUTS))
def test_free_candidate_maps_match_the_reference_loops(make):
    b = make()
    cand = free_candidate_bimodule(b)
    theta, left_ops, right_ops = reference_free_candidate_maps(b)
    assert cand.theta == col_dicts(theta)
    assert cand.left_ops == [col_dicts(op) for op in left_ops]
    assert cand.right_ops == [col_dicts(op) for op in right_ops]


def _theta_mutants(std):
    """Copies of the standard globalization with one entry of θ moved."""
    f = std.hopf.field
    for r in range(std.dim):
        for m in range(std.coeff.dim):
            for delta in (f.one, -std.theta[m].get(r, f.zero)):
                if not delta:
                    continue
                theta = [dict(col) for col in std.theta]
                dict_acc(theta[m], r, delta)
                yield GlobalizationCandidate(std.algebra, theta, std.left_ops,
                                             std.right_ops, std.coeff,
                                             name="θ moved at (%d, %d)" % (r, m))


def _sweedler_mutants(field, r, s):
    b = sweedler_k_bimodule(field, r, s)
    return b, list(_theta_mutants(standard_globalize_bimodule(b)))


def _bridge_candidates(name):
    """The dual bimodule of a built-in regular bicomodule, with its standard
    globalization (lemaco1 by its proof) and the θ mutants of it."""
    b, _, std = _bridged(name)
    return bicomodule_to_bimodule(b), [std] + list(_theta_mutants(std))


def _broken_antipode_candidates():
    """The Sweedler (2,3) bimodule read over H4 with S(x) = xg, which fails
    hopf_check at the antipode law alone, and the standard globalization
    over H4 as the candidate: only lemaco1 reads the antipode."""
    from phopf.actions import PartialActionData
    from phopf.algebras import HopfData
    b = sweedler_k_bimodule(QQ, 2, 3)
    h = b.hopf
    antipode = [list(row) for row in h.antipode]
    antipode[3][2] = QQ.one
    bad = HopfData(QQ, h.basis, dict(h.mul.entries), h.unit, dict(h.comul.entries),
                   h.counit, antipode, name="H4 with S(x) = xg")
    side = {p.side: PartialActionData(bad, b.alg, p.side, dict(p.map.entries))
            for p in (b.left, b.right)}
    return (PartialBimoduleData(side["left"], side["right"]),
            [standard_globalize_bimodule(b)])


# name -> (partial bimodule, candidates); each case has a candidate that
# fails lemaco1
LEMACO1_CASES = {
    "QQ": lambda: _sweedler_mutants(QQ, Fraction(2, 3), -5),
    "GF5": lambda: _sweedler_mutants(GF(5), 2, 4),
    "regular H4": lambda: _bridge_candidates("regular H4"),
    "regular kZ4": lambda: _bridge_candidates("regular kZ4"),
    "regular kS3": lambda: _bridge_candidates("regular kS3"),
    "H4 with S(x) = xg": _broken_antipode_candidates,
}


@pytest.mark.parametrize("case", list(LEMACO1_CASES))
def test_verify_globalization_reports_match_the_reference_lemaco1(case):
    b, candidates = LEMACO1_CASES[case]()
    seen = 0
    for cand in candidates:
        try:
            rep = verify_globalization(cand, b)
        except ValueError as exc:
            assert "not injective" in str(exc)
            continue
        ref = Report(rep.subject)
        for law in rep.laws:
            if law == "lemaco1":
                _first_failure(ref, law, reference_lemaco1(cand, b))
            else:
                ref.law(law)
                ref.failures += rep.failures_for(law)
        assert rep.laws == ref.laws == list(GLOBALIZATION_LAWS)
        assert rep.failures == ref.failures
        assert rep.to_json() == ref.to_json()
        seen += bool(rep.failures_for("lemaco1"))
    assert seen
