"""Partial module algebra layer: action families, checkers, group actions."""

from fractions import Fraction

import pytest

from phopf.fields import GF, QQ
from phopf._groups import named_group
from phopf.algebras import group_algebra, scalar_algebra, sweedler_h4
from phopf.actions import (GroupPartialActionData, PartialActionData,
                           check_bimodule, check_group_partial_action,
                           check_lpma, check_rpma, dual_regular_action,
                           en_kg_example, group_to_kg, induce_bimodule,
                           induce_left, is_global, kg_to_group,
                           sweedler_k_bimodule, trivial_action,
                           trivialize_right)
from phopf.cli import z2_partial_group_example
from phopf.linalg import subspace_span
from tests.conftest import rand_fraction


# ---------------------------------------------------------------------------
# the two-parameter Sweedler family on the base field


def test_sweedler_family_certifies_at_random_parameters(rng):
    for _ in range(20):
        r, s = rand_fraction(rng), rand_fraction(rng)
        b = sweedler_k_bimodule(QQ, r, s)
        assert check_lpma(b.left).passed and b.left.symmetric
        assert check_rpma(b.right).passed and b.right.symmetric
        assert check_bimodule(b).passed
        # g acts as zero, never as ε(g) = 1, so neither side is global
        assert not is_global(b.left) and not is_global(b.right)


def test_sweedler_family_over_prime_field():
    for r in range(5):
        for s in (0, 1, 3):
            b = sweedler_k_bimodule(GF(5), r, s)
            assert check_bimodule(b).passed


def test_sweedler_family_action_values(h4):
    b = sweedler_k_bimodule(QQ, Fraction(2), Fraction(3))
    one = {0: QQ.one}
    assert b.left.apply({2: QQ.one}, one) == {0: QQ.of(2)}     # x acts by r
    assert b.left.apply({3: QQ.one}, one) == {0: QQ.of(-2)}    # xg acts by -r
    assert b.right.apply({2: QQ.one}, one) == {0: QQ.of(3)}    # x acts by s
    assert b.right.apply({3: QQ.one}, one) == {0: QQ.of(3)}    # xg acts by +s
    assert b.left.apply({1: QQ.one}, one) == {}                # g kills 1


def test_flipping_the_xg_sign_breaks_composition(h4):
    A = scalar_algebra(QQ)
    one = QQ.one
    bad = PartialActionData(h4, A, "left",
                            {(0, 0, 0): one, (2, 0, 0): QQ.of(2), (3, 0, 0): QQ.of(2)})
    rep = check_lpma(bad)
    assert not rep.passed
    assert rep.failures_for("action-composition")
    law, idx, lhs, rhs = rep.failures_for("action-composition")[0]
    assert lhs != rhs                       # an explicit witness is recorded
    bad_r = PartialActionData(h4, A, "right",
                              {(0, 0, 0): one, (2, 0, 0): QQ.of(3), (3, 0, 0): QQ.of(-3)})
    assert check_rpma(bad_r).failures_for("action-composition")


# ---------------------------------------------------------------------------
# the averaged-idempotent coset example


def test_en_kg_on_z4():
    _, table = named_group("Z4")
    A, act = en_kg_example(table, {0, 2}, QQ)
    assert A.dim == 2
    assert check_lpma(act).passed and act.symmetric
    assert not is_global(act)
    half = QQ.of(Fraction(1, 2))
    reps = [0, 1]
    for g in range(4):
        for j, h in enumerate(reps):
            got = act.apply({g: QQ.one}, {j: QQ.one})
            want = {j: half} if (h - g) % 4 in (0, 2) else {}
            assert got == want, (g, h)


def test_en_kg_matches_the_induced_corner_action():
    _, table = named_group("Z4")
    _, act = en_kg_example(table, {0, 2}, QQ)
    h = group_algebra(table, QQ)
    glob = dual_regular_action(h)
    assert is_global(glob)
    half = QQ.of(Fraction(1, 2))
    e = [half, QQ.zero, half, QQ.zero]
    ind = induce_left(glob, e)
    assert ind.alg.dim == 2
    assert ind.map.entries == act.map.entries
    assert check_lpma(ind).passed


def test_en_kg_input_validation():
    _, z4 = named_group("Z4")
    with pytest.raises(ValueError):
        en_kg_example(z4, {0, 1}, QQ)            # not closed under the law
    with pytest.raises(ValueError):
        en_kg_example(z4, {0, 2}, GF(2))         # characteristic divides |N|
    _, s3 = named_group("S3")
    e = next(i for i in range(6) if all(s3[i][j] == j for j in range(6)))
    t = next(i for i in range(6) if i != e and s3[i][i] == e)
    with pytest.raises(ValueError):
        en_kg_example(s3, {e, t}, QQ)            # order-2 subgroup not normal


def test_en_kg_normal_subgroup_of_s3():
    _, s3 = named_group("S3")
    e = next(i for i in range(6) if all(s3[i][j] == j for j in range(6)))
    cyc = sorted({e} | {i for i in range(6) if i != e and s3[i][i] != e})
    assert len(cyc) == 3
    A, act = en_kg_example(s3, cyc, QQ)
    assert A.dim == 2 and check_lpma(act).passed and not is_global(act)


# ---------------------------------------------------------------------------
# global endpoints and constructor guards


def test_dual_regular_action_is_global(h4):
    for h in (h4, group_algebra(named_group("Q8")[1], QQ)):
        glob = dual_regular_action(h)
        assert is_global(glob) and check_lpma(glob).passed


def test_trivial_action_and_trivialized_bimodule(h4):
    A = scalar_algebra(QQ)
    t = trivial_action(h4, A, side="left")
    assert is_global(t) and t.symmetric and check_lpma(t).passed
    b = trivialize_right(sweedler_k_bimodule(QQ, 2, 3).left)
    assert check_bimodule(b).passed
    assert not is_global(b.left) and is_global(b.right)


def test_unit_of_hopf_must_act_as_identity(h4):
    A = scalar_algebra(QQ)
    with pytest.raises(ValueError):
        PartialActionData(h4, A, "left", {(0, 0, 0): QQ.of(2)})
    with pytest.raises(ValueError):
        PartialActionData(h4, A, "left", {(2, 0, 0): QQ.one})


def test_action_matrices_have_images_in_columns():
    _, table = named_group("Z4")
    _, act = en_kg_example(table, {0, 2}, QQ)
    for g in range(4):
        m = act.matrix(g)
        for j in range(act.alg.dim):
            col = {i: m[i][j] for i in range(act.alg.dim) if m[i][j]}
            assert col == act.apply({g: QQ.one}, {j: QQ.one})


def test_induce_left_rejects_non_idempotents():
    _, table = named_group("Z4")
    glob = dual_regular_action(group_algebra(table, QQ))
    with pytest.raises(ValueError):
        induce_left(glob, [QQ.one, QQ.one, QQ.zero, QQ.zero])


def test_induce_bimodule_on_the_index_two_subgroup_of_z4():
    # A = span{u0, u2} with unit u0 = 1_B: the corner condition holds, the
    # dual-regular action keeps p_0 and p_2, and the ε-action stays trivial
    _, table = named_group("Z4")
    bim = trivialize_right(dual_regular_action(group_algebra(table, QQ)))
    o, z = QQ.one, QQ.zero
    u0, u2 = [o, z, z, z], [z, z, o, z]
    ind = induce_bimodule(bim, subspace_span([u0, u2], 4, QQ), u0)
    assert ind.alg.dim == 2 and ind.alg.unit == [o, z]
    assert ind.alg.mul.entries == {(0, 0, 0): 1, (0, 1, 1): 1,
                                   (1, 0, 1): 1, (1, 1, 0): 1}
    assert ind.left.map.entries == {(0, 0, 0): 1, (2, 1, 1): 1}
    assert ind.right.map.entries == {(0, 0, 0): 1, (0, 1, 1): 1}
    assert check_bimodule(ind).passed
    assert is_global(ind.left) and is_global(ind.right)


# ---------------------------------------------------------------------------
# partial group actions and the group-algebra bridge


@pytest.mark.parametrize("field", [QQ, GF(5)], ids=["QQ", "GF5"])
def test_z2_partial_group_round_trip(field):
    gpa = z2_partial_group_example(field)
    assert check_group_partial_action(gpa).passed
    p = group_to_kg(gpa)
    assert p.symmetric and check_lpma(p, symmetric=True).passed
    assert not is_global(p)
    back = kg_to_group(p)
    assert back.table == gpa.table
    assert back.idempotents == gpa.idempotents
    assert back.alphas == gpa.alphas
    assert back.labels == gpa.labels


def test_group_action_checker_catches_bad_alpha():
    gpa = z2_partial_group_example(QQ)
    scaled = [[QQ.of(2), QQ.zero], [QQ.zero, QQ.zero]]
    bad = GroupPartialActionData(gpa.table, gpa.alg, gpa.idempotents,
                                 [gpa.alphas[0], scaled], labels=gpa.labels)
    rep = check_group_partial_action(bad)
    assert not rep.passed
    assert rep.failures_for("unit-translation") or rep.failures_for("iso-multiplicative")
    unnormalized = [[QQ.one, QQ.zero], [QQ.zero, QQ.one]]
    bad2 = GroupPartialActionData(gpa.table, gpa.alg, gpa.idempotents,
                                  [gpa.alphas[0], unnormalized], labels=gpa.labels)
    assert check_group_partial_action(bad2).failures_for("canonical-normalization")


def test_kg_to_group_rejects_non_group_hopf(h4):
    t = trivial_action(h4, scalar_algebra(QQ), side="left")
    with pytest.raises(ValueError):
        kg_to_group(t)


def test_group_table_is_validated():
    with pytest.raises(ValueError):
        GroupPartialActionData([[0, 1], [1, 1]], scalar_algebra(QQ),
                               [[QQ.one]] * 2, [[[QQ.one]]] * 2)
