"""Partial comodule algebra layer: coaction families, checkers, duality."""

from fractions import Fraction

import pytest

from phopf.fields import GF, QQ
from phopf._groups import named_group
from phopf.algebras import group_algebra, scalar_algebra, sweedler_h4
from phopf.actions import (check_bimodule, check_lpma, check_rpma, is_global,
                           sweedler_k_bimodule, trivial_action,
                           trivialize_right)
from phopf.coactions import (PartialBicomoduleData, PartialCoactionData,
                             bicomodule_to_bimodule, bimodule_to_bicomodule,
                             check_bicomodule, check_global_unit, check_lpca,
                             check_rpca, check_vesgo_equivalence,
                             coaction_to_dual_action, dual_action_to_coaction,
                             induce_bicomodule, induce_right_coaction,
                             regular_bicomodule, regular_coaction,
                             sweedler_k_bicomodule, trivial_coaction)
from phopf.linalg import subspace_span
from tests.conftest import rand_fraction


# ---------------------------------------------------------------------------
# the two-parameter Sweedler coaction family on the base field


def test_sweedler_bicomodule_certifies_at_random_parameters(rng):
    for _ in range(15):
        t, u = rand_fraction(rng), rand_fraction(rng)
        b = sweedler_k_bicomodule(QQ, t, u)
        assert check_lpca(b.left).passed
        assert check_rpca(b.right).passed
        assert check_bicomodule(b).passed
        # the 1/2-pattern on the unit makes both sides genuinely partial
        assert not check_global_unit(b.left)
        assert not check_global_unit(b.right)


def test_sweedler_bicomodule_over_prime_field():
    for t in (0, 1, 4):
        for u in (0, 2):
            assert check_bicomodule(sweedler_k_bicomodule(GF(5), t, u)).passed


def test_sweedler_bicomodule_unit_images():
    half = QQ.of(Fraction(1, 2))
    b = sweedler_k_bicomodule(QQ, 7, 3)
    assert b.left.unit_image() == {(0, 0): half, (1, 0): half, (3, 0): QQ.of(7)}
    assert b.right.unit_image() == {(0, 0): half, (0, 1): half, (0, 2): QQ.of(3)}


def test_symmetric_coaction_law_is_checkable():
    b = sweedler_k_bicomodule(QQ, 5, -2)
    rep = check_rpca(b.right, symmetric=True)
    assert rep.passed and "coaction-symmetry" in rep.laws


# ---------------------------------------------------------------------------
# global endpoints and constructor guards


@pytest.mark.parametrize("field", [QQ, GF(5)], ids=["QQ", "GF5"])
def test_regular_bicomodule_is_global(field):
    b = regular_bicomodule(sweedler_h4(field))
    assert check_bicomodule(b).passed
    assert check_global_unit(b.left) and check_global_unit(b.right)


def test_regular_coaction_is_comultiplication(h4):
    p = regular_coaction(h4, side="right")
    assert p.coact_dict({2: QQ.one}) == {(2, 1): QQ.one, (0, 2): QQ.one}
    assert p.map.entries == h4.comul.entries


def test_trivial_coaction_is_global(h4):
    a = scalar_algebra(QQ)
    for side in ("left", "right"):
        p = trivial_coaction(h4, a, side=side)
        assert check_global_unit(p)
        suite = check_lpca if side == "left" else check_rpca
        assert suite(p).passed


def test_counit_law_is_enforced_at_construction(h4):
    a = scalar_algebra(QQ)
    with pytest.raises(ValueError):
        PartialCoactionData(h4, a, "right", {(0, 0, 2): QQ.one})   # 1 ↦ 1⊗x
    with pytest.raises(ValueError):
        PartialCoactionData(h4, a, "right", {(0, 0, 0): QQ.of(2)})
    p = PartialCoactionData(h4, a, "right", {(0, 0, 2): QQ.one}, unchecked=True)
    rep = check_rpca(p)
    assert not rep.passed and rep.failures_for("counit-coaction")


# ---------------------------------------------------------------------------
# the finite-dimensional duality bridges


def test_coaction_bridges_round_trip_exactly():
    b = sweedler_k_bicomodule(QQ, 7, 3)
    left_act = coaction_to_dual_action(b.right)     # right coaction -> left action
    right_act = coaction_to_dual_action(b.left)     # left coaction -> right action
    assert left_act.side == "left" and check_lpma(left_act).passed
    assert right_act.side == "right" and check_rpma(right_act).passed
    back_r = dual_action_to_coaction(left_act)
    back_l = dual_action_to_coaction(right_act)
    assert back_r.side == "right" and back_r.map.entries == b.right.map.entries
    assert back_l.side == "left" and back_l.map.entries == b.left.map.entries


def test_bicomodule_to_bimodule_certifies_and_stays_partial():
    b = sweedler_k_bicomodule(QQ, 7, 3)
    bm = bicomodule_to_bimodule(b)
    assert check_bimodule(bm).passed
    assert not is_global(bm.left) and not is_global(bm.right)
    # the dual action values: f ▷ 1 = 1/2 f(1) + 1/2 f(g) + 3 f(x)
    half = QQ.of(Fraction(1, 2))
    assert bm.left.apply({0: QQ.one}, {0: QQ.one}) == {0: half}
    assert bm.left.apply({2: QQ.one}, {0: QQ.one}) == {0: QQ.of(3)}
    assert bm.left.apply({3: QQ.one}, {0: QQ.one}) == {}


def test_globality_transfers_through_the_bridges(h4):
    bm = bicomodule_to_bimodule(regular_bicomodule(h4))
    assert check_bimodule(bm).passed
    assert is_global(bm.left) and is_global(bm.right)
    glob = trivialize_right(trivial_action(h4, scalar_algebra(QQ), "left"))
    bc = bimodule_to_bicomodule(glob)
    assert check_global_unit(bc.left) and check_global_unit(bc.right)


def test_double_bridge_restores_the_bimodule():
    b = sweedler_k_bimodule(QQ, 2, 3)
    again = bicomodule_to_bimodule(bimodule_to_bicomodule(b))
    assert again.left.map.entries == b.left.map.entries
    assert again.right.map.entries == b.right.map.entries


def test_bridge_on_group_coset_coaction():
    _, table = named_group("Z4")
    h = group_algebra(table, QQ)
    bc = regular_bicomodule(h)
    bm = bicomodule_to_bimodule(bc)
    assert is_global(bm.left) and is_global(bm.right)
    back = bimodule_to_bicomodule(bm)
    assert back.left.map.entries == bc.left.map.entries
    assert back.right.map.entries == bc.right.map.entries


# ---------------------------------------------------------------------------
# induced partial coactions on kZ4


def _z4_setup():
    _, table = named_group("Z4")
    bic = regular_bicomodule(group_algebra(table, QQ))
    o, z, half = QQ.one, QQ.zero, QQ.of(Fraction(1, 2))
    u0, u2 = [o, z, z, z], [z, z, o, z]
    e = [half, z, half, z]
    return bic, u0, u2, e


def test_induce_right_coaction_on_the_averaged_idempotent():
    bic, _, _, e = _z4_setup()
    half = Fraction(1, 2)
    ind = induce_right_coaction(bic.right, e)
    assert ind.alg.dim == 2 and ind.alg.unit == [half, 0]
    assert ind.alg.mul.entries == {(0, 0, 0): 2, (0, 1, 1): 2,
                                   (1, 0, 1): 2, (1, 1, 0): 2}
    assert ind.map.entries == {(0, 0, 0): half, (0, 0, 2): half,
                               (1, 1, 1): half, (1, 1, 3): half}
    assert check_rpca(ind).passed
    assert not check_global_unit(ind)


def test_induce_bicomodule_on_the_index_two_subgroup_of_z4():
    bic, u0, u2, _ = _z4_setup()
    ind = induce_bicomodule(bic, subspace_span([u0, u2], 4, QQ), u0)
    assert ind.alg.dim == 2 and ind.alg.unit == [1, 0]
    assert ind.alg.mul.entries == {(0, 0, 0): 1, (0, 1, 1): 1,
                                   (1, 0, 1): 1, (1, 1, 0): 1}
    assert ind.left.map.entries == {(0, 0, 0): 1, (1, 2, 1): 1}
    assert ind.right.map.entries == {(0, 0, 0): 1, (1, 1, 2): 1}
    assert check_bicomodule(ind).passed


def test_induce_bicomodule_rejects_the_averaged_idempotent_corner():
    bic, _, _, e = _z4_setup()
    with pytest.raises(ValueError, match=r"exchange condition fails at "
                                         r"witness pair \(a=0, b=0\)"):
        induce_bicomodule(bic, subspace_span([e], 4, QQ), e)


def test_vesgo_equivalence_forms_agree_on_both_subalgebras():
    bic, u0, u2, e = _z4_setup()
    assert check_vesgo_equivalence(bic, subspace_span([u0, u2], 4, QQ), u0) \
        == (True, True)
    assert check_vesgo_equivalence(bic, [u0, u2], u0) == (True, True)
    assert check_vesgo_equivalence(bic, subspace_span([e], 4, QQ), e) \
        == (False, False)
