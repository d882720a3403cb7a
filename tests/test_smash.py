"""Smash product layer: the twisted product, idempotents, unital corners."""

from fractions import Fraction

import pytest

from phopf.fields import GF, QQ
from phopf.algebras import dict_of_vec, mul_dicts, scalar_algebra, sweedler_h4
from phopf.actions import (PartialBimoduleData, is_global,
                           sweedler_k_bimodule, trivial_action)
from phopf.coactions import (PartialBicomoduleData, PartialCoactionData,
                             check_bicomodule, regular_bicomodule,
                             sweedler_k_bicomodule, trivial_coaction)
from phopf.smash import (check_ker_eps_invariance, check_smash_associativity,
                         find_idempotent, smash_product, unital_corner)
from tests.conftest import rand_fraction

HALF = Fraction(1, 2)


def _trivial_bimodule(h, a):
    return PartialBimoduleData(trivial_action(h, a, "left"),
                               trivial_action(h, a, "right"))


def _trivial_bicomodule(h, a):
    return PartialBicomoduleData(trivial_coaction(h, a, "left"),
                                 trivial_coaction(h, a, "right"))


# ---------------------------------------------------------------------------
# degenerate and global inputs


def test_one_dimensional_trivial_smash(h4):
    a = scalar_algebra(QQ)
    s = smash_product(_trivial_bimodule(h4, a), _trivial_bicomodule(h4, a))
    assert s.alg.dim == 1
    assert s.alg.unit == [QQ.one]
    assert check_smash_associativity(s).passed
    assert find_idempotent(s, [QQ.one], [QQ.one]) == (True, "(1)+(2)")
    corner = unital_corner(s, [QQ.one])
    assert corner.dim == 1 and corner.alg.unit == [QQ.one]


def test_global_inputs_reproduce_the_hopf_multiplication(h4):
    a = scalar_algebra(QQ)
    s = smash_product(_trivial_bimodule(h4, a), regular_bicomodule(h4))
    assert s.alg.dim == 4
    assert s.alg.unit == [QQ.one, QQ.zero, QQ.zero, QQ.zero]
    assert s.alg.mul.entries == h4.mul.entries
    one = [QQ.one, QQ.zero, QQ.zero, QQ.zero]
    assert find_idempotent(s, [QQ.one], one) == (True, "(1)+(2)")
    assert unital_corner(s, s.alg.unit).dim == 4


# ---------------------------------------------------------------------------
# the one-dimensional two-family smash


def test_one_dimensional_family_square_coefficient(rng):
    for _ in range(20):
        r, s_, t, u = (rand_fraction(rng) for _ in range(4))
        sm = smash_product(sweedler_k_bimodule(QQ, r, s_),
                           sweedler_k_bicomodule(QQ, t, u))
        assert check_smash_associativity(sm).passed
        coeff = sm.alg.mul.entries.get((0, 0, 0), QQ.zero)
        assert coeff == QQ.of((HALF + u * s_) * (HALF - t * r)), (r, s_, t, u)


def test_family_square_at_the_pinned_parameters():
    sm = smash_product(sweedler_k_bimodule(QQ, 2, 3),
                       sweedler_k_bicomodule(QQ, 5, 7))
    assert sm.alg.mul.entries.get((0, 0, 0)) == QQ.of(Fraction(-817, 4))
    assert sm.alg.unit is None
    assert find_idempotent(sm, [QQ.one], [QQ.one]) == (False, "none")


@pytest.mark.parametrize("r,s,t,u", [(1, 1, 5, -HALF), (1, 7, HALF, 0)])
def test_nilpotent_generator_is_rejected_by_the_corner(r, s, t, u):
    sm = smash_product(sweedler_k_bimodule(QQ, r, s),
                       sweedler_k_bicomodule(QQ, t, u))
    assert (0, 0, 0) not in sm.alg.mul.entries
    assert find_idempotent(sm, [QQ.one], [QQ.one]) == (False, "none")
    with pytest.raises(ValueError):
        unital_corner(sm, [QQ.one])


def test_idempotent_without_any_hypothesis_route():
    sm = smash_product(sweedler_k_bimodule(QQ, 1, 1),
                       sweedler_k_bicomodule(QQ, -HALF, HALF))
    assert sm.alg.mul.entries.get((0, 0, 0)) == QQ.one
    assert find_idempotent(sm, [QQ.one], [QQ.one]) == (True, "direct")


# ---------------------------------------------------------------------------
# the four-dimensional partial-times-regular smash


@pytest.mark.parametrize("field", [QQ, GF(5)], ids=["QQ", "GF5"])
def test_partial_times_regular_smash(field):
    h = sweedler_h4(field)
    bim = sweedler_k_bimodule(field, 2, 3)
    assert not is_global(bim.left)
    s = smash_product(bim, regular_bicomodule(h))
    assert s.alg.dim == 4
    assert check_smash_associativity(s).passed
    assert s.alg.unit is None
    one_h = [field.one, field.zero, field.zero, field.zero]
    assert find_idempotent(s, [field.one], one_h) == (True, "(3)+(4)")
    e = s.pair_vec([field.one], one_h)
    corner = unital_corner(s, e)
    assert corner.dim == 1 and corner.alg.unit == [field.one]
    assert corner.include([field.one]) == e


def test_corner_sandwich_values(h4):
    s = smash_product(sweedler_k_bimodule(QQ, 2, 3), regular_bicomodule(h4))
    e = dict_of_vec(s.pair_vec([QQ.one], [QQ.one, QQ.zero, QQ.zero, QQ.zero]))
    pv = s.alg.mul.pair_view()

    def sandwich(t):
        return mul_dicts(pv, mul_dicts(pv, e, {t: QQ.one}), e)

    assert sandwich(1) == {}
    assert sandwich(2) == {0: QQ.of(3)}
    assert sandwich(3) == {0: QQ.of(-2)}


# ---------------------------------------------------------------------------
# counit-kernel invariance


def test_ker_eps_invariance_endpoints(h4):
    a = scalar_algebra(QQ)
    assert check_ker_eps_invariance(_trivial_bimodule(h4, a), [QQ.one]) == (True, True)
    assert check_ker_eps_invariance(sweedler_k_bimodule(QQ, 2, 3), [QQ.one]) == (False, False)
    # even at r = s = 0 the group-like acts by zero, not by its counit value
    assert check_ker_eps_invariance(sweedler_k_bimodule(QQ, 0, 0), [QQ.one]) == (False, False)
    with pytest.raises(ValueError):
        check_ker_eps_invariance(sweedler_k_bimodule(QQ, 2, 3), [QQ.zero])


def test_ker_eps_invariance_randomized(h4, rng):
    a = scalar_algebra(QQ)
    triv = _trivial_bimodule(h4, a)
    for _ in range(10):
        b = sweedler_k_bimodule(QQ, rand_fraction(rng), 0)
        vec = [QQ.of(Fraction(rng.randrange(1, 9), 3))]
        assert check_ker_eps_invariance(b, vec) == (False, False)
        assert check_ker_eps_invariance(triv, vec) == (True, True)


# ---------------------------------------------------------------------------
# gates: certification, mutation, mismatched factors


def test_uncertified_factors_are_rejected(h4):
    bim = sweedler_k_bimodule(QQ, 2, 3)
    reg = regular_bicomodule(h4)
    lam_bad = dict(h4.comul.entries)
    lam_bad[(2, 2, 1)] = lam_bad[(2, 2, 1)] + QQ.one   # doubles one coaction term
    left_bad = PartialCoactionData(h4, h4, "left", lam_bad, unchecked=True)
    bad = PartialBicomoduleData(left_bad, reg.right)
    assert not check_bicomodule(bad).passed
    with pytest.raises(ValueError, match="uncertified"):
        smash_product(bim, bad)
    s_bad = smash_product(bim, bad, unchecked=True)
    rep = check_smash_associativity(s_bad)
    assert not rep.passed
    law, idx, lhs, rhs = rep.failures[0]
    assert law == "associativity" and len(idx) == 3 and lhs != rhs


def test_mismatched_hopf_factors_are_rejected():
    with pytest.raises(ValueError):
        smash_product(sweedler_k_bimodule(QQ, 2, 3),
                      regular_bicomodule(sweedler_h4(GF(5))))


def test_find_idempotent_validates_its_inputs(h4):
    a = scalar_algebra(QQ)
    s = smash_product(_trivial_bimodule(h4, a), regular_bicomodule(h4))
    with pytest.raises(ValueError):
        find_idempotent(s, [QQ.zero], [QQ.one, QQ.zero, QQ.zero, QQ.zero])
    with pytest.raises(ValueError):
        find_idempotent(s, [QQ.one], [QQ.zero, QQ.one, QQ.zero, QQ.zero])  # g not idempotent


def test_a_smash_transposes_each_coaction_once(tmp_path, monkeypatch, capsys):
    # the idempotent search reads both coactions as their dual families for
    # every idempotent pair; each family is built once per map (16 transposes
    # on this input when dual_cols rebuilt it on every call)
    from phopf import serialize
    from phopf.actions import dual_regular_action, trivialize_right
    from phopf.algebras import DUAL, group_algebra
    from phopf.cli import main
    from phopf.linalg import Tensor3
    from phopf.serialize import write_document
    from phopf._groups import named_group
    labels, table = named_group("Q8")
    bim = trivialize_right(dual_regular_action(group_algebra(table, GF(7), labels)))
    bic = regular_bicomodule(bim.hopf)
    paths = [str(tmp_path / name) for name in ("bimodule.json", "bicomodule.json")]
    write_document(bim.to_json(), paths[0])
    write_document(bic.to_json(), paths[1])
    loaded, transposed = [], []
    load, transpose = serialize.load_bicomodule, Tensor3.transpose

    def loading(*args):
        loaded.append(load(*args))
        return loaded[-1]

    def transposing(t, perm):
        transposed.append((t, perm))
        return transpose(t, perm)

    monkeypatch.setattr(serialize, "load_bicomodule", loading)
    monkeypatch.setattr(Tensor3, "transpose", transposing)
    assert main(["smash", *paths, "-o", str(tmp_path / "smash.json")]) == 0
    capsys.readouterr()
    b, = loaded
    for p in (b.left, b.right):
        assert sum(t is p.map and perm == DUAL[p.side][0] for t, perm in transposed) == 1
