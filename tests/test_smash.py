"""Smash product layer: the twisted product, idempotents, unital corners."""

import random
from fractions import Fraction
from itertools import product

import pytest

from phopf.fields import GF, QQ
from phopf.algebras import (AlgebraData, algebra_check, dict_acc, dict_of_vec, dual_hopf,
                            mul_dicts)
from phopf.examples import (group_algebra, regular_bicomodule, scalar_algebra, sweedler_h4,
                            sweedler_k_bicomodule, trivial_coaction)
from phopf.actions import (PartialActionData, PartialBimoduleData, dual_regular_action,
                           is_global, sweedler_k_bimodule, trivial_action,
                           trivialize_right)
from phopf.coactions import PartialBicomoduleData, check_bicomodule
from phopf.smash import (CornerAlgebra, SmashAlgebra, _smash_table, check_ker_eps_invariance,
                         check_smash_associativity, find_idempotent, smash_product,
                         unital_corner)
from phopf.linalg import Tensor3
from phopf._groups import named_group
from tests.conftest import forged_coaction, rand_fraction

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
    assert isinstance(s, SmashAlgebra) and s.alg.dim == 1
    assert s.alg.unit == [QQ.one]
    assert check_smash_associativity(s).passed
    assert find_idempotent(s, [QQ.one], [QQ.one]) == (True, "(1)+(2)")
    corner = unital_corner(s, [QQ.one])
    assert isinstance(corner, CornerAlgebra)
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
# vectors of the wrong length


def _dual_regular_smash(h):
    """The dual regular action of h* on h (trivial from the right) smashed
    with the regular h* bicomodule: a global product of dimension (dim h)²."""
    bim = trivialize_right(dual_regular_action(h))
    return smash_product(bim, regular_bicomodule(bim.hopf))


def test_a_vector_of_the_wrong_length_is_rejected(h4):
    kz2 = group_algebra([[0, 1], [1, 0]], QQ, ["e", "g"], name="kZ2")
    s = _dual_regular_smash(dual_hopf(kz2))
    # g*♮e** is idempotent; a u of the wrong length was read as another one
    assert find_idempotent(s, [0, 1], [1, 0]) == (True, "(2)+(3)")
    for a, u in (([0, 1], [1]), ([0, 1], [1, 0, 0]), ([0, 0, 1], [1, 0]), ([1], [1, 0])):
        with pytest.raises(ValueError, match="entries"):
            find_idempotent(s, a, u)
        with pytest.raises(ValueError, match="entries"):
            s.pair_vec(a, u)
    with pytest.raises(ValueError, match="entries"):
        check_ker_eps_invariance(sweedler_k_bimodule(QQ, 2, 3), [1, 1])
    big = _dual_regular_smash(h4)
    assert big.alg.dim == 16 and unital_corner(big, big.alg.unit).dim == 16
    for e in (big.alg.unit[:15], big.alg.unit + [QQ.zero]):
        with pytest.raises(ValueError, match="entries"):
            unital_corner(big, e)


# ---------------------------------------------------------------------------
# gates: certification, mutation, mismatched factors


def test_uncertified_factors_are_rejected(h4):
    bim = sweedler_k_bimodule(QQ, 2, 3)
    reg = regular_bicomodule(h4)
    lam_bad = dict(h4.comul.entries)
    lam_bad[(2, 2, 1)] = lam_bad[(2, 2, 1)] + QQ.one   # doubles one coaction term
    left_bad = forged_coaction(h4, h4, "left", lam_bad)
    bad = PartialBicomoduleData(left_bad, reg.right)
    assert not check_bicomodule(bad).passed
    with pytest.raises(ValueError, match="uncertified"):
        smash_product(bim, bad)
    # the keyed join alone, on the uncertified pair
    rep = algebra_check(AlgebraData(QQ, ["s%d" % t for t in range(4)],
                                    _smash_table(bim, bad), None))
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
    from phopf.algebras import DUAL
    from phopf.examples import group_algebra
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


# ---------------------------------------------------------------------------
# the keyed-join build against the four-loop build it replaced


def reference_smash_mul(bimodule, bicomodule):
    """The structure tensor of A ♮ Ā as smash_product once built it: for
    every (j, l, i, k), every term of ρ(u_l) against every term of λ(u_j).
    Kept as the differential reference."""
    A, U = bimodule.alg, bicomodule.alg
    dA, dU = A.dim, U.dim
    pvA, pvU = A.mul.pair_view(), U.mul.pair_view()
    lam = bicomodule.left.map.in1_view()
    rho = bicomodule.right.map.in1_view()
    right_cols = bimodule.right.map.columns()
    left_cols = bimodule.left.map.columns()
    N = dA * dU
    mul = Tensor3((N, N, N))
    for j in range(dU):
        lam_j = lam.get(j, {})
        for l in range(dU):
            rho_l = rho.get(l, {})
            for i in range(dA):
                for k in range(dA):
                    acc = {}
                    for (l0, lh), c1 in rho_l.items():
                        a_img = right_cols[lh][i]
                        if not a_img:
                            continue
                        for (jh, j0), c2 in lam_j.items():
                            b_img = left_cols[jh][k]
                            u_img = pvU.get((j0, l0))
                            if not b_img or not u_img:
                                continue
                            c12 = c1 * c2
                            for m, ca in mul_dicts(pvA, a_img, b_img).items():
                                for p, cu in u_img.items():
                                    dict_acc(acc, m * dU + p, c12 * ca * cu)
                    for key, c in acc.items():
                        mul.add(i * dU + j, k * dU + l, key, c)
    return mul


def _dual_pair(group, field=GF(7)):
    """The kG* bimodule on kG (dual regular action from the left, trivial
    from the right) and the regular kG* bicomodule."""
    labels, table = named_group(group)
    bim = trivialize_right(dual_regular_action(group_algebra(table, field, labels)))
    return bim, regular_bicomodule(bim.hopf)


BUILD_CASES = {
    "Sweedler QQ": lambda: (sweedler_k_bimodule(QQ, 2, 3), sweedler_k_bicomodule(QQ, 5, 7)),
    "Sweedler GF5": lambda: (sweedler_k_bimodule(GF(5), 2, 3),
                             sweedler_k_bicomodule(GF(5), 4, 1)),
    "H4 regular QQ": lambda: (sweedler_k_bimodule(QQ, 2, 3), regular_bicomodule(sweedler_h4(QQ))),
    "H4 regular GF5": lambda: (sweedler_k_bimodule(GF(5), 2, 3),
                               regular_bicomodule(sweedler_h4(GF(5)))),
    "kZ4 GF7": lambda: _dual_pair("Z4"),
    "kS3 GF7": lambda: _dual_pair("S3"),
    "kQ8 GF7": lambda: _dual_pair("Q8"),
}


@pytest.mark.parametrize("case", list(BUILD_CASES))
def test_the_build_matches_the_reference(case):
    bim, bic = BUILD_CASES[case]()
    assert smash_product(bim, bic).alg.mul.entries == reference_smash_mul(bim, bic).entries


def _mutated_actions(bim):
    """Copies of bim with one entry of one action changed, at every position
    of a Hopf index other than that of 1_H (a change there would break the
    identity law, which every action is built with)."""
    h, f = bim.hopf, bim.hopf.field
    unit = set(h.unit_dict())
    for side in ("left", "right"):
        act = getattr(bim, side)
        for key in product(*map(range, act.map.dims)):
            if key[0] in unit:
                continue
            entries = dict(act.map.entries)
            entries[key] = entries.get(key, f.zero) + f.one
            mutant = PartialActionData(h, bim.alg, side, entries)
            yield PartialBimoduleData(mutant, bim.right) if side == "left" \
                else PartialBimoduleData(bim.left, mutant)


def _mutated_coactions(bic, count):
    """Copies of bic with one entry of one coaction changed, at `count`
    seeded positions per side, half of them stored entries."""
    h, f = bic.hopf, bic.hopf.field
    rng = random.Random(20261019)
    for side in ("left", "right"):
        co = getattr(bic, side)
        for t in range(count):
            key = rng.choice(sorted(co.map.entries)) if t % 2 else \
                tuple(rng.randrange(d) for d in co.map.dims)
            entries = dict(co.map.entries)
            entries[key] = entries.get(key, f.zero) + f.of((-1, 1, 2)[t % 3])
            mutant = forged_coaction(h, bic.alg, side, entries)
            yield PartialBicomoduleData(mutant, bic.right) if side == "left" \
                else PartialBicomoduleData(bic.left, mutant)


@pytest.mark.parametrize("case", ["Sweedler QQ", "H4 regular GF5", "kS3 GF7"])
def test_the_build_matches_the_reference_on_mutated_factors(case):
    bim, bic = BUILD_CASES[case]()
    pairs = [(m, bic) for m in _mutated_actions(bim)] if bim.hopf.dim == 4 else []
    pairs += [(bim, m) for m in _mutated_coactions(bic, 6)]
    for b, c in pairs:
        got = _smash_table(b, c).entries
        assert got == reference_smash_mul(b, c).entries
    assert any(not check_bicomodule(c).passed for _, c in pairs)


def test_the_kq8_build_forms_each_product_of_a_once(monkeypatch):
    # 512 products when every (j, l, i, k) formed its own; 8 distinct left
    # actions of kQ8* reach 8 basis elements of kQ8 each, and one right one
    from phopf import smash
    bim, bic = _dual_pair("Q8")
    calls, in_unit = [0], [False]
    mul, unit = smash.mul_dicts, smash._two_sided_unit

    def counted(pv, x, y):
        calls[0] += not in_unit[0]
        return mul(pv, x, y)

    def unit_test(alg, e):
        in_unit[0] = True
        try:
            return unit(alg, e)
        finally:
            in_unit[0] = False

    monkeypatch.setattr(smash, "mul_dicts", counted)
    monkeypatch.setattr(smash, "_two_sided_unit", unit_test)
    assert smash_product(bim, bic).alg.dim == 64
    assert calls[0] <= 64, calls
