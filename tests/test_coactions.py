"""Partial comodule algebra layer: coaction families, checkers, duality."""

import functools
import re
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from phopf.fields import GF, QQ
from phopf._groups import named_group
from phopf import coactions, examples
from phopf.algebras import (DUAL, AlgebraData, HopfData, Report, dict_acc, dict_of_vec,
                            dual_hopf, tensor_mul, vec_of_dict)
from phopf.examples import (group_algebra, regular_bicomodule, regular_coaction,
                            scalar_algebra, sweedler_h4, sweedler_k_bicomodule,
                            trivial_coaction)
from phopf.actions import (check_bimodule, check_lpma, check_rpma,
                           dual_regular_action, is_global, sweedler_k_bimodule,
                           trivial_action, trivialize_right)
from phopf.coactions import (PartialCoactionData, bicomodule_to_bimodule,
                             bimodule_to_bicomodule, check_bicomodule, check_global_unit,
                             check_lpca, check_rpca, coaction_to_dual_action,
                             dual_action_to_coaction)
from phopf.group_actions import en_kg_example
from phopf.induced import (_corner_witness, _left_ideal, _restrict, induce_bicomodule,
                           induce_bimodule, induce_left, induce_right_coaction)
from phopf.globalize import standard_globalize_bicomodule
from phopf.linalg import (Subspace, Tensor3, apply_cols, closure_fixpoint, subspace_span,
                          transport)
from tests.conftest import bare, forged_coaction, rand_fraction
from tests.test_algebras import (_CountingView, reference_coaction_tables, t2_mul,
                                 t3_mul)
from tests.test_globalize import reference_exchange_products, restricted_coactions


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
    one = b.alg.unit_dict()
    assert b.left.coact_dict(one) == {(0, 0): half, (1, 0): half, (3, 0): QQ.of(7)}
    assert b.right.coact_dict(one) == {(0, 0): half, (0, 1): half, (0, 2): QQ.of(3)}


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
    p = forged_coaction(h4, a, "right", {(0, 0, 2): QQ.one})
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


def test_induce_right_coaction_needs_a_unital_ideal():
    # B = T2(Q) under the trivial kZ2 coaction and e = E11: e·B = span{E11,
    # E12} is a right ideal, but E11·E12·E22 = E12, so e is no unit of it
    # (the algebra induced on it used to fail its own unit law at (1,))
    _, table = named_group("Z2")
    o, z = QQ.one, QQ.zero
    mul = {(0, 0, 0): o, (0, 1, 1): o, (1, 2, 1): o, (2, 2, 2): o}
    b = AlgebraData(QQ, ["E11", "E12", "E22"], mul, [o, z, o], name="T2")
    glob = trivial_coaction(group_algebra(table, QQ), b)
    assert check_global_unit(glob)
    with pytest.raises(ValueError, match=r"^e·B is not a unital ideal: "
                                         r"e·b·\(1−e\) ≠ 0 at b = E12$"):
        induce_right_coaction(glob, [o, z, z])


def test_induce_bicomodule_on_the_index_two_subgroup_of_z4():
    bic, u0, u2, _ = _z4_setup()
    ind = induce_bicomodule(bic, subspace_span([u0, u2], 4, QQ), u0)
    assert ind.alg.dim == 2 and ind.alg.unit == [1, 0]
    assert ind.alg.mul.entries == {(0, 0, 0): 1, (0, 1, 1): 1,
                                   (1, 0, 1): 1, (1, 1, 0): 1}
    assert ind.left.map.entries == {(0, 0, 0): 1, (1, 2, 1): 1}
    assert ind.right.map.entries == {(0, 0, 0): 1, (1, 1, 2): 1}
    assert check_bicomodule(ind).passed


def test_a_dense_vector_of_the_wrong_length_is_rejected():
    # kZ4 over Q with e = (1+g²)/2: each call returned a result, the longer
    # vectors read past dim B = 4 and the shorter one as padded with zeros
    bic, u0, u2, e = _z4_setup()
    act = dual_regular_action(bic.hopf)
    z = QQ.zero
    cases = [
        (lambda: induce_left(act, e + [z]), "e has 5 entries, not 4"),
        (lambda: induce_left(act, e[:3]), "e has 3 entries, not 4"),
        (lambda: induce_right_coaction(bic.right, e + [z]), "e has 5 entries, not 4"),
        (lambda: induce_bicomodule(bic, [u0 + [z], u2 + [z]], u0),
         "spanning vector 0 has 5 entries, not 4"),
        (lambda: induce_bicomodule(bic, [u0, u2], u0 + [z]), "unit_A has 5 entries, not 4"),
        (lambda: induce_bicomodule(bic, Subspace(5, QQ, [{0: QQ.one}, {2: QQ.one}]), u0),
         "A lies in a space of dimension 5, not 4 = dim B"),
        (lambda: subspace_span([[1, 0, 0, 0, 5]], 4, QQ),
         "spanning vector 0 has 5 entries, not 4"),
    ]
    for call, message in cases:
        with pytest.raises(ValueError) as err:
            call()
        assert str(err.value) == message
    # the vectors of the right length still induce
    assert induce_left(act, e).alg.dim == 2
    assert induce_bicomodule(bic, [u0, u2], u0).alg.dim == 2


def test_induce_bicomodule_rejects_the_averaged_idempotent_corner():
    bic, _, _, e = _z4_setup()
    with pytest.raises(ValueError, match=r"exchange condition fails at "
                                         r"witness pair \(a=0, b=0\)"):
        induce_bicomodule(bic, subspace_span([e], 4, QQ), e)


# ---------------------------------------------------------------------------
# the suite read as a right coaction against the suite it replaced


def _ref_double_coact(p, i):
    iv = p.map.in1_view()
    out = {}
    if p.side == "right":
        for (j, k), c in iv.get(i, {}).items():
            for (q, r), d in iv.get(j, {}).items():
                dict_acc(out, (q, r, k), c * d)
    else:
        for (j, k), c in iv.get(i, {}).items():
            for (q, r), d in iv.get(k, {}).items():
                dict_acc(out, (j, q, r), c * d)
    return out


def _ref_comul_spread(p, i):
    iv = p.map.in1_view()
    ivc = p.hopf.comul.in1_view()
    out = {}
    if p.side == "right":
        for (j, k), c in iv.get(i, {}).items():
            for (q, r), d in ivc.get(k, {}).items():
                dict_acc(out, (j, q, r), c * d)
    else:
        for (j, k), c in iv.get(i, {}).items():
            for (q, r), d in ivc.get(j, {}).items():
                dict_acc(out, (q, r, k), c * d)
    return out


def _ref_unit_factor(p):
    img = p.coact_dict(p.alg.unit_dict())
    u_h = p.hopf.unit_dict()
    out = {}
    if p.side == "right":
        for (j, k), c in img.items():
            for r, d in u_h.items():
                out[(j, k, r)] = c * d
    else:
        for r, d in u_h.items():
            for (j, k), c in img.items():
                out[(r, j, k)] = d * c
    return out


def _ref_t3_views(p):
    pv_a = p.alg.mul.pair_view()
    pv_h = p.hopf.mul.pair_view()
    return (pv_a, pv_h, pv_h) if p.side == "right" else (pv_h, pv_h, pv_a)


def reference_suite(p, symmetric):
    """The coaction suite as it was before the right reading: every helper
    branches on the side, the tensor products visit every pair of terms,
    and the witnesses of tensor-valued laws are the raw dicts.  Kept here
    only as the differential reference for coactions._coaction_suite."""
    rep = Report(p.name)
    H, A = p.hopf, p.alg
    m = A.dim
    f = H.field
    right = p.side == "right"

    def coact(i):
        return dict(p.map.in1_view().get(i, {}))

    rep.law("counit-coaction")
    for i in range(m):
        got = {}
        for (j, k), c in p.map.in1_view().get(i, {}).items():
            a_idx, h_idx = (j, k) if right else (k, j)
            if H.counit[h_idx]:
                dict_acc(got, a_idx, c * H.counit[h_idx])
        if got != {i: f.one}:
            rep.fail("counit-coaction", (i,),
                     vec_of_dict(got, m, f), A.basis_vec(i))

    rep.law("coaction-multiplicativity")
    pv_a = A.mul.pair_view()
    pv_h = H.mul.pair_view()
    legs = (pv_a, pv_h) if right else (pv_h, pv_a)
    for i in range(m):
        ci = coact(i)
        for j in range(m):
            lhs = p.coact_dict(pv_a.get((i, j), {}))
            rhs = t2_mul(legs[0], legs[1], ci, coact(j))
            if lhs != rhs:
                rep.fail("coaction-multiplicativity", (i, j), lhs, rhs)

    rep.law("coaction-coassociativity")
    v0, v1, v2 = _ref_t3_views(p)
    uf = _ref_unit_factor(p)
    for i in range(m):
        lhs = _ref_double_coact(p, i)
        spread = _ref_comul_spread(p, i)
        rhs = (t3_mul(v0, v1, v2, uf, spread) if right
               else t3_mul(v0, v1, v2, spread, uf))
        if lhs != rhs:
            rep.fail("coaction-coassociativity", (i,), lhs, rhs)

    if symmetric:
        rep.law("coaction-symmetry")
        for i in range(m):
            lhs = _ref_double_coact(p, i)
            spread = _ref_comul_spread(p, i)
            rhs = (t3_mul(v0, v1, v2, spread, uf) if right
                   else t3_mul(v0, v1, v2, uf, spread))
            if lhs != rhs:
                rep.fail("coaction-symmetry", (i,), lhs, rhs)
    return rep


def _sorted_witnesses(rep):
    """The reference's failures with dict witnesses written as sorted items,
    the format of the suite it is compared with."""
    return [(law, idx) + tuple(sorted(w.items()) if isinstance(w, dict) else w
                               for w in (lhs, rhs))
            for law, idx, lhs, rhs in rep.failures]


def _kg(name, field=QQ):
    labels, table = named_group(name)
    return group_algebra(table, field, labels)


def _structure_constants(s):
    """The structure constants of a bimodule or bicomodule: both maps, the
    coefficient algebra, and every table of the Hopf algebra."""
    h, a = s.hopf, s.alg
    return (s.left.map.dims, s.left.map.entries, s.right.map.dims, s.right.map.entries,
            a.mul.entries, a.unit, h.mul.entries, h.unit, h.comul.entries, h.counit,
            h.antipode)


# the bimodule and bicomodule families of the scalar oracles, and a few over
# kS3 and GF(5); each is built when its test runs, so that a fault in a
# constructor fails that test and not the collection of this module
BRIDGE_CASES = ("H4 bicomodule", "Sweedler (1/2,-3/4) bimodule", "Sweedler (2,3) bimodule",
                "Sweedler (t,u) bicomodule", "kQ8* bicomodule", "kQ8* bimodule",
                "kZ4 bicomodule", "kS3* bimodule", "kS3 bicomodule",
                "Sweedler (2,4) bimodule over GF5", "Sweedler (2,4) bicomodule over GF5")


@functools.lru_cache(maxsize=None)
def _bridge_case(name):
    """(kind, structure) of a bridge case: a scalar-oracle family as
    loaded, or one of the extra cases."""
    from tests.test_scalars import KINDS, families
    if name in families():
        kind, doc = families()[name]
        return kind, KINDS[kind][0](doc)
    ks3 = _kg("S3")
    return {
        "kS3* bimodule": lambda: ("bimodule", trivialize_right(dual_regular_action(ks3))),
        "kS3 bicomodule": lambda: ("bicomodule", regular_bicomodule(ks3)),
        "Sweedler (2,4) bimodule over GF5":
            lambda: ("bimodule", sweedler_k_bimodule(GF(5), 2, 4)),
        "Sweedler (2,4) bicomodule over GF5":
            lambda: ("bicomodule", sweedler_k_bicomodule(GF(5), 2, 4)),
    }[name]()


def test_bridge_cases_cover_every_scalar_family_with_two_sides():
    from tests.test_scalars import families
    assert {name for name, (kind, _) in families().items()
            if kind in ("bimodule", "bicomodule")} <= set(BRIDGE_CASES)


@pytest.mark.parametrize("name", BRIDGE_CASES)
def test_bridge_round_trip_gives_the_structure_constants_back(name):
    # the double dual of H has the structure constants of H, so going to the
    # dual side and back must return every table unchanged
    kind, s = _bridge_case(name)
    back = (bimodule_to_bicomodule(bicomodule_to_bimodule(s)) if kind == "bicomodule"
            else bicomodule_to_bimodule(bimodule_to_bicomodule(s)))
    assert _structure_constants(back) == _structure_constants(s)


@functools.lru_cache(maxsize=None)
def _coaction_family(name, field):
    """The two coactions of a certified built-in bicomodule, by name."""
    if name == "sweedler":
        b = sweedler_k_bicomodule(field, 2, -3)
    elif name == "regular H4":
        b = regular_bicomodule(sweedler_h4(field))
    elif name == "corner of kZ4":
        # the index-two corner of the regular kZ4 bicomodule
        o, z = field.one, field.zero
        b = induce_bicomodule(regular_bicomodule(_kg("Z4", field)),
                              subspace_span([[o, z, z, z], [z, z, o, z]], 4, field),
                              [o, z, z, z])
    elif name == "dual of the en Z4 action":
        act = en_kg_example(named_group("Z4")[1], {0, 2}, field)[1]
        rho = dual_action_to_coaction(act)
        return rho, dual_action_to_coaction(trivial_action(act.hopf, act.alg, "right"))
    else:
        h = _kg(name.split()[1].strip("k*"), field)
        b = regular_bicomodule(dual_hopf(h) if name.endswith("*") else h)
    return b.left, b.right


COACTION_FAMILIES = ["sweedler", "regular H4", "corner of kZ4",
                     "dual of the en Z4 action", "regular kS3", "regular kS3*",
                     "regular kZ4*"]


@st.composite
def coactions_(draw):
    """A built-in coaction over ℚ or GF(5), possibly with one entry of its
    map changed (after construction, so that the counit law may break)."""
    field = draw(st.sampled_from([QQ, GF(5)]))
    p = draw(st.sampled_from(_coaction_family(draw(st.sampled_from(COACTION_FAMILIES)),
                                              field)))
    entries = dict(p.map.entries)
    if draw(st.booleans()):
        key = tuple(draw(st.integers(0, d - 1)) for d in p.map.dims)
        entries[key] = field.of(Fraction(draw(st.integers(-2, 2)), draw(st.integers(1, 3))))
    out = PartialCoactionData(p.hopf, p.alg, p.side, dict(p.map.entries), name=p.name)
    out.map = Tensor3(out.map.dims, entries)
    return out


def _suites_agree(p, symmetric):
    got = (check_lpca if p.side == "left" else check_rpca)(p, symmetric=symmetric)
    want = reference_suite(p, symmetric)
    assert got.laws == want.laws
    assert got.failures == _sorted_witnesses(want)
    return got


@settings(max_examples=80, deadline=None)
@given(coactions_(), st.booleans())
def test_right_reading_suite_matches_the_reference_suite(p, symmetric):
    _suites_agree(p, symmetric)


def _spread_out(keys, count):
    """At most `count` of keys, evenly spaced."""
    return keys[::max(1, -(-len(keys) // count))]


@pytest.mark.parametrize("field", [QQ, GF(5)], ids=["QQ", "GF5"])
@pytest.mark.parametrize("name", COACTION_FAMILIES)
def test_right_reading_matches_the_reference_on_single_entry_mutations(field, name):
    # up to eight stored entries of either coaction and as many positions
    # outside them, each raised by one, on the left and on the right
    for p in _coaction_family(name, field):
        stored = sorted(p.map.entries)
        free = [key for key in product(*(range(d) for d in p.map.dims))
                if key not in p.map.entries]
        positions = _spread_out(stored, 8) + _spread_out(free, 8)
        failing = 0
        for key in positions:
            mutant = PartialCoactionData(p.hopf, p.alg, p.side, dict(p.map.entries),
                                         name=p.name)
            mutant.map = Tensor3(p.map.dims, dict(p.map.entries))
            mutant.map.add(*key, field.one)
            failing += not _suites_agree(mutant, True).passed
        # most single-entry changes break a law (not all: the Sweedler
        # family stays valid when its parameter moves)
        assert failing * 2 >= len(positions), (p.side, failing, len(positions))


def test_regular_bicomodule_runs_each_side_suite_once(monkeypatch):
    # regular_bicomodule is certified by one hopf_check, whose laws are
    # those of the coaction suites for λ = ρ = Δ, so it runs no suite and
    # records their Reports; the full check_bicomodule of a copy without
    # them runs each side's suite once and passes
    runs, hopf_runs = [], []
    suite, hopf = coactions._coaction_suite, coactions.hopf_check

    def counted(p, symmetric):
        runs.append(p.side)
        return suite(p, symmetric)

    def counted_hopf(h):
        hopf_runs.append(h.name)
        return hopf(h)

    monkeypatch.setattr(coactions, "_coaction_suite", counted)
    # regular_bicomodule is in phopf.examples, and the bridges in coactions
    for module in (coactions, examples):
        monkeypatch.setattr(module, "hopf_check", counted_hopf)
    for h in (sweedler_h4(QQ), _kg("S3"), dual_hopf(_kg("Z4"))):
        runs.clear()
        hopf_runs.clear()
        b = regular_bicomodule(h)
        assert runs == [] and hopf_runs == [h.name]
        assert check_global_unit(b.left) and check_global_unit(b.right)
        assert runs == []
        assert check_bicomodule(b).passed and runs == []
        assert check_bicomodule(bare(b)).to_json() == check_bicomodule(b).to_json()
        assert runs == ["left", "right"] and hopf_runs == [h.name]


def _regular_inputs(field):
    """H4, and kG and kG* for every built-in group."""
    from phopf._groups import GROUP_NAMES
    out = [sweedler_h4(field)]
    for name in GROUP_NAMES:
        kg = _kg(name, field)
        out += [kg, dual_hopf(kg)]
    return out


@pytest.mark.parametrize("field", [QQ, GF(7)], ids=["QQ", "GF7"])
def test_regular_constructors_pass_their_full_suites(field):
    # certified by hopf_check alone, so the suites they no longer run are
    # run here on copies of everything they build, which carry no Report
    for h in _regular_inputs(field):
        act = dual_regular_action(h)
        assert act.symmetric and check_lpma(bare(act), symmetric=True).passed, h.name
        assert check_bicomodule(bare(regular_bicomodule(h))).passed, h.name
        assert check_rpca(bare(regular_coaction(h, "right")), symmetric=True).passed, h.name
        assert check_lpca(bare(regular_coaction(h, "left")), symmetric=True).passed, h.name


def test_regular_constructors_refuse_a_failing_antipode():
    # the one law of hopf_check that no coaction suite reads
    h = sweedler_h4(QQ)
    bad = HopfData(QQ, h.basis, dict(h.mul.entries), h.unit, dict(h.comul.entries),
                   h.counit, [[QQ.zero] * 4 for _ in range(4)], name="H4 without S")
    with pytest.raises(AssertionError, match="regular bicomodule fails antipode-law"):
        regular_bicomodule(bad)
    with pytest.raises(AssertionError, match="constructed coaction fails antipode-law"):
        regular_coaction(bad, "left")


def test_global_unit_cross_check_raises_on_a_strict_coaction_off_the_unit():
    # the regular right coaction of kZ2 with ρ(u0) doubled: ρ(1) ≠ 1⊗1, yet
    # the counit law fails, so the theorem does not apply and no error rises
    h = _kg("Z2")
    p = forged_coaction(h, h, "right", {(0, 0, 0): QQ.of(2), (1, 1, 1): QQ.one})
    assert check_global_unit(p) is False
    # a strictly coassociative, counital, multiplicative coaction that
    # missed 1⊗1 would contradict the theorem; forge one by hand through a
    # unit vector that is not the algebra's unit
    bent = AlgebraData(QQ, h.basis, dict(h.mul.entries), [QQ.zero, QQ.one])
    q = PartialCoactionData(h, bent, "right", dict(h.comul.entries))
    with pytest.raises(AssertionError, match="strictly coassociative"):
        check_global_unit(q)


def test_coaction_suite_reads_a_tenth_of_the_pair_views_the_reference_reads(monkeypatch):
    # a deterministic guard for the keyed kernel on the regular kQ8*
    # bicomodule over GF(7): the suites it replaced read 610,704 entries of
    # the pair views on this input
    b = bare(regular_bicomodule(dual_hopf(_kg("Q8", GF(7)))))
    pair_view, tally = Tensor3.pair_view, [0]
    views, partners = {}, {}

    def counted_pairs(t):
        if id(t) not in views:
            views[id(t)] = (t, _CountingView(pair_view(t), tally))
        return views[id(t)][1]

    def counted_partners(t):
        # the partner lists hold the rows of the counting view, so every
        # row the kernel reads through them is counted too
        if id(t) not in partners:
            grouped = {}
            for (i, j), row in t.pair_view().items():
                grouped.setdefault(i, {})[j] = row
            partners[id(t)] = (t, grouped)
        return partners[id(t)][1]

    monkeypatch.setattr(Tensor3, "pair_view", counted_pairs)
    monkeypatch.setattr(Tensor3, "partner_view", counted_partners)
    assert check_bicomodule(b).passed
    assert tally[0] * 10 <= 610704, tally[0]


# ---------------------------------------------------------------------------
# the dual-family layout (algebras.DUAL) against the side-by-side loops it
# replaced


def _ref_restrict_coaction(t, side, span, cut):
    """A coaction tensor t (laid out as PartialCoactionData.map on `side`)
    restricted to a subspace of its algebra: one slice per Hopf leg of the
    image of each basis row, passed through cut and written in subspace
    coordinates."""
    iv = t.in1_view()
    n = t.dims[2] if side == "right" else t.dims[1]

    def slices():
        for i, row in enumerate(span.rows):
            per_h = {}
            for x, cx in row.items():
                for (j, k), c in iv.get(x, {}).items():
                    h, a = (k, j) if side == "right" else (j, k)
                    dict_acc(per_h.setdefault(h, {}), a, cx * c)
            for h, a in per_h.items():
                yield i, h, cut(a)

    out = transport(span.coords, (span.dim, n, span.dim), slices(), "%s coaction" % side)
    return out.transpose((0, 2, 1)) if side == "right" else out


def _ref_coacts_trivially(coaction, u):
    """Whether the coaction sends u to u ⊗ 1_H (right side), resp. 1_H ⊗ u
    (left side), with the key of the wanted tensor built per side."""
    want = {}
    for m, cm in u.items():
        for h, ch in coaction.hopf.unit_dict().items():
            key = (m, h) if coaction.side == "right" else (h, m)
            dict_acc(want, key, cm * ch)
    return coaction.coact_dict(u) == want


def _restrictions_agree(p, span, cut):
    got = _restrict(span, cut, p.dual_cols(), "%s coaction" % p.side).transpose(
        DUAL[p.side][1])
    assert got == _ref_restrict_coaction(p.map, p.side, span, cut)
    return got


def test_induced_coactions_match_the_reference_restriction():
    bic, u0, u2, e = _z4_setup()
    B = bic.alg
    span, e_d, _ = _left_ideal(B, e)
    got = _restrictions_agree(bic.right, span, lambda a: B.mul_dict(e_d, a))
    assert got == induce_right_coaction(bic.right, e).map
    span = subspace_span([u0, u2], 4, QQ)
    u_d = dict_of_vec(u0)
    ind = induce_bicomodule(bic, span, u0)
    assert _restrictions_agree(bic.right, span, lambda a: B.mul_dict(u_d, a)) \
        == ind.right.map
    assert _restrictions_agree(bic.left, span, lambda a: B.mul_dict(a, u_d)) \
        == ind.left.map


@pytest.mark.parametrize("field", [QQ, GF(5)], ids=["QQ", "GF5"])
@pytest.mark.parametrize("name", ["H4", "kZ4", "Sweedler (t,u)"])
def test_ambient_coactions_restrict_as_the_reference_restriction(field, name):
    b = (regular_bicomodule(sweedler_h4(field)) if name == "H4"
         else regular_bicomodule(_kg("Z4", field)) if name == "kZ4"
         else sweedler_k_bicomodule(field, 3, -2))
    g = standard_globalize_bicomodule(b)
    amb, span = g.ambient, g.b_basis
    rho, lam = reference_coaction_tables(amb, b.hopf.dim)

    def same(a):
        return a

    # the record's restricted dual families, read back in coaction layout
    for ops, t, side, induced in zip((amb.left_ops, amb.right_ops), (rho, lam),
                                     ("right", "left"), restricted_coactions(g)):
        got = _restrict(span, same, ops, "%s coaction" % side).transpose(DUAL[side][1])
        assert got == _ref_restrict_coaction(t, side, span, same) == induced

    def ambient(v):
        out = {}
        for k, c in v.items():
            for x, d in span.rows[k].items():
                dict_acc(out, x, c * d)
        return out

    # the exchange condition reads the coactions of the embedded columns
    # θ(a) on the carrier: read back into the ambient, they are the
    # reference tables applied to θ's columns
    assert len(g.phi) == b.alg.dim
    for m, col in enumerate(g.phi):
        assert ambient(g.theta[m]) == col
        assert {(x, q): c for q, op in enumerate(g.left_ops)
                for x, c in ambient(apply_cols(op, g.theta[m])).items()} \
            == rho.apply_in1(col)
        assert {(p, x): c for p, op in enumerate(g.right_ops)
                for x, c in ambient(apply_cols(op, g.theta[m])).items()} \
            == lam.apply_in1(col)


# ---------------------------------------------------------------------------
# induction on unital subalgebras: the exchange condition as the corner
# condition of the dual families, against the witness from the products in
# H⊗B⊗H it replaced, and induction across the duality bridge


def reference_exchange_witness(bicom, rows, u_d, span):
    """First pair (i, j) of subalgebra basis indices where
    (λ(a_i)⊗1)(1⊗ρ(b_j)) ≠ (λ(a_i)⊗1)(1⊗1_A⊗1)(1⊗ρ(b_j)) or the common
    value leaves H⊗A⊗H, from the products in H⊗B⊗H; None when the exchange
    condition holds."""
    B, H = bicom.alg, bicom.hopf
    one_a = {(q, r): c * d for q, c in u_d.items() for r, d in H.unit_dict().items()}
    lams = [bicom.left.coact_dict(a) for a in rows]
    rhos = [bicom.right.coact_dict(b) for b in rows]
    # (1⊗1_A⊗1)(1⊗ρ(b)) = 1⊗[(1_A⊗1_H)ρ(b)], since 1_H·1_H = 1_H
    cut = [tensor_mul((B.mul, H.mul), one_a, rho) for rho in rhos]
    for (pair, lhs), (_, rhs) in zip(reference_exchange_products(H, (B.mul,), lams, rhos),
                                     reference_exchange_products(H, (B.mul,), lams, cut)):
        if lhs != rhs:
            return pair
        per_slice = {}
        for (pq, q, s), c in lhs.items():
            per_slice.setdefault((pq, s), {})[q] = c
        if not all(span.contains(dv) for dv in per_slice.values()):
            return pair
    return None


def _subgroups(table):
    """Every subgroup of the group of `table` generated by two elements."""
    out = set()
    for g, h in product(range(len(table)), repeat=2):
        sub = {g, h}
        while {table[a][b] for a in sub for b in sub} - sub:
            sub |= {table[a][b] for a in sub for b in sub}
        out.add(tuple(sorted(sub)))
    return sorted(out)


def _unital_subalgebras(B, subgroups):
    """(span, unit as a sparse dict) of the distinct unital subalgebras of B
    generated by an idempotent e and, unless absent, e·x·e for a basis
    element x: e is e_K = (1/|K|)·Σ_{k∈K} u_k or 1_B − e_K, for K in
    `subgroups` (lists of basis indices of group-like elements)."""
    f = B.field
    idempotents = []
    for sub in subgroups:
        e_k = {k: f.of(Fraction(1, len(sub))) for k in sub}
        rest = dict(B.unit_dict())
        for k, c in e_k.items():
            dict_acc(rest, k, -c)
        idempotents += [e_k, rest] if rest else [e_k]
    seen, out = set(), []
    for e in idempotents:
        for x in [None] + list(range(B.dim)):
            seed = [e] + ([] if x is None else [B.mul_dict(B.mul_dict(e, {x: f.one}), e)])
            span = closure_fixpoint(Subspace(B.dim, f, seed), [], [B.mul])
            key = (tuple(tuple(sorted(r.items())) for r in span.rows), tuple(sorted(e.items())))
            if key not in seen:
                seen.add(key)
                out.append((span, e))
    return out


@functools.lru_cache(maxsize=None)
def _induction_cases():
    """(regular bicomodule, its unital subalgebras) for kZ2, kZ4, kV4, kS3
    and kZ6 over ℚ, GF(5) and GF(7), and for H4 over ℚ."""
    out = []
    for name, field in product(("Z2", "Z4", "V4", "S3", "Z6"), (QQ, GF(5), GF(7))):
        bic = regular_bicomodule(_kg(name, field))
        out.append((bic, _unital_subalgebras(bic.alg, _subgroups(named_group(name)[1]))))
    bic = regular_bicomodule(sweedler_h4(QQ))
    out.append((bic, _unital_subalgebras(bic.alg, [[0], [0, 1]])))     # 1 and g
    return out


def _first_corner_failure(B, left, right, span, u_d):
    """The least (a, b, h, k) at which the corner condition of the operator
    families fails, from every tuple, zero factors included; None when it
    holds."""
    rows = span.rows
    for a, b, h, k in product(range(len(rows)), range(len(rows)),
                              range(len(right)), range(len(left))):
        x, y = apply_cols(right[h], rows[a]), apply_cols(left[k], rows[b])
        lhs = B.mul_dict(x, y)
        if lhs != B.mul_dict(x, B.mul_dict(u_d, y)) or not span.contains(lhs):
            return a, b, h, k
    return None


def _witness(call, pattern):
    """None when call() returns; the ints of the message of the ValueError
    it raises, which must match `pattern`, otherwise."""
    try:
        call()
    except ValueError as exc:
        m = re.fullmatch(pattern, str(exc))
        assert m, str(exc)
        return tuple(int(g) if g.isdigit() else g for g in m.groups())
    return None


EXCHANGE = r"exchange condition fails at witness pair \(a=(\d+), b=(\d+)\)"
CORNER = r"corner condition fails at witness \(a=(\d+), h=(\S+), k=(\S+), b=(\d+)\)"


def test_induce_bicomodule_finds_the_reference_witness_pair():
    verdicts = []
    for bic, cases in _induction_cases():
        B = bic.alg
        for span, e in cases:
            got = _witness(lambda: induce_bicomodule(bic, span, vec_of_dict(e, B.dim, B.field)),
                           EXCHANGE)
            assert got == reference_exchange_witness(bic, span.rows, e, span), (B.name, span.rows)
            verdicts.append(got)
    assert len(verdicts) >= 140
    assert verdicts.count(None) >= 20 and len(verdicts) - verdicts.count(None) >= 20


def test_the_corner_witness_is_the_first_failure_in_a_b_h_k_order():
    # B = k³ with orthogonal idempotents e0, e1, e2 and A = span{e0, e1}:
    # the families fail at (a, h, k, b) = (0, 0, 1, 0) and (0, 0, 0, 1), the
    # first in (a, b, h, k) order and the second in (a, h, k, b) order
    o = QQ.one
    B = AlgebraData(QQ, ["e0", "e1", "e2"], {(i, i, i): o for i in range(3)}, [o, o, o])
    right = [[{0: o, 2: o}, {1: o}, {2: o}]]
    left = [[{0: o}, {1: o, 2: o}, {2: o}], [{0: o, 2: o}, {1: o}, {2: o}]]
    span, unit = Subspace(3, QQ, [{0: o}, {1: o}]), {0: o, 1: o}
    assert _corner_witness(B, left, right, span, unit) == (0, 0, 1, 0)


def test_induction_commutes_with_the_duality_bridge():
    # induced on the dual bimodule or on the bicomodule, the structure is
    # the same read through algebras.DUAL, or both fail at the same (a, b)
    seen = set()
    for bic, cases in _induction_cases():
        B = bic.alg
        bim = bicomodule_to_bimodule(bic)
        for span, e in cases:
            unit = vec_of_dict(e, B.dim, B.field)
            try:
                ind = induce_bicomodule(bic, span, unit)
            except ValueError:
                ind = None
            if ind is None:
                first = _first_corner_failure(B, bim.left.map.columns(),
                                              bim.right.map.columns(), span, e)
                h, k = (bim.hopf.basis[i] for i in first[2:])
                assert _witness(lambda: induce_bimodule(bim, span, unit), CORNER) \
                    == (first[0], h, k, first[1])
                assert _witness(lambda: induce_bicomodule(bic, span, unit), EXCHANGE) \
                    == first[:2]
                seen.add("fail")
                continue
            out = induce_bimodule(bim, span, unit)
            assert (out.alg.mul.entries, out.alg.unit) == (ind.alg.mul.entries, ind.alg.unit)
            assert out.left.map.entries \
                == ind.right.map.transpose(DUAL["right"][0]).entries
            assert out.right.map.entries \
                == ind.left.map.transpose(DUAL["left"][0]).entries
            seen.add("pass")
    assert seen == {"pass", "fail"}
    # the averaged idempotent of kZ4: both report the pair (0, 0)
    bic, u0, u2, e = _z4_setup()
    span = subspace_span([e], 4, QQ)
    with pytest.raises(ValueError, match=r"^exchange condition fails at witness pair "
                                         r"\(a=0, b=0\)$"):
        induce_bicomodule(bic, span, e)
    with pytest.raises(ValueError, match=r"^corner condition fails at witness "
                                         r"\(a=0, h=g0\*, k=g0\*, b=0\)$"):
        induce_bimodule(bicomodule_to_bimodule(bic), span, e)


def test_coacts_trivially_matches_the_reference_on_families_and_mutations():
    from tests.test_scalars import KINDS, families
    verdicts = set()
    for name, (kind, doc) in families().items():
        if kind != "bicomodule":
            continue
        b = KINDS[kind][0](doc)
        for p in (b.left, b.right):
            one = p.hopf.field.one
            stored = sorted(p.map.entries)
            free = [key for key in product(*(range(d) for d in p.map.dims))
                    if key not in p.map.entries]
            mutants = [p]
            for key in _spread_out(stored, 8) + _spread_out(free, 8):
                entries = dict(p.map.entries)
                entries[key] = entries.get(key, p.hopf.field.zero) + one
                mutants.append(forged_coaction(p.hopf, p.alg, p.side, entries))
            for q in mutants:
                for u in [{i: one} for i in range(p.alg.dim)] + [p.alg.unit_dict()]:
                    got = coactions._coacts_trivially(q, u)
                    assert got == _ref_coacts_trivially(q, u), (name, p.side, u)
                    verdicts.add(got)
    assert verdicts == {True, False}
