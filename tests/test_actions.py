"""Partial module algebra layer: action families, checkers, group actions."""

import functools
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from phopf import fields
from phopf.fields import GF, QQ
from phopf._groups import named_group
from phopf import actions as actions_module
from phopf.algebras import (AlgebraData, HopfData, Report, _dual_structure, algebra_check,
                            coalgebra_check, dict_acc, mul_dicts, vec_of_dict)
from phopf.examples import group_algebra, scalar_algebra, sweedler_h4
from phopf.actions import (PartialActionData, PartialBimoduleData,
                           check_bimodule, check_lpma, check_rpma,
                           dual_regular_action, is_global, sweedler_k_bimodule,
                           trivial_action, trivialize_right)
from phopf.coactions import _dual_action
from phopf.group_actions import (GroupPartialActionData, check_group_partial_action,
                                 en_kg_example, group_to_kg, kg_to_group,
                                 z2_partial_group_example)
from phopf.induced import induce_bimodule, induce_left
from phopf.linalg import Tensor3, apply_cols, subspace_span
from tests.conftest import bare, rand_fraction


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


def test_action_map_keys_must_lie_in_its_shape(h4):
    # an entry outside the (H, A, A) shape would otherwise be invisible to
    # the suites, which read the map one basis pair at a time
    A = scalar_algebra(QQ)
    ent = dict(trivial_action(h4, A, "left").map.entries)
    ent[(2, 3, 0)] = QQ.one
    with pytest.raises(ValueError, match=r"tensor key \(2, 3, 0\) outside dims"):
        PartialActionData(h4, A, "left", ent)


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


def test_induce_left_needs_a_unital_ideal():
    # e_K for K = {e, (12)} in kS3: the averaging idempotent of a subgroup
    # that is not normal, so e·kS3 is not an ideal; e_N for the normal
    # subgroup N = A3 is central and induces
    labels, table = named_group("S3")
    glob = dual_regular_action(group_algebra(table, QQ, labels))
    half, third, z = QQ.of(Fraction(1, 2)), QQ.of(Fraction(1, 3)), QQ.zero
    with pytest.raises(ValueError, match=r"^e·B is not a unital ideal: "
                                         r"e·b·\(1−e\) ≠ 0 at b = \(13\)$"):
        induce_left(glob, [half, half, z, z, z, z])
    ind = induce_left(glob, [third, z, z, z, third, third])
    assert ind.alg.dim == 2 and check_lpma(ind).passed


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


def test_group_partial_action_reduces_the_scalars_it_is_given():
    # [[8, 1], [1, 7]] are the idempotents of the GF(7) example as raw ints;
    # unreduced, 8 and 7 failed idempotent-central and unit-translation
    gf7 = GF(7)
    gpa = z2_partial_group_example(gf7)
    raw_alphas = [[[c.v + 7 for c in r] for r in mat] for mat in gpa.alphas]
    for idempotents in ([[8, 1], [1, 7]], [[gf7.of(c) for c in v] for v in ([8, 1], [1, 7])]):
        got = GroupPartialActionData(gpa.table, gpa.alg, idempotents, raw_alphas,
                                     labels=gpa.labels)
        scalars = [c for v in got.idempotents for c in v] + \
            [c for mat in got.alphas for r in mat for c in r]
        assert all(type(c) is fields.ModP and 0 <= c.v < 7 for c in scalars)
        assert got.idempotents == gpa.idempotents and got.alphas == gpa.alphas
        assert check_group_partial_action(got).passed


def _reference_iso_multiplicative(gpa):
    """Failures of the law iso-multiplicative as check_group_partial_action
    found them when it formed a_j·1_{g⁻¹} and α_g of it for every i."""
    from phopf.algebras import dict_of_vec
    from phopf.linalg import apply_cols, col_dicts
    A, f, m = gpa.alg, gpa.alg.field, gpa.alg.dim
    ids = [dict_of_vec(v) for v in gpa.idempotents]
    alphas = [col_dicts(a) for a in gpa.alphas]
    out = []
    for g in range(len(gpa.table)):
        for i in range(m):
            di = A.mul_dict({i: f.one}, ids[gpa.inverses[g]])
            for j in range(m):
                dj = A.mul_dict({j: f.one}, ids[gpa.inverses[g]])
                lhs = apply_cols(alphas[g], A.mul_dict(di, dj))
                rhs = A.mul_dict(apply_cols(alphas[g], di), apply_cols(alphas[g], dj))
                if lhs != rhs:
                    out.append(("iso-multiplicative", (g, i, j),
                                vec_of_dict(lhs, m, f), vec_of_dict(rhs, m, f)))
    return out


@pytest.mark.parametrize("field", [QQ, GF(5)], ids=["QQ", "GF5"])
def test_group_action_check_forms_each_domain_element_once(field, monkeypatch):
    from phopf.algebras import AlgebraData
    gpa = z2_partial_group_example(field)
    calls = []
    mul_dict = AlgebraData.mul_dict
    monkeypatch.setattr(AlgebraData, "mul_dict",
                        lambda self, x, y: calls.append(1) or mul_dict(self, x, y))
    rep = check_group_partial_action(gpa)
    monkeypatch.undo()
    # 70 when a_j·1_{g⁻¹} was formed again for every i
    assert rep.passed and len(calls) == 62
    # every α with one entry moved by ±1 or ±2 fails where the old loop did
    failing = 0
    for g in range(2):
        for (i, j), d in product(product(range(2), range(2)), (1, -1, 2, -2)):
            alphas = [[list(row) for row in a] for a in gpa.alphas]
            alphas[g][i][j] = alphas[g][i][j] + field.of(d)
            moved = GroupPartialActionData(gpa.table, gpa.alg, gpa.idempotents,
                                           alphas, labels=gpa.labels)
            got = check_group_partial_action(moved).failures_for("iso-multiplicative")
            assert got == _reference_iso_multiplicative(moved)
            failing += bool(got)
    assert failing == 20


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


def test_group_action_data_rejects_wrong_shapes():
    gpa = z2_partial_group_example(QQ)
    one, zero = QQ.one, QQ.zero
    idem, alphas = gpa.idempotents, gpa.alphas
    for bad_idem, bad_alphas, labels, match in (
            ([[one], idem[1]], alphas, None, "idempotent needs 2 entries"),
            ([idem[0], [one, zero, zero]], alphas, None, "idempotent needs 2 entries"),
            (idem, [alphas[0], [[one, zero]]], None, "2 x 2 matrix"),
            (idem, [alphas[0], [[one], [zero]]], None, "2 x 2 matrix"),
            (idem, alphas, ["e"], "one label per group element")):
        with pytest.raises(ValueError, match=match):
            GroupPartialActionData(gpa.table, gpa.alg, bad_idem, bad_alphas, labels)
    no_unit = AlgebraData(QQ, gpa.alg.basis, gpa.alg.mul, name="no unit")
    with pytest.raises(ValueError, match="unital algebra"):
        GroupPartialActionData(gpa.table, no_unit, idem, alphas)


def test_kg_to_group_rejects_non_group_hopf(h4):
    t = trivial_action(h4, scalar_algebra(QQ), side="left")
    with pytest.raises(ValueError):
        kg_to_group(t)


def test_group_table_is_validated():
    with pytest.raises(ValueError):
        GroupPartialActionData([[0, 1], [1, 1]], scalar_algebra(QQ),
                               [[QQ.one]] * 2, [[[QQ.one]]] * 2)


# ---------------------------------------------------------------------------
# the table-driven suite against the suite it replaced


def reference_suite(p, symmetric, left):
    """The action suite as it was before the operator tables: every law
    recomputes each action and H-product inside its loops.  Kept here only
    as the differential reference for actions._action_suite."""
    rep = Report(p.name)
    H, A = p.hopf, p.alg
    n, m = H.dim, A.dim
    f = H.field
    pv_a = A.mul.pair_view()
    pv_h = H.mul.pair_view()
    iv = H.comul.in1_view()
    pv_act = p.map.pair_view()
    empty = {}
    one = f.one
    u_a = A.unit_dict()

    def act(h, a):
        return mul_dicts(pv_act, h, a)

    rep.law("unit-action")
    u_h = H.unit_dict()
    for j in range(m):
        got = act(u_h, {j: one})
        if got != {j: one}:
            rep.fail("unit-action", (j,), vec_of_dict(got, m, f), A.basis_vec(j))

    rep.law("action-multiplicativity")
    for i in range(n):
        di = iv.get(i, empty)
        for ja in range(m):
            for jb in range(m):
                lhs = act({i: one}, pv_a.get((ja, jb), empty))
                rhs = {}
                for (h1, h2), w in di.items():
                    t1 = act({h1: one}, {ja: one})
                    t2 = act({h2: one}, {jb: one})
                    for k, c in mul_dicts(pv_a, t1, t2).items():
                        dict_acc(rhs, k, w * c)
                if lhs != rhs:
                    rep.fail("action-multiplicativity", (i, ja, jb),
                             vec_of_dict(lhs, m, f), vec_of_dict(rhs, m, f))

    rep.law("action-composition")
    comp_ok = True
    for i in range(n):
        di = iv.get(i, empty)
        for g in range(n):
            for jb in range(m):
                inner = act({g: one}, {jb: one})
                lhs = act({i: one}, inner)
                rhs = {}
                for (h1, h2), w in di.items():
                    if left:
                        t1 = act({h1: one}, u_a)
                        t2 = act(mul_dicts(pv_h, {h2: one}, {g: one}), {jb: one})
                    else:
                        t1 = act(mul_dicts(pv_h, {g: one}, {h1: one}), {jb: one})
                        t2 = act({h2: one}, u_a)
                    for k, c in mul_dicts(pv_a, t1, t2).items():
                        dict_acc(rhs, k, w * c)
                if lhs != rhs:
                    comp_ok = False
                    rep.fail("action-composition", (i, g, jb),
                             vec_of_dict(lhs, m, f), vec_of_dict(rhs, m, f))

    rep.law("action-composition-nonunital")
    nonunital_ok = True
    for i in range(n):
        di = iv.get(i, empty)
        for g in range(n):
            for jb in range(m):
                inner = act({g: one}, {jb: one})
                for ja in range(m):
                    if left:
                        lhs = act({i: one}, mul_dicts(pv_a, {ja: one}, inner))
                    else:
                        lhs = act({i: one}, mul_dicts(pv_a, inner, {ja: one}))
                    rhs = {}
                    for (h1, h2), w in di.items():
                        if left:
                            t1 = act({h1: one}, {ja: one})
                            t2 = act(mul_dicts(pv_h, {h2: one}, {g: one}), {jb: one})
                        else:
                            t1 = act(mul_dicts(pv_h, {g: one}, {h1: one}), {jb: one})
                            t2 = act({h2: one}, {ja: one})
                        for k, c in mul_dicts(pv_a, t1, t2).items():
                            dict_acc(rhs, k, w * c)
                    if lhs != rhs:
                        nonunital_ok = False
                        rep.fail("action-composition-nonunital", (i, g, ja, jb),
                                 vec_of_dict(lhs, m, f), vec_of_dict(rhs, m, f))

    rep.law("composition-forms-equivalence")
    unital_ok = comp_ok and not rep.failures_for("action-multiplicativity")
    if unital_ok != nonunital_ok:
        rep.fail("composition-forms-equivalence", (),
                 "unital form %s" % ("holds" if unital_ok else "fails"),
                 "general form %s" % ("holds" if nonunital_ok else "fails"))

    if symmetric:
        rep.law("action-symmetry")
        for i in range(n):
            di = iv.get(i, empty)
            for g in range(n):
                for jb in range(m):
                    inner = act({g: one}, {jb: one})
                    for ja in range(m):
                        if left:
                            lhs = act({i: one}, mul_dicts(pv_a, inner, {ja: one}))
                        else:
                            lhs = act({i: one}, mul_dicts(pv_a, {ja: one}, inner))
                        rhs = {}
                        for (h1, h2), w in di.items():
                            if left:
                                t1 = act(mul_dicts(pv_h, {h1: one}, {g: one}), {jb: one})
                                t2 = act({h2: one}, {ja: one})
                            else:
                                t1 = act({h1: one}, {ja: one})
                                t2 = act(mul_dicts(pv_h, {g: one}, {h2: one}), {jb: one})
                            for k, c in mul_dicts(pv_a, t1, t2).items():
                                dict_acc(rhs, k, w * c)
                        if lhs != rhs:
                            rep.fail("action-symmetry", (i, g, ja, jb),
                                     vec_of_dict(lhs, m, f), vec_of_dict(rhs, m, f))
    return rep


@functools.lru_cache(maxsize=None)
def _family(name, field):
    """A certified built-in action, by name."""
    if name.startswith("dual-regular "):
        return dual_regular_action(group_algebra(named_group(name.split()[1])[1], field))
    group, normal = {"en Z4": ("Z4", {0, 2}), "en Z6": ("Z6", {0, 2, 4}),
                     "en S3": ("S3", {0, 4, 5})}[name]
    return en_kg_example(named_group(group)[1], normal, field)[1]


FAMILIES = ["sweedler", "en Z4", "en Z6", "en S3"] + [
    "dual-regular %s" % g for g in ("Z2", "Z3", "Z4", "Z5", "Z6", "S3")]


@st.composite
def actions(draw):
    """A built-in action over ℚ or GF(5), possibly read as an action of the
    other side, possibly with one entry of its table changed."""
    field = draw(st.sampled_from([QQ, GF(5)]))
    name = draw(st.sampled_from(FAMILIES))
    if name == "sweedler":
        b = sweedler_k_bimodule(field, draw(st.integers(-3, 3)), draw(st.integers(-3, 3)))
        p = draw(st.sampled_from([b.left, b.right]))
    else:
        p = _family(name, field)
    side = draw(st.sampled_from(["left", "right"]))
    entries = dict(p.map.entries)
    if draw(st.booleans()):
        n, m = p.hopf.dim, p.alg.dim
        key = (draw(st.integers(0, n - 1)), draw(st.integers(0, m - 1)),
               draw(st.integers(0, m - 1)))
        entries[key] = field.of(Fraction(draw(st.integers(-2, 2)), draw(st.integers(1, 3))))
    # the table is set after construction so that a mutation may also break
    # the unit law, which the constructor would refuse
    out = PartialActionData(p.hopf, p.alg, side, dict(p.map.entries), name=p.name)
    out.map = Tensor3(out.map.dims, entries)
    return out


@settings(max_examples=60, deadline=None)
@given(actions(), st.booleans())
def test_table_suite_matches_the_reference_suite(p, symmetric):
    suite = check_lpma if p.side == "left" else check_rpma
    got = suite(p, symmetric=symmetric)
    want = reference_suite(p, symmetric, p.side == "left")
    assert got.laws == want.laws
    assert got.failures == want.failures


@pytest.mark.parametrize("field", [QQ, GF(5)], ids=["QQ", "GF5"])
@pytest.mark.parametrize("side", ["left", "right"])
def test_table_suite_matches_the_reference_where_laws_fail(field, side):
    # one changed entry of the kS3 dual regular table breaks every law but
    # the equivalence of the two composition forms, on either side
    glob = dual_regular_action(group_algebra(named_group("S3")[1], field))
    entries = dict(glob.map.entries)
    entries[(2, 3, 3)] = field.of(2)
    p = PartialActionData(glob.hopf, glob.alg, side, dict(glob.map.entries))
    p.map = Tensor3(p.map.dims, entries)
    got = (check_lpma if side == "left" else check_rpma)(p, symmetric=True)
    want = reference_suite(p, True, side == "left")
    assert {law for law, _, _, _ in got.failures} == set(got.laws) - {
        "composition-forms-equivalence"}
    assert got.failures == want.failures and got.laws == want.laws
    b = sweedler_k_bimodule(field, 2, 3)
    flipped = PartialActionData(b.hopf, b.alg, side, dict(b.right.map.entries
                                                          if side == "left" else
                                                          b.left.map.entries))
    got = (check_lpma if side == "left" else check_rpma)(flipped, symmetric=True)
    assert not got.passed
    assert got.failures == reference_suite(flipped, True, side == "left").failures


def test_modp_work_of_the_action_suite_stays_a_tenth_of_the_reference():
    # a deterministic guard for the table-driven suite: the reference suite
    # spends 42,488 ModP operations on this input; a copy without the
    # certificate dual_regular_action records, so that the suite runs
    p = bare(dual_regular_action(group_algebra(named_group("Z8")[1], GF(7))))
    ops = [0]
    names = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
             "__truediv__", "__rtruediv__", "__neg__")
    saved = {name: vars(fields.ModP)[name] for name in names}

    def counted(fn):
        def wrapper(*args):
            ops[0] += 1
            return fn(*args)
        return wrapper

    try:
        for name, fn in saved.items():
            setattr(fields.ModP, name, counted(fn))
        rep = check_lpma(p, symmetric=True)
    finally:
        for name, fn in saved.items():
            setattr(fields.ModP, name, fn)
    assert rep.passed
    assert ops[0] <= 4249


# ---------------------------------------------------------------------------
# laws recorded by their proofs, against the sweep they replaced


def sweep_suite(p, symmetric, left):
    """The table-driven action suite as it was before
    action-composition-nonunital and action-symmetry were recorded by their
    proofs: every law is swept over all basis tuples.  Kept here only as
    the reference for actions._action_suite."""
    rep = Report(p.name, p.alg.field)
    H, A = p.hopf, p.alg
    n, m = H.dim, A.dim
    f = H.field
    one = f.one
    empty = {}
    pv_act = p.map.pair_view()
    col = p.map.columns()
    on_a = [[col[i][j] for i in range(n)] for j in range(m)]
    on_unit = [apply_cols(col[i], A.unit_dict()) for i in range(n)]
    pv_a = A.mul.pair_view()
    pv_a_op = {(j, i): row for (i, j), row in pv_a.items()}
    pv_h = H.mul.pair_view()
    hop = pv_h if left else {(j, i): row for (i, j), row in pv_h.items()}
    iv = H.comul.in1_view()
    legs = [[(h1, h2, w) for (h1, h2), w in iv.get(i, empty).items()] for i in range(n)]
    units = [{j: one} for j in range(m)]

    def fail(law, idx, lhs, rhs):
        rep.fail(law, idx, vec_of_dict(lhs, m, f), vec_of_dict(rhs, m, f))

    rep.law("unit-action")
    u_h = H.unit_dict()
    for j in range(m):
        got = mul_dicts(pv_act, u_h, units[j])
        if got != units[j]:
            rep.fail("unit-action", (j,), vec_of_dict(got, m, f), A.basis_vec(j))

    # multiplicativity: h⇀(ab) = (h₁⇀a)(h₂⇀b)   [right: (ab)↼h = (a↼h₁)(b↼h₂)]
    rep.law("action-multiplicativity")
    for i in range(n):
        for ja in range(m):
            for jb in range(m):
                lhs = apply_cols(col[i], pv_a.get((ja, jb), empty))
                rhs = {}
                for h1, h2, w in legs[i]:
                    if col[h1][ja] and col[h2][jb]:
                        for k, c in mul_dicts(pv_a, col[h1][ja], col[h2][jb]).items():
                            dict_acc(rhs, k, w * c)
                if lhs != rhs:
                    fail("action-multiplicativity", (i, ja, jb), lhs, rhs)

    hg_cols = {}

    def hg(key):
        """(q·g) acting on every a_j, for the pair key = (q, g) of hop."""
        got = hg_cols.get(key)
        if got is None:
            got = hg_cols[key] = [apply_cols(on_a[j], hop[key]) for j in range(m)]
        return got

    def composition(law, flip, unital):
        """h⇀[a(g⇀b)] = (h₁⇀a)(h₂g⇀b), read through A^op and Δ^cop when
        flip; unital puts h⇀(g⇀b) = (h₁⇀1_A)(h₂g⇀b) in its place."""
        pva = pv_a_op if flip else pv_a
        ok = True
        for i in range(n):
            terms = [(h2, w, h1) if flip else (h1, w, h2) for h1, h2, w in legs[i]]
            for g in range(n):
                tg = [(q, w, hg((r, g))) for q, w, r in terms if hop.get((r, g))]
                for jb in range(m):
                    inner = col[g][jb]
                    for ja in ([None] if unital else range(m)):
                        if unital:
                            lhs = apply_cols(col[i], inner)
                        else:
                            lhs = apply_cols(col[i], mul_dicts(pva, units[ja], inner)) \
                                if inner else {}
                        rhs = {}
                        for q, w, gcols in tg:
                            t1 = on_unit[q] if unital else col[q][ja]
                            if t1 and gcols[jb]:
                                for k, c in mul_dicts(pva, t1, gcols[jb]).items():
                                    dict_acc(rhs, k, w * c)
                        if lhs != rhs:
                            ok = False
                            fail(law, (i, g, jb) if unital else (i, g, ja, jb), lhs, rhs)
        return ok

    # composition against the unit:
    #   left:  h⇀(g⇀b)   = (h₁⇀1_A)(h₂g⇀b)
    #   right: (b↼g)↼h   = (b↼gh₁)(1_A↼h₂)
    rep.law("action-composition")
    comp_ok = composition("action-composition", not left, True)

    # the same composition law with an extra algebra factor in place of 1_A:
    #   left:  h⇀[a(g⇀b)] = (h₁⇀a)(h₂g⇀b)
    #   right: [(b↼g)a]↼h = (b↼gh₁)(a↼h₂)
    rep.law("action-composition-nonunital")
    nonunital_ok = composition("action-composition-nonunital", not left, False)

    # for unital algebras the two composition forms must agree as predicates
    rep.law("composition-forms-equivalence")
    unital_ok = comp_ok and not rep.failures_for("action-multiplicativity")
    if unital_ok != nonunital_ok:
        rep.fail("composition-forms-equivalence", (),
                 "unital form %s" % ("holds" if unital_ok else "fails"),
                 "general form %s" % ("holds" if nonunital_ok else "fails"))

    if symmetric:
        # left:  h⇀[(g⇀b)a] = (h₁g⇀b)(h₂⇀a)
        # right: [a(b↼g)]↼h = (a↼h₁)(b↼gh₂)
        rep.law("action-symmetry")
        composition("action-symmetry", left, False)
    return rep



def sweep_bimodule(b):
    """check_bimodule with both one-sided suites swept."""
    rep = Report("%s bimodule on %s" % (b.hopf.name, b.alg.name), b.alg.field)
    rep.merge(sweep_suite(b.left, b.left.symmetric, True), prefix="left/")
    rep.merge(sweep_suite(b.right, b.right.symmetric, False), prefix="right/")
    n, m = b.hopf.dim, b.alg.dim
    f = b.hopf.field
    one = f.one
    rep.law("bimodule-compatibility")
    for i, j, g in product(range(n), range(m), range(n)):
        lhs = b.left.apply({i: one}, b.right.apply({g: one}, {j: one}))
        rhs = b.right.apply({g: one}, b.left.apply({i: one}, {j: one}))
        if lhs != rhs:
            rep.fail("bimodule-compatibility", (i, j, g),
                     vec_of_dict(lhs, m, f), vec_of_dict(rhs, m, f))
    return rep


def _suite_matches_the_sweep(p, symmetric):
    """p's one-sided suite, whose JSON report must equal the sweep's."""
    got = (check_lpma if p.side == "left" else check_rpma)(p, symmetric=symmetric)
    assert got.to_json() == sweep_suite(p, symmetric, p.side == "left").to_json()
    return got


def _carried_actions(kind, doc):
    """The actions a document carries, as (kind, structure) with kind
    'action' or 'bimodule': a coaction is read as its dual action through
    the uncertified dual structure, so that a move in the Hopf tables
    reaches the action suites.  None when a data class refuses it."""
    from tests.test_scalars import KINDS
    loader = KINDS[kind][0]
    try:
        s = loader(doc)
        if kind in ("action", "bimodule"):
            return kind, s
        hs = _dual_structure(s.hopf)
        if kind == "coaction":
            return "action", _dual_action(s, hs)
        return "bimodule", PartialBimoduleData(_dual_action(s.right, hs),
                                               _dual_action(s.left, hs))
    except ValueError:
        return None


# the families of tests/test_scalars.families() that carry an action, named
# here so that a fault in a constructor fails the tests, not the collection
ACTION_FAMILIES = ["H4 bicomodule", "H4 right coaction", "Sweedler (1/2,-3/4) bimodule",
                   "Sweedler (2,3) bimodule", "Sweedler (t,u) bicomodule",
                   "kQ8* bicomodule", "kQ8* bimodule", "kS3* action", "kZ4 bicomodule",
                   "kZ4 en-kG action"]


def test_the_sweep_oracle_covers_every_family_that_carries_an_action():
    from tests.test_scalars import families
    assert ACTION_FAMILIES == sorted(
        name for name, (kind, _) in families().items()
        if kind in ("action", "bimodule", "coaction", "bicomodule"))


@pytest.mark.parametrize("name", ACTION_FAMILIES)
def test_reports_equal_the_sweep_on_every_family_and_move(name):
    # every family that carries an action, over ℚ, mod 5 and mod 7, and
    # single-entry moves of it: the derived laws change no report
    from tests.test_scalars import families, mutations, reduce_mod
    kind, doc = families()[name]
    docs = [doc] + [moved for _, moved in mutations(doc)]
    for p in (5, 7):
        try:
            docs.append(reduce_mod(doc, p))
        except ZeroDivisionError:
            pass
    checked = failing = 0
    for d in docs:
        got = _carried_actions(kind, d)
        if got is None:
            continue
        what, s = got
        if what == "action":
            reports = [_suite_matches_the_sweep(s, sym) for sym in (False, True)]
        else:
            # each side once more with its symmetric flag flipped
            reports = [check_bimodule(s)] + [_suite_matches_the_sweep(q, not q.symmetric)
                                             for q in (s.left, s.right)]
            assert reports[0].to_json() == sweep_bimodule(s).to_json()
        failing += not all(reports)
        checked += 1
    assert checked >= 5 and failing


def _counting(monkeypatch, module, name):
    """Replace module.name by a wrapper that counts its calls."""
    calls = []
    fn = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_constructors_run_each_side_suite_once(monkeypatch):
    _, table = named_group("Z4")
    left = dual_regular_action(group_algebra(table, QQ))
    bim = trivialize_right(left)
    runs = _counting(monkeypatch, actions_module, "_action_suite")
    sweedler_k_bimodule(QQ, 2, 3)
    assert len(runs) == 2
    runs.clear()
    # the right ε-action is certified by its proof, the left action by the
    # certificate dual_regular_action recorded, or by its suite once when
    # it carries none
    assert trivialize_right(left).left is left and runs == []
    copy = bare(left)
    assert trivialize_right(copy).left is copy and len(runs) == 1
    runs.clear()
    o, z = QQ.one, QQ.zero
    induce_bimodule(bim, subspace_span([[o, z, z, z], [z, z, o, z]], 4, QQ), [o, z, z, z])
    assert len(runs) == 2
    runs.clear()
    # certified by the hopf_check of its dual
    dual_regular_action(group_algebra(table, QQ))
    assert runs == []


def test_dual_regular_suite_forms_few_products(monkeypatch):
    # the laws with four basis indices are recorded by their proofs: the
    # suite formed 3,912 products in A when it swept them on this input
    n = 12
    p = bare(dual_regular_action(group_algebra([[(i + j) % n for j in range(n)]
                                                for i in range(n)], QQ)))
    calls = _counting(monkeypatch, actions_module, "mul_dicts")
    rep = check_lpma(p, symmetric=True)
    assert rep.passed and "action-symmetry" in rep.laws
    assert len(calls) <= 400, len(calls)



def _not_hopf(h, counit=None, antipode=None):
    """h with its counit or antipode replaced: a structure that fails
    hopf_check."""
    return HopfData(h.field, h.basis, dict(h.mul.entries), h.unit,
                    dict(h.comul.entries), counit or h.counit,
                    antipode or h.antipode, name="%s, changed" % h.name)


@pytest.mark.parametrize("side", ["left", "right"])
def test_the_trivial_action_of_a_non_hopf_algebra_runs_its_suite(side, monkeypatch):
    runs = _counting(monkeypatch, actions_module, "_action_suite")
    h4 = sweedler_h4(QQ)
    antipode = [list(row) for row in h4.antipode]
    antipode[3][2] = QQ.one                     # S(x) = xg
    t = trivial_action(_not_hopf(h4, antipode=antipode), h4, side)
    # the ε-action needs no antipode: the suite runs and passes
    assert len(runs) == 1 and t.symmetric
    kz3 = group_algebra(named_group("Z3")[1], QQ)
    counit = list(kz3.counit)
    counit[1] = QQ.of(2)                        # ε not multiplicative
    with pytest.raises(AssertionError, match=r"^constructed action failed "
                       r"action-multiplicativity at \(1, 0, 0\)$"):
        trivial_action(_not_hopf(kz3, counit=counit), kz3, side)
    assert len(runs) == 2


@pytest.mark.parametrize("side", ["left", "right"])
def test_the_trivial_action_by_proof_passes_its_suite(side):
    for h in (sweedler_h4(QQ), group_algebra(named_group("S3")[1], GF(5))):
        for a in (h, scalar_algebra(h.field)):
            t = trivial_action(h, a, side)
            assert t.symmetric and (check_lpma if side == "left" else check_rpma)(t).passed


def _dual_pair_set_up(group, field):
    """What a benchmark set-up builds for one group: the kG* bimodule on kG,
    dual regular from the left and trivial from the right, and the regular
    kG* bicomodule, both written out as documents."""
    from phopf.examples import regular_bicomodule
    h = group_algebra(named_group(group)[1], field, name="k" + group)
    bim = trivialize_right(dual_regular_action(h))
    for s in (bim, regular_bicomodule(bim.hopf)):
        s.to_json(hopf_ref="hopf.json")


@pytest.mark.parametrize("groups,field,want", [
    (("Q8", "S3"), GF(7), (0, 0, 0, 0, 0, 0)),
    (("Z12", "Q8"), QQ, (0, 0, 0, 0, 0, 0)),
], ids=["smash set-up", "check set-up"])
def test_a_set_up_decides_each_structure_once(groups, field, want, monkeypatch):
    # computations, not calls: (_action_suite, swept compatibility laws,
    # algebra, coalgebra and Hopf suites, _coaction_suite); kG is certified by its
    # group table and kG* by duality, so no algebra, coalgebra or Hopf
    # suite runs, and dual_regular_action, trivial_action, trivialize_right
    # and regular_bicomodule record their Reports by proof, so neither does
    # any action or coaction suite (the smash set-up ran 2 action suites and
    # the check set-up 1 before they did)
    from phopf import coactions
    from tests.test_algebras import _decisions
    runs = _counting(monkeypatch, actions_module, "_action_suite")
    # the duality bridges of coactions import check_bimodule when they run,
    # so this one count sees their sweeps too; trivialize_right records the
    # law by its proof (compatible=True), which sweeps nothing
    compat, decide = [], actions_module._decide_bimodule

    def sweeping(b, compatible=False):
        compat.extend([b] * (not compatible))
        return decide(b, compatible)

    monkeypatch.setattr(actions_module, "_decide_bimodule", sweeping)
    co_runs = _counting(monkeypatch, coactions, "_coaction_suite")
    decided = _decisions(monkeypatch)
    for group in groups:
        if group == "Z12":
            # a dual regular action alone
            dual_regular_action(group_algebra([[(i + j) % 12 for j in range(12)]
                                               for i in range(12)], field))
        else:
            _dual_pair_set_up(group, field)
    got = (len(runs), len(compat), decided.get("_decide_algebra", 0),
           decided.get("_decide_coalgebra", 0), decided.get("_decide_hopf", 0),
           len(co_runs))
    assert got == want


def _premise_case(name):
    """An action on which a premise of the derived laws fails."""
    f = GF(5)
    p = dual_regular_action(sweedler_h4(f))
    q = PartialActionData(p.hopf, p.alg, "left", dict(p.map.entries))
    if name == "non-associative A":
        # g·g = 0 in the algebra acted on; multiplicativity fails with it
        mul = dict(p.alg.mul.entries)
        del mul[(1, 1, 0)]
        q.alg = AlgebraData(f, p.alg.basis, mul, p.alg.unit, name="H4 with g·g = 0")
    elif name == "non-coassociative Δ":
        # Δ(p_0) of kZ4* moved by p_1⊗p_3 − p_1⊗p_1: still counital
        _, a = en_kg_example(named_group("Z4")[1], [0, 2], f)
        h = a.hopf
        comul = dict(h.comul.entries)
        comul[(0, 1, 1)] = comul.get((0, 1, 1), f.zero) - f.one
        comul[(0, 1, 3)] = comul.get((0, 1, 3), f.zero) + f.one
        q = PartialActionData(h, a.alg, "left", dict(a.map.entries))
        q.hopf = HopfData(f, h.basis, dict(h.mul.entries), h.unit,
                          {k: c for k, c in comul.items() if c}, h.counit, h.antipode)
    else:
        # one entry of the H4* action on H4 cleared
        entries = dict(p.map.entries)
        del entries[(2, 2, 0)]
        q.map = Tensor3(p.map.dims, entries)
    return q


@pytest.mark.parametrize("name", ["non-associative A", "non-coassociative Δ",
                                  "failing multiplicativity"])
def test_a_failing_premise_sweeps_the_derived_laws(name):
    # the unital composition law holds in each case but the general one
    # does not, so a law recorded by its proof here would be a false pass
    q = _premise_case(name)
    broken = {x[0] for x in algebra_check(q.alg).failures + coalgebra_check(q.hopf).failures}
    assert broken == {"non-associative A": {"associativity"},
                      "non-coassociative Δ": {"coassociativity"},
                      "failing multiplicativity": set()}[name]
    for symmetric in (False, True):
        got = check_lpma(q, symmetric=symmetric)
        assert got.to_json() == sweep_suite(q, symmetric, True).to_json()
        assert not got.failures_for("action-composition")
        assert got.failures_for("action-composition-nonunital")
    assert bool(got.failures_for("action-multiplicativity")) != (name == "non-coassociative Δ")
