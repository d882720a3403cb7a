"""Algebra and Hopf layer: structure constants, axiom suites, duality."""

import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from phopf.fields import GF, QQ
from phopf.linalg import (Tensor3, apply_cols, col_dicts, dict_acc,
                          restrict_product, solve)
from phopf._groups import GROUP_NAMES, named_group
from phopf.algebras import (AlgebraData, Count, HopfData, Report, _nucleus_generators,
                            algebra_check, coalgebra_check, dict_of_vec, dual_hopf,
                            hom_hh_a, hopf_check, mul_dicts, tensor_hah, tensor_mul,
                            vec_of_dict)
from phopf.examples import group_algebra, scalar_algebra, sweedler_h4
from phopf.ambient import TensorProductMul

HOPF_LAWS = {"associativity", "unit-law", "coassociativity", "counit-law",
             "comultiplication-multiplicative", "counit-multiplicative",
             "comultiplication-unit", "counit-unit", "antipode-law"}


# ---------------------------------------------------------------------------
# the axiom suites pass where they must


def _proved_as_swept(h):
    """h passes the Hopf suite, and the Reports h carries (derived by proof
    for kG and for duals) equal the sweeps of a copy that carries none."""
    reps = _reports(h)
    assert reps == _reports(_fresh_copy(h)), h.name
    assert reps[2]["passed"] and set(reps[2]["laws"]) == HOPF_LAWS, h.name


@pytest.mark.parametrize("field", [QQ, GF(5), GF(7)], ids=["QQ", "GF5", "GF7"])
@pytest.mark.parametrize("name", GROUP_NAMES)
def test_group_algebras_and_duals_are_hopf(field, name):
    labels, table = named_group(name)
    h = group_algebra(table, field, labels)
    for x in (h, dual_hopf(h), dual_hopf(dual_hopf(h))):
        _proved_as_swept(x)


@pytest.mark.parametrize("field", [QQ, GF(5), GF(7)], ids=["QQ", "GF5", "GF7"])
def test_sweedler_is_hopf(field):
    h = sweedler_h4(field)
    for x in (h, dual_hopf(h), dual_hopf(dual_hopf(h))):
        _proved_as_swept(x)


def test_the_dual_of_a_failing_hopf_algebra_is_swept(monkeypatch):
    h = sweedler_h4(QQ)
    h.antipode[3][2] = h.field.one                # S(x) = xg: the antipode fails
    counts = _decisions(monkeypatch)
    with pytest.raises(AssertionError,
                       match=r"^dual Hopf algebra fails antipode-law at \(2,\)$"):
        dual_hopf(h)
    # h once, then the dual's own suite, which names the dual's law and index
    assert counts["_decide_hopf"] == 2


def test_an_invalid_group_table_is_refused_before_any_certificate():
    with pytest.raises(ValueError, match="not a group table: fails associativity"):
        group_algebra([[0, 1, 2], [1, 0, 0], [2, 1, 0]], QQ)


def test_sweedler_rejects_characteristic_two():
    with pytest.raises(ValueError):
        sweedler_h4(GF(2))


def test_sweedler_structure_constants(h4):
    one = QQ.one
    # basis 1, g, x, xg with g^2 = 1, x^2 = 0, g x = -x g
    assert h4.basis == ["1", "g", "x", "xg"]
    pv = h4.mul.pair_view()
    assert pv[(1, 1)] == {0: one}
    assert (2, 2) not in pv
    assert pv[(1, 2)] == {3: -one}
    # comultiplication of x is x (x) g + 1 (x) x
    assert h4.comul.in1_view()[2] == {(2, 1): one, (0, 2): one}
    assert h4.counit == [one, one, QQ.zero, QQ.zero]
    # antipode swaps x and xg up to sign (images sit in columns)
    assert h4.antipode[3][2] == -one and h4.antipode[2][3] == one


def test_double_dual_is_the_identity_on_structure(h4):
    dd = dual_hopf(dual_hopf(h4))
    assert dd.mul.entries == h4.mul.entries
    assert dd.comul.entries == h4.comul.entries
    assert dd.unit == h4.unit and dd.counit == h4.counit
    assert dd.antipode == h4.antipode


def test_group_algebra_structure():
    labels, table = named_group("Z4")
    h = group_algebra(table, QQ, labels)
    assert h.dim == 4
    for (i, j, k), c in h.mul.entries.items():
        assert c == QQ.one and table[i][j] == k
    # antipode is the inverse permutation
    for i in range(4):
        inv = table[i].index(0)
        assert h.antipode[inv][i] == QQ.one


# ---------------------------------------------------------------------------
# mutation tests: every corrupted structure is caught


def _hopf_with(h, **parts):
    return HopfData(h.field, list(h.basis),
                    parts.get("mul", h.mul),
                    parts.get("unit", list(h.unit)),
                    parts.get("comul", h.comul),
                    parts.get("counit", list(h.counit)),
                    parts.get("antipode", [list(r) for r in h.antipode]))


def test_mutated_multiplication_is_caught():
    labels, table = named_group("Z2")
    h = group_algebra(table, QQ, labels)
    mul = Tensor3((2, 2, 2), dict(h.mul.entries))
    mul.add(1, 1, 0, -QQ.one)
    mul.add(1, 1, 1, QQ.one)          # now g.g = g
    rep = hopf_check(_hopf_with(h, mul=mul))
    assert not rep.passed
    assert rep.failures_for("antipode-law")


def test_mutated_comultiplication_is_caught():
    labels, table = named_group("Z2")
    h = group_algebra(table, QQ, labels)
    comul = Tensor3((2, 2, 2), dict(h.comul.entries))
    comul.add(1, 1, 1, -QQ.one)
    comul.add(1, 1, 0, QQ.one)        # now comul(g) = g (x) 1
    rep = hopf_check(_hopf_with(h, comul=comul))
    assert not rep.passed
    assert rep.failures_for("counit-law")


def test_mutated_counit_is_caught():
    labels, table = named_group("Z2")
    h = group_algebra(table, QQ, labels)
    rep = hopf_check(_hopf_with(h, counit=[QQ.one, QQ.zero]))
    assert not rep.passed
    assert rep.failures_for("counit-law") or rep.failures_for("counit-multiplicative")


def test_mutated_antipode_is_caught():
    labels, table = named_group("Z4")
    h = group_algebra(table, QQ, labels)
    anti = [list(r) for r in h.antipode]
    anti[1] = [QQ.zero, QQ.one, QQ.zero, QQ.zero]   # S(g) = g instead of g^3
    rep = hopf_check(_hopf_with(h, antipode=anti))
    assert not rep.passed
    assert rep.failures_for("antipode-law")
    wit = rep.failures_for("antipode-law")[0]
    assert wit[1] == (1,)             # witnessed on the basis element g


def test_mutated_algebra_unit_is_caught():
    a = scalar_algebra(QQ)
    bad = AlgebraData(QQ, list(a.basis), a.mul, [QQ.of(2)], name="bad")
    rep = algebra_check(bad)
    assert not rep.passed and rep.failures_for("unit-law")


# ---------------------------------------------------------------------------
# derived ambient algebras


def test_hom_convolution_algebra_shape(h4):
    a = scalar_algebra(QQ)
    hom = hom_hh_a(h4, a)
    assert hom.algebra.dim == 16
    assert algebra_check(hom.algebra).passed
    n = h4.dim
    # translation operators compose along the Hopf multiplication, checked
    # column by column on the column maps
    pv = h4.mul.pair_view()
    for g in range(n):
        for h in range(n):
            for x in range(16):
                comp = apply_cols(hom.left_ops[g], hom.left_ops[h][x])
                want = {}
                for p, c in pv.get((g, h), {}).items():
                    for i, d in hom.left_ops[p][x].items():
                        dict_acc(want, i, c * d)
                assert comp == want
    # left and right translations commute
    for g in range(n):
        for h in range(n):
            for x in range(16):
                assert (apply_cols(hom.left_ops[g], hom.right_ops[h][x])
                        == apply_cols(hom.right_ops[h], hom.left_ops[g][x]))


@pytest.mark.parametrize("a", [scalar_algebra(QQ), sweedler_h4(QQ)], ids=["k", "H4"])
def test_tensor_ambient_shape(h4, a):
    amb = tensor_hah(h4, a)
    n, da = h4.dim, a.dim
    big = n * da * n
    assert amb.algebra.dim == big
    assert algebra_check(amb.algebra).passed
    rho, lam = reference_coaction_tables(amb, n)
    assert rho.dims == (big, big, n)
    assert lam.dims == (big, n, big)
    # the dual families are ρ = I⊗I⊗Δ and λ = Δ⊗I⊗I, read off Δ directly
    idx = amb.index
    assert rho.entries == {(idx(i, m, j), idx(i, m, j1), j2): c
                           for (j, j1, j2), c in h4.comul.entries.items()
                           for i in range(n) for m in range(da)}
    assert lam.entries == {(idx(i, m, j), i1, idx(i2, m, j)): c
                           for (i, i1, i2), c in h4.comul.entries.items()
                           for m in range(da) for j in range(n)}


def test_unitless_algebra_check_skips_unit_law():
    mul = Tensor3((1, 1, 1))
    rep = algebra_check(AlgebraData(QQ, ["z"], mul, None, name="null"))
    assert rep.passed and "unit-law" not in rep.laws


# ---------------------------------------------------------------------------
# ambient certificates: the ambients are certified through their factors at
# build time; the exhaustive sweep of the ambient itself is kept here as the
# oracle for every built-in ambient of dimension at most 64


def _kg(name, field=QQ):
    labels, table = named_group(name)
    return group_algebra(table, field, labels)


def _ambient_cases():
    h4 = sweedler_h4(QQ)
    cases = [("H4/k", h4, scalar_algebra(QQ)), ("H4/H4", h4, h4)]
    for name in ("Z2", "Z3", "Z4"):
        h = _kg(name)
        cases.append(("k%s/k%s" % (name, name), h, h))
    return cases


@pytest.mark.parametrize("ctor", [hom_hh_a, tensor_hah], ids=["hom", "tensor"])
@pytest.mark.parametrize("case", _ambient_cases(), ids=lambda c: c[0])
def test_ambient_sweep_oracle(case, ctor):
    _, h, a = case
    amb = ctor(h, a)
    assert amb.algebra.dim == h.dim * h.dim * a.dim <= 64
    rep = algebra_check(amb.algebra)
    assert rep.passed, rep.lines()
    assert rep.laws == ["associativity", "unit-law"]


def _nonassociative_algebra():
    """Unital 3-dim algebra with (e1 e1) e1 = 0 but e1 (e1 e1) = e0."""
    one = QQ.one
    mul = {(0, i, i): one for i in range(3)}
    mul.update({(i, 0, i): one for i in range(1, 3)})
    mul[(1, 1, 2)] = one
    mul[(1, 2, 0)] = one
    return AlgebraData(QQ, ["e0", "e1", "e2"], mul, [one, QQ.zero, QQ.zero],
                       name="nonassoc")


def test_coalgebra_check_is_the_coalgebra_part_of_hopf_check(h4):
    rep = coalgebra_check(h4)
    assert rep.passed and rep.laws == ["coassociativity", "counit-law"]
    assert hopf_check(h4).laws == [
        "associativity", "unit-law", "coassociativity", "counit-law",
        "comultiplication-multiplicative", "counit-multiplicative",
        "comultiplication-unit", "counit-unit", "antipode-law"]


def test_hom_ambient_rejects_a_noncoassociative_comultiplication(h4):
    comul = Tensor3((4, 4, 4), dict(h4.comul.entries))
    comul.add(2, 2, 1, QQ.one)        # Δ(x) = 2 x⊗g + 1⊗x
    bad = _hopf_with(h4, comul=comul)
    assert coalgebra_check(bad).failures[0][0] == "coassociativity"
    with pytest.raises(ValueError, match="coassociativity"):
        hom_hh_a(bad, scalar_algebra(QQ))


def test_hom_ambient_rejects_a_broken_counit():
    h = _kg("Z2")
    bad = _hopf_with(h, counit=[QQ.one, QQ.of(2)])
    with pytest.raises(ValueError, match="counit-law"):
        hom_hh_a(bad, scalar_algebra(QQ))


@pytest.mark.parametrize("ctor", [hom_hh_a, tensor_hah], ids=["hom", "tensor"])
def test_ambients_reject_a_nonassociative_coefficient_algebra(ctor):
    a = _nonassociative_algebra()
    assert algebra_check(a).failures[0][0] == "associativity"
    with pytest.raises(ValueError, match="associativity"):
        ctor(_kg("Z2"), a)


def test_tensor_ambient_rejects_a_nonassociative_hopf_multiplication():
    h = _kg("Z3")
    mul = Tensor3((3, 3, 3), dict(h.mul.entries))
    mul.add(1, 1, 2, -QQ.one)
    mul.add(1, 1, 0, QQ.one)          # now g·g = 1 in a group of order 3
    with pytest.raises(ValueError, match="associativity"):
        tensor_hah(_hopf_with(h, mul=mul), scalar_algebra(QQ))


def _dense_hom_ops(h, a):
    """Dense translation matrices of Hom(H⊗H, A), read off by evaluating each
    translated basis functional on every basis pair."""
    n, da = h.dim, a.dim
    big = n * n * da
    zero = h.field.zero
    left = [[[zero] * big for _ in range(big)] for _ in range(n)]
    right = [[[zero] * big for _ in range(big)] for _ in range(n)]
    for g in range(n):
        for i0 in range(n):
            for j0 in range(n):
                for m in range(da):
                    col = (i0 * n + j0) * da + m
                    for k in range(n):
                        # (g ▷ E)(e_k⊗e_j0) = E(e_k e_g ⊗ e_j0)
                        left[g][(k * n + j0) * da + m][col] += h.mul.get(k, g, i0, zero)
                        # (E ◁ g)(e_i0⊗e_k) = E(e_i0 ⊗ e_g e_k)
                        right[g][(i0 * n + k) * da + m][col] += h.mul.get(g, k, j0, zero)
    return left, right


def _dense_tensor_ops(h, a):
    """Dense dual translation matrices of H⊗A⊗H: p_g ▷ (h⊗a⊗k) = h⊗a⊗k₁ p_g(k₂)
    and (h⊗a⊗k) ◁ p_g = p_g(h₁) h₂⊗a⊗k."""
    n, da = h.dim, a.dim
    big = n * da * n
    zero = h.field.zero
    left = [[[zero] * big for _ in range(big)] for _ in range(n)]
    right = [[[zero] * big for _ in range(big)] for _ in range(n)]
    for g in range(n):
        for i in range(n):
            for m in range(da):
                for k in range(n):
                    col = (i * da + m) * n + k
                    for t in range(n):
                        left[g][(i * da + m) * n + t][col] += h.comul.get(k, t, g, zero)
                        right[g][(t * da + m) * n + k][col] += h.comul.get(i, g, t, zero)
    return left, right


@pytest.mark.parametrize("case", _ambient_cases()[:3] + [("kS3/k", _kg("S3"), None)],
                         ids=lambda c: c[0])
def test_sparse_ambient_operators_match_a_dense_reference(case):
    _, h, a = case
    a = a or scalar_algebra(QQ)
    hom = hom_hh_a(h, a)
    left, right = _dense_hom_ops(h, a)
    assert [list(op) for op in hom.left_ops] == [col_dicts(op) for op in left]
    assert [list(op) for op in hom.right_ops] == [col_dicts(op) for op in right]
    amb = tensor_hah(h, a)
    left, right = _dense_tensor_ops(h, a)
    assert [list(op) for op in amb.dual_left_ops] == [col_dicts(op) for op in left]
    assert [list(op) for op in amb.dual_right_ops] == [col_dicts(op) for op in right]


# ---------------------------------------------------------------------------
# the ambients' leg products against the tables they replaced


def reference_hom_table(h, a):
    """The structure constants of Hom(H⊗H, A) under convolution, written out
    by the n⁶(dim A)³ loop hom_hh_a once ran.  Kept here only as the
    reference for its leg product."""
    n, da = h.dim, a.dim
    big = n * n * da

    def idx(i, j, m):
        return (i * n + j) * da + m

    mul = Tensor3((big, big, big))
    for (p, i, i2), c1 in h.comul.entries.items():
        for (q, j, j2), c2 in h.comul.entries.items():
            c12 = c1 * c2
            for (m, m2, t), c3 in a.mul.entries.items():
                mul.add(idx(i, j, m), idx(i2, j2, m2), idx(p, q, t), c12 * c3)
    return mul


def reference_tensor_table(h, a):
    """The structure constants of H⊗A⊗H, written out by the loop tensor_hah
    once ran.  Kept here only as the reference for its leg product."""
    n, da = h.dim, a.dim
    big = n * da * n

    def idx(i, m, j):
        return (i * da + m) * n + j

    mul = Tensor3((big, big, big))
    for (i, i2, p), c1 in h.mul.entries.items():
        for (m, m2, t), c2 in a.mul.entries.items():
            c12 = c1 * c2
            for (j, j2, q), c3 in h.mul.entries.items():
                mul.add(idx(i, m, j), idx(i2, m2, j2), idx(p, t, q), c12 * c3)
    return mul


REFERENCE_TABLES = {hom_hh_a: reference_hom_table, tensor_hah: reference_tensor_table}


def reference_coaction_tables(amb, n):
    """The coactions ρ and λ of the ambient H⊗A⊗H, written out as the n·N
    Tensor3 tensor_hah once built: ρ(x) = Σ_g (p_g▷x)⊗h_g and λ(x) =
    Σ_g h_g⊗(x◁p_g), the dual families with the Hopf index read as a slot.
    Kept here only as the reference for the coactions read through the
    dual families."""
    big = amb.algebra.dim
    rho = Tensor3((big, big, n), {(x, y, g): c for g, op in enumerate(amb.dual_left_ops)
                                  for x, col in enumerate(op) for y, c in col.items()})
    lam = Tensor3((big, n, big), {(x, g, y): c for g, op in enumerate(amb.dual_right_ops)
                                  for x, col in enumerate(op) for y, c in col.items()})
    return rho, lam


def _random_vector(rng, field, n):
    """A vector with a drawn number of nonzero entries, from one to all."""
    v = [field.zero] * n
    for i in rng.sample(range(n), rng.choice([1, 2, 5, n])):
        v[i] = field.of(rng.choice([-2, -1, 1, 3]))
    return v


@pytest.mark.parametrize("ctor", [hom_hh_a, tensor_hah], ids=["hom", "tensor"])
@pytest.mark.parametrize("case", _ambient_cases() + [
    ("H4/H4 over GF5", sweedler_h4(GF(5)), sweedler_h4(GF(5))),
    ("kS3/k", _kg("S3"), scalar_algebra(QQ))], ids=lambda c: c[0])
def test_leg_product_matches_the_reference_table(case, ctor):
    _, h, a = case
    mul = ctor(h, a).algebra.mul
    ref = REFERENCE_TABLES[ctor](h, a)
    count = TensorProductMul.materializations
    # the length and single entries come from the legs
    assert len(mul.entries) == len(ref.entries)
    rng = random.Random(len(ref.entries))
    big = mul.dims[0]
    for key in rng.sample(sorted(ref.entries), min(20, len(ref.entries))):
        assert mul.entries[key] == ref.entries[key]
    for _ in range(20):
        key = tuple(rng.randrange(big) for _ in range(3))
        assert mul.entries.get(key) == ref.entries.get(key)
    # products, on vectors from one term to dense
    for _ in range(30):
        du, dv = (dict_of_vec(_random_vector(rng, h.field, big)) for _ in range(2))
        assert mul.mul_dict(du, dv) == ref.mul_dict(du, dv)
    assert TensorProductMul.materializations == count
    # writing the table out is counted, once per request
    assert mul.table() == ref
    assert mul.pair_view() == ref.pair_view()
    assert TensorProductMul.materializations == count + 2


def test_leg_product_rejects_a_leg_that_is_not_square():
    with pytest.raises(ValueError, match="leg tensor shaped"):
        TensorProductMul((Tensor3((2, 2, 2)), Tensor3((2, 2, 3))))


# ---------------------------------------------------------------------------
# the report object


def test_report_bookkeeping():
    r = Report()
    r.law("alpha")
    r.law("beta")
    r.fail("beta", (0, 1), "L", "R")
    assert not r.passed
    assert r.failures_for("beta") == [("beta", (0, 1), "L", "R")]
    lines = r.lines()
    assert lines[0] == "PASS  alpha" and lines[1].startswith("FAIL  beta")
    doc = r.to_json()
    assert doc["passed"] is False and "beta" in doc["laws"]
    outer = Report()
    outer.merge(r, prefix="inner/")
    assert "inner/beta" in outer.laws and not outer.passed


def test_report_require_returns_a_passing_report_and_raises_at_the_first_failure():
    r = Report("subject")
    r.law("alpha")
    assert r.require("thing") is r
    r.fail("beta", (2, 0), "L", "R")
    r.fail("alpha", (1,), "L", "R")
    with pytest.raises(ValueError) as err:
        r.require("thing")
    assert str(err.value) == "thing fails beta at (2, 0)"
    with pytest.raises(AssertionError, match=r"^thing fails beta at \(2, 0\)$"):
        r.require("thing", AssertionError)


def test_report_prints_every_rational_witness_scalar_as_a_fraction():
    # an integral rational scalar may be an int or a Fraction; the JSON
    # report prints both as Fraction(n, 1), and leaves basis indices, counts
    # and prime-field residues as they are
    r = Report()
    r.fail("vector", (0,), [1, Fraction(1, 2)], [Fraction(1), 0])
    r.fail("items", (1,), [((0, 1), -1)], {2: 3})
    r.fail("scalar", (), 1, Fraction(2, 4))
    r.fail("count", (3, 4), Count(3), Count(4))
    got = [(x["lhs"], x["rhs"]) for x in r.to_json()["failures"]]
    assert got == [
        ("[Fraction(1, 1), Fraction(1, 2)]", "[Fraction(1, 1), Fraction(0, 1)]"),
        ("[((0, 1), Fraction(-1, 1))]", "{2: Fraction(3, 1)}"),
        ("Fraction(1, 1)", "Fraction(1, 2)"),
        ("3", "4"),
    ]
    assert r.failures[0][2] == [1, Fraction(1, 2)]    # stored as given
    assert Report(field=QQ).to_json() == Report().to_json()
    # over GF(p) an int (library input not coerced into the field) stays one
    f = GF(7)
    r = Report(field=f)
    r.fail("residues", (), [f.one, f.of(3)], [1, 0])
    assert [(x["lhs"], x["rhs"]) for x in r.to_json()["failures"]] == [("[1, 3]", "[1, 0]")]


# ---------------------------------------------------------------------------
# the associativity sweep against the triple-by-triple reference


def reference_algebra_check(a):
    """The sweep algebra_check replaced: it forms both sides of every one of
    the dim³ basis triples in turn.  Kept as the differential reference."""
    rep = Report(a.name)
    n = a.dim
    f = a.field
    pv = a.mul.pair_view()
    empty = {}

    rep.law("associativity")
    for i in range(n):
        for j in range(n):
            pij = pv.get((i, j), empty)
            for k in range(n):
                lhs = {}
                for m, c in pij.items():
                    row = pv.get((m, k))
                    if row:
                        for t, d in row.items():
                            dict_acc(lhs, t, c * d)
                rhs = {}
                for m, c in pv.get((j, k), empty).items():
                    row = pv.get((i, m))
                    if row:
                        for t, d in row.items():
                            dict_acc(rhs, t, c * d)
                if lhs != rhs:
                    rep.fail("associativity", (i, j, k),
                             vec_of_dict(lhs, n, f), vec_of_dict(rhs, n, f))

    if a.unit is not None:
        rep.law("unit-law")
        u = dict_of_vec(a.unit)
        for i in range(n):
            e = {i: f.one}
            left = mul_dicts(pv, u, e)
            right = mul_dicts(pv, e, u)
            if left != e:
                rep.fail("unit-law", (i,), vec_of_dict(left, n, f), a.basis_vec(i))
            if right != e:
                rep.fail("unit-law", (i,), vec_of_dict(right, n, f), a.basis_vec(i))
    return rep


def _sweeps_agree(a):
    got, want = algebra_check(a), reference_algebra_check(a)
    assert got.laws == want.laws
    assert got.failures == want.failures
    assert got.to_json() == want.to_json()
    return got


def _in_basis(a, rows):
    """The algebra a rewritten in the basis whose vectors are `rows`."""
    basis = [dict_of_vec(r) for r in rows]

    def coords(v):
        return vec_of_dict(solve(basis, v, a.field), a.dim, a.field)

    mul = restrict_product(coords, basis, a.mul_dict)
    unit = coords(a.unit_dict()) if a.unit is not None else None
    return AlgebraData(a.field, ["b%d" % i for i in range(a.dim)], mul, unit)


@st.composite
def structure_tensors(draw, field=None):
    """An algebra of dimension 1 to 8 over `field`, else over ℚ or GF(5)
    as drawn.  Either its entries
    are drawn with a drawn density, from no entry to every triple, and its
    unit is absent, a true unit or an arbitrary vector; or it is kZ2, kZ3,
    kZ4 or H4 in a random unitriangular basis, associative with both sides of
    every triple dense."""
    field = field or draw(st.sampled_from([QQ, GF(5)]))
    rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    coeffs = [field.of(c) for c in (-2, -1, 1, 2)]
    if draw(st.booleans()):
        name = draw(st.sampled_from(["Z2", "Z3", "Z4", "H4"]))
        a = sweedler_h4(field) if name == "H4" else _kg(name, field)
        rows = [[field.one if j == i else rng.choice(coeffs) if j > i else field.zero
                 for j in range(a.dim)] for i in range(a.dim)]
        return _in_basis(a, rows)
    n = draw(st.sampled_from(range(1, 9)))
    density = draw(st.sampled_from([0.0, 0.05, 0.2, 0.5, 1.0]))
    mul = {key: rng.choice(coeffs) for key in product(range(n), repeat=3)
           if rng.random() < density}
    unit = draw(st.sampled_from(["none", "identity", "arbitrary"]))
    if unit == "identity":
        for x, y in product(range(n), repeat=2):
            for key in ((0, x, y), (x, 0, y)):
                mul[key] = field.one if x == y else field.zero
        return AlgebraData(field, [str(i) for i in range(n)], mul,
                           [field.one] + [field.zero] * (n - 1))
    vec = [rng.choice(coeffs + [field.zero]) for _ in range(n)] \
        if unit == "arbitrary" else None
    return AlgebraData(field, [str(i) for i in range(n)], mul, vec)


@settings(max_examples=120, deadline=None)
@given(structure_tensors())
def test_sweep_matches_the_reference_on_generated_tensors(a):
    _sweeps_agree(a)


def _relabelled_kg(name, labels, field):
    """kG of a built-in group with its elements listed in the order `labels`."""
    old, table = named_group(name)
    pos = [old.index(x) for x in labels]
    new = {p: t for t, p in enumerate(pos)}
    return group_algebra([[new[table[p][q]] for q in pos] for p in pos], field, labels)


def _dual_smash_gf7(group, labels=None):
    """The smash product over GF(7) of the kG* bimodule on kG (dual regular
    action from the left, trivial from the right) with the regular kG*
    bicomodule; kG lists its elements in the order `labels` if given."""
    from phopf.actions import dual_regular_action, trivialize_right
    from phopf.examples import regular_bicomodule
    from phopf.smash import smash_product
    kg = _kg(group, GF(7)) if labels is None else _relabelled_kg(group, labels, GF(7))
    bim = trivialize_right(dual_regular_action(kg))
    return smash_product(bim, regular_bicomodule(bim.hopf)).alg


def _mutants(a, count):
    """Copies of a with one entry of its multiplication changed: at every
    position when count is None, else at `count` seeded positions, half of
    them stored entries."""
    f = a.field
    if count is None:
        keys = list(product(range(a.dim), repeat=3))
    else:
        rng = random.Random(20261018)
        keys = [rng.choice(sorted(a.mul.entries)) if t % 2 else
                tuple(rng.randrange(a.dim) for _ in range(3)) for t in range(count)]
    for t, key in enumerate(keys):
        mul = Tensor3(a.mul.dims, dict(a.mul.entries))
        mul.add(*key, f.of((-1, 1, 2)[t % 3]))
        yield AlgebraData(f, a.basis, mul, a.unit, name=a.name)


# name -> (builder, number of mutants; None mutates every position)
MUTATION_CASES = {
    "H4": (lambda: sweedler_h4(QQ), None),
    "kZ4": (lambda: _kg("Z4"), None),
    "kS3 smash over GF(7)": (lambda: _dual_smash_gf7("S3"), 8),
    "Hom(kZ4xkZ4,kZ4)": (lambda: hom_hh_a(_kg("Z4"), _kg("Z4")).algebra, 4),
}


@pytest.mark.parametrize("case", list(MUTATION_CASES))
def test_sweep_matches_the_reference_on_single_entry_mutations(case):
    build, count = MUTATION_CASES[case]
    a = build()
    assert _sweeps_agree(a).passed
    failing = 0
    for mutant in _mutants(a, count):
        failing += not _sweeps_agree(mutant).passed
    assert failing >= (len(a.mul.entries) if count is None else count // 2)


class _CountingView(dict):
    """A pair view that counts its reads into tally[0]: one per get or [],
    and one per entry that items(), keys(), values() or iteration hands out,
    on the view and on each of its rows."""

    def __init__(self, view, tally, rows=True):
        dict.__init__(self, ((key, _CountingView(row, tally, False) if rows else row)
                             for key, row in view.items()))
        self.tally = tally

    def get(self, key, default=None):
        self.tally[0] += 1
        return dict.get(self, key, default)

    def __getitem__(self, key):
        self.tally[0] += 1
        return dict.__getitem__(self, key)

    def items(self):
        self.tally[0] += len(self)
        return dict.items(self)

    def keys(self):
        self.tally[0] += len(self)
        return dict.keys(self)

    def values(self):
        self.tally[0] += len(self)
        return dict.values(self)

    def __iter__(self):
        self.tally[0] += len(self)
        return dict.__iter__(self)


def test_sweep_reads_a_tenth_of_the_products_the_reference_reads(monkeypatch):
    # a deterministic guard for the sparse sweep on the dim-64 kQ8* smash
    # product over GF(7), which has 512 nonzero basis products of 4,096; the
    # smash construction hands its product a certificate, so the sweep runs
    # on a copy that carries none
    smash = _dual_smash_gf7("Q8")
    a = AlgebraData(smash.field, smash.basis, dict(smash.mul.entries), smash.unit,
                    name=smash.name)
    assert a.dim == 64 and len(a.mul.pair_view()) == 512
    original = Tensor3.pair_view
    reads = {}
    for check in (algebra_check, reference_algebra_check):
        tally = [0]
        view = _CountingView(original(a.mul), tally)
        monkeypatch.setattr(Tensor3, "pair_view",
                            lambda t: view if t is a.mul else original(t))
        assert check(a).passed
        reads[check.__name__] = tally[0]
    assert 0 < reads["algebra_check"], reads
    assert reads["algebra_check"] * 10 <= reads["reference_algebra_check"], reads


# ---------------------------------------------------------------------------
# associativity decided on the rows of generators of the left nucleus


def _generators(a):
    """The basis indices whose rows algebra_check sweeps first."""
    rows = [{} for _ in range(a.dim)]
    for (x, y), row in a.mul.pair_view().items():
        rows[x][y] = row
    return _nucleus_generators(rows, a.dim, a.field)


def _strictly_upper_triangular():
    """The non-unital algebra of strictly upper-triangular 4×4 matrices over
    ℚ on its matrix units, the superdiagonal listed first."""
    units = [(1, 2), (2, 3), (3, 4), (1, 3), (2, 4), (1, 4)]
    mul = {(x, y, units.index((r, c2))): QQ.one
           for x, (r, c) in enumerate(units) for y, (r2, c2) in enumerate(units) if c == r2}
    return AlgebraData(QQ, ["E%d%d" % u for u in units], mul)


def test_a_nonunital_algebra_is_swept_on_the_rows_of_its_superdiagonal():
    a = _strictly_upper_triangular()
    assert a.unit is None and _generators(a) == [0, 1, 2]
    assert _sweeps_agree(a).passed
    failing = sum(not _sweeps_agree(m).passed for m in _mutants(a, None))
    assert failing >= len(a.mul.entries)


@pytest.mark.parametrize("build", [
    lambda: AlgebraData(GF(5), list("abcde"), {}),
    lambda: AlgebraData(GF(5), list("abcde"), {}, [GF(5).zero] * 5),
    lambda: _fresh_copy(dual_hopf(_kg("Z4"))),
    lambda: _fresh_copy(dual_hopf(_kg("Q8", GF(7)))),
], ids=["zero product", "zero product with a zero unit", "kZ4*", "kQ8* over GF(7)"])
def test_every_basis_element_generates_where_no_product_reaches_another(build):
    # in the zero product and in kG*, whose basis is of orthogonal idempotents,
    # each basis element lies outside the words of the others
    a = build()
    assert _generators(a) == list(range(a.dim))
    _sweeps_agree(a)


def test_a_failure_outside_the_generators_is_reported_as_the_sweep_reports_it():
    # in strictly upper-triangular 3×3 matrices, a = E12 and b = E23 generate
    # and ab = E13; moving that product to E13·a = E13 leaves the rows of a
    # and b associative and fails only at (E13, a, a)
    a = AlgebraData(QQ, ["E12", "E23", "E13"], {(0, 1, 2): QQ.one})
    assert algebra_check(a).passed and _generators(a) == [0, 1]
    mutant = AlgebraData(QQ, a.basis, {(2, 0, 2): QQ.one})
    want = reference_algebra_check(mutant)
    assert [idx for _, idx, _, _ in want.failures] == [(2, 0, 0)]
    assert _sweeps_agree(mutant).failures[0] == want.failures[0]
    assert _generators(mutant) == [0, 1, 2]


@pytest.mark.parametrize("labels,swept,reads", [
    # 1 listed first: the idempotents 1 ♮ p_g, then -1 ♮ p_g, generate one by one
    (None, 22, 5400),
    # the order of perfbench's smash workload at seed 1, -j first
    (["-j", "i", "-k", "1", "k", "-i", "-1", "j"], 10, 3700),
], ids=["1 first", "-j first"])
def test_the_kq8_smash_sweeps_only_the_rows_of_its_generators(monkeypatch, labels, swept,
                                                                reads):
    from phopf import algebras
    a = _dual_smash_gf7("Q8", labels)
    assert a.dim == 64 and len(a.mul.pair_view()) == 512
    original, associators = Tensor3.pair_view, algebras._associators
    tally, sweeps = [0], []
    view = _CountingView(original(a.mul), tally)

    def recording(rows, into, sweep, n):
        sweeps.append(list(sweep))
        return associators(rows, into, sweeps[-1], n)

    monkeypatch.setattr(Tensor3, "pair_view", lambda t: view if t is a.mul else original(t))
    monkeypatch.setattr(algebras, "_associators", recording)
    # decided afresh: smash_product left its own Report on a
    assert algebras._decide_algebra(a).passed
    assert len(sweeps) == 1 and len(sweeps[0]) <= swept, sweeps
    assert tally[0] <= reads, tally


# ---------------------------------------------------------------------------
# the keyed tensor-product kernel against the pairwise products it replaced


def t2_mul(pv_left, pv_right, x, y):
    """Componentwise product in a tensor square, visiting every pair of
    terms: (a⊗b)(c⊗d) = ac⊗bd.  Kept here only as the differential
    reference for algebras.tensor_mul."""
    out = {}
    for (i1, j1), c1 in x.items():
        for (i2, j2), c2 in y.items():
            row_l = pv_left.get((i1, i2))
            if not row_l:
                continue
            row_r = pv_right.get((j1, j2))
            if not row_r:
                continue
            c = c1 * c2
            for k1, t1 in row_l.items():
                ct = c * t1
                for k2, t2 in row_r.items():
                    dict_acc(out, (k1, k2), ct * t2)
    return out


def t3_mul(pv0, pv1, pv2, x, y):
    """Componentwise product in a triple tensor, visiting every pair of
    terms: (a⊗b⊗c)(a'⊗b'⊗c') = aa'⊗bb'⊗cc'.  Kept here only as the
    differential reference for algebras.tensor_mul."""
    out = {}
    for (i1, j1, k1), c1 in x.items():
        for (i2, j2, k2), c2 in y.items():
            row0 = pv0.get((i1, i2))
            if not row0:
                continue
            row1 = pv1.get((j1, j2))
            if not row1:
                continue
            row2 = pv2.get((k1, k2))
            if not row2:
                continue
            c = c1 * c2
            for t0, a0 in row0.items():
                ca = c * a0
                for t1, a1 in row1.items():
                    cb = ca * a1
                    for t2, a2 in row2.items():
                        dict_acc(out, (t0, t1, t2), cb * a2)
    return out


def reference_tensor_mul(algebras, x, y):
    pvs = [a.mul.pair_view() for a in algebras]
    return (t2_mul if len(pvs) == 2 else t3_mul)(*pvs, x, y)


@st.composite
def tensor_factors(draw):
    """Two or three drawn algebras over one field (dense rows among them,
    from the random bases of structure_tensors) and two elements of their
    tensor product with up to 20 terms each."""
    field = draw(st.sampled_from([QQ, GF(5)]))
    algebras = [draw(structure_tensors(field)) for _ in range(draw(st.sampled_from([2, 3])))]
    rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    keys = list(product(*(range(a.dim) for a in algebras)))
    coeffs = [field.of(c) for c in (-2, -1, 1, 2, 3)]

    def element():
        return {key: rng.choice(coeffs)
                for key in rng.sample(keys, rng.randint(0, min(len(keys), 20)))}
    return algebras, element(), element()


@settings(max_examples=100, deadline=None)
@given(tensor_factors())
def test_tensor_mul_matches_the_pairwise_reference(case):
    algebras, x, y = case
    muls = tuple(a.mul for a in algebras)
    assert tensor_mul(muls, x, y) == reference_tensor_mul(algebras, x, y)
    assert tensor_mul(muls, y, x) == reference_tensor_mul(algebras, y, x)


@pytest.mark.parametrize("field", [QQ, GF(5)], ids=["QQ", "GF5"])
def test_tensor_mul_on_comultiplied_basis_pairs(field):
    # Δ(h_i)Δ(h_j) over two legs and (Δ(h_i)⊗1)(1⊗Δ(h_j)) over three, for
    # H4 (several terms per coproduct), kS3 and kS3* (every product of kS3
    # nonzero, most products of kS3* zero)
    for h in (sweedler_h4(field), _kg("S3", field), dual_hopf(_kg("S3", field))):
        iv = h.comul.in1_view()
        u = h.unit_dict()
        for i in range(h.dim):
            for j in range(h.dim):
                x, y = iv.get(i, {}), iv.get(j, {})
                assert tensor_mul((h.mul, h.mul), x, y) == \
                    reference_tensor_mul((h, h), x, y)
                x3 = {(a, b, r): c * d for (a, b), c in x.items() for r, d in u.items()}
                y3 = {(r, a, b): d * c for (a, b), c in y.items() for r, d in u.items()}
                assert tensor_mul((h.mul,) * 3, x3, y3) == \
                    reference_tensor_mul((h, h, h), x3, y3)


# ---------------------------------------------------------------------------
# certificates carried by the structure: each suite is decided once, and
# again after any change to what its Report depends on


def _decisions(monkeypatch):
    """Count the suite computations, as opposed to calls, by suite name."""
    from phopf import algebras
    counts = {}
    for name in ("_decide_algebra", "_decide_coalgebra", "_decide_hopf"):
        def counted(a, _fn=getattr(algebras, name), _name=name):
            counts[_name] = counts.get(_name, 0) + 1
            return _fn(a)
        monkeypatch.setattr(algebras, name, counted)
    return counts


def _fresh_copy(h):
    """A new HopfData with h's content, which carries no certificate."""
    return HopfData(h.field, h.basis, dict(h.mul.entries), list(h.unit),
                    dict(h.comul.entries), list(h.counit),
                    [list(row) for row in h.antipode], name=h.name)


def _reports(h):
    return [check(h).to_json() for check in (algebra_check, coalgebra_check, hopf_check)]


# one change each to what a certificate depends on; on H4 they read g·g = 2,
# Δ(x) = 2x⊗g + 1⊗x, g·g = 2 in a new tensor, 1 = 2·e_1, ε(x) = 1, S(x) = xg
H4_CHANGES = {
    "mul add": lambda h: h.mul.add(1, 1, 0, h.field.one),
    "comul add": lambda h: h.comul.add(2, 2, 1, h.field.one),
    "mul replaced": lambda h: setattr(h, "mul", Tensor3(h.mul.dims, {
        k: (2 * c if k[:2] == (1, 1) else c) for k, c in h.mul.entries.items()})),
    "unit entry": lambda h: h.unit.__setitem__(0, h.field.of(2)),
    "counit entry": lambda h: h.counit.__setitem__(2, h.counit[2] + h.field.one),
    "antipode entry": lambda h: h.antipode[3].__setitem__(2, h.antipode[3][2]
                                                           + h.field.of(2)),
    "name": lambda h: setattr(h, "name", "renamed"),
}

# a swept certificate (H4), one by the group table (kZ4), one by duality (H4*)
CERTIFIED = {
    "H4": lambda: sweedler_h4(QQ),
    "kZ4": lambda: _kg("Z4"),
    "H4*": lambda: dual_hopf(sweedler_h4(QQ)),
}


@pytest.mark.parametrize("built", list(CERTIFIED))
@pytest.mark.parametrize("change", list(H4_CHANGES))
def test_a_certificate_is_decided_again_after_a_change(change, built, monkeypatch):
    h = CERTIFIED[built]()
    counts = _decisions(monkeypatch)
    before = _reports(h)
    assert counts == {} and all(rep["passed"] for rep in before)
    H4_CHANGES[change](h)
    after = _reports(h)
    # the reports of a structure that never carried a certificate
    assert after == _reports(_fresh_copy(h)) != before
    assert counts["_decide_hopf"] == 2
    if change != "name":
        assert not after[2]["passed"]
    # and the new reports are carried in turn
    assert _reports(h) == after and counts["_decide_hopf"] == 2


def test_a_stored_report_is_handed_out_as_a_copy(monkeypatch):
    h = sweedler_h4(QQ)
    h.antipode[3][2] = h.field.one
    counts = _decisions(monkeypatch)
    first = hopf_check(h)
    want = first.to_json()
    assert not first.passed
    first.fail("extra", (0,), 1, 2)
    first.laws.append("extra law")
    first.failures[0][2][0] = h.field.of(7)       # a witness vector, in place
    again = hopf_check(h)
    assert again.to_json() == want == hopf_check(_fresh_copy(h)).to_json()
    assert counts == {"_decide_hopf": 2, "_decide_algebra": 1, "_decide_coalgebra": 1}
    # hopf_check merges into the Report algebra_check returns
    assert algebra_check(h).to_json() == algebra_check(_fresh_copy(h)).to_json()


def test_an_algebra_without_a_unit_carries_its_certificate(monkeypatch):
    a = AlgebraData(QQ, ["e"], {(0, 0, 0): QQ.one}, name="k without unit")
    counts = _decisions(monkeypatch)
    assert algebra_check(a).laws == ["associativity"]
    a.unit = [QQ.one]
    assert algebra_check(a).laws == ["associativity", "unit-law"]
    assert algebra_check(a).passed and counts == {"_decide_algebra": 2}
