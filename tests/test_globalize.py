"""Globalization layer: standard constructions, certificates, comparison,
minimalization, and the bicomodule-side bridge."""

from fractions import Fraction

import pytest

from phopf.fields import GF, QQ
from phopf.linalg import Subspace, nullspace
from phopf.algebras import (algebra_check, dict_of_vec, scalar_algebra,
                            sweedler_h4)
from phopf.actions import (PartialBimoduleData, sweedler_k_bimodule,
                           trivial_action)
from phopf.coactions import (bicomodule_to_bimodule, regular_bicomodule,
                             sweedler_k_bicomodule)
from phopf.globalize import (GlobalizationCandidate, comparison_map,
                             free_candidate_bimodule,
                             maximal_degenerate_subbimodule, minimalize,
                             psi_map, standard_globalize_bicomodule,
                             standard_globalize_bimodule, two_stage_closure,
                             verify_globalization)


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
    assert g.certificate.ok and not g.certificate.witnesses
    assert maximal_degenerate_subbimodule(g).dim == 0
    pm, sur, inj = comparison_map(g, g)
    assert sur and inj and pm == [[QQ.one]]


@pytest.mark.parametrize("r,s", [(2, 3), (0, 0)])
def test_sweedler_standard_globalization_is_four_dimensional(r, s):
    b = sweedler_k_bimodule(QQ, r, s)
    g = standard_globalize_bimodule(b)
    assert g.dim == 4
    assert g.certificate.ok and not g.certificate.witnesses
    assert g.algebra.unit is not None
    assert algebra_check(g.algebra).passed
    # the standard globalization is already minimal
    assert maximal_degenerate_subbimodule(g).dim == 0
    pm, sur, inj = comparison_map(g, g)
    assert sur and inj and pm == _identity(QQ, g.dim)


def test_standard_globalization_over_prime_field():
    g = standard_globalize_bimodule(sweedler_k_bimodule(GF(5), 2, 3))
    assert g.dim == 4 and g.certificate.ok


def test_certificate_reporting():
    g = standard_globalize_bimodule(sweedler_k_bimodule(QQ, 2, 3))
    cert = g.certificate
    lines = cert.lines()
    assert len(lines) == 6 and all(line.endswith(": ok") for line in lines)
    doc = cert.to_json()
    assert doc["ok"] is True and doc["condition1_ok"] is True
    assert doc["lemaco_ok"] == [True] * 4 and doc["witnesses"] == {}


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
    assert cert.ok, cert.witnesses
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
    assert verify_globalization(cand, b).ok
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
    assert not cert.condition1_ok and not cert.ok
    assert cert.witnesses.get("condition1") is not None


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
    assert all(g.certificate.values()), g.certificate
    for key in ("formulas_agree", "theta_injective", "coactions_restrict",
                "global_laws_ok", "exchange_ok"):
        assert key in g.certificate
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
    assert g.dim == 4 and all(g.certificate.values())


def test_bicomodule_globalization_over_prime_field():
    g = standard_globalize_bicomodule(sweedler_k_bicomodule(GF(5), 2, 4))
    assert g.dim == 4 and all(g.certificate.values())


# ---------------------------------------------------------------------------
# S3: ambients of dimension 216, reachable because the ambient is certified
# through its factors instead of by a sweep of its 216³ basis triples


def _ks3():
    from phopf._groups import named_group
    from phopf.algebras import group_algebra
    labels, table = named_group("S3")
    return group_algebra(table, QQ, labels)


def test_s3_dual_bimodule_globalizes_with_certificate():
    from phopf.actions import dual_regular_action, trivialize_right
    g = standard_globalize_bimodule(trivialize_right(dual_regular_action(_ks3())))
    assert g.ambient.algebra.dim == 216 and g.dim == 6
    assert g.certificate.ok


def test_s3_regular_bicomodule_globalizes():
    g = standard_globalize_bicomodule(regular_bicomodule(_ks3()))
    assert g.ambient.algebra.dim == 216 and g.dim == 6
    assert all(g.certificate.values()), g.certificate
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
