"""Acceptance gate: ten end-to-end criteria, one test and one verdict line
each.  Every comparison is exact; no tolerances anywhere."""

import random
from fractions import Fraction

from phopf.fields import GF, QQ
from phopf.linalg import Subspace, mat_apply, nullspace, rref
from phopf.algebras import (algebra_check, dict_of_vec, dual_hopf,
                            group_algebra, hopf_check, mul_dicts,
                            scalar_algebra, sweedler_h4, vec_of_dict)
from phopf.actions import (PartialBimoduleData, check_bimodule, check_lpma,
                           check_rpma, dual_regular_action, en_kg_example,
                           induce_left, is_global, sweedler_k_bimodule,
                           trivial_action, trivialize_right)
from phopf.coactions import (bicomodule_to_bimodule, bimodule_to_bicomodule,
                             coaction_to_dual_action, dual_action_to_coaction,
                             regular_bicomodule, sweedler_k_bicomodule)
from phopf.globalize import (comparison_map, free_candidate_bimodule,
                             maximal_degenerate_subbimodule, psi_map,
                             standard_globalize_bicomodule,
                             standard_globalize_bimodule, two_stage_closure,
                             verify_globalization)
from phopf.smash import (check_ker_eps_invariance, check_smash_associativity,
                         find_idempotent, smash_product, unital_corner)
from phopf._groups import GROUP_NAMES, named_group

HALF = Fraction(1, 2)


def _verdict(number, ok):
    print("CRITERION %02d: %s" % (number, "PASS" if ok else "FAIL"))
    assert ok


def _rand_q(rng):
    return Fraction(rng.randrange(-6, 7), rng.randrange(1, 5))


# ---------------------------------------------------------------------------


def test_criterion_01_hopf_axiom_suite():
    ok = True
    for field in (QQ, GF(5)):
        for name in GROUP_NAMES:
            labels, table = named_group(name)
            h = group_algebra(table, field, labels)
            ok = ok and hopf_check(h).passed and hopf_check(dual_hopf(h)).passed
        hs = sweedler_h4(field)
        ok = ok and hopf_check(hs).passed and hopf_check(dual_hopf(hs)).passed
    _verdict(1, ok)


def test_criterion_02_bimodule_family_on_the_base_field():
    rng = random.Random(101)
    ok = True
    for _ in range(20):
        r, s = _rand_q(rng), _rand_q(rng)
        b = sweedler_k_bimodule(QQ, r, s)
        ok = ok and check_lpma(b.left, symmetric=True).passed
        ok = ok and check_rpma(b.right, symmetric=True).passed
        ok = ok and check_bimodule(b).passed
        ok = ok and not is_global(b.left) and not is_global(b.right)
    _verdict(2, ok)


def test_criterion_03_coset_example_and_induced_cross_check():
    _, table = named_group("Z4")
    A, act = en_kg_example(table, {0, 2}, QQ)
    ok = check_lpma(act).passed and not is_global(act)
    half = QQ.of(HALF)
    reps = [0, 1]
    for g in range(4):
        for j, h in enumerate(reps):
            got = act.apply({g: QQ.one}, {j: QQ.one})
            want = {j: half} if (g - h) % 4 in (0, 2) else {}
            ok = ok and got == want
    glob = dual_regular_action(group_algebra(table, QQ))
    ind = induce_left(glob, [half, QQ.zero, half, QQ.zero])
    ok = ok and ind.map.entries == act.map.entries
    _verdict(3, ok)


def test_criterion_04_standard_globalization_with_rank_oracle():
    b = sweedler_k_bimodule(QQ, 2, 3)
    g = standard_globalize_bimodule(b)

    # independent rank oracle: the 16 spanning functionals, built from the
    # frozen action values and the Hopf multiplication table alone
    h4 = sweedler_h4(QQ)
    pv = h4.mul.pair_view()
    lvals = [QQ.of(x) for x in (1, 0, 2, -2)]      # h ⇀ 1
    rvals = [QQ.of(x) for x in (1, 0, 3, 3)]       # 1 ↼ h
    rows = []
    for hh in range(4):
        for kk in range(4):
            vec = []
            for p in range(4):
                lv = sum((c * lvals[w] for w, c in pv.get((p, hh), {}).items()),
                         start=QQ.zero)
                for q in range(4):
                    rv = sum((c * rvals[w] for w, c in pv.get((kk, q), {}).items()),
                             start=QQ.zero)
                    vec.append(lv * rv)
            rows.append(vec)
    rank, _, _ = rref(rows, QQ)

    ok = rank == 4 and g.dim == 4
    cert = verify_globalization(g, b)
    ok = ok and cert.passed and cert.laws == ["condition1", "condition2",
                                              "lemaco1", "lemaco2",
                                              "lemaco3", "lemaco4"]
    # the four derived identities quantify over >= 256 tuples here
    ok = ok and (h4.dim ** 2) * (g.dim ** 2) >= 256
    phi_col = [g.phi[r][0] for r in range(g.ambient.algebra.dim)]
    ok = ok and Subspace(len(phi_col), QQ, [phi_col]).dim == b.alg.dim
    _verdict(4, ok)


def test_criterion_05_comparison_and_maximal_degenerate_summand():
    b = sweedler_k_bimodule(QQ, 2, 3)
    std = standard_globalize_bimodule(b)
    pm, sur, inj = comparison_map(std, std)
    ident = [[QQ.one if i == j else QQ.zero for j in range(std.dim)]
             for i in range(std.dim)]
    ok = sur and inj and pm == ident

    cand = free_candidate_bimodule(b)          # minimal part plus a degenerate summand
    ok = ok and verify_globalization(cand, b).passed
    pm2, sur2, inj2 = comparison_map(cand, std)
    ok = ok and sur2 and not inj2
    mstar = maximal_degenerate_subbimodule(cand)
    kernel = Subspace(cand.algebra.dim, QQ,
                      nullspace([list(r) for r in pm2], QQ, cand.algebra.dim))
    ok = ok and kernel.dim == 12 and kernel == mstar
    _verdict(5, ok)


def test_criterion_06_duality_bridge():
    b = sweedler_k_bicomodule(QQ, 7, 3)
    left_act = coaction_to_dual_action(b.right)
    right_act = coaction_to_dual_action(b.left)
    ok = check_lpma(left_act).passed and check_rpma(right_act).passed
    ok = ok and dual_action_to_coaction(left_act).map.entries == b.right.map.entries
    ok = ok and dual_action_to_coaction(right_act).map.entries == b.left.map.entries
    bm = bicomodule_to_bimodule(b)
    ok = ok and check_bimodule(bm).passed
    ok = ok and not is_global(bm.left) and not is_global(bm.right)
    reg = bicomodule_to_bimodule(regular_bicomodule(sweedler_h4(QQ)))
    ok = ok and is_global(reg.left) and is_global(reg.right)
    _verdict(6, ok)


def test_criterion_07_bicomodule_globalization_and_psi():
    h4 = sweedler_h4(QQ)
    k = scalar_algebra(QQ)
    b = sweedler_k_bicomodule(QQ, 7, 3)
    bg = standard_globalize_bicomodule(b)
    N = bg.ambient.algebra.dim
    theta_cols = [[bg.theta[r][m] for r in range(N)] for m in range(k.dim)]
    ok = two_stage_closure(bg.ambient, Subspace(N, QQ, theta_cols)) == bg.b_basis
    cert = bg.certificate
    ok = ok and cert.passed and cert.laws == ["exchange"]
    std = standard_globalize_bimodule(bicomodule_to_bimodule(b))
    psi, mono, intertwines, restricted_iso = psi_map(h4, k, bg, std)
    ok = ok and mono and intertwines and restricted_iso

    # re-verify the embedding match and multiplicativity from the raw matrix
    theta_col = [bg.theta[r][0] for r in range(N)]
    ok = ok and mat_apply(psi, theta_col, QQ) == [std.phi[r][0] for r in range(N)]
    pv_x = bg.ambient.algebra.mul.pair_view()
    pv_k = std.ambient.algebra.mul.pair_view()
    perm = {x: t for x in range(N) for t in range(N) if psi[t][x]}
    for x in range(N):
        for y in range(N):
            lhs = {perm[z]: c for z, c in pv_x.get((x, y), {}).items()}
            if lhs != pv_k.get((perm[x], perm[y]), {}):
                ok = False
    _verdict(7, ok)


def test_criterion_08_smash_associativity_by_exhaustion():
    rng = random.Random(808)
    ok = True
    for _ in range(20):
        r, s, t, u = (_rand_q(rng) for _ in range(4))
        sm = smash_product(sweedler_k_bimodule(QQ, r, s),
                           sweedler_k_bicomodule(QQ, t, u))
        ok = ok and check_smash_associativity(sm).passed
    big = smash_product(sweedler_k_bimodule(QQ, 2, 3),
                        regular_bicomodule(sweedler_h4(QQ)))
    ok = ok and big.alg.dim ** 3 == 64
    ok = ok and check_smash_associativity(big).passed
    _verdict(8, ok)


def test_criterion_09_square_of_the_unit_pair():
    rng = random.Random(909)
    ok = True
    lam_base = {0: HALF, 1: HALF}
    rho_base = {0: HALF, 1: HALF}
    for trial in range(20):
        r, s, t, u = (_rand_q(rng) for _ in range(4))
        sm = smash_product(sweedler_k_bimodule(QQ, r, s),
                           sweedler_k_bicomodule(QQ, t, u))
        coeff = sm.alg.mul.entries.get((0, 0, 0), QQ.zero)
        ok = ok and coeff == QQ.of((HALF + u * s) * (HALF - t * r))
        ok = ok and (coeff == QQ.zero) == (u * s == -HALF or t * r == HALF)

        # brute force straight from the defining values
        lvals = {0: Fraction(1), 2: r, 3: -r}          # h ⇀ 1
        rvals = {0: Fraction(1), 2: s, 3: s}           # 1 ↼ h
        lam = dict(lam_base)
        if t:
            lam[3] = t
        rho = dict(rho_base)
        if u:
            rho[2] = u
        brute = sum((rho[kk] * rvals.get(kk, Fraction(0)) for kk in rho),
                    start=Fraction(0)) * \
            sum((lam[jj] * lvals.get(jj, Fraction(0)) for jj in lam),
                start=Fraction(0))
        ok = ok and coeff == QQ.of(brute)
    pinned = smash_product(sweedler_k_bimodule(QQ, 2, 3),
                           sweedler_k_bicomodule(QQ, 5, 7))
    want = QQ.of(Fraction(43, 2) * Fraction(-19, 2))
    ok = ok and want == QQ.of(Fraction(-817, 4))
    ok = ok and pinned.alg.mul.entries.get((0, 0, 0)) == want
    _verdict(9, ok)


def test_criterion_10_invariance_idempotent_and_corner():
    rng = random.Random(1010)
    h4 = sweedler_h4(QQ)
    k = scalar_algebra(QQ)
    triv = PartialBimoduleData(trivial_action(h4, k, "left"),
                               trivial_action(h4, k, "right"))
    reg_bim = bicomodule_to_bimodule(regular_bicomodule(h4))

    def expected(b, vec):
        a_d = dict_of_vec(vec)
        flags = []
        for act in (b.left, b.right):
            hold = True
            for i in range(b.hopf.dim):
                got = act.apply({i: b.hopf.field.one}, a_d)
                eps = b.hopf.counit[i]
                want = {m: eps * c for m, c in a_d.items()} if eps else {}
                if got != want:
                    hold = False
                    break
            flags.append(hold)
        return tuple(flags)

    ok = True
    cases = 0
    for trial in range(50):
        kind = trial % 5
        if kind == 0:
            b = sweedler_k_bimodule(QQ, _rand_q(rng), _rand_q(rng))
            vec = [QQ.of(Fraction(rng.randrange(1, 9), 2))]
        elif kind == 1:
            b = triv
            vec = [QQ.of(Fraction(rng.randrange(1, 9), 3))]
        elif kind == 2:
            b = bicomodule_to_bimodule(
                sweedler_k_bicomodule(QQ, _rand_q(rng), _rand_q(rng)))
            vec = [QQ.of(Fraction(rng.randrange(1, 9), 2))]
        elif kind == 3:
            b = trivialize_right(sweedler_k_bimodule(QQ, _rand_q(rng), 0).left)
            vec = [QQ.of(rng.randrange(1, 9))]
        else:
            b = reg_bim
            vec = [QQ.of(rng.randrange(0, 5)) for _ in range(4)]
            if not any(vec):
                vec[0] = QQ.one
        got = check_ker_eps_invariance(b, vec)
        ok = ok and got == expected(b, vec)
        cases += 1
    ok = ok and cases == 50

    s = smash_product(sweedler_k_bimodule(QQ, 2, 3), regular_bicomodule(h4))
    one_h = [QQ.one, QQ.zero, QQ.zero, QQ.zero]
    e = s.pair_vec([QQ.one], one_h)
    e_d = dict_of_vec(e)
    ok = ok and mul_dicts(s.alg.mul.pair_view(), e_d, e_d) == e_d   # direct squaring
    ok = ok and find_idempotent(s, [QQ.one], one_h) == (True, "(3)+(4)")
    corner = unital_corner(s, e)
    rep = algebra_check(corner.alg)
    ok = ok and rep.passed and "unit-law" in rep.laws
    ok = ok and corner.include(corner.alg.unit) == e
    _verdict(10, ok)
