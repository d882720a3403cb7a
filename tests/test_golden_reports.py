"""Golden failing Reports: every Report of a fixed corpus of failing inputs,
one sha256 per suite over the Reports' to_json, so any change to a law, its
order, a failure, its order or a witness shows here.

The corpus: single-entry mutants of H4 and kZ4 over ℚ and GF(5) (each
entry of mul, comul, unit, counit and antipode moved by +1 and by −1),
mutants of the z2 partial group action's idempotents and alphas, and the
incompatible pairs of kZ2-gradings of k^4 (as bicomodules, and their dual
bimodules).  To re-pin after an intended change, print `_digests()`."""

import hashlib
import json
from itertools import permutations

import pytest

from phopf._groups import named_group
from phopf.algebras import AlgebraData, HopfData, coalgebra_check, hopf_check
from phopf.actions import PartialBimoduleData, check_bimodule
from phopf.coactions import PartialBicomoduleData, check_bicomodule, coaction_to_dual_action
from phopf.examples import group_algebra, sweedler_h4
from phopf.fields import GF, QQ
from phopf.group_actions import (GroupPartialActionData, check_group_partial_action,
                                 z2_partial_group_example)
from tests.test_certificates import _graded

FIELDS = (QQ, GF(5))

GOLDEN = {
    "hopf": "63e99cb215aeb2abcadc1991ae86297137cecb7a527d373a59f035bffcd52d58",
    "coalgebra": "3cf3e22faf0d76a08ee54a0818e319f9d4326ff28feaa0cb83cd87db51bb9fc0",
    "group": "983c445726117861f0fb893e96c711c902b2d27d76d125a4b97e0bc8b112fa08",
    "bimodule-compatibility": "32db90633819043e82170a7841ee0ab85c99772ea7286efa6449b50eaf2852c0",
    "bicomodule-compatibility": "d501f4153e4b6ad340fb478abce5c058b8232720a1970491a96306191d17af34",
}


def _hopf_bases(field):
    labels, table = named_group("Z4")
    return sweedler_h4(field), group_algebra(table, field, labels, name="kZ4")


def _hopf_mutants():
    """Every single-entry mutant of H4 and kZ4 over each field, in a fixed
    order: the part, the position, then the step."""
    for field in FIELDS:
        for h in _hopf_bases(field):
            n = h.dim
            cube = [(i, j, k) for i in range(n) for j in range(n) for k in range(n)]
            square = [(i, j) for i in range(n) for j in range(n)]
            for part, spots in (("mul", cube), ("comul", cube), ("unit", range(n)),
                                ("counit", range(n)), ("antipode", square)):
                for spot in spots:
                    for step in (field.one, -field.one):
                        parts = {"mul": dict(h.mul.entries), "comul": dict(h.comul.entries),
                                 "unit": list(h.unit), "counit": list(h.counit),
                                 "antipode": [list(r) for r in h.antipode]}
                        if part in ("mul", "comul"):
                            parts[part][spot] = parts[part].get(spot, field.zero) + step
                        elif part == "antipode":
                            parts[part][spot[0]][spot[1]] += step
                        else:
                            parts[part][spot] += step
                        yield HopfData(field, h.basis, parts["mul"], parts["unit"],
                                       parts["comul"], parts["counit"], parts["antipode"],
                                       name="%s %s%s%+d" % (h.name, part, spot,
                                                             1 if step == field.one else -1))


def _group_mutants():
    """The z2 partial group action with one entry of an idempotent or of an
    alpha matrix moved by +1 and by −1, over each field."""
    for field in FIELDS:
        base = z2_partial_group_example(field)
        spots = [("idempotent", g, j, None) for g in range(2) for j in range(2)]
        spots += [("alpha", g, i, j) for g in range(2) for i in range(2) for j in range(2)]
        for what, g, i, j in spots:
            for step in (field.one, -field.one):
                idem = [list(v) for v in base.idempotents]
                alphas = [[list(r) for r in mat] for mat in base.alphas]
                if what == "idempotent":
                    idem[g][i] += step
                else:
                    alphas[g][i][j] += step
                yield GroupPartialActionData(base.table, base.alg, idem, alphas,
                                             labels=base.labels)


def _incompatible_bicomodules():
    """kZ2-gradings of k^4 by two transpositions that do not commute, one on
    each side: each coaction passes its suite, the pair fails compatibility."""
    labels, table = named_group("Z2")
    h = group_algebra(table, QQ, labels, name="kZ2")
    k4 = AlgebraData(QQ, ["e1", "e2", "e3", "e4"], {(i, i, i): 1 for i in range(4)},
                     [1] * 4, name="k^4")
    swaps = [(0, 1), (1, 2), (2, 3), (0, 2)]
    for s, t in permutations(swaps, 2):
        if not set(s) & set(t):
            continue  # disjoint transpositions commute
        perms = []
        for a, b in (s, t):
            perm = list(range(4))
            perm[a], perm[b] = b, a
            perms.append(perm)
        yield PartialBicomoduleData(_graded(h, k4, perms[0], "left"),
                                    _graded(h, k4, perms[1], "right"))


def _reports():
    """suite -> the Reports of its corpus, in corpus order."""
    hopfs = list(_hopf_mutants())
    bics = list(_incompatible_bicomodules())
    bims = [PartialBimoduleData(coaction_to_dual_action(b.right),
                                coaction_to_dual_action(b.left)) for b in bics]
    return {
        "hopf": [hopf_check(h) for h in hopfs],
        "coalgebra": [coalgebra_check(h) for h in hopfs],
        "group": [check_group_partial_action(g) for g in _group_mutants()],
        "bimodule-compatibility": [check_bimodule(b) for b in bims],
        "bicomodule-compatibility": [check_bicomodule(b) for b in bics],
    }


def _digest(reports):
    text = json.dumps([r.to_json() for r in reports], sort_keys=True, ensure_ascii=False)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _digests():
    return {suite: _digest(reps) for suite, reps in _reports().items()}


@pytest.fixture(scope="module")
def reports():
    return _reports()


def test_the_corpus_fails_where_it_should(reports):
    for suite in ("hopf", "group", "bimodule-compatibility", "bicomodule-compatibility"):
        assert reports[suite] and not any(r.passed for r in reports[suite]), suite
    # the two laws the coalgebra suite, and the two multiplicativity laws the
    # Hopf suite, decide per basis index interleave their failures in some
    # Report (the second law's failure before the first law's next one), so
    # a suite that swept them in two passes would change a digest
    for suite, (first, second) in (
            ("coalgebra", ("coassociativity", "counit-law")),
            ("hopf", ("comultiplication-multiplicative", "counit-multiplicative"))):
        assert any((second, first) in zip(laws, laws[1:])
                   for laws in ([f[0] for f in r.failures if f[0] in (first, second)]
                                for r in reports[suite])), suite
    for suite in ("bimodule-compatibility", "bicomodule-compatibility"):
        assert all(r.failures_for(suite) for r in reports[suite]), suite


@pytest.mark.parametrize("suite", sorted(GOLDEN))
def test_golden_reports_are_unchanged(suite, reports):
    assert _digest(reports[suite]) == GOLDEN[suite]
