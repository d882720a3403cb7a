"""Certificates carried by actions, coactions, bimodules and bicomodules:
each suite is decided once, again after any change to what its Report
depends on, and the Reports the constructors record by proof equal the
sweeps of copies that carry no certificate."""

import copy

import pytest

from phopf import actions, algebras, candidates, coactions, globalize
from phopf._groups import GROUP_NAMES, named_group
from phopf.fields import GF, QQ
from phopf.algebras import AlgebraData, HopfData, dual_hopf
from phopf.examples import (group_algebra, regular_bicomodule, regular_coaction,
                            scalar_algebra, sweedler_h4)
from phopf.actions import (PartialActionData, check_bimodule, check_lpma, check_rpma,
                           dual_regular_action, trivial_action, trivialize_right)
from phopf.coactions import (PartialCoactionData, bicomodule_to_bimodule,
                             bimodule_to_bicomodule, check_bicomodule, check_lpca,
                             check_rpca, coaction_to_dual_action, dual_action_to_coaction)
from phopf.linalg import Tensor3
from phopf.serialize import write_document
from tests.conftest import bare, forged_coaction
from tests.test_actions import _counting, sweep_bimodule, sweep_suite
from tests.test_coactions import _sorted_witnesses, reference_suite


def check(s, symmetric=None):
    """The check of s, any of the four kinds; `symmetric` as the one-sided
    checks take it (None: the action's own flag, no symmetry for a
    coaction)."""
    if isinstance(s, PartialActionData):
        return (check_lpma if s.side == "left" else check_rpma)(s, symmetric)
    if isinstance(s, PartialCoactionData):
        return (check_lpca if s.side == "left" else check_rpca)(s, bool(symmetric))
    return (check_bimodule if hasattr(s.left, "symmetric") else check_bicomodule)(s)


def swept(s, symmetric=None):
    """The reference sweep of s, as JSON: every law of the one-sided action
    suites swept over all basis tuples, the coaction suite before the right
    reading, and the pairs decided on copies without certificates."""
    if isinstance(s, PartialActionData):
        sym = s.symmetric if symmetric is None else symmetric
        return sweep_suite(s, sym, s.side == "left").to_json()
    if isinstance(s, PartialCoactionData):
        ref = reference_suite(s, bool(symmetric))
        return {"subject": ref.subject, "laws": ref.laws,
                "failures": _sorted_witnesses(ref)}
    if hasattr(s.left, "symmetric"):
        return sweep_bimodule(s).to_json()
    return check_bicomodule(unstamped(s)).to_json()


def unstamped(s):
    """bare(s), also where a coaction of s fails the counit law (after
    "map add")."""
    if isinstance(s, PartialCoactionData):
        return forged_coaction(s.hopf, s.alg, s.side, dict(s.map.entries), s.name)
    return bare(s) if isinstance(s, PartialActionData) \
        else type(s)(unstamped(s.left), unstamped(s.right))


def as_swept(rep, s):
    """rep in the form swept(s) takes for the kind of s."""
    if isinstance(s, PartialCoactionData):
        return {"subject": rep.subject, "laws": rep.laws, "failures": rep.failures}
    return rep.to_json()


def _suite_runs(monkeypatch):
    """Count the one-sided suite computations, action and coaction."""
    return (_counting(monkeypatch, actions, "_action_suite"),
            _counting(monkeypatch, coactions, "_coaction_suite"))


def _decisions(calls):
    """For each counted suite call: "suite" when it decided the suite in one
    pass, "symmetry" when it swept the symmetry law alone into a carried
    Report (the one call that passes that Report in)."""
    return ["symmetry" if len(args) == 3 else "suite" for args in calls]


def _kg(name, field):
    labels, table = named_group(name)
    return group_algebra(table, field, labels, name="k" + name)


def _hopf_inputs(field):
    """H4 and its dual, and kG and kG* for every built-in group."""
    out = [sweedler_h4(field), dual_hopf(sweedler_h4(field))]
    for name in GROUP_NAMES:
        out += [_kg(name, field), dual_hopf(_kg(name, field))]
    return out


# ---------------------------------------------------------------------------
# recorded by proof against the sweep, report for report


def _recorded(h):
    """(what, structure, symmetric flag of the check) for every structure a
    constructor records by proof over h, read through its default check."""
    k = scalar_algebra(h.field)
    act = dual_regular_action(h)
    out = [("dual_regular_action", act, None),
           ("trivialize_right", trivialize_right(act), None)]
    out += [("trivial_action %s on %s" % (side, a.name), trivial_action(h, a, side), None)
            for side in ("left", "right") for a in (h, k)]
    out += [("regular_coaction %s" % side, regular_coaction(h, side), False)
            for side in ("left", "right")]
    out.append(("regular_bicomodule", regular_bicomodule(h), None))
    # the bridges record when the side they read carries a passing Report:
    # the actions of dual_regular_action and trivial_action carry one with
    # symmetry, and a coaction checked with symmetry carries one too
    out.append(("dual_action_to_coaction", dual_action_to_coaction(act), False))
    bic = bimodule_to_bicomodule(trivialize_right(act))
    out += [("bimodule_to_bicomodule", bic, None),
            ("bicomodule_to_bimodule", bicomodule_to_bimodule(bic), None)]
    for side in ("left", "right"):
        p = regular_coaction(h, side)
        check(p, True)
        out.append(("coaction_to_dual_action %s" % side, coaction_to_dual_action(p), None))
    return out


@pytest.mark.parametrize("field", [QQ, GF(5)], ids=["QQ", "GF5"])
def test_recorded_reports_equal_the_sweeps(field, monkeypatch):
    runs = _suite_runs(monkeypatch)
    carried = 0
    for h in _hopf_inputs(field):
        for calls in runs:
            calls.clear()
        built = _recorded(h)
        # building them runs no action suite, and the only coaction
        # decisions are the symmetry laws _recorded asks the regular
        # coactions for, each decided alone
        assert runs[0] == [] and _decisions(runs[1]) == ["symmetry"] * 2, h.name
        for what, s, sym in built:
            for calls in runs:
                calls.clear()
            got = check(s, sym)
            carried += not any(runs)
            assert got.passed, (h.name, what)
            assert as_swept(got, s) == swept(s, sym), (h.name, what)
            assert as_swept(got, s) == as_swept(check(bare(s), sym), s), (h.name, what)
    # every check above hands out the Report its structure carries, recorded
    # by proof: the dual actions of bicomodule_to_bimodule too, whose
    # coactions gain the symmetry law by transposition
    assert carried == len(_hopf_inputs(field)) * 14


@pytest.mark.parametrize("h", [_kg("Z4", QQ), sweedler_h4(GF(5))], ids=["kZ4", "H4 GF5"])
def test_a_bridge_from_a_certified_side_runs_no_suite_of_its_kind(h, monkeypatch):
    # _by_duality: each law of the coaction suite is the transpose of one of
    # the action suite, so a bridge records the Report of the side it reads
    # (here by an action's constructor, or by check_rpca / check_lpca with
    # symmetry) and builds its dual without running the dual's suite
    acts = [dual_regular_action(h), trivial_action(h, h, "right")]
    coacts = [bare(regular_coaction(h, side)) for side in ("left", "right")]
    for p in coacts:
        assert check(p, True).passed
    runs, co_runs = _suite_runs(monkeypatch)
    duals = [dual_action_to_coaction(p) for p in acts]
    assert co_runs == []
    duals += [coaction_to_dual_action(p) for p in coacts]
    assert runs == []
    for q in duals:
        assert as_swept(check(q), q) == as_swept(check(bare(q)), q), q.name


def test_a_bridge_sweeps_a_side_that_carries_no_report(monkeypatch):
    # the loaded document of the globalize workload carries nothing and is
    # decided by check_bicomodule, one coaction suite per side without the
    # symmetry law; the bridge then asks each coaction for that law alone,
    # and records both dual actions by duality
    b = bare(regular_bicomodule(_kg("Z4", QQ)))
    runs, co_runs = _suite_runs(monkeypatch)
    assert check(b).passed and _decisions(co_runs) == ["suite"] * 2
    out = bicomodule_to_bimodule(b)
    assert runs == [] and _decisions(co_runs) == ["suite"] * 2 + ["symmetry"] * 2
    assert check_bimodule(out).to_json() == sweep_bimodule(out).to_json()
    bicomodule_to_bimodule(b)
    assert runs == [] and len(co_runs) == 4
    # a coaction that carries nothing is decided in one pass, with the law
    co_runs.clear()
    again = bicomodule_to_bimodule(bare(b))
    assert runs == [] and _decisions(co_runs) == ["suite"] * 2
    assert check_bimodule(again).to_json() == check_bimodule(out).to_json()


def _non_symmetric_action():
    """kZ2 on the upper triangular 2×2 matrices over GF(3), g acting as the
    projection onto e22: every law holds but symmetry."""
    f = GF(3)
    o = f.one
    t2 = AlgebraData(f, ["e11", "e12", "e22"],
                     {(0, 0, 0): o, (0, 1, 1): o, (1, 2, 1): o, (2, 2, 2): o},
                     [o, f.zero, o], name="T2")
    return PartialActionData(_kg("Z2", f), t2, "left",
                             {(0, 0, 0): o, (0, 1, 1): o, (0, 2, 2): o, (1, 2, 2): o})


def test_a_bridge_records_no_symmetry_law_its_source_lacks(monkeypatch):
    # p fails action-symmetry alone, so the coaction records the rest of
    # its suite; asked for its symmetry law, it decides that law alone,
    # which fails too, and the dual action records the rest of its own
    # suite and decides its symmetry law alone, which fails
    p = actions._certify_action(_non_symmetric_action())
    assert not p.symmetric and not check(p, True).passed and check(p).passed
    co = dual_action_to_coaction(p)
    assert as_swept(check(co), co) == swept(co)
    runs, co_runs = _suite_runs(monkeypatch)
    back = coaction_to_dual_action(co)
    assert _decisions(runs + co_runs) == ["symmetry"] * 2 and not back.symmetric
    assert as_swept(check(co, True), co) == swept(co, True)
    assert check(back).to_json() == swept(back)
    assert check(back, True).to_json() == swept(back, True)
    assert not check(back, True).passed


def test_a_demoted_action_carries_its_suite_without_the_symmetry_law(monkeypatch):
    # only action-symmetry fails, so _certify_action clears the flag; the
    # action carries the one Report it decided, and the checks without the
    # law that follow read it with that law left out and decide nothing
    runs, _ = _suite_runs(monkeypatch)
    p = actions._certify_action(_non_symmetric_action())
    first, second = check_lpma(p), check_lpma(p)
    assert len(runs) == 1 and not p.symmetric
    fresh = actions._action_suite(bare(p), False).to_json()
    assert first.passed and first.to_json() == second.to_json() == fresh
    assert "action-symmetry" not in first.laws


# ---------------------------------------------------------------------------
# decided again after a change


def _changed_algebra(a):
    """A copy of a with one more product term: b0·b0 gains b1."""
    mul = Tensor3(a.mul.dims, dict(a.mul.entries))
    mul.add(0, 0, 1, a.field.one)
    return AlgebraData(a.field, a.basis, mul, a.unit, name=a.name)


def _changed_hopf(h):
    """A copy of h whose Δ(h_1) gains h_1⊗h_1: no longer coassociative."""
    comul = Tensor3(h.comul.dims, dict(h.comul.entries))
    comul.add(1, 1, 1, h.field.one)
    return HopfData(h.field, h.basis, dict(h.mul.entries), h.unit, comul, h.counit,
                    h.antipode, name=h.name)


def _sides(s):
    return [s] if isinstance(s, (PartialActionData, PartialCoactionData)) \
        else [s.left, s.right]


def _set(s, attr, value):
    for q in [s] + _sides(s):
        setattr(q, attr, value)


def _flip(s):
    """Flip the symmetric flag of every action in s; a coaction has none,
    and its check takes the symmetry law as an argument instead."""
    if isinstance(s, PartialCoactionData):
        return True
    for q in _sides(s):
        q.symmetric = not q.symmetric
    return None


# one change each to what a certificate depends on; each returns the
# symmetric argument of the check that follows it
CHANGES = {
    "map add": lambda s: _sides(s)[0].map.add(2, 1, 0, s.hopf.field.one),
    "symmetric flipped": _flip,
    "renamed": lambda s: _set(s, "name", "renamed"),
    "alg reassigned": lambda s: _set(s, "alg", _changed_algebra(s.alg)),
    "hopf reassigned": lambda s: _set(s, "hopf", _changed_hopf(s.hopf)),
    "antipode entry": lambda s: s.hopf.antipode[0].__setitem__(
        1, s.hopf.antipode[0][1] + s.hopf.field.one),
}
# the changes after which a law fails
BREAKING = ("map add", "alg reassigned", "hopf reassigned")

# the H4 structures, each built by a constructor that records its Report
BUILT = {
    "action": lambda: dual_regular_action(sweedler_h4(QQ)),
    "bimodule": lambda: trivialize_right(dual_regular_action(sweedler_h4(QQ))),
    "coaction": lambda: regular_coaction(sweedler_h4(QQ), "right"),
    "bicomodule": lambda: regular_bicomodule(sweedler_h4(QQ)),
}


def _sweeps(monkeypatch):
    """The subject and law id of every Report.sweep call, in call order."""
    laws, sweep = [], algebras.Report.sweep

    def counted(rep, law_id, cases, show=None):
        laws.append((rep.subject, law_id))
        return sweep(rep, law_id, cases, show)

    monkeypatch.setattr(algebras.Report, "sweep", counted)
    return laws


# a bicomodule's check reads its sides without the symmetry law, so it has
# no flag to flip
@pytest.mark.parametrize("change,built", [
    (change, built) for change in CHANGES for built in BUILT
    if (change, built) != ("symmetric flipped", "bicomodule")])
def test_a_carried_certificate_is_decided_again_after_a_change(change, built,
                                                              monkeypatch):
    s = BUILT[built]()
    runs = _suite_runs(monkeypatch)
    before = check(s)
    assert before.passed and not any(runs)
    sym = CHANGES[change](s)
    laws = _sweeps(monkeypatch)
    after = check(s, sym)
    if change == "symmetric flipped":
        # no stamp holds the flag: a flip decides at most the one law, the
        # symmetry law a carried Report lacks (the regular coaction records
        # its suite without it), and only that law
        assert laws == ([(s.name, "coaction-symmetry")] if built == "coaction" else [])
    else:
        assert any(runs)
    # the sweep's Report, hence its first witness
    assert as_swept(after, s) == swept(s, sym)
    assert after.passed == (change not in BREAKING)
    if change in BREAKING:
        assert after.failures[0] == check(unstamped(s), sym).failures[0]
    # the subject of a pair names H and A, not its sides
    if change != "antipode entry" and (change, built) not in (
            ("renamed", "bimodule"), ("renamed", "bicomodule")):
        assert after.to_json() != before.to_json()
    # and the new Report is carried in turn
    decided = sum(map(len, runs))
    assert check(s, sym).to_json() == after.to_json() and sum(map(len, runs)) == decided


# ---------------------------------------------------------------------------
# the coaction suites index their operands once


def test_the_coaction_suites_index_each_operand_once(monkeypatch):
    # the regular kQ8* bicomodule over GF(7), as the smash workload loads
    # it: 2·(2·dim A + 1) leg indexes, one per ρ(a_i), per spread and for
    # the unit factor on each side; tensor_mul built 288 on these inputs
    b = bare(regular_bicomodule(dual_hopf(_kg("Q8", GF(7)))))
    built = _counting(monkeypatch, algebras, "_leg_index")
    # coactions calls the name it imported, and tensor_mul the module's
    monkeypatch.setattr(coactions, "_leg_index", algebras._leg_index)
    assert check_bicomodule(b).passed
    assert len(built) <= 2 * (2 * b.alg.dim + 1) == 34, len(built)


# ---------------------------------------------------------------------------
# the standard path decides each structure once


def test_the_globalize_commands_decide_each_structure_once(tmp_path, monkeypatch):
    # what `phopf globalize` runs on the kZ4 documents of the globalize
    # workload: the loaded bicomodule is decided once (one coaction suite
    # per side), each dual action of the bridge once, and no carrier of the
    # standard path sweeps its global laws
    from phopf.cli import main
    h = _kg("Z4", QQ)
    for kind, s in (("bicomodule", regular_bicomodule(h)),
                    ("bimodule", trivialize_right(dual_regular_action(h)))):
        (tmp_path / kind).mkdir()
        write_document(s.hopf.to_json(), str(tmp_path / kind / "hopf.json"))
        write_document(s.to_json(hopf_ref="hopf.json"),
                       str(tmp_path / kind / ("%s.json" % kind)))
    counts = {}
    for module, name in ((actions, "_action_suite"), (coactions, "_coaction_suite"),
                         (candidates, "_require_global_bimodule")):
        counts[name] = _counting(monkeypatch, module, name)
    # the bridge asks each coaction for its symmetry law alone, and records
    # both dual actions by duality
    want = {"bicomodule": (0, 4, 0), "bimodule": (2, 0, 0)}
    for kind in ("bicomodule", "bimodule"):
        for calls in counts.values():
            calls.clear()
        assert main(["globalize", kind, str(tmp_path / kind / ("%s.json" % kind)),
                     "-o", str(tmp_path / ("out_" + kind)), "--format", "json"]) == 0
        assert tuple(len(counts[n]) for n in ("_action_suite", "_coaction_suite",
                                              "_require_global_bimodule")) == want[kind]


def test_the_standard_paths_sweep_the_global_laws_over_a_failing_antipode(monkeypatch):
    # H4 with S(x) = xg is a bialgebra that fails hopf_check at the antipode
    # law alone: the carriers' global laws are not recorded but swept, and
    # hold; over H4 itself they are recorded
    from phopf.actions import sweedler_k_bimodule
    from phopf.coactions import PartialBicomoduleData
    from phopf.examples import _regular
    sweeps = _counting(monkeypatch, candidates, "_require_global_bimodule")
    h = sweedler_h4(QQ)
    antipode = [list(row) for row in h.antipode]
    antipode[3][2] = QQ.one
    bad = HopfData(QQ, h.basis, dict(h.mul.entries), h.unit, dict(h.comul.entries),
                   h.counit, antipode, name="H4 with S(x) = xg")
    for hopf, want in ((h, 0), (bad, 1)):
        sweeps.clear()
        bic = PartialBicomoduleData(_regular(hopf, "left"), _regular(hopf, "right"))
        g = globalize.standard_globalize_bicomodule(bic)
        assert g.certificate.passed
        assert len(sweeps) == want
    # the sweep over the failing antipode reads the restricted dual families,
    # the record's own operator families
    assert sweeps[0][2:] == (g.left_ops, g.right_ops)
    b = sweedler_k_bimodule(QQ, 2, 3)
    sides = [PartialActionData(bad, b.alg, p.side, dict(p.map.entries))
             for p in (b.left, b.right)]
    sweeps.clear()
    # lemaco1 reads the antipode, so this certificate fails; the global
    # laws were swept before it was decided
    with pytest.raises(AssertionError, match="standard globalization fails lemaco1"):
        globalize.standard_globalize_bimodule(type(b)(*sides))
    assert len(sweeps) == 1
    globalize.standard_globalize_bimodule(b)
    assert len(sweeps) == 1


# ---------------------------------------------------------------------------
# a carried pair check stamps H and A once and copies no witness


def test_a_carried_pair_check_stamps_h_and_a_once(monkeypatch):
    # _pair_stamp used to stamp H and A again inside each side's stamp
    b = regular_bicomodule(dual_hopf(_kg("Q8", QQ)))
    first = check_bicomodule(b)
    stamps = _counting(monkeypatch, algebras, "_hopf_stamp")
    copies = _counting(monkeypatch, copy, "deepcopy")  # Report.copy imports it when it runs
    assert check_bicomodule(b).to_json() == first.to_json()
    assert len(stamps) == 1 and copies == []
    # the tuple is the one the sides' own stamps make; a side that no longer
    # shares H with the pair is stamped on its own, and decided again
    for changed in (False, True):
        if changed:
            b.left.hopf = _changed_hopf(b.hopf)
        stamps.clear()
        got = algebras._pair_stamp(b)
        assert len(stamps) == 1 + changed
        assert got == (algebras._hopf_stamp(b.hopf), algebras._algebra_stamp(b.alg)) + tuple(
            algebras._side_stamp(q) for q in (b.left, b.right))
    assert not check_bicomodule(b).passed


def test_a_failing_report_copy_shares_no_witness():
    rep = algebras.Report("s", QQ)
    rep.fail("law", (0,), [[1, 2]], [[3]])
    out = rep.copy()
    assert out.to_json() == rep.to_json()
    assert out.failures[0][2] is not rep.failures[0][2]


# ---------------------------------------------------------------------------
# bicomodule_to_bimodule records the compatibility law by its transpose


def _compatibility_sweeps(monkeypatch):
    """The pairs whose bimodule compatibility law _decide_bimodule sweeps."""
    swept_pairs, decide = [], actions._decide_bimodule

    def sweeping(b, compatible=False):
        swept_pairs.extend([b] * (not compatible))
        return decide(b, compatible)

    monkeypatch.setattr(actions, "_decide_bimodule", sweeping)
    return swept_pairs


@pytest.mark.parametrize("field", [QQ, GF(5)], ids=["QQ", "GF5"])
def test_the_dual_bimodule_records_its_compatibility_law(field, monkeypatch):
    sweeps = _compatibility_sweeps(monkeypatch)
    for h in _hopf_inputs(field):
        for b in (regular_bicomodule(h),
                  bimodule_to_bicomodule(trivialize_right(dual_regular_action(h)))):
            sweeps.clear()
            out = bicomodule_to_bimodule(b)
            assert sweeps == [], h.name
            assert check_bimodule(out).to_json() == sweep_bimodule(out).to_json(), h.name
            # without a Report on b the law is swept, to the same Report
            again = bicomodule_to_bimodule(bare(b))
            assert len(sweeps) == 1
            assert check_bimodule(again).to_json() == check_bimodule(out).to_json()


def _graded(h, alg, perm, side):
    """The kZ2-grading of k^4 by the involution `perm` of its idempotents,
    as a global coaction on `side`: a = a₊ ⊗ e + a₋ ⊗ g, a± = (a ± perm(a))/2."""
    f = alg.field
    half = f.inv(f.of(2))
    entries = {}
    for i, j in enumerate(perm):
        for k, g, c in ((i, 0, half), (j, 0, half), (i, 1, half), (j, 1, -half)):
            key = (i, k, g) if side == "right" else (i, g, k)
            entries[key] = entries.get(key, f.zero) + c
    return PartialCoactionData(h, alg, side, {k: c for k, c in entries.items() if c})


@pytest.mark.parametrize("carried", [False, True], ids=["bare", "carried"])
def test_an_incompatible_pair_still_fails_the_dual_bimodule(carried, monkeypatch):
    # two kZ2-gradings of k^4 whose involutions (12) and (23) do not commute:
    # each coaction passes its suite and the pair fails compatibility, so
    # the bridge sweeps the law, whether or not b carries its failing Report
    from phopf.coactions import PartialBicomoduleData
    h = _kg("Z2", QQ)
    k4 = AlgebraData(QQ, ["e1", "e2", "e3", "e4"], {(i, i, i): 1 for i in range(4)},
                     [1] * 4, name="k^4")
    b = PartialBicomoduleData(_graded(h, k4, [0, 2, 1, 3], "left"),
                              _graded(h, k4, [1, 0, 2, 3], "right"))
    assert check_lpca(b.left, True).passed and check_rpca(b.right, True).passed
    if carried:
        assert check_bicomodule(b).failures[0][0] == "bicomodule-compatibility"
    else:
        b = bare(b)
    sweeps = _compatibility_sweeps(monkeypatch)
    with pytest.raises(AssertionError,
                       match=r"^dual bimodule fails bimodule-compatibility at \(0, 0, 0\)$"):
        bicomodule_to_bimodule(b)
    assert len(sweeps) == 1


# ---------------------------------------------------------------------------
# the symmetry law is gained, whatever order the requests come in


# the oracle reads every GOLDEN_EVERY-th Hopf mutant of the golden corpus (an
# odd stride, so both steps of each part occur), within about 6 s
GOLDEN_EVERY = 3


def _golden_sides(every):
    """The coactions and actions read on every `every`-th Hopf mutant of the
    golden corpus (tests/test_golden_reports): its regular coactions, kept
    where the counit law fails (see forged_coaction), and their dual actions
    over its uncertified dual where the action constructor accepts them;
    then both sides of each incompatible pair of the corpus and their dual
    actions."""
    from phopf.algebras import _dual_structure
    from phopf.coactions import _dual_action
    from tests.test_golden_reports import _hopf_mutants, _incompatible_bicomodules
    out = []
    for h in list(_hopf_mutants())[::every]:
        for side in ("left", "right"):
            try:
                co = forged_coaction(h, h, side, dict(h.comul.entries), "regular of " + h.name)
            except ValueError:
                continue  # its unit does not give the trivial coaction forged_coaction builds
            out.append(co)
            try:
                out.append(_dual_action(co, _dual_structure(h)))
            except ValueError:
                pass
    for b in _incompatible_bicomodules():
        out += [q for co in (b.left, b.right) for q in (co, _dual_action(co, dual_hopf(b.hopf)))]
    return out


def _order_cases():
    """Every structure of _recorded over H4 (over ℚ and GF(5)), H4*, kS3 and
    kS3*, each side of its pairs, and a copy of each that carries nothing;
    the non-symmetric action; the golden sides."""
    out = []
    for h in (sweedler_h4(QQ), sweedler_h4(GF(5)), dual_hopf(sweedler_h4(QQ)),
              _kg("S3", QQ), dual_hopf(_kg("S3", QQ))):
        for _, s, _ in _recorded(h):
            out += [s] + (_sides(s) if len(_sides(s)) == 2 else [])
    out += [unstamped(s) for s in out]
    return out + [_non_symmetric_action()] + _golden_sides(GOLDEN_EVERY)


def _same_carried(s):
    """A copy of s that shares its tables and carries what s carries; a
    stored Report is never changed, so the two stores may share it."""
    out = copy.copy(s)
    out._certificates = dict(s._certificates)
    if len(_sides(s)) == 2:
        out.left, out.right = _same_carried(s.left), _same_carried(s.right)
    return out


# request orders: each request is the symmetric argument of a side's check,
# or the flag every action of a pair is set to before the pair's check; in
# "flag flipped" each check reads the flags (None), flipped between the two
ORDERS = {"without, then with": (False, True), "with, then without": (True, False),
          "flag flipped": (None, None)}


def _request(s, sym, refs, laws):
    """The Report of one request to s, as swept(s) takes it; the reference
    sweep for that request, read from refs or swept into it; and the laws
    of s that the request swept, each with its Report's subject (read from
    laws, those of every sweep)."""
    pair = len(_sides(s)) == 2
    if pair and sym is not None:
        for q in _sides(s):
            q.symmetric = sym
    if isinstance(s, PartialActionData) and sym is None:
        sym = s.symmetric
    del laws[:]
    got = as_swept(check(s) if pair else check(s, sym), s)
    own = [(subject, law) for subject, law in laws
           if law in _sides(s)[0].LAWS or law.endswith("-compatibility")]
    key = tuple(bool(q.symmetric) for q in _sides(s)) if pair else bool(sym)
    if key not in refs:
        refs[key] = swept(s, sym)
    return got, refs[key], own


def test_a_report_is_the_same_whatever_order_the_symmetry_law_is_asked_in(monkeypatch):
    # each order runs on a copy that carries what the structure carries:
    # every Report equals the one-pass sweep of its request, no law of the
    # structure is swept twice, and a Report without the symmetry law that
    # is asked for it sweeps that law alone
    laws = _sweeps(monkeypatch)
    gained = 0
    for s in _order_cases():
        flagged = isinstance(_sides(s)[0], PartialActionData)
        refs = {}
        for order, requests in ORDERS.items():
            if not flagged and (None in requests or len(_sides(s)) == 2):
                continue  # a coaction has no flag, and a bicomodule no request
            q = _same_carried(s)
            swept_laws = []
            for i, sym in enumerate(requests):
                if i and sym is None:
                    _flip(q)
                got, want, own = _request(q, sym, refs, laws)
                assert got == want, (q, order, i)
                swept_laws += own
                gained += i and [law for _, law in own] == [_sides(q)[0].LAWS[-1]]
            assert len(swept_laws) == len(set(swept_laws)), (q, order, swept_laws)
    assert gained
