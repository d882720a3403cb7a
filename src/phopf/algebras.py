"""Structure-constant algebras and Hopf algebras, with exhaustive axiom suites.

All data is coordinates over an exact field: a multiplication or a
comultiplication is an order-3 tensor, a (co)unit is a vector, an antipode is
a matrix whose columns are the images of the basis vectors.  A law checked on
every basis tuple is thereby proved for all elements (multilinearity), so a
passing Report is a proof, not a sample.  Every suite records its laws
through Report.sweep, and a structure keeps its Reports where _carried puts them.

Elements are passed around as sparse dicts {basis_index: scalar}; elements of
a tensor square live in dicts keyed by index pairs.
"""

from .fields import Field
from .linalg import (Tensor3, _insert, dict_acc, dict_of_vec, mat_transpose, mul_dicts,
                     unit_vec, vec_of_dict)


def _leg_index(d):
    """A dict keyed by index tuples as nested dicts, one level per leg."""
    root = {}
    for key, c in d.items():
        node = root
        for j in key[:-1]:
            node = node.setdefault(j, {})
        node[key[-1]] = c
    return root


def tensor_mul(muls, x, y, indexed=False):
    """Componentwise product in a tensor product of algebras, one mul tensor
    per leg: (a⊗b⊗…)(a'⊗b'⊗…) = aa'⊗bb'⊗….  x, y are dicts keyed by index
    tuples with one index per leg, or, when `indexed`, those dicts as
    _leg_index writes them, for a caller that reuses its operands.

    A keyed join: x and y are indexed leg by leg, and the join walks the
    legs in order, so each term of x meets only the terms of y whose every
    leg product is nonzero.  At each leg it walks the shorter of the partner
    list of an index of x (see Tensor3.partner_view) and the indices of y
    left at that leg."""
    level = [((), x, y) if indexed else ((), _leg_index(x), _leg_index(y))]
    for t in muls:
        part = t.partner_view()
        joined = []
        for rows, xn, yn in level:
            for i, xs in xn.items():
                mates = part.get(i)
                if not mates:
                    continue
                if len(mates) < len(yn):
                    for j, row in mates.items():
                        ys = yn.get(j)
                        if ys is not None:
                            joined.append((rows + (row,), xs, ys))
                else:
                    for j, ys in yn.items():
                        row = mates.get(j)
                        if row is not None:
                            joined.append((rows + (row,), xs, ys))
        level = joined
    out = {}
    for rows, c1, c2 in level:
        terms = [((), c1 * c2)]
        for row in rows:
            terms = [(k + (t,), c * a) for k, c in terms for t, a in row.items()]
        for k, c in terms:
            dict_acc(out, k, c)
    return out


def t2_of_dicts(x, y):
    """x ⊗ y as a pair-keyed dict."""
    out = {}
    for i, c in x.items():
        for j, d in y.items():
            out[(i, j)] = c * d
    return out


def json_list(x, what):
    """x if it is a JSON array; otherwise ValueError naming `what`."""
    if type(x) is not list:
        raise ValueError("%s is not a list but a %s" % (what, type(x).__name__))
    return x


def json_rows(rows, dims, field, what):
    """Yield (index tuple, scalar) from JSON rows [i, ..., "c"] with one index
    per entry of `dims`.  A row of the wrong length, or an index that is not
    an int (bools and floats included) in range of its slot, raises
    ValueError: the axiom suites only visit in-range indices, so such an
    entry would otherwise pass unchecked."""
    for row in json_list(rows, what):
        if not isinstance(row, (list, tuple)) or len(row) != len(dims) + 1:
            raise ValueError("%s row %r does not have %d entries"
                             % (what, row, len(dims) + 1))
        for x, d in zip(row, dims):
            if type(x) is not int or not 0 <= x < d:
                raise ValueError("%s row %r: index %r is not an integer in "
                                 "range(%d)" % (what, row, x, d))
        yield tuple(row[:-1]), field.parse(row[-1])


def _json_tensor(rows, n, field, what):
    """The n×n×n Tensor3 of JSON rows (see json_rows); repeated keys add."""
    t = Tensor3((n, n, n))
    for (i, j, k), c in json_rows(rows, (n, n, n), field, what):
        t.add(i, j, k, c)
    return t


def _json_algebra(doc):
    """Field, basis labels and mul tensor of an algebra document.  A basis
    that is not a list of strings raises ValueError."""
    field = Field.from_json(doc["field"])
    basis = doc["basis"]
    if type(basis) is not list or any(type(b) is not str for b in basis):
        raise ValueError("basis %r is not a list of string labels" % (basis,))
    return field, basis, _json_tensor(doc["mul"], len(basis), field, "mul")


# ---------------------------------------------------------------------------
# report plumbing

class Count(int):
    """An integer witness that counts (a dimension or a rank) rather than
    being a scalar, so `Report.to_json` prints it as the integer it is."""

    __slots__ = ()


def _fraction_form(w):
    """A rational witness with every scalar as a Fraction.  An integral
    rational scalar may be an int (see fields), and a report prints the
    same `Fraction(n, 1)` whichever form it was stored in.  Dict keys and the
    key of each (key, scalar) item are basis indices and stay as they are.
    Only a failing Report gets here, so only it imports fractions."""
    from fractions import Fraction

    def form(w):
        t = type(w)
        if t is int:
            return Fraction(w)
        if t is list:
            return [form(v) for v in w]
        if t is tuple:
            key, c = w
            return key, form(c)
        if t is dict:
            return {k: form(v) for k, v in w.items()}
        return w
    return form(w)


class Report:
    """Outcome of an axiom suite.  Failures carry the violating basis indices
    and both evaluated sides, so a violation is reproducible from the report
    alone.  `field` is the field of the witnesses: over a prime field they
    are printed as they are, otherwise (over ℚ, or when no field is given)
    as rational witnesses, every scalar a Fraction."""

    def __init__(self, subject="", field=None):
        self.subject = subject
        self.field = field
        self.laws = []
        self.failures = []  # (law_id, index_tuple, lhs, rhs)

    def law(self, law_id):
        if law_id not in self.laws:
            self.laws.append(law_id)

    def fail(self, law_id, idx, lhs, rhs):
        self.law(law_id)
        self.failures.append((law_id, tuple(idx), lhs, rhs))

    def sweep(self, law_id, cases, show=None):
        """Add the law, then record as its failures, in order, every case
        (index, lhs, rhs) of `cases` whose two sides differ, each side
        written by show(side) when `show` is given.  True when none does."""
        self.law(law_id)
        show = show or (lambda w: w)
        bad = [(law_id, tuple(idx), show(lhs), show(rhs)) for idx, lhs, rhs in cases if lhs != rhs]
        self.failures += bad
        return not bad

    @property
    def passed(self):
        return not self.failures

    def __bool__(self):
        return self.passed

    def require(self, what, error=ValueError):
        """Return the report if it passed; otherwise raise `error`, naming
        `what` and the law and index of the first failure."""
        if self.failures:
            law, idx, _, _ = self.failures[0]
            raise error("%s fails %s at %s" % (what, law, idx))
        return self

    def merge(self, other, prefix=""):
        for law in other.laws:
            self.law(prefix + law)
        for law, idx, lhs, rhs in other.failures:
            self.failures.append((prefix + law, idx, lhs, rhs))
        return self

    def failures_for(self, law_id):
        return [f for f in self.failures if f[0] == law_id]

    def copy(self):
        """An equal Report that shares nothing mutable with this one."""
        out = Report(self.subject, self.field)
        out.laws = list(self.laws)
        if self.failures:  # only a failing Report loads copy
            from copy import deepcopy
            out.failures = deepcopy(self.failures)
        return out

    def lines(self):
        out = []
        for law in self.laws:
            bad = self.failures_for(law)
            if not bad:
                out.append("PASS  %s" % law)
            else:
                out.append("FAIL  %s  (%d violation%s; first at %s)"
                           % (law, len(bad), "" if len(bad) == 1 else "s", bad[0][1]))
        return out

    def to_json(self):
        rational = self.field is None or self.field.p is None

        def show(w):
            return repr(_fraction_form(w) if rational else w)

        return {
            "subject": self.subject,
            "passed": self.passed,
            "laws": list(self.laws),
            "failures": [{"law": law, "at": list(idx), "lhs": show(lhs), "rhs": show(rhs)}
                         for law, idx, lhs, rhs in self.failures],
        }

    def __repr__(self):
        state = "passed" if self.passed else "%d failure(s)" % len(self.failures)
        return "Report(%s: %s)" % (self.subject or "?", state)


# ---------------------------------------------------------------------------
# data types

class AlgebraData:
    """An algebra by structure constants.  Not assumed associative or unital;
    run algebra_check to certify.  The structure carries the Reports of the
    suites that decided it (see _carried)."""

    def __init__(self, field, basis, mul, unit=None, name="A"):
        self.field = field
        self.basis = list(basis)
        self.dim = len(self.basis)
        if isinstance(mul, dict):
            mul = Tensor3((self.dim,) * 3, mul)
        if mul.dims != (self.dim,) * 3:
            raise ValueError("mul tensor shaped %r for dimension %d" % (mul.dims, self.dim))
        self.mul = mul
        if unit is not None:
            unit = list(unit)
            if len(unit) != self.dim:
                raise ValueError("unit vector has wrong length")
        self.unit = unit
        self.name = name
        self._certificates = {}

    def basis_vec(self, i):
        return unit_vec(self.field, self.dim, i)

    def mul_dict(self, x, y):
        return self.mul.mul_dict(x, y)

    def unit_dict(self):
        if self.unit is None:
            raise ValueError("algebra %s has no unit" % self.name)
        return dict_of_vec(self.unit)

    def to_json(self):
        show = self.field.show
        doc = {
            "field": self.field.to_json(),
            "basis": list(self.basis),
            "mul": self.mul.to_json(show),
        }
        if self.unit is not None:
            doc["unit"] = [show(c) for c in self.unit]
        return doc

    @classmethod
    def from_json(cls, doc, name="A"):
        field, basis, mul = _json_algebra(doc)
        unit = [field.parse(c) for c in json_list(doc["unit"], "unit")] if "unit" in doc else None
        return cls(field, basis, mul, unit, name=name)

    def __repr__(self):
        return "%s(%s, dim=%d)" % (type(self).__name__, self.name, self.dim)


class HopfData(AlgebraData):
    """A Hopf algebra by structure constants.  comul entry (i, j, k) is the
    coefficient of basis[j]⊗basis[k] in Δ(basis[i]); the antipode matrix has
    S(basis[j]) in column j.  Run hopf_check to certify."""

    def __init__(self, field, basis, mul, unit, comul, counit, antipode, name="H"):
        if unit is None:
            raise ValueError("a Hopf algebra needs a unit")
        AlgebraData.__init__(self, field, basis, mul, unit, name=name)
        if isinstance(comul, dict):
            comul = Tensor3((self.dim,) * 3, comul)
        if comul.dims != (self.dim,) * 3:
            raise ValueError("comul tensor shaped %r" % (comul.dims,))
        self.comul = comul
        self.counit = list(counit)
        self.antipode = [list(row) for row in antipode]
        if len(self.counit) != self.dim or len(self.antipode) != self.dim:
            raise ValueError("counit/antipode sized wrong")

    def comul_apply(self, x):
        """Δ on a sparse element."""
        return self.comul.apply_in1(x)

    def counit_of(self, x):
        s = self.field.zero
        for i, c in x.items():
            if self.counit[i]:
                s = s + c * self.counit[i]
        return s

    def antipode_apply(self, x):
        out = {}
        for j, c in x.items():
            for i in range(self.dim):
                if self.antipode[i][j]:
                    dict_acc(out, i, c * self.antipode[i][j])
        return out

    def to_json(self):
        doc = AlgebraData.to_json(self)
        show = self.field.show
        doc["comul"] = self.comul.to_json(show)
        doc["counit"] = [show(c) for c in self.counit]
        doc["antipode"] = [[i, j, show(self.antipode[i][j])]
                           for i in range(self.dim) for j in range(self.dim)
                           if self.antipode[i][j]]
        return doc

    @classmethod
    def from_json(cls, doc, name="H"):
        field, basis, mul = _json_algebra(doc)
        n = len(basis)
        comul = _json_tensor(doc["comul"], n, field, "comul")
        unit, counit = ([field.parse(c) for c in json_list(doc[k], k)] for k in ("unit", "counit"))
        antipode = [[field.zero] * n for _ in range(n)]
        for (i, j), c in json_rows(doc["antipode"], (n, n), field, "antipode"):
            antipode[i][j] = c
        return cls(field, basis, mul, unit, comul, counit, antipode, name=name)


def same_algebra(a, b):
    return (a is b) or (a.field == b.field and a.basis == b.basis
                        and a.mul.entries == b.mul.entries and a.unit == b.unit)


def same_hopf(a, b):
    return same_algebra(a, b) and isinstance(a, HopfData) and isinstance(b, HopfData) \
        and a.comul.entries == b.comul.entries and a.counit == b.counit \
        and a.antipode == b.antipode


def structure_json(s, hopf_ref, algebra_ref, **parts):
    """The document of s, an action, a coaction or a pair: H and A, each
    inline or as the file name given for it, then `parts`."""
    return dict(hopf=s.hopf.to_json() if hopf_ref is None else hopf_ref,
                algebra=AlgebraData.to_json(s.alg) if algebra_ref is None else algebra_ref,
                **parts)


class _Pair:
    """A left and a right side, both of the subclass's `kind` (action or
    coaction), of one Hopf algebra on one algebra; it carries Reports."""

    def __init__(self, left, right):
        if left.side != "left" or right.side != "right":
            raise ValueError("need one left and one right %s" % self.kind)
        if not same_hopf(left.hopf, right.hopf):
            raise ValueError("the two %ss use different Hopf algebras" % self.kind)
        if not same_algebra(left.alg, right.alg):
            raise ValueError("the two %ss live on different algebras" % self.kind)
        self.left, self.right, self.hopf, self.alg = left, right, left.hopf, left.alg
        self._certificates = {}

    def to_json(self, hopf_ref=None, algebra_ref=None):
        return structure_json(self, hopf_ref, algebra_ref,
                              left=self.left.map_json(), right=self.right.map_json())

    def __repr__(self):
        return "%s(%s on %s)" % (type(self).__name__, self.hopf.name, self.alg.name)


# ---------------------------------------------------------------------------
# axiom suites
#
# Each suite is decided once per structure.  The structure keeps the Report
# with a stamp of everything the Report depends on: the field, the name (its
# subject), the state of each tensor the suite reads (Tensor3.state, renewed
# by every add) and copies of the vectors it reads; for an action or
# coaction also its side and the stamps of H and A, and for a pair those of
# both sides.  While the stamp still matches, a check hands out a copy of
# the stored Report; after any change it decides again.  _carried alone
# writes that store (a Report proved by a constructor is handed to it as
# the decision, and a side's gains its symmetry law), and _carries asks it.

# law ids in Report order, shared by the sweeps and _record_proved
_ASSOCIATIVITY, _UNIT_LAW = _ALGEBRA_LAWS = ("associativity", "unit-law")
_COASSOCIATIVITY, _COUNIT_LAW = _COALGEBRA_LAWS = ("coassociativity", "counit-law")
_DELTA_MULT, _EPS_MULT, _DELTA_UNIT, _EPS_UNIT, _ANTIPODE_LAW = _HOPF_TIES = (
    "comultiplication-multiplicative", "counit-multiplicative",
    "comultiplication-unit", "counit-unit", "antipode-law")


def _algebra_stamp(a):
    return (a.field, a.name, a.mul.state, None if a.unit is None else tuple(a.unit))


def _coalgebra_stamp(h):
    return (h.field, h.name, h.comul.state, tuple(h.counit))


def _hopf_stamp(h):
    return (_algebra_stamp(h), _coalgebra_stamp(h), tuple(map(tuple, h.antipode)))


def _carried(a, suite, stamp, decide, gain=None):
    """A copy of the Report of `suite` that `a` carries under `stamp`, after
    deciding it by decide(a) if `a` carries none under that stamp, or else
    replacing the carried Report rep by gain(a, rep) when `gain` is given."""
    got = a._certificates.get(suite)
    if got is None or got[0] != stamp:
        got = a._certificates[suite] = (stamp, decide(a))
    elif gain is not None:
        got = a._certificates[suite] = (stamp, gain(a, got[1]))
    return got[1].copy()


def _carries(a, suite, stamp, laws):
    """Whether `a` carries a Report of `suite` under `stamp` that passes each of `laws`."""
    got = a._certificates.get(suite)
    return got is not None and got[0] == stamp and all(
        law in got[1].laws and not got[1].failures_for(law) for law in laws)


def algebra_check(a):
    """Associativity on all basis triples; unit law when a unit is present.
    Decided once while a's product, unit, field and name stay as they are
    (see _carried)."""
    return _carried(a, "algebra", _algebra_stamp(a), _decide_algebra)


def coalgebra_check(h):
    """Coassociativity and the counit law of Δ, on every basis element.
    Decided once while h's coproduct, counit, field and name stay as they
    are (see _carried)."""
    return _carried(h, "coalgebra", _coalgebra_stamp(h), _decide_coalgebra)


def hopf_check(h):
    """Full Hopf-algebra suite: algebra laws, coassociativity, counit law,
    Δ and ε are unital algebra maps, antipode convolution-inverts the
    identity.  Exhaustive over basis tuples, and decided once while h
    stays as it is (see _carried)."""
    return _carried(h, "hopf", _hopf_stamp(h), _decide_hopf)


def _record_proved(h):
    """Store passing Reports of the three suites on h, whose laws its
    constructor proved, under the stamps of _carried."""
    for suite, stamp, laws in (
            ("algebra", _algebra_stamp(h), _ALGEBRA_LAWS),
            ("coalgebra", _coalgebra_stamp(h), _COALGEBRA_LAWS),
            ("hopf", _hopf_stamp(h), _ALGEBRA_LAWS + _COALGEBRA_LAWS + _HOPF_TIES)):
        rep = Report(h.name, h.field)
        rep.laws = list(laws)
        _carried(h, suite, stamp, lambda h: rep)


def _side_stamp(p, parts=None):
    return (p.side, p.map.state, p.name) + (
        parts or (_hopf_stamp(p.hopf), _algebra_stamp(p.alg)))


def _pair_stamp(b):
    """H and A stamped once, and handed to each side that shares them."""
    parts = (_hopf_stamp(b.hopf), _algebra_stamp(b.alg))
    return parts + tuple(_side_stamp(q, parts if q.hopf is b.hopf and q.alg is b.alg else None)
                         for q in (b.left, b.right))


def _side_report(p, side, symmetric, decide):
    """The Report of p's suite (p an action or a coaction on `side`, else
    ValueError), with the symmetry law p.LAWS[-1] when `symmetric`.  p
    carries one Report: decide(p, symmetric) decides it if there is none,
    and decide(p, True, rep) sweeps the symmetry law alone into rep, a
    shallow copy of one without it.  That law is last and no other law
    reads it, so a check without it drops it and its failures."""
    if p.side != side:
        raise ValueError("the %s suite cannot check %r" % (side, p))
    law = p.LAWS[-1]
    rep = _carried(p, "suite", _side_stamp(p), lambda p: decide(p, symmetric),
                   lambda p, r: r if law in r.laws or not symmetric
                   else decide(p, True, Report(r.subject, r.field).merge(r)))
    if not symmetric and law in rep.laws:
        rep.laws.remove(law)
        rep.failures = [x for x in rep.failures if x[0] != law]
    return rep


def _record_side(p, laws):
    """Store on the action or coaction p a passing Report of `laws`, which were proved."""
    rep = Report(p.name, p.alg.field)
    rep.laws = list(laws)
    _carried(p, "suite", _side_stamp(p), lambda p: rep)


def _associators(rows, into, sweep, n):
    """Yield ((i, j, k), (e_i e_j) e_k, e_i (e_j e_k)) for every basis triple
    with i in `sweep` at which the two sides differ, in (i, j, k) order.

    Reads only nonzero products.  For each pair (i, j) it forms both sides
    for every k at once from the rows of the multiplication table, and
    compares them at each k where either is nonzero, in ascending order; at
    every other k both sides vanish, so no triple goes unchecked."""
    empty = {}
    for i in sweep:
        rows_i = rows[i]
        if not rows_i:
            continue  # e_i kills everything from the left: both sides are 0
        for j in range(n):
            into_j = into[j]
            lhs = {}  # k -> (e_i e_j) e_k
            for m, c in rows_i.get(j, empty).items():
                for k, row in rows[m].items():
                    acc = lhs.get(k)
                    if acc is None:
                        acc = lhs[k] = {}
                    for t, d in row.items():
                        dict_acc(acc, t, c * d)
            rhs = {}  # k -> e_i (e_j e_k)
            for m, row in rows_i.items():
                for k, c in into_j.get(m, ()):
                    acc = rhs.get(k)
                    if acc is None:
                        acc = rhs[k] = {}
                    for t, d in row.items():
                        dict_acc(acc, t, c * d)
            if lhs != rhs:
                for k in sorted(lhs.keys() | rhs.keys()):
                    lhs_k, rhs_k = lhs.get(k, empty), rhs.get(k, empty)
                    if lhs_k != rhs_k:
                        yield (i, j, k), lhs_k, rhs_k


def _nucleus_generators(rows, n, field):
    """Basis indices G, in basis order, whose left-normed words
    g₁(g₂(⋯g_k)) span the algebra: e_t joins G unless it already lies in the
    smallest subspace that contains every earlier e_g and is invariant under
    every earlier left multiplication L_g, which grows by linalg._insert."""
    echelon, gens, span, work = {}, [], [], []
    empty = {}
    for t in range(n):
        e = {t: field.one}
        if _insert(echelon, e, field) is None:
            continue
        work += [(t, v) for v in span]
        gens.append(t)
        work += [(g, e) for g in gens]
        span.append(e)
        while work:  # push each spanning vector through each L_g once
            g, v = work.pop()
            rows_g = rows[g]
            img = {}
            for m, c in v.items():
                for k, d in rows_g.get(m, empty).items():
                    dict_acc(img, k, c * d)
            if _insert(echelon, img, field) is not None:
                work += [(h, img) for h in gens]
                span.append(img)
    return gens


def _decide_algebra(a):
    """The algebra suite.

    Associativity is decided on the rows of a generating set of the left
    nucleus N = {x : (x, y, z) = 0 for all y, z}, writing (x, y, z) for
    (xy)z − x(yz).  N is a subalgebra of any algebra, associative or not:
    by the Teichmüller identity
        (ab, c, d) − (a, bc, d) + (a, b, cd) = a(b, c, d) + (a, b, c)d,
    a, b ∈ N give (ab, c, d) = 0.  _nucleus_generators picks basis elements
    G whose left-normed words g₁(g₂(⋯g_k)) span A, and each such word lies in
    the subalgebra generated by G.  So when every triple (e_g, e_j, e_k)
    with g ∈ G associates, G ⊆ N, hence N = A and every triple associates.
    When a triple of G fails, the rows of every i are swept instead (see
    _associators), so the failures and their witnesses are those of the
    sweep over all dim³ triples, in (i, j, k) order."""
    rep = Report(a.name, a.field)
    n = a.dim
    f = a.field
    pv = a.mul.pair_view()
    # rows[x][y] is the row of e_x e_y; into[x][m] lists (y, c) with c the
    # coefficient of e_m in e_x e_y
    rows = [{} for _ in range(n)]
    into = [{} for _ in range(n)]
    for (x, y), row in pv.items():
        rows[x][y] = row
        for m, c in row.items():
            into[x].setdefault(m, []).append((y, c))

    gens = _nucleus_generators(rows, n, f)
    fails = next(_associators(rows, into, gens, n), None) is not None
    rep.sweep(_ASSOCIATIVITY, _associators(rows, into, range(n), n) if fails else (),
              lambda d: vec_of_dict(d, n, f))
    if a.unit is not None:
        u = dict_of_vec(a.unit)
        rep.sweep(_UNIT_LAW, (((i,), side, {i: f.one}) for i in range(n)
                              for side in (mul_dicts(pv, u, {i: f.one}),
                                           mul_dicts(pv, {i: f.one}, u))),
                  lambda d: vec_of_dict(d, n, f))
    return rep


def _decide_coalgebra(h):
    """The coalgebra suite."""
    rep = Report(h.name, h.field)
    n = h.dim
    f = h.field
    iv = h.comul.in1_view()
    empty = {}

    rep.law(_COASSOCIATIVITY)
    rep.law(_COUNIT_LAW)
    for i in range(n):  # both laws at each i, so their failures interleave
        di = iv.get(i, empty)
        lhs = {}
        for (j, c3), w in di.items():
            for (a, b), w2 in iv.get(j, empty).items():
                dict_acc(lhs, (a, b, c3), w * w2)
        rhs = {}
        for (a, k), w in di.items():
            for (b, c3), w2 in iv.get(k, empty).items():
                dict_acc(rhs, (a, b, c3), w * w2)
        rep.sweep(_COASSOCIATIVITY, [((i,), lhs, rhs)], lambda d: sorted(d.items()))
        vl, vr = {}, {}
        for (j, k), w in di.items():
            if h.counit[j]:
                dict_acc(vl, k, h.counit[j] * w)
            if h.counit[k]:
                dict_acc(vr, j, w * h.counit[k])
        rep.sweep(_COUNIT_LAW, [((i,), vl, {i: f.one}), ((i,), vr, {i: f.one})],
                  lambda d: vec_of_dict(d, n, f))
    return rep


def _decide_hopf(h):
    """The Hopf suite: the algebra and coalgebra certificates of h, then the
    laws that tie its product, coproduct, unit, counit and antipode."""
    rep = algebra_check(h)
    rep.merge(coalgebra_check(h))
    n = h.dim
    f = h.field
    pv = h.mul.pair_view()
    iv = h.comul.in1_view()
    empty = {}
    u = h.unit_dict()

    rep.law(_DELTA_MULT)
    rep.law(_EPS_MULT)
    for i in range(n):  # both laws at each (i, j), so their failures interleave
        for j in range(n):
            prod = pv.get((i, j), empty)
            rhs = tensor_mul((h.mul, h.mul), iv.get(i, empty), iv.get(j, empty))
            rep.sweep(_DELTA_MULT, [((i, j), h.comul_apply(prod), rhs)],
                      lambda d: sorted(d.items()))
            rep.sweep(_EPS_MULT, [((i, j), h.counit_of(prod), h.counit[i] * h.counit[j])])

    rep.sweep(_DELTA_UNIT, [((), h.comul_apply(u), t2_of_dicts(u, u))],
              lambda d: sorted(d.items()))
    rep.sweep(_EPS_UNIT, [((), h.counit_of(u), f.one)])

    rep.law(_ANTIPODE_LAW)
    for i in range(n):
        left, right = {}, {}
        for (j, k), w in iv.get(i, empty).items():
            sj = h.antipode_apply({j: w})
            for t, c in mul_dicts(pv, sj, {k: f.one}).items():
                dict_acc(left, t, c)
            sk = h.antipode_apply({k: w})
            for t, c in mul_dicts(pv, {j: f.one}, sk).items():
                dict_acc(right, t, c)
        target = {t: h.counit[i] * c for t, c in u.items()} if h.counit[i] else {}
        rep.sweep(_ANTIPODE_LAW, [((i,), left, target), ((i,), right, target)],
                  lambda d: vec_of_dict(d, n, f))
    return rep


# ---------------------------------------------------------------------------
# duality (the built-in constructors are in phopf.examples)

# The coaction ⇄ dual-action layout.  Under the dual basis (p_g) of H*, a
# coaction on `side` is an operator family of H* on the other side: its map
# tensor transposed by DUAL[side][0] is the map tensor of that action
# (entry (g, i, k): coefficient of a_k in p_g acting on a_i), DUAL[side][1]
# transposes back, and DUAL[side][2] is the side of the action.
DUAL = {"right": ((2, 0, 1), (1, 2, 0), "left"),
        "left": ((1, 0, 2), (1, 0, 2), "right")}


def _dual_structure(h):
    """The structure constants of the dual of h, as the coordinate transpose
    dual_hopf describes, without certifying them."""
    return HopfData(
        h.field,
        [b + "*" for b in h.basis],
        h.comul.transpose((1, 2, 0)),
        list(h.counit),
        h.mul.transpose((2, 0, 1)),
        list(h.unit),
        mat_transpose(h.antipode),
        name=h.name + "*",
    )


def dual_hopf(h):
    """Dual Hopf algebra on the dual basis: multiplication is the transpose
    of comul (convolution), comultiplication the transpose of mul, unit the
    counit vector, counit evaluation at 1, antipode the transposed matrix.

    Certified by duality when h passes hopf_check (carried or decided):
    each law of H* transposes one of h, associativity ⇄ coassociativity,
    unit ⇄ counit, ε multiplicative ⇄ Δ(1) = 1⊗1, and Δ multiplicative,
    ε(1) = 1 and the antipode law are self-dual.  When h fails, the dual is
    swept, so the error names the dual's own law and index."""
    dual = _dual_structure(h)
    if hopf_check(h).passed:
        _record_proved(dual)
    else:
        hopf_check(dual).require("dual Hopf algebra", AssertionError)
    return dual


# ---------------------------------------------------------------------------
# ambient algebras for globalization (the classes are in phopf.ambient)

def hom_hh_a(h, a):
    """Build Hom(H⊗H, A), an ambient.Ambient whose operator families are the
    translations h ▷ and ◁ h, with convolution product
    (F*G)(k⊗k') = Σ F(k₁⊗k'₁) G(k₂⊗k'₂) and unit ε⊗ε⊗1_A.
    The product is held leg by leg: E[i,j,m]·E[i',j',m'] is the tensor of
    the products e_i*e_i' and e_j*e_j' in H* (the transpose of Δ) with
    a_m a_m', and its n⁶(dim A)³ structure constants are never stored.

    Certified through its factors: A must pass algebra_check and Δ
    coalgebra_check, else ValueError."""
    from .ambient import Ambient, LegOperator, TensorProductMul
    if a.unit is None:
        raise ValueError("hom_hh_a needs a unital coefficient algebra")
    for rep in (algebra_check(a), coalgebra_check(h)):
        rep.require("hom_hh_a needs certified factors: " + rep.subject)
    f = h.field
    conv = h.comul.transpose((1, 2, 0))
    mul = TensorProductMul((conv, conv, a.mul))
    names = ["E[%s,%s,%s]" % (h.basis[i], h.basis[j], a.basis[m])
             for i, j, m in map(mul.split, range(mul.dims[2]))]
    alg = AlgebraData(f, names, mul, mul.pure((h.counit, h.counit, a.unit), f),
                      name="Hom(%s⊗%s,%s)" % (h.name, h.name, a.name))
    return Ambient(alg, LegOperator.family(mul, 0, h.mul.transpose((1, 2, 0))),
                   LegOperator.family(mul, 1, h.mul.transpose((0, 2, 1))))


def tensor_hah(h, a):
    """Build X = H⊗A⊗H with (h⊗a⊗k)(h'⊗a'⊗k') = hh'⊗aa'⊗kk', unit
    1_H⊗1_A⊗1_H, and the coactions given by comultiplying an outer leg, held
    as the dual operator families of an ambient.Ambient (ρ's as `left_ops`,
    λ's as `right_ops`); its n⁶(dim A)³ structure constants are never stored.

    Certified through its factors: H and A must pass algebra_check, else
    ValueError."""
    from .ambient import Ambient, LegOperator, TensorProductMul
    if a.unit is None:
        raise ValueError("tensor_hah needs a unital coefficient algebra")
    for rep in (algebra_check(h), algebra_check(a)):
        rep.require("tensor_hah needs certified factors: " + rep.subject)
    f = h.field
    mul = TensorProductMul((h.mul, a.mul, h.mul))
    # the leg matrices are the dual families of the regular coactions
    dual_left = LegOperator.family(mul, 2, h.comul.transpose(DUAL["right"][0]))
    dual_right = LegOperator.family(mul, 0, h.comul.transpose(DUAL["left"][0]))
    names = ["%s⊗%s⊗%s" % (h.basis[i], a.basis[m], h.basis[j])
             for i, m, j in map(mul.split, range(mul.dims[2]))]
    alg = AlgebraData(f, names, mul, mul.pure((h.unit, a.unit, h.unit), f),
                      name="%s⊗%s⊗%s" % (h.name, a.name, h.name))
    return Ambient(alg, dual_left, dual_right)
