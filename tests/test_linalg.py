"""Exact linear algebra: rref, kernels, solving, subspaces, closures, each
against the dense row-list routines linalg ran before its vectors were
sparse."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from phopf.fields import GF, QQ
from phopf.linalg import (Subspace, Tensor3, apply_cols, closure_fixpoint,
                          col_dicts, dict_of_vec, mat_apply, nullspace,
                          restrict_product, rref, solve, subspace_span,
                          transport, unit_vec, vec_of_dict)


def zeros(field, n):
    return [field.zero] * n


def _rand_matrix(rng, rows, cols, field):
    return [[field.of(rng.randrange(-3, 4)) for _ in range(cols)]
            for _ in range(rows)]


small = st.integers(min_value=-4, max_value=4)
shapes = st.tuples(st.integers(1, 5), st.integers(1, 5))
fields = st.sampled_from([QQ, GF(5)])


# ---------------------------------------------------------------------------
# the dense references: elimination, membership, coordinates and closure on
# lists of scalars


def dense_rref(rows, field):
    """Reduced row-echelon form of dense rows: (rank, nonzero reduced rows,
    pivot columns)."""
    m = [list(r) for r in rows]
    if not m:
        return 0, [], []
    ncols = len(m[0])
    piv_r = 0
    pivots = []
    for c in range(ncols):
        pr = None
        for r in range(piv_r, len(m)):
            if m[r][c]:
                pr = r
                break
        if pr is None:
            continue
        m[piv_r], m[pr] = m[pr], m[piv_r]
        inv = field.inv(m[piv_r][c])
        m[piv_r] = [inv * x for x in m[piv_r]]
        for r in range(len(m)):
            if r != piv_r and m[r][c]:
                f = m[r][c]
                m[r] = [a - f * b for a, b in zip(m[r], m[piv_r])]
        pivots.append(c)
        piv_r += 1
        if piv_r == len(m):
            break
    return piv_r, m[:piv_r], pivots


def dense_reduce(red, pivots, v):
    """Residual of the dense v after elimination against reduced rows."""
    w = list(v)
    for r, pc in zip(red, pivots):
        c = w[pc]
        if c:
            w = [a - c * b for a, b in zip(w, r)]
    return w


def dense_coords(red, pivots, v):
    if any(dense_reduce(red, pivots, v)):
        return None
    return [v[pc] for pc in pivots]


def dense_bilinear(t, u, v, field):
    """w[k] = Σ u_i·v_j·t_ijk on dense vectors."""
    out = zeros(field, t.dims[2])
    for (i, j, k), c in t.entries.items():
        if u[i] and v[j]:
            out[k] = out[k] + u[i] * v[j] * c
    return out


def dense_closure_fixpoint(seed_rows, field, ops, bilinear_ops):
    """The closure of the span of dense seed rows under dense matrices and
    products, pushing each round only the vectors the last round added:
    returns (reduced rows, pivots)."""
    _, red, pivots = dense_rref(seed_rows, field)
    n = len(seed_rows[0])
    done, fresh = [], list(red)
    for _ in range(n + 1):
        images = [mat_apply(op, b) for b in fresh for op in ops]
        for t in bilinear_ops:
            images.extend(dense_bilinear(t, b1, b2, field)
                          for b1 in done + fresh for b2 in fresh)
            images.extend(dense_bilinear(t, b1, b2, field)
                          for b1 in fresh for b2 in done)
        new = [r for r in (dense_reduce(red, pivots, w) for w in images) if any(r)]
        if not new:
            return red, pivots
        _, red, pivots = dense_rref(red + new, field)
        done += fresh
        fresh = dense_rref(new, field)[1]
    raise RuntimeError("closure did not stabilize within ambient_dim + 1 rounds")


def _dense_rows(span):
    return [vec_of_dict(r, span.ambient_dim, span.field) for r in span.rows]


def _rows_with_relations(rng, rows, cols, field):
    """Random dense rows, then zero rows, repeated rows and combinations of
    earlier rows, so the rank is often below the row count."""
    m = _rand_matrix(rng, rows, cols, field)
    if field.p is None:
        m = [[c * Fraction(1, 2) if rng.random() < 0.2 else c for c in r] for r in m]
    for _ in range(rng.randrange(0, 4)):
        kind = rng.choice(["zero", "repeat", "combine"])
        if kind == "zero" or not m:
            m.append(zeros(field, cols))
        elif kind == "repeat":
            m.append(list(rng.choice(m)))
        else:
            a, b = rng.choice(m), rng.choice(m)
            c = field.of(rng.randrange(-2, 3))
            m.append([x + c * y for x, y in zip(a, b)])
    rng.shuffle(m)
    return m


# ---------------------------------------------------------------------------
# rref


@settings(max_examples=50, deadline=None)
@given(shapes, st.integers(0, 2**31 - 1))
def test_rref_is_idempotent_and_bounded(shape, seed):
    rng = random.Random(seed)
    rows, cols = shape
    m = [dict_of_vec(r) for r in _rand_matrix(rng, rows, cols, QQ)]
    rank, red, pivots = rref(m, QQ)
    assert rank == len(red) == len(pivots)
    assert rank <= min(rows, cols)
    rank2, red2, pivots2 = rref(red, QQ)
    assert (rank2, red2, pivots2) == (rank, red, pivots)
    for r, pc in enumerate(pivots):
        assert red[r][pc] == QQ.one and min(red[r]) == pc
        assert all(pc not in red[other] for other in range(rank) if other != r)


@settings(max_examples=30, deadline=None)
@given(shapes, st.integers(0, 2**31 - 1))
def test_rref_preserves_row_space(shape, seed):
    rng = random.Random(seed)
    rows, cols = shape
    m = [dict_of_vec(r) for r in _rand_matrix(rng, rows, cols, GF(5))]
    rank, red, _ = rref(m, GF(5))
    a = Subspace(cols, GF(5), m)
    b = Subspace(cols, GF(5), red)
    assert a == b and a.dim == rank


@settings(max_examples=100, deadline=None)
@given(shapes, st.integers(0, 2**31 - 1), fields)
def test_sparse_elimination_matches_the_dense_reference(shape, seed, field):
    rng = random.Random(seed)
    rows, cols = shape
    m = _rows_with_relations(rng, rows, cols, field)
    rank, red, pivots = rref(map(dict_of_vec, m), field)
    d_rank, d_red, d_pivots = dense_rref(m, field)
    assert (rank, pivots) == (d_rank, d_pivots)
    assert [vec_of_dict(r, cols, field) for r in red] == d_red
    span = Subspace(cols, field, map(dict_of_vec, m))
    assert _dense_rows(span) == d_red and span.pivots == d_pivots
    # members (combinations of the rows) and arbitrary vectors
    probes = _rand_matrix(rng, 4, cols, field)
    for _ in range(4):
        v = zeros(field, cols)
        for r in m:
            c = field.of(rng.randrange(-2, 3))
            v = [x + c * y for x, y in zip(v, r)]
        probes.append(v)
    for v in probes:
        d = dict_of_vec(v)
        residual = dense_reduce(d_red, d_pivots, v)
        assert vec_of_dict(span.reduce(d), cols, field) == residual
        assert span.contains(d) == (not any(residual))
        assert span.coords(d) == dense_coords(d_red, d_pivots, v)
        if span.contains(d):
            assert span.from_coords(span.coords(d)) == d


# ---------------------------------------------------------------------------
# kernels and solving


@settings(max_examples=40, deadline=None)
@given(shapes, st.integers(0, 2**31 - 1))
def test_nullspace_vectors_are_killed(shape, seed):
    rng = random.Random(seed)
    rows, cols = shape
    m = _rand_matrix(rng, rows, cols, QQ)
    basis = nullspace(map(dict_of_vec, m), QQ, cols)
    rank, _, _ = dense_rref(m, QQ)
    assert len(basis) == cols - rank
    for v in basis:
        assert all(c == QQ.zero for c in mat_apply(m, vec_of_dict(v, cols, QQ)))


@settings(max_examples=40, deadline=None)
@given(shapes, st.integers(0, 2**31 - 1))
def test_solve_reproduces_target(shape, seed):
    rng = random.Random(seed)
    rows, cols = shape
    m = _rand_matrix(rng, rows, cols, QQ)
    x = [QQ.of(rng.randrange(-3, 4)) for _ in range(cols)]
    target = mat_apply(m, x)
    columns = [{i: m[i][j] for i in range(rows) if m[i][j]} for j in range(cols)]
    got = solve(columns, dict_of_vec(target), QQ)
    assert got is not None
    assert mat_apply(m, vec_of_dict(got, cols, QQ)) == target


def test_solve_detects_inconsistency():
    cols = [{0: QQ.one}]                # span of e0 in k^2
    assert solve(cols, {1: QQ.one}, QQ) is None
    assert solve([], {}, QQ) == {}
    assert solve([], {0: QQ.one}, QQ) is None


def test_nullspace_of_empty_matrix_is_everything():
    assert nullspace([], QQ, 3) == [{i: QQ.one} for i in range(3)]


# ---------------------------------------------------------------------------
# Tensor3


def test_tensor3_views_and_transpose():
    t = Tensor3((2, 3, 2))
    t.add(0, 1, 1, QQ.of(2))
    t.add(1, 2, 0, QQ.of(-1))
    t.add(0, 1, 1, QQ.of(-2))   # cancels the first entry
    assert (0, 1, 1) not in t.entries
    assert t.entries == {(1, 2, 0): QQ.of(-1)}
    assert t.pair_view() == {(1, 2): {0: QQ.of(-1)}}
    assert t.in1_view() == {1: {(2, 0): QQ.of(-1)}}
    s = t.transpose((2, 0, 1))
    assert s.dims == (2, 2, 3)
    assert s.entries == {(0, 1, 2): QQ.of(-1)}
    assert t.partner_view() == {1: {2: {0: QQ.of(-1)}}}
    assert t.apply_in1({0: QQ.one, 1: QQ.of(3)}) == {(2, 0): QQ.of(-3)}
    t.add(0, 2, 1, QQ.one)      # the cached views follow the new entry
    assert t.partner_view() == {1: {2: {0: QQ.of(-1)}}, 0: {2: {1: QQ.one}}}
    assert t.apply_in1({0: QQ.one}) == {(2, 1): QQ.one}


def test_tensor3_columns_read_each_first_slot_as_column_maps():
    t = Tensor3((2, 3, 2), {(0, 1, 1): QQ.of(2), (1, 2, 0): QQ.of(-1),
                            (1, 2, 1): QQ.one})
    assert t.columns() == [[{}, {1: QQ.of(2)}, {}], [{}, {}, {0: QQ.of(-1), 1: QQ.one}]]
    for i in range(2):
        assert apply_cols(t.columns()[i], {2: QQ.of(3)}) == \
            {k: 3 * c for (j, k), c in t.in1_view().get(i, {}).items() if j == 2}
    t.add(0, 0, 1, QQ.one)      # the cached view follows the new entry
    assert t.columns()[0][0] == {1: QQ.one}


def test_tensor3_transpose_view_is_kept_until_the_next_add():
    t = Tensor3((2, 3, 2), {(1, 2, 0): QQ.of(-1)})
    view = t.transpose_view((2, 0, 1))
    assert view == t.transpose((2, 0, 1)) and t.transpose_view((2, 0, 1)) is view
    assert t.transpose_view((1, 0, 2)) == t.transpose((1, 0, 2))
    t.add(0, 1, 1, QQ.one)      # a changed map never serves the old view
    assert t.transpose_view((2, 0, 1)).entries == {(0, 1, 2): QQ.of(-1),
                                                   (1, 0, 1): QQ.one}


@pytest.mark.parametrize("key", [(2, 0, 0), (0, 3, 0), (0, 0, -1)])
def test_tensor3_rejects_keys_outside_its_dims(key):
    with pytest.raises(ValueError, match="outside dims"):
        Tensor3((2, 3, 2), {key: QQ.one})


def test_tensor3_mul_dict_matches_naive():
    rng = random.Random(7)
    t = Tensor3((3, 3, 3))
    for _ in range(10):
        t.add(rng.randrange(3), rng.randrange(3), rng.randrange(3),
              QQ.of(rng.randrange(-2, 3)))
    u = [QQ.of(rng.randrange(-2, 3)) for _ in range(3)]
    v = [QQ.of(rng.randrange(-2, 3)) for _ in range(3)]
    out = t.mul_dict(dict_of_vec(u), dict_of_vec(v))
    naive = zeros(QQ, 3)
    for (i, j, k), c in t.entries.items():
        naive[k] += c * u[i] * v[j]
    assert out == dict_of_vec(naive)


# ---------------------------------------------------------------------------
# subspaces


def test_subspace_membership_and_coords():
    rows = [[QQ.one, QQ.zero, QQ.of(2)], [QQ.zero, QQ.one, QQ.of(-1)]]
    s = subspace_span(rows, 3, QQ)
    assert s.dim == 2
    v = {0: QQ.of(3), 1: QQ.of(4), 2: QQ.of(2)}
    assert s.contains(v)
    cs = s.coords(v)
    assert cs == [3, 4] and s.from_coords(cs) == v
    assert not s.contains({2: QQ.one})
    assert s.coords({2: QQ.one}) is None
    assert s.coords({}) == [0, 0] and s.from_coords([0, 0]) == {}


def test_subspace_span_needs_its_dimension_and_field():
    # the field used to default to None, so any nonzero vector crashed with
    # an AttributeError inside the elimination
    with pytest.raises(TypeError):
        subspace_span([[1, 0]], 2)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**31 - 1), fields)
def test_join_dimensions(seed, field):
    rng = random.Random(seed)
    n = 5
    ma, mb = (_rows_with_relations(rng, 2, n, field) for _ in range(2))
    a = subspace_span(ma, n, field)
    b = subspace_span(mb, n, field)
    joined = a.join(b.rows)
    assert joined.dim == dense_rref(ma + mb, field)[0]
    assert joined == subspace_span(ma + mb, n, field)
    for r in a.rows + b.rows:
        assert joined.contains(r)


def test_constraint_matrix_cuts_exactly():
    s = subspace_span([[QQ.one, QQ.one, QQ.zero]], 3, QQ)
    c = s.constraint_matrix()
    assert len(c) == 2
    dense_c = [vec_of_dict(row, 3, QQ) for row in c]
    for r in _dense_rows(s):
        assert all(x == QQ.zero for x in mat_apply(dense_c, r))
    back = Subspace(3, QQ, nullspace(c, QQ, 3))
    assert back == s


# ---------------------------------------------------------------------------
# closures


def test_closure_fixpoint_is_closed_and_minimal():
    f = QQ
    n = 4
    shift = [[f.zero] * n for _ in range(n)]       # cyclic shift operator
    for i in range(n):
        shift[(i + 1) % n][i] = f.one
    seed = subspace_span([unit_vec(f, n, 0)], n, f)
    span = closure_fixpoint(seed, [col_dicts(shift)], [])
    assert span.dim == n
    proj = [[f.zero] * n for _ in range(n)]        # kills everything
    span2 = closure_fixpoint(seed, [col_dicts(proj)], [])
    assert span2.dim == 1 and span2.contains({0: f.one})
    # closure under a bilinear product: coordinatewise multiplication
    prod = Tensor3((n, n, n))
    for i in range(n):
        prod.add(i, i, i, f.one)
    vec = [f.one, f.one, f.zero, f.zero]
    span3 = closure_fixpoint(subspace_span([vec], n, f), [], [prod])
    assert span3.dim == 1
    span4 = closure_fixpoint(subspace_span([vec, unit_vec(f, n, 1)], n, f),
                             [], [prod])
    assert span4.dim == 2
    for u in span4.rows:
        for v in span4.rows:
            assert span4.contains(prod.mul_dict(u, v))


def _closure_all_rows(seed_rows, field, linear_ops, bilinear_ops):
    """Reference closure on dense rows: every round pushes every row of the
    current span through every dense matrix and every pair of rows through
    every product.  Returns (reduced rows, pivots)."""
    _, red, pivots = dense_rref(seed_rows, field)
    for _ in range(len(seed_rows[0]) + 1):
        new = [w for w in (mat_apply(op, b) for b in red for op in linear_ops)
               if any(dense_reduce(red, pivots, w))]
        for t in bilinear_ops:
            new += [w for w in (dense_bilinear(t, b1, b2, field) for b1 in red for b2 in red)
                    if any(dense_reduce(red, pivots, w))]
        if not new:
            return red, pivots
        _, red, pivots = dense_rref(red + new, field)
    raise RuntimeError("closure did not stabilize within ambient_dim + 1 rounds")


def _sparse_matrix(rng, n, field, density):
    return [[field.of(rng.randrange(-2, 3)) if rng.random() < density else field.zero
             for _ in range(n)] for _ in range(n)]


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**31 - 1), fields)
def test_closure_fixpoint_matches_the_dense_references(seed, field):
    rng = random.Random(seed)
    n = rng.randrange(3, 8)
    seed_rows = [unit_vec(field, n, 0)] + _rows_with_relations(
        rng, rng.randrange(0, 2), n, field)
    ops = [_sparse_matrix(rng, n, field, 1.0 / n) for _ in range(rng.randrange(0, 3))]
    prods = []
    for _ in range(rng.randrange(0, 2) if ops else 1):
        # products of e_i and e_j (j <= i) land on higher indices: the span
        # grows over several rounds, and new-times-old pairs are the
        # productive ones
        t = Tensor3((n, n, n))
        for _ in range(rng.randrange(2, 2 * n)):
            i, j = rng.randrange(n - 1), rng.randrange(n - 1)
            if j <= i:
                t.add(i, j, rng.randrange(i + 1, n), field.of(rng.randrange(1, 4)))
        prods.append(t)
    got = closure_fixpoint(subspace_span(seed_rows, n, field),
                           [col_dicts(op) for op in ops], prods)
    want = dense_closure_fixpoint(seed_rows, field, ops, prods)
    assert (_dense_rows(got), got.pivots) == want
    assert want == _closure_all_rows(seed_rows, field, ops, prods)


def test_closure_fixpoint_pushes_new_vectors_against_old_ones():
    f = QQ
    seed = subspace_span([unit_vec(f, 4, 0)], 4, f)
    prod = Tensor3((4, 4, 4), {(0, 0, 1): f.one, (1, 0, 2): f.one})
    # round 1 adds e1 = e0·e0; e2 = e1·e0 needs the new vector on the left
    assert closure_fixpoint(seed, [], [prod]).dim == 3
    shift = [[f.zero] * 4 for _ in range(4)]
    shift[3][1] = f.one                               # e1 -> e3 only
    # e3 is the image of e1, which only the product adds
    full = Subspace(4, f, [{i: f.one} for i in range(4)])
    assert closure_fixpoint(seed, [col_dicts(shift)], [prod]) == full


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_apply_cols_matches_mat_apply(seed):
    rng = random.Random(seed)
    m = _sparse_matrix(rng, 5, GF(7), 0.4)
    v = [GF(7).of(rng.randrange(7)) for _ in range(5)]
    got = apply_cols(col_dicts(m), {j: c for j, c in enumerate(v) if c})
    assert got == {i: c for i, c in enumerate(mat_apply(m, v)) if c}


def test_transport_writes_images_in_target_coordinates():
    # target: span{e0 + e2, e1} in QQ^3; coords read the pivot entries
    span = Subspace(3, QQ, [{0: 1, 2: 1}, {1: 1}])
    t = transport(span.coords, (1, 2, 2),
                  [(0, 0, {1: 3}), (0, 1, {0: 2, 1: 1, 2: 2})], "operator")
    assert t.entries == {(0, 0, 1): 3, (0, 1, 0): 2, (0, 1, 1): 1}
    assert t.slice_matrix(0, QQ.zero) == [[0, 2], [3, 1]]


def test_transport_names_the_map_and_key_that_escape():
    span = Subspace(3, QQ, [{0: 1, 2: 1}, {1: 1}])
    with pytest.raises(ValueError, match=r"operator .* basis key \(0, 1\)"):
        transport(span.coords, (1, 2, 2),
                  [(0, 0, {1: 3}), (0, 1, {0: 1})], "operator")


def test_restrict_product_on_a_subalgebra_and_a_quotient():
    # k[x]/(x^3) on 1, x, x^2: span{x, x^2} is closed, span{x} is not,
    # and the quotient by span{x^2} is k[x]/(x^2)
    mul = Tensor3((3, 3, 3), {(i, j, i + j): QQ.one for i in range(3)
                              for j in range(3) if i + j < 3})
    ideal = Subspace(3, QQ, [{1: QQ.one}, {2: QQ.one}])
    assert restrict_product(ideal.coords, ideal.rows, mul.mul_dict).entries == \
        {(0, 0, 1): 1}
    line = Subspace(3, QQ, [{1: QQ.one}])
    with pytest.raises(ValueError, match=r"product .* basis key \(0, 0\)"):
        restrict_product(line.coords, line.rows, mul.mul_dict)
    top = Subspace(3, QQ, [{2: QQ.one}])

    def project(v):
        res = top.reduce(v)
        return [res.get(c, QQ.zero) for c in range(2)]

    quotient = restrict_product(project, [{0: QQ.one}, {1: QQ.one}], mul.mul_dict)
    assert quotient.entries == {(0, 0, 0): 1, (0, 1, 1): 1, (1, 0, 1): 1}
