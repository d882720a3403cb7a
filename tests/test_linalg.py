"""Exact linear algebra: rref, kernels, solving, subspaces, closures."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from phopf.fields import GF, QQ
from phopf.linalg import (Subspace, Tensor3, apply_cols, closure_fixpoint,
                          col_dicts, mat_apply, nullspace,
                          restrict_product, rref, solve, subspace_span,
                          transport, unit_vec, zeros)


def _rand_matrix(rng, rows, cols, field):
    return [[field.of(rng.randrange(-3, 4)) for _ in range(cols)]
            for _ in range(rows)]


small = st.integers(min_value=-4, max_value=4)
shapes = st.tuples(st.integers(1, 5), st.integers(1, 5))


# ---------------------------------------------------------------------------
# rref


@settings(max_examples=50, deadline=None)
@given(shapes, st.integers(0, 2**31 - 1))
def test_rref_is_idempotent_and_bounded(shape, seed):
    rng = random.Random(seed)
    rows, cols = shape
    m = _rand_matrix(rng, rows, cols, QQ)
    rank, red, pivots = rref(m, QQ)
    assert rank == len(red) == len(pivots)
    assert rank <= min(rows, cols)
    rank2, red2, pivots2 = rref(red, QQ)
    assert (rank2, red2, pivots2) == (rank, red, pivots)
    for r, pc in enumerate(pivots):
        assert red[r][pc] == QQ.one
        assert all(red[other][pc] == QQ.zero for other in range(rank) if other != r)
        assert all(red[r][c] == QQ.zero for c in range(pc))


@settings(max_examples=30, deadline=None)
@given(shapes, st.integers(0, 2**31 - 1))
def test_rref_preserves_row_space(shape, seed):
    rng = random.Random(seed)
    rows, cols = shape
    m = _rand_matrix(rng, rows, cols, GF(5))
    rank, red, _ = rref(m, GF(5))
    a = Subspace(cols, GF(5), m)
    b = Subspace(cols, GF(5), red)
    assert a == b and a.dim == rank


# ---------------------------------------------------------------------------
# kernels and solving


@settings(max_examples=40, deadline=None)
@given(shapes, st.integers(0, 2**31 - 1))
def test_nullspace_vectors_are_killed(shape, seed):
    rng = random.Random(seed)
    rows, cols = shape
    m = _rand_matrix(rng, rows, cols, QQ)
    basis = nullspace(m, QQ, cols)
    rank, _, _ = rref(m, QQ)
    assert len(basis) == cols - rank
    for v in basis:
        assert all(c == QQ.zero for c in mat_apply(m, v))


@settings(max_examples=40, deadline=None)
@given(shapes, st.integers(0, 2**31 - 1))
def test_solve_reproduces_target(shape, seed):
    rng = random.Random(seed)
    rows, cols = shape
    m = _rand_matrix(rng, rows, cols, QQ)
    x = [QQ.of(rng.randrange(-3, 4)) for _ in range(cols)]
    target = mat_apply(m, x)
    columns = [[m[i][j] for i in range(rows)] for j in range(cols)]
    got = solve(columns, target, QQ)
    assert got is not None
    assert mat_apply(m, got) == target


def test_solve_detects_inconsistency():
    cols = [[QQ.one, QQ.zero]]          # span of e1 in k^2
    assert solve(cols, [QQ.zero, QQ.one], QQ) is None
    assert solve([], [QQ.zero, QQ.zero], QQ) == []
    assert solve([], [QQ.one], QQ) is None


def test_nullspace_of_empty_matrix_is_everything():
    basis = nullspace([], QQ, 3)
    assert basis == [unit_vec(QQ, 3, i) for i in range(3)]


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


def test_tensor3_apply_bilinear_matches_naive():
    rng = random.Random(7)
    t = Tensor3((3, 3, 3))
    for _ in range(10):
        t.add(rng.randrange(3), rng.randrange(3), rng.randrange(3),
              QQ.of(rng.randrange(-2, 3)))
    u = [QQ.of(rng.randrange(-2, 3)) for _ in range(3)]
    v = [QQ.of(rng.randrange(-2, 3)) for _ in range(3)]
    out = t.apply_bilinear(u, v, QQ)
    naive = zeros(QQ, 3)
    for (i, j, k), c in t.entries.items():
        naive[k] += c * u[i] * v[j]
    assert out == naive


# ---------------------------------------------------------------------------
# subspaces


def test_subspace_membership_and_coords():
    rows = [[QQ.one, QQ.zero, QQ.of(2)], [QQ.zero, QQ.one, QQ.of(-1)]]
    s = subspace_span(rows, 3, QQ)
    assert s.dim == 2
    v = [QQ.of(3), QQ.of(4), QQ.of(2)]
    assert s.contains(v)
    cs = s.coords(v)
    assert s.from_coords(cs) == v
    assert not s.contains([QQ.zero, QQ.zero, QQ.one])
    assert s.coords([QQ.zero, QQ.zero, QQ.one]) is None


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_join_and_intersect_dimensions(seed):
    rng = random.Random(seed)
    n = 5
    a = subspace_span(_rand_matrix(rng, 2, n, QQ), n, QQ)
    b = subspace_span(_rand_matrix(rng, 2, n, QQ), n, QQ)
    joined = a.join(b.rows)
    meet = a.intersect(b)
    # modular law of dimensions
    assert joined.dim + meet.dim == a.dim + b.dim
    for r in meet.rows:
        assert a.contains(r) and b.contains(r)
    for r in a.rows:
        assert joined.contains(r)


def test_constraint_matrix_cuts_exactly():
    s = subspace_span([[QQ.one, QQ.one, QQ.zero]], 3, QQ)
    c = s.constraint_matrix()
    assert len(c) == 2
    for r in s.rows:
        assert all(x == QQ.zero for x in mat_apply(c, r))
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
    assert span2.dim == 1 and span2.contains(unit_vec(f, n, 0))
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
            w = prod.apply_bilinear(u, v, f)
            assert span4.contains(w)


def _closure_all_rows(seed, linear_ops, bilinear_ops):
    """Reference closure: every round pushes every row of the current span
    through every dense matrix and every pair of rows through every product."""
    cur = seed
    field = seed.field
    for _ in range(seed.ambient_dim + 1):
        new = []
        for b in cur.rows:
            for op in linear_ops:
                w = [sum((op[i][j] * b[j] for j in range(len(b)) if b[j]),
                         start=field.zero) for i in range(len(op))]
                if not cur.contains(w):
                    new.append(w)
        for t in bilinear_ops:
            for b1 in cur.rows:
                for b2 in cur.rows:
                    w = t.apply_bilinear(b1, b2, field)
                    if not cur.contains(w):
                        new.append(w)
        if not new:
            return cur
        nxt = cur.join(new)
        if nxt.dim == cur.dim:
            return cur
        cur = nxt
    raise RuntimeError("closure did not stabilize within ambient_dim + 1 rounds")


def _sparse_matrix(rng, n, field, density):
    return [[field.of(rng.randrange(-2, 3)) if rng.random() < density else field.zero
             for _ in range(n)] for _ in range(n)]


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**31 - 1), st.sampled_from([QQ, GF(5)]))
def test_closure_fixpoint_matches_the_all_rows_loop(seed, field):
    rng = random.Random(seed)
    n = rng.randrange(3, 8)
    start = Subspace(n, field, [unit_vec(field, n, 0)]
                     + [[field.of(rng.randrange(-2, 3)) if rng.random() < 0.3 else field.zero
                         for _ in range(n)] for _ in range(rng.randrange(0, 2))])
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
    got = closure_fixpoint(start, [col_dicts(op) for op in ops], prods)
    assert got == _closure_all_rows(start, ops, prods)


def test_closure_fixpoint_pushes_new_vectors_against_old_ones():
    f = QQ
    seed = subspace_span([unit_vec(f, 4, 0)], 4, f)
    prod = Tensor3((4, 4, 4), {(0, 0, 1): f.one, (1, 0, 2): f.one})
    # round 1 adds e1 = e0·e0; e2 = e1·e0 needs the new vector on the left
    assert closure_fixpoint(seed, [], [prod]).dim == 3
    shift = [[f.zero] * 4 for _ in range(4)]
    shift[3][1] = f.one                               # e1 -> e3 only
    # e3 is the image of e1, which only the product adds
    full = Subspace(4, f, [unit_vec(f, 4, i) for i in range(4)])
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
    span = Subspace(3, QQ, [[1, 0, 1], [0, 1, 0]])
    t = transport(span.coords, (1, 2, 2),
                  [(0, 0, [0, 3, 0]), (0, 1, [2, 1, 2])], "operator")
    assert t.entries == {(0, 0, 1): 3, (0, 1, 0): 2, (0, 1, 1): 1}
    assert t.slice_matrix(0, QQ.zero) == [[0, 2], [3, 1]]


def test_transport_names_the_map_and_key_that_escape():
    span = Subspace(3, QQ, [[1, 0, 1], [0, 1, 0]])
    with pytest.raises(ValueError, match=r"operator .* basis key \(0, 1\)"):
        transport(span.coords, (1, 2, 2),
                  [(0, 0, [0, 3, 0]), (0, 1, [1, 0, 0])], "operator")


def test_restrict_product_on_a_subalgebra_and_a_quotient():
    # k[x]/(x^3) on 1, x, x^2: span{x, x^2} is closed, span{x} is not,
    # and the quotient by span{x^2} is k[x]/(x^2)
    mul = Tensor3((3, 3, 3), {(i, j, i + j): QQ.one for i in range(3)
                              for j in range(3) if i + j < 3})

    def prod(u, v):
        return mul.apply_bilinear(u, v, QQ)

    ideal = Subspace(3, QQ, [unit_vec(QQ, 3, 1), unit_vec(QQ, 3, 2)])
    assert restrict_product(ideal.coords, ideal.rows, prod).entries == {(0, 0, 1): 1}
    line = Subspace(3, QQ, [unit_vec(QQ, 3, 1)])
    with pytest.raises(ValueError, match=r"product .* basis key \(0, 0\)"):
        restrict_product(line.coords, line.rows, prod)
    top = Subspace(3, QQ, [unit_vec(QQ, 3, 2)])

    def project(v):
        return top.reduce(v)[:2]

    quotient = restrict_product(project, [unit_vec(QQ, 3, 0), unit_vec(QQ, 3, 1)], prod)
    assert quotient.entries == {(0, 0, 0): 1, (0, 1, 1): 1, (1, 0, 1): 1}
