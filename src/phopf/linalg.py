"""Dense exact linear algebra plus the sparse order-3 tensors that hold
structure constants.

Vectors are plain lists of scalars, matrices are lists of rows acting on
column vectors (image of j-th basis vector = j-th column).  A sparse
operator is a list of column maps, column j = {row: coefficient} holding the
image of the j-th basis vector; it acts on sparse vectors {index: scalar}
through apply_cols.  Tensor3 keeps only nonzero entries, keyed (i, j, k);
the meaning of the three slots is fixed by whoever owns the tensor
(multiplication: inputs (i, j), output k; comultiplication: input i,
outputs (j, k); actions: Hopf index first).
"""

from itertools import count

# the source of Tensor3.state: no two states of any two tensors share a number
_STATES = count()


def zeros(field, n):
    return [field.zero] * n


def unit_vec(field, n, i):
    v = [field.zero] * n
    v[i] = field.one
    return v


def vec_is_zero(u):
    return not any(u)


def vec_eq(u, v):
    return len(u) == len(v) and all(a == b for a, b in zip(u, v))


def mat_apply(m, v, field=None):
    out = []
    for r in m:
        s = r[0] * v[0]
        for j in range(1, len(v)):
            if v[j]:
                s = s + r[j] * v[j]
        out.append(s)
    return out


def mat_transpose(a):
    return [list(col) for col in zip(*a)]


def dict_acc(out, key, c):
    """out[key] += c, dropping the key when the sum cancels."""
    if not c:
        return
    cur = out.get(key)
    new = c if cur is None else cur + c
    if new:
        out[key] = new
    elif cur is not None:
        del out[key]


def col_dicts(op):
    """Column maps of a dense matrix (column j = image of e_j)."""
    cols = [dict() for _ in op[0]] if op else []
    for i, row in enumerate(op):
        for j, c in enumerate(row):
            if c:
                cols[j][i] = c
    return cols


def apply_cols(cols, d):
    """Apply an operator given by column maps to a sparse vector dict."""
    out = {}
    for j, c in d.items():
        for i, e in cols[j].items():
            dict_acc(out, i, c * e)
    return out


class Tensor3:
    """Sparse order-3 tensor over one field.  Change its entries through
    `add` only: each change drops the cached views and gives the tensor a
    fresh `state`, a number no tensor has held before, so a record stamped
    with a state (see algebras.algebra_check) is stale once the tensor
    changes."""

    def __init__(self, dims, entries=None):
        self.dims = tuple(dims)
        self.entries = {}
        if entries:
            d0, d1, d2 = self.dims
            for key, c in entries.items():
                i, j, k = key
                if not (0 <= i < d0 and 0 <= j < d1 and 0 <= k < d2):
                    raise ValueError("tensor key %r outside dims %r" % (key, self.dims))
                if c:
                    self.entries[key] = c
        self._drop_views()

    def _drop_views(self):
        self.state = next(_STATES)
        self._pair = None
        self._partners = None
        self._in1 = None
        self._cols = None
        self._transposes = {}

    def add(self, i, j, k, c):
        if not c:
            return
        key = (i, j, k)
        cur = self.entries.get(key)
        new = c if cur is None else cur + c
        if new:
            self.entries[key] = new
        elif cur is not None:
            del self.entries[key]
        self._drop_views()

    def get(self, i, j, k, zero):
        return self.entries.get((i, j, k), zero)

    def pair_view(self):
        """{(i, j): {k: c}} — contract with the first two slots as inputs."""
        if self._pair is None:
            pv = {}
            for (i, j, k), c in self.entries.items():
                pv.setdefault((i, j), {})[k] = c
            self._pair = pv
        return self._pair

    def partner_view(self):
        """{i: {j: {k: c}}} — the pair view grouped by its first input: the
        partners j of each i with a nonzero product, and that product's row."""
        if self._partners is None:
            pt = {}
            for (i, j), row in self.pair_view().items():
                pt.setdefault(i, {})[j] = row
            self._partners = pt
        return self._partners

    def in1_view(self):
        """{i: {(j, k): c}} — contract with the first slot as input."""
        if self._in1 is None:
            iv = {}
            for (i, j, k), c in self.entries.items():
                iv.setdefault(i, {})[(j, k)] = c
            self._in1 = iv
        return self._in1

    def columns(self):
        """[i][j] = {k: c} — slice i of the first slot as an operator on
        column maps: column j is the image of e_j.  Read-only."""
        if self._cols is None:
            cols = [[{} for _ in range(self.dims[1])] for _ in range(self.dims[0])]
            for (i, j, k), c in self.entries.items():
                cols[i][j][k] = c
            self._cols = cols
        return self._cols

    def apply_in1(self, x):
        """The tensor applied through its first slot to a sparse vector x:
        {(j, k): Σ_i x_i·t_ijk}."""
        iv = self.in1_view()
        out = {}
        for i, c in x.items():
            for key, d in iv.get(i, {}).items():
                dict_acc(out, key, c * d)
        return out

    def slice_matrix(self, i, zero):
        """Dense matrix of slice i of the first slot: column j holds the
        entries (i, j, k) at rows k."""
        out = [[zero] * self.dims[1] for _ in range(self.dims[2])]
        for (j, k), c in self.in1_view().get(i, {}).items():
            out[k][j] = c
        return out

    def transpose(self, perm):
        """New tensor with new_key[t] = old_key[perm[t]]."""
        dims = tuple(self.dims[perm[t]] for t in range(3))
        out = Tensor3(dims)
        for key, c in self.entries.items():
            out.entries[(key[perm[0]], key[perm[1]], key[perm[2]])] = c
        return out

    def transpose_view(self, perm):
        """transpose(perm), built on first use and kept, like the other
        views, until the next `add`.  Read-only."""
        got = self._transposes.get(perm)
        if got is None:
            got = self._transposes[perm] = self.transpose(perm)
        return got

    def apply_bilinear(self, u, v, field):
        """Treat the tensor as a bilinear map: (u, v) -> w, w[k] = sum u_i v_j t_ijk.
        Visits the pairs of nonzero entries of u and v, or the stored input
        pairs of the tensor when there are fewer of those."""
        out = zeros(field, self.dims[2])
        pv = self.pair_view()
        nz_u = [(i, c) for i, c in enumerate(u) if c]
        nz_v = [(j, c) for j, c in enumerate(v) if c]
        if len(nz_u) * len(nz_v) < len(pv):
            terms = ((ui * vj, pv.get((i, j))) for i, ui in nz_u for j, vj in nz_v)
        else:
            terms = ((u[i] * v[j], row) for (i, j), row in pv.items() if u[i] and v[j])
        for c, row in terms:
            if row:
                for k, t in row.items():
                    out[k] = out[k] + c * t
        return out

    def __eq__(self, other):
        return (isinstance(other, Tensor3) and self.dims == other.dims
                and self.entries == other.entries)

    def __repr__(self):
        return "Tensor3(dims=%r, nnz=%d)" % (self.dims, len(self.entries))


def transport(coords, dims, images, what):
    """Restrict a structure map to a subspace or a quotient.

    `images` yields (i, j, v): v is the ambient image of a structure map at
    the basis key (i, j), and entry (i, j, k) of the returned Tensor3 of
    shape `dims` is coordinate k of v.  `coords` is the coordinate map of the
    target — Subspace.coords for a subspace, a residual projection for a
    quotient — and returns None for a vector that leaves the target, which
    raises ValueError naming `what` and the basis key."""
    out = Tensor3(dims)
    for i, j, v in images:
        cs = coords(v)
        if cs is None:
            raise ValueError("the %s does not restrict: its image at basis key "
                             "(%d, %d) leaves the target" % (what, i, j))
        for k, c in enumerate(cs):
            if c:
                out.add(i, j, k, c)
    return out


def restrict_product(coords, sections, mul):
    """Structure tensor of a product restricted to the span of `sections`
    (ambient vectors in whatever form mul(u, v) and coords accept)."""
    d = len(sections)
    return transport(coords, (d, d, d),
                     ((i, j, mul(u, v)) for i, u in enumerate(sections)
                      for j, v in enumerate(sections)), "product")


def restrict_ops(coords, sections, ops, what):
    """An operator family (column maps, see apply_cols) restricted to the
    span of `sections` (sparse dicts): entry (g, j, k) of the returned
    Tensor3 is coordinate k of op_g applied to section j.  Only nonzero
    images reach `coords`, a map of sparse dicts as in transport; a zero
    image restricts to zero."""
    d = len(sections)
    return transport(coords, (len(ops), d, d),
                     ((g, j, v) for g, op in enumerate(ops)
                      for j, v in enumerate(apply_cols(op, s) for s in sections) if v),
                     what)


def acts_by_scalars(ops, scalars, x):
    """Whether each operator g of a family (column maps) sends the sparse
    vector x to scalars[g]·x."""
    return all(apply_cols(op, x) == ({k: s * c for k, c in x.items()} if s else {})
               for op, s in zip(ops, scalars))


def rref(rows, field):
    """Reduced row-echelon form.  Returns (rank, reduced_rows, pivot_cols);
    reduced_rows keeps only the nonzero rows."""
    m = [list(r) for r in rows]
    if not m:
        return 0, [], []
    ncols = len(m[0])
    for r in m:
        if len(r) != ncols:
            raise ValueError("ragged matrix")
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


def nullspace(mat, field, ncols=None):
    """Basis of {x : mat . x = 0} (list of column vectors as lists)."""
    if not mat:
        if ncols is None:
            raise ValueError("cannot infer width of an empty matrix")
        return [unit_vec(field, ncols, i) for i in range(ncols)]
    ncols = len(mat[0])
    rank, red, pivots = rref(mat, field)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        v = zeros(field, ncols)
        v[fc] = field.one
        for r, pc in enumerate(pivots):
            v[pc] = -red[r][fc]
        basis.append(v)
    return basis


def solve(mat_cols, target, field):
    """One solution x of (columns) . x = target, or None.  mat_cols is a list
    of column vectors."""
    if not mat_cols:
        return None if any(target) else []
    n = len(target)
    aug = [[mat_cols[j][i] for j in range(len(mat_cols))] + [target[i]]
           for i in range(n)]
    rank, red, pivots = rref(aug, field)
    w = len(mat_cols)
    if w in pivots:
        return None  # inconsistent
    x = zeros(field, w)
    for r, pc in enumerate(pivots):
        x[pc] = red[r][w]
    return x


class Subspace:
    """A subspace of field^n held as a reduced row-echelon basis."""

    def __init__(self, ambient_dim, field, rows=()):
        if ambient_dim <= 0:
            raise ValueError("ambient dimension must be positive")
        self.ambient_dim = ambient_dim
        self.field = field
        _, self.rows, self.pivots = rref(list(rows), field) if rows else (0, [], [])

    @property
    def dim(self):
        return len(self.rows)

    def reduce(self, v):
        """Residual of v after elimination against the basis (zero iff member)."""
        w = list(v)
        for r, pc in zip(self.rows, self.pivots):
            c = w[pc]
            if c:
                w = [a - c * b for a, b in zip(w, r)]
        return w

    def contains(self, v):
        if len(v) != self.ambient_dim:
            raise ValueError("dimension mismatch")
        return vec_is_zero(self.reduce(v))

    def coords(self, v):
        """Coefficients of v in the rref basis; None if v is not a member."""
        if not self.contains(v):
            return None
        return [v[pc] for pc in self.pivots]

    def from_coords(self, cs):
        v = zeros(self.field, self.ambient_dim)
        for c, r in zip(cs, self.rows):
            if c:
                v = [a + c * b for a, b in zip(v, r)]
        return v

    def join(self, vectors):
        """Span of this subspace together with extra vectors."""
        return Subspace(self.ambient_dim, self.field, self.rows + [list(v) for v in vectors])

    def intersect(self, other):
        """Subspace intersection via the kernel of the stacked constraints."""
        cons = self.constraint_matrix() + other.constraint_matrix()
        if not cons:
            return Subspace(self.ambient_dim, self.field,
                            [unit_vec(self.field, self.ambient_dim, i)
                             for i in range(self.ambient_dim)])
        return Subspace(self.ambient_dim, self.field,
                        nullspace(cons, self.field, self.ambient_dim))

    def constraint_matrix(self):
        """Rows C with: v is a member  iff  C . v = 0.
        C is the linear residual map of `reduce` restricted to non-pivot rows."""
        n = self.ambient_dim
        f = self.field
        piv_set = set(self.pivots)
        out = []
        for c in range(n):
            if c in piv_set:
                continue
            # residual coordinate c of reduce(v): v[c] - sum_r v[piv_r]*row_r[c]
            row = zeros(f, n)
            row[c] = f.one
            for r, pc in zip(self.rows, self.pivots):
                row[pc] = row[pc] - r[c]
            out.append(row)
        return out

    def __eq__(self, other):
        return (isinstance(other, Subspace) and self.ambient_dim == other.ambient_dim
                and len(self.rows) == len(other.rows)
                and all(vec_eq(r, s) for r, s in zip(self.rows, other.rows)))

    def __repr__(self):
        return "Subspace(dim=%d of %d)" % (self.dim, self.ambient_dim)


def subspace_span(vectors, ambient_dim=None, field=None):
    vectors = list(vectors)
    if ambient_dim is None:
        if not vectors:
            raise ValueError("need at least one vector or an explicit ambient dimension")
        ambient_dim = len(vectors[0])
    return Subspace(ambient_dim, field, vectors)


def closure_fixpoint(seed, linear_ops, bilinear_ops):
    """Smallest subspace containing `seed`, invariant under every operator in
    linear_ops (column maps, see apply_cols) and closed under every Tensor3
    in bilinear_ops applied to pairs of members.

    Grows by image adjunction over a spanning set: the seed rows, then the
    vectors each round adds.  A round pushes only the vectors the previous
    round added through the operators, and only the pairs with at least one
    such vector through the products; images of older vectors already lie in
    the current span.  The dimension strictly increases every productive
    round, so ambient_dim + 1 rounds is a hard bound."""
    cur = seed
    field = seed.field
    n = seed.ambient_dim
    done, fresh = [], list(seed.rows)
    for _ in range(n + 1):
        images = []
        for b in fresh:
            bd = {j: c for j, c in enumerate(b) if c}
            for cols in linear_ops:
                w = zeros(field, n)
                for i, c in apply_cols(cols, bd).items():
                    w[i] = c
                images.append(w)
        for t in bilinear_ops:
            images.extend(t.apply_bilinear(b1, b2, field)
                          for b1 in done + fresh for b2 in fresh)
            images.extend(t.apply_bilinear(b1, b2, field)
                          for b1 in fresh for b2 in done)
        new = [r for r in map(cur.reduce, images) if any(r)]
        if not new:
            return cur
        cur = cur.join(new)
        done += fresh
        fresh = rref(new, field)[1]
    raise RuntimeError("closure did not stabilize within ambient_dim + 1 rounds")
