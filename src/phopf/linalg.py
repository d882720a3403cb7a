"""Exact linear algebra on sparse vectors, plus the sparse order-3 tensors
that hold structure constants.

A vector is a dict {index: scalar} holding its nonzero coordinates.  A
sparse operator is a list of column maps, column j = {row: coefficient}
holding the image of the j-th basis vector; it acts on vectors through
apply_cols.  A subspace is held as its reduced row-echelon basis of such
vectors (Subspace), built by one elimination routine that touches only the
rows with a nonzero in the pivot column.  A globalization candidate holds
its embedding and its operator families as such column maps.  Dense lists
of scalars remain only at the edges: the document format, a Report's
witnesses, the unit, counit and antipode of a Hopf algebra and the
matrices of a group action (col_dicts reads such a matrix as column maps
and mat_apply applies it to a dense vector; column j is the image of the
j-th basis vector), and subspace_span, which accepts dense vectors from its
callers.  Tensor3 keeps only nonzero entries, keyed (i, j, k); the meaning
of the three slots is fixed by whoever owns the tensor (multiplication:
inputs (i, j), output k; comultiplication: input i, outputs (j, k);
actions: Hopf index first).
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


def dict_of_vec(v):
    return {i: c for i, c in enumerate(v) if c}


def vec_of_dict(d, n, field):
    v = zeros(field, n)
    for i, c in d.items():
        v[i] = c
    return v


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


def mul_dicts(pv, x, y):
    """Product of two sparse vectors through a pair_view of a mul tensor."""
    out = {}
    for i, ci in x.items():
        for j, cj in y.items():
            row = pv.get((i, j))
            if not row:
                continue
            c = ci * cj
            for k, t in row.items():
                dict_acc(out, k, c * t)
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

    def to_json(self, show):
        """The entries as document rows [i, j, k, show(c)], sorted by key."""
        return [[i, j, k, show(c)] for (i, j, k), c in sorted(self.entries.items())]

    def mul_dict(self, x, y):
        """The tensor as a bilinear map on sparse vectors:
        (x, y) -> {k: Σ x_i·y_j·t_ijk}."""
        return mul_dicts(self.pair_view(), x, y)

    def __eq__(self, other):
        return (isinstance(other, Tensor3) and self.dims == other.dims
                and self.entries == other.entries)

    def __repr__(self):
        return "Tensor3(dims=%r, nnz=%d)" % (self.dims, len(self.entries))


def transport(coords, dims, images, what):
    """Restrict a structure map to a subspace or a quotient.

    `images` yields (i, j, v): v is the ambient image (a sparse vector) of
    a structure map at
    the basis key (i, j), and entry (i, j, k) of the returned Tensor3 of shape
    `dims` is coordinate k of v.  `coords` is the coordinate map of the
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
    (sparse vectors; mul(u, v) is the product of two of them)."""
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


def _residual(echelon, v):
    """v less its entry at each pivot times that pivot's row.  `echelon`
    maps each pivot column to its row, a sparse vector with 1 at the pivot
    and 0 at every other pivot and before its own, so one pass clears every
    pivot; the residual is empty iff v lies in the span."""
    w = dict(v)
    for p, c in v.items():
        r = echelon.get(p)
        if r is not None:
            for j, e in r.items():
                dict_acc(w, j, -c * e)
    return w


def _insert(echelon, v, field):
    """The one elimination step: v's residual joins `echelon` as a new row,
    normalized at its first column, which is cleared from the rows that
    have a nonzero there.  Returns the new row, or None when v lies in the
    span.  The input vector is not changed."""
    w = _residual(echelon, v)
    if not w:
        return None
    p = min(w)
    inv = field.inv(w[p])
    w = {j: inv * c for j, c in w.items()}
    for r in echelon.values():
        c = r.get(p)
        if c:
            for j, e in w.items():
                dict_acc(r, j, -c * e)
    echelon[p] = w
    return w


def rref(rows, field):
    """Reduced row-echelon form of sparse rows.  Returns (rank,
    reduced_rows, pivot_cols): the nonzero reduced rows in pivot order, as
    new dicts."""
    echelon = {}
    for v in rows:
        _insert(echelon, v, field)
    pivots = sorted(echelon)
    return len(pivots), [echelon[p] for p in pivots], pivots


def rows_of_cols(cols):
    """The rows {i: {j: c}} of the matrix with sparse columns cols[j]."""
    rows = {}
    for j, col in enumerate(cols):
        for i, c in col.items():
            rows.setdefault(i, {})[j] = c
    return rows


def nullspace(rows, field, ncols):
    """Basis of {x : r·x = 0 for every row r}, for sparse rows over ncols
    columns: one sparse vector per free column, in column order."""
    _, red, pivots = rref(rows, field)
    piv = set(pivots)
    basis = []
    for fc in range(ncols):
        if fc in piv:
            continue
        v = {fc: field.one}
        for r, pc in zip(red, pivots):
            c = r.get(fc)
            if c:
                v[pc] = -c
        basis.append(v)
    return basis


def solve(cols, target, field):
    """One solution x of Σ_j x_j·cols[j] = target, as a sparse vector, or
    None; the columns and the target are sparse vectors."""
    w = len(cols)
    aug = rows_of_cols(cols)
    for i, c in target.items():
        aug.setdefault(i, {})[w] = c
    _, red, pivots = rref(aug.values(), field)
    if w in pivots:
        return None  # inconsistent
    return {pc: r[w] for r, pc in zip(red, pivots) if w in r}


class Subspace:
    """A subspace of field^n held as its reduced row-echelon basis: `rows`,
    sparse vectors in the order of their `pivots`."""

    def __init__(self, ambient_dim, field, rows=()):
        if ambient_dim <= 0:
            raise ValueError("ambient dimension must be positive")
        self.ambient_dim = ambient_dim
        self.field = field
        _, self.rows, self.pivots = rref(rows, field)
        self._echelon = dict(zip(self.pivots, self.rows))

    @property
    def dim(self):
        return len(self.rows)

    def reduce(self, v):
        """Residual of the sparse vector v after elimination against the
        basis (empty iff v is a member)."""
        return _residual(self._echelon, v)

    def contains(self, v):
        return not self.reduce(v)

    def coords(self, v):
        """Coefficients of the sparse vector v in the rref basis, as a list
        of length dim; None if v is not a member."""
        if not self.contains(v):
            return None
        zero = self.field.zero
        return [v.get(p, zero) for p in self.pivots]

    def from_coords(self, cs):
        """The sparse vector with coefficients cs in the rref basis."""
        out = {}
        for c, r in zip(cs, self.rows):
            if c:
                for j, e in r.items():
                    dict_acc(out, j, c * e)
        return out

    def join(self, vectors):
        """Span of this subspace together with extra sparse vectors."""
        return Subspace(self.ambient_dim, self.field, self.rows + list(vectors))

    def constraint_matrix(self):
        """Sparse rows C with: v is a member  iff  C·v = 0.  They span the
        annihilator, the kernel of the basis rows."""
        return nullspace(self.rows, self.field, self.ambient_dim)

    def __eq__(self, other):
        return (isinstance(other, Subspace) and self.ambient_dim == other.ambient_dim
                and self.rows == other.rows)

    def __repr__(self):
        return "Subspace(dim=%d of %d)" % (self.dim, self.ambient_dim)


def subspace_span(vectors, ambient_dim=None, field=None):
    """Span of dense vectors (lists of scalars of length ambient_dim)."""
    vectors = list(vectors)
    if ambient_dim is None:
        if not vectors:
            raise ValueError("need at least one vector or an explicit ambient dimension")
        ambient_dim = len(vectors[0])
    return Subspace(ambient_dim, field, map(dict_of_vec, vectors))


def closure_fixpoint(seed, linear_ops, bilinear_ops):
    """Smallest subspace containing `seed`, invariant under every operator in
    linear_ops (column maps, see apply_cols) and closed under every product
    in bilinear_ops (a Tensor3 or ambient.TensorProductMul, read through
    its mul_dict) applied to pairs of members.

    Grows by image adjunction over a spanning set: the seed rows, then the
    residuals each round adds.  A round pushes only the vectors the previous
    round added through the operators, and only the pairs with at least one
    such vector through the products; images of older vectors already lie in
    the current span.  The dimension strictly increases every productive
    round, so ambient_dim + 1 rounds is a hard bound."""
    field = seed.field
    echelon = {p: dict(r) for p, r in zip(seed.pivots, seed.rows)}
    done, fresh = [], list(seed.rows)

    def images():
        for b in fresh:
            for cols in linear_ops:
                yield apply_cols(cols, b)
        for t in bilinear_ops:
            for b1 in done + fresh:
                for b2 in fresh:
                    yield t.mul_dict(b1, b2)
            for b1 in fresh:
                for b2 in done:
                    yield t.mul_dict(b1, b2)

    for _ in range(seed.ambient_dim + 1):
        # each added row is copied before the next insertion changes it
        new = [dict(w) for w in (_insert(echelon, v, field) for v in images()) if w]
        if not new:
            return Subspace(seed.ambient_dim, field, echelon.values())
        done += fresh
        fresh = new
    raise RuntimeError("closure did not stabilize within ambient_dim + 1 rounds")
