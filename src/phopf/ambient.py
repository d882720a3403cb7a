"""The ambients Hom(H⊗H, A) and H⊗A⊗H of the globalizations, as built by
algebras.hom_hh_a and algebras.tensor_hah.

An ambient is certified through its factors, not by sweeping its own
(dim)³ basis triples: convolution into an associative algebra along a
coassociative coalgebra is associative, with unit (k⊗k') ↦ ε(k)ε(k')1_A
when Δ is counital and A unital; a tensor product of associative unital
algebras is associative and unital.  Both ambients are three-leg tensor
products of their factors, so their multiplication is held leg by leg
(TensorProductMul) and their N³ structure constants are never written
out.  The tests keep the ambient sweep, and the loops that wrote the
table, as oracles on the built-in ambients.
"""

from collections.abc import Mapping, Sequence
from math import prod

from .algebras import tensor_mul
from .linalg import Tensor3, vec_of_dict


class _LegEntries(Mapping):
    """The structure constants of a TensorProductMul as a read-only mapping
    {(x, y, z): c}.  Its length and single entries are read off the legs;
    iterating it writes out the table (see TensorProductMul.table)."""

    def __init__(self, mul):
        self._mul = mul

    def __len__(self):
        n = 1
        for t in self._mul.legs:
            n *= len(t.entries)
        return n

    def __getitem__(self, key):
        split = self._mul.split
        c = None
        for t, leg_key in zip(self._mul.legs, zip(*map(split, key))):
            d = t.entries.get(leg_key)
            if d is None:
                raise KeyError(key)
            c = d if c is None else c * d
        return c

    def __iter__(self):
        return iter(self._mul.table().entries)


class TensorProductMul:
    """The multiplication of a tensor product of algebras A₁⊗…⊗A_r, held as
    one square mul tensor per leg (`legs`).  A basis index of the product is
    the mixed-radix number of its leg tuple, first leg most significant
    (`flat` and `split` convert), and the product of two basis elements is
    the tensor of the leg products: (a⊗b⊗…)(a'⊗b'⊗…) = aa'⊗bb'⊗….

    Products run through tensor_mul over the legs, so the N³ table of the
    product (N the product of the leg dimensions) is never stored.  `entries`
    gives its length and single entries from the legs; `table`, `pair_view`
    and iterating `entries` write the table out, for oracles only, and each
    such write adds one to `materializations`."""

    materializations = 0

    def __init__(self, legs):
        self.legs = tuple(legs)
        self.radix = tuple(t.dims[2] for t in self.legs)
        n = 1
        for t, d in zip(self.legs, self.radix):
            if t.dims != (d, d, d):
                raise ValueError("leg tensor shaped %r" % (t.dims,))
            n *= d
        self.dims = (n, n, n)
        self.entries = _LegEntries(self)

    def flat(self, key):
        x = 0
        for d, i in zip(self.radix, key):
            x = x * d + i
        return x

    def split(self, x):
        key = []
        for d in reversed(self.radix):
            x, i = divmod(x, d)
            key.append(i)
        return tuple(reversed(key))

    def mul_dict(self, x, y):
        """Product of two sparse elements {flat index: scalar}."""
        split = self.split
        prod = tensor_mul(self.legs, {split(i): c for i, c in x.items()},
                          {split(j): c for j, c in y.items()})
        return {self.flat(k): c for k, c in prod.items()}

    def pure(self, vecs, field):
        """The pure tensor v₁⊗v₂⊗… of one dense vector per leg, as a dense
        vector of the product."""
        terms = [(0, field.one)]
        for d, v in zip(self.radix, vecs):
            terms = [(x * d + i, c * e) for x, c in terms for i, e in enumerate(v) if e]
        return vec_of_dict(dict(terms), self.dims[2], field)

    def table(self):
        """The structure constants written out as a Tensor3, built afresh
        and counted in `materializations`."""
        TensorProductMul.materializations += 1
        terms = [((0, 0, 0), None)]
        for t, d in zip(self.legs, self.radix):
            terms = [((x * d + i, y * d + j, z * d + k), e if c is None else c * e)
                     for (x, y, z), c in terms for (i, j, k), e in t.entries.items()]
        return Tensor3(self.dims, dict(terms))

    def pair_view(self):
        return self.table().pair_view()

    @property
    def state(self):
        """The states of the legs (see Tensor3.state)."""
        return tuple(t.state for t in self.legs)

    def __repr__(self):
        return "TensorProductMul(radix=%r, nnz=%d)" % (self.radix, len(self.entries))


class LegOperator(Sequence):
    """An operator on the basis of a TensorProductMul that acts on one leg by
    a square leg matrix and as the identity on the other legs.  `cols` holds
    the leg matrix as column maps (column j = {row: c}, one slice of a
    Tensor3, see Tensor3.columns).  The operator is the sequence of its
    column maps on the whole product, as linalg.apply_cols reads them: op[x]
    is the image of basis element x, written out when it is read, and
    len(op) is the dimension of the product."""

    def __init__(self, mul, leg, cols):
        d = mul.radix[leg]
        if len(cols) != d or any(k >= d for col in cols for k in col):
            raise ValueError("leg matrix is not square of size %d" % d)
        self.leg = leg
        self.cols = cols
        self._d, self._stride, self._n = d, prod(mul.radix[leg + 1:]), mul.dims[2]

    @classmethod
    def family(cls, mul, leg, t):
        """One operator per slice of the Tensor3 t: slice g is the leg
        matrix of operator g."""
        return [cls(mul, leg, cols) for cols in t.columns()]

    def __len__(self):
        return self._n

    def __getitem__(self, x):
        if not 0 <= x < self._n:
            raise IndexError(x)
        s = self._stride
        i = x // s % self._d
        return {x + (k - i) * s: c for k, c in self.cols[i].items()}


class HomHHA:
    """The convolution algebra Hom(H⊗H, A) together with the two families of
    translation operators (h ▷ f)(k⊗k') = f(kh⊗k') and (f ◁ h)(k⊗k') =
    f(k⊗hk'), one operator per basis element of H on each side.

    Basis functional E[i,j,m] sends e_i⊗e_j to a_m and every other basis pair
    to 0.  Under convolution Hom(H⊗H, A) is the tensor product H*⊗H*⊗A, so
    the algebra's multiplication is the TensorProductMul with legs
    (Δᵀ, Δᵀ, μ_A) in index order (i, j, m).  A translation moves one leg
    only, h ▷ the first and ◁ h the second, so each is a LegOperator whose
    leg matrix is read off μ_H.
    """

    def __init__(self, algebra, left_ops, right_ops):
        self.algebra = algebra
        self.left_ops = left_ops
        self.right_ops = right_ops

    def index(self, i, j, m):
        return self.algebra.mul.flat((i, j, m))


class TensorHAH:
    """The componentwise-product algebra on H⊗A⊗H with the outer-leg
    comultiplications as coactions, ρ = I⊗I⊗Δ on the right leg and
    λ = Δ⊗I⊗I on the left leg, held as their dual-basis translation
    operators f▷(h⊗a⊗k) = h⊗a⊗k₁ f(k₂) and (h⊗a⊗k)◁f = f(h₁) h₂⊗a⊗k, one
    operator per dual basis element on each side: ρ(x) = Σ_g (p_g▷x)⊗h_g
    and λ(x) = Σ_g h_g⊗(x◁p_g).  The algebra's multiplication is the
    TensorProductMul with legs (μ_H, μ_A, μ_H) in index order (i, m, j);
    f▷ moves the last leg and ◁f the first, so each is a LegOperator whose
    leg matrix is read off Δ.
    """

    def __init__(self, algebra, dual_left_ops, dual_right_ops):
        self.algebra = algebra
        self.dual_left_ops = dual_left_ops
        self.dual_right_ops = dual_right_ops

    def index(self, i, m, j):
        return self.algebra.mul.flat((i, m, j))
