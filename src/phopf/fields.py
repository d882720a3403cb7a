"""Exact scalars: arbitrary-precision rationals and prime-field residues.

A Field object knows how to build, parse, invert and print scalars.  A
rational scalar is a Python int when it is integral and a stdlib Fraction
(reduced, positive denominator) otherwise: `QQ.zero`, `QQ.one`, `QQ.of` and
`QQ.parse` return ints for integral values, so integral structure constants
(kG, kG*, H4, ...) are multiplied as ints.  Arithmetic is not renormalised:
int and Fraction mix exactly, and they agree on equality, hashing and
`Field.show`, so a product of Fractions that happens to be integral is as
good a scalar as the int.  Prime-field scalars are ModP residues stored in
[0, p).  Both kinds support +, -, * and truthiness (nonzero test), so all
linear-algebra code upstream is field-agnostic.  The one division on
scalars is `Field.inv`, and this module is the only one that divides: an
int divided by an int would be a float.

`fractions` (which loads `decimal`) is imported only where a Fraction is
built or tested, after the int and ModP cases: most commands build none.
"""


# Miller–Rabin to the first 13 prime bases decides primality exactly below
# MR_LIMIT (Sorenson & Webster, "Strong pseudoprimes to twelve prime bases",
# Math. Comp. 2017); larger moduli are refused rather than guessed at.
MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MR_LIMIT = 3317044064679887385961981


def _is_prime(p):
    """Deterministic primality test for 0 <= p < MR_LIMIT."""
    if p >= MR_LIMIT:
        raise ValueError("modulus %d is too large (the primality test is exact "
                         "only below %d)" % (p, MR_LIMIT))
    if p < 2:
        return False
    for b in MR_BASES:
        if p % b == 0:
            return p == b
    d, s = p - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for b in MR_BASES:
        x = pow(b, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


def _rational(x):
    """An int or Fraction as a rational scalar: the int when it is integral."""
    if type(x) is int:
        return x
    if x.denominator == 1:
        return int(x.numerator)
    from fractions import Fraction
    return x if type(x) is Fraction else Fraction(x)


def _integer(text):
    """An optional sign and ASCII digits as an int (int() takes more)."""
    digits = text[1:] if text[:1] in ("+", "-") else text
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError("%r is not an integer in ASCII digits" % (text,))
    return int(text)


class ModP:
    __slots__ = ("v", "p")

    def __init__(self, v, p):
        self.v = v % p
        self.p = p

    def _coerce(self, other):
        if isinstance(other, ModP):
            if other.p != self.p:
                raise ValueError("mixed moduli %d and %d" % (self.p, other.p))
            return other.v
        if isinstance(other, int):
            return other % self.p
        from fractions import Fraction
        if isinstance(other, Fraction):
            if other.denominator % self.p == 0:
                raise ZeroDivisionError("denominator divisible by %d" % self.p)
            return (other.numerator * pow(other.denominator, -1, self.p)) % self.p
        return NotImplemented

    def __add__(self, other):
        w = self._coerce(other)
        if w is NotImplemented:
            return NotImplemented
        return ModP(self.v + w, self.p)

    __radd__ = __add__

    def __sub__(self, other):
        w = self._coerce(other)
        if w is NotImplemented:
            return NotImplemented
        return ModP(self.v - w, self.p)

    def __rsub__(self, other):
        w = self._coerce(other)
        if w is NotImplemented:
            return NotImplemented
        return ModP(w - self.v, self.p)

    def __mul__(self, other):
        w = self._coerce(other)
        if w is NotImplemented:
            return NotImplemented
        return ModP(self.v * w, self.p)

    __rmul__ = __mul__

    def __truediv__(self, other):
        w = self._coerce(other)
        if w is NotImplemented:
            return NotImplemented
        if w % self.p == 0:
            raise ZeroDivisionError("division by zero in GF(%d)" % self.p)
        return ModP(self.v * pow(w, -1, self.p), self.p)

    def __rtruediv__(self, other):
        w = self._coerce(other)
        if w is NotImplemented:
            return NotImplemented
        if self.v == 0:
            raise ZeroDivisionError("division by zero in GF(%d)" % self.p)
        return ModP(w * pow(self.v, -1, self.p), self.p)

    def __neg__(self):
        return ModP(-self.v, self.p)

    def __eq__(self, other):
        if isinstance(other, ModP):
            return self.p == other.p and self.v == other.v
        if isinstance(other, int):
            return self.v == other % self.p
        return NotImplemented

    def __hash__(self):
        return hash((self.v, self.p))

    def __bool__(self):
        return self.v != 0

    def __repr__(self):
        return "%d" % self.v


class Field:
    """The ground field: rationals (p is None) or GF(p)."""

    def __init__(self, p=None):
        if p is not None and type(p) is not int:
            raise ValueError("the characteristic must be an integer, got %r" % (p,))
        if p is not None and not _is_prime(p):
            raise ValueError("%r is not prime" % (p,))
        self.p = p
        self.zero = ModP(0, p) if p else 0
        self.one = ModP(1, p) if p else 1

    @property
    def kind(self):
        return "PrimeField" if self.p else "Rationals"

    @property
    def char(self):
        return self.p if self.p else 0

    def of(self, x):
        """Coerce an int, ModP, Fraction or scalar string into this field."""
        if isinstance(x, int):
            return ModP(x, self.p) if self.p else int(x)
        if isinstance(x, ModP) and self.p:
            if x.p != self.p:
                raise ValueError("wrong modulus")
            return x
        if isinstance(x, str):
            return self.parse(x)
        from fractions import Fraction
        if self.p is None:
            if isinstance(x, Fraction):
                return _rational(x)
            raise TypeError("cannot coerce %r into the rationals" % (x,))
        if isinstance(x, Fraction):
            if x.denominator % self.p == 0:
                raise ZeroDivisionError("denominator divisible by %d" % self.p)
            return ModP(x.numerator * pow(x.denominator, -1, self.p), self.p)
        raise TypeError("cannot coerce %r into GF(%d)" % (x, self.p))

    def parse(self, s):
        """Scalar grammar: "n" or "n/d" over the rationals, "r" over GF(p),
        where n, d and r are an optional sign and ASCII digits, and
        surrounding ASCII whitespace is ignored.  Anything else (a JSON
        number, other digits, an underscore) raises ValueError."""
        if type(s) is not str:
            raise ValueError("scalar %r is not a string" % (s,))
        s = s.strip(" \t\n\r\f\v")
        if self.p is None:
            if "/" not in s:
                return _integer(s)
            num, den = s.split("/", 1)
            n, d = _integer(num), _integer(den)
            if d and n % d == 0:
                return n // d
            from fractions import Fraction
            return Fraction(n, d)
        if "/" in s:
            raise ValueError("no fraction syntax in GF(%d): %r" % (self.p, s))
        v = _integer(s)
        if not 0 <= v < self.p:
            raise ValueError("residue %r outside [0,%d)" % (s, self.p))
        return ModP(v, self.p)

    def inv(self, x):
        """The inverse of a nonzero scalar; over the rationals an int when
        it is integral (x = ±1, no Fraction built), else a Fraction; never a float."""
        if self.p is not None:
            return self.one / x
        if x in (1, -1):
            return int(x)
        from fractions import Fraction
        return _rational(Fraction(1, x))

    def show(self, x):
        if self.p is None:
            if x.denominator == 1:
                return str(x.numerator)
            return "%d/%d" % (x.numerator, x.denominator)
        return str(x.v)

    def to_json(self):
        if self.p is None:
            return {"kind": "Rationals"}
        return {"kind": "PrimeField", "p": self.p}

    @staticmethod
    def from_json(d):
        if d["kind"] == "Rationals":
            return Field()
        if d["kind"] == "PrimeField":
            return Field(d["p"])
        raise ValueError("unknown field kind %r" % (d.get("kind"),))

    def __eq__(self, other):
        return isinstance(other, Field) and self.p == other.p

    def __hash__(self):
        return hash(self.p)

    def __repr__(self):
        return "QQ" if self.p is None else "GF(%d)" % self.p


QQ = Field()


def GF(p):
    return Field(p)
