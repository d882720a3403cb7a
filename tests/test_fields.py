"""Field layer: exact rational and prime-field arithmetic."""

from fractions import Fraction

import time

import pytest
from hypothesis import given, settings, strategies as st

from phopf.fields import MR_LIMIT, Field, GF, ModP, QQ, _is_prime


rationals = st.fractions(min_value=-10**6, max_value=10**6, max_denominator=10**4)
residues5 = st.integers(min_value=0, max_value=4)


# ---------------------------------------------------------------------------
# axioms, property-tested


@settings(max_examples=60, deadline=None)
@given(rationals, rationals, rationals)
def test_qq_is_a_field(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + QQ.zero == a and a * QQ.one == a
    assert a + (-a) == QQ.zero
    if a:
        assert a * (QQ.one / a) == QQ.one


@settings(max_examples=60, deadline=None)
@given(residues5, residues5, residues5)
def test_gf5_is_a_field(x, y, z):
    f = GF(5)
    a, b, c = f.of(x), f.of(y), f.of(z)
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + f.zero == a and a * f.one == a
    assert a - a == f.zero
    if a != f.zero:
        assert a * (f.one / a) == f.one
        assert a * a * a * a == f.one  # the multiplicative group has order 4


def test_modp_mixes_with_ints():
    f = GF(7)
    a = f.of(3)
    assert a + 5 == f.of(1)
    assert 5 + a == f.of(1)
    assert a - 5 == f.of(5)
    assert 5 - a == f.of(2)
    assert a * 4 == f.of(5)
    assert 1 / a == f.of(5)
    assert -a == f.of(4)
    assert bool(f.zero) is False and bool(a) is True


def test_gf_rejects_nonprime():
    for bad in (0, 1, 4, 6, 9, 12):
        with pytest.raises(ValueError):
            GF(bad)


def test_primality_agrees_with_trial_division_below_ten_thousand():
    def trial(p):
        return p >= 2 and all(p % d for d in range(2, int(p ** 0.5) + 1))
    assert [p for p in range(10 ** 4) if _is_prime(p)] == \
        [p for p in range(10 ** 4) if trial(p)]


def test_primality_rejects_carmichael_numbers():
    for bad in (561, 41041):
        assert not _is_prime(bad)
        with pytest.raises(ValueError):
            GF(bad)


def test_large_prime_modulus_is_accepted_quickly():
    start = time.perf_counter()
    f = GF(2 ** 61 - 1)
    assert time.perf_counter() - start < 1.0
    assert f.of(2 ** 61) == f.one


def test_field_rejects_non_integer_and_unprovable_moduli():
    for bad in (7.0, True, "7", MR_LIMIT, 2 ** 89 - 1):
        with pytest.raises(ValueError):
            Field(bad)


def test_of_coerces_fractions_mod_p():
    f = GF(5)
    assert f.of(Fraction(1, 2)) == f.of(3)      # 2 * 3 = 6 = 1
    assert f.of(Fraction(-1, 3)) == f.of(3)     # 3 * 3 = 9 = 4 = -1
    with pytest.raises(ZeroDivisionError):
        f.of(Fraction(1, 5))
    with pytest.raises(ValueError):
        f.of(ModP(1, 7))
    with pytest.raises(TypeError):
        QQ.of(1.5)


# ---------------------------------------------------------------------------
# the scalar grammar


@settings(max_examples=60, deadline=None)
@given(rationals)
def test_qq_show_parse_round_trip(a):
    assert QQ.parse(QQ.show(a)) == a


@settings(max_examples=40, deadline=None)
@given(residues5)
def test_gf5_show_parse_round_trip(x):
    f = GF(5)
    a = f.of(x)
    assert f.parse(f.show(a)) == a


def test_parse_grammar():
    assert QQ.parse("-3/4") == Fraction(-3, 4)
    assert QQ.parse(" 7 ") == Fraction(7)
    with pytest.raises(ValueError):
        QQ.parse("1.5")
    with pytest.raises(ValueError):
        QQ.parse("x")
    f = GF(5)
    assert f.parse("4") == f.of(4)
    with pytest.raises(ValueError):
        f.parse("3/4")
    with pytest.raises(ValueError):
        f.parse("7")
    with pytest.raises(ValueError):
        f.parse("-1")
    # an optional sign and ASCII digits, surrounded by ASCII whitespace only
    assert QQ.parse("+2") == 2 and QQ.parse("\t-3/+4\n") == Fraction(-3, 4)
    assert f.parse("+3") == f.of(3) and f.parse(" 0 ") == f.zero
    arabic = "\u0661"                                 # an Arabic-Indic one
    for text in (arabic, arabic + "/2", "1/" + arabic, "1_000", "1/2_0", "1 /2",
                 "1/ 2", "+-1", "--1", "", "-", "+", "/", "1/", "1e3", "0x1",
                 "\u00a07", "7\u2003", "\uff17", "\u00b2"):
        with pytest.raises(ValueError):
            QQ.parse(text)
    for text in (arabic, "0_3", "\u00a03", "\uff13", "", "+", "0x1"):
        with pytest.raises(ValueError):
            f.parse(text)


def test_field_json_round_trip():
    for f in (QQ, GF(5), GF(97)):
        assert Field.from_json(f.to_json()) == f
    with pytest.raises(ValueError):
        Field.from_json({"kind": "Galaxy"})


def test_field_identity_and_char():
    assert QQ.char == 0 and GF(5).char == 5
    assert QQ == Field() and GF(5) == Field(5) and QQ != GF(5)
    assert QQ.kind == "Rationals" and GF(3).kind == "PrimeField"


# ---------------------------------------------------------------------------
# the representation: an integral rational is an int


def test_integral_rationals_are_ints():
    assert type(QQ.zero) is int and type(QQ.one) is int
    for text, want in (("7", 7), (" -3 ", -3), ("4/2", 2), ("-6/3", -2), ("0/5", 0)):
        got = QQ.parse(text)
        assert type(got) is int and got == want, text
    assert type(QQ.parse("6/8")) is Fraction and QQ.parse("6/8") == Fraction(3, 4)
    for x, want in ((Fraction(6, 3), 2), (True, 1), (5, 5)):
        assert type(QQ.of(x)) is int and QQ.of(x) == want
    assert type(QQ.of(Fraction(1, 2))) is Fraction
    with pytest.raises(ZeroDivisionError):
        QQ.parse("1/0")


@settings(max_examples=60, deadline=None)
@given(rationals)
def test_parsed_scalar_is_an_int_exactly_when_integral(a):
    x = QQ.parse(QQ.show(a))
    assert x == a and (type(x) is int) == (a.denominator == 1)


def test_inv_is_exact_and_never_a_float():
    for x, want in ((3, Fraction(1, 3)), (-4, Fraction(-1, 4)),
                    (Fraction(2, 3), Fraction(3, 2)), (Fraction(-1, 5), -5),
                    (1, 1), (-1, -1)):
        got = QQ.inv(x)
        assert got == want and type(got) is type(want)
    f = GF(7)
    assert f.inv(f.of(3)) * f.of(3) == f.one
    for field, zero in ((QQ, 0), (f, f.zero)):
        with pytest.raises(ZeroDivisionError):
            field.inv(zero)
