import random
from fractions import Fraction

import pytest

from zinbiel2.errors import DivisionByZero
from zinbiel2.fields import PolynomialRing, PrimeField, Rationals, field_from_name


def test_rational_arithmetic():
    q = Rationals()
    assert q.add(Fraction(1, 2), Fraction(1, 3)) == Fraction(5, 6)
    assert q.mul(Fraction(2, 3), Fraction(3, 4)) == Fraction(1, 2)
    assert q.inv(Fraction(-2, 7)) == Fraction(-7, 2)
    assert q.neg(Fraction(5)) == Fraction(-5)


def test_gf5_examples():
    f = PrimeField(5)
    assert f.inv(2) == 3          # 2*3 = 6 = 1 mod 5
    assert f.add(4, 4) == 3       # 8 mod 5
    assert f.mul(f.inv(2), 2) == 1
    assert f.neg(2) == 3


def test_inv_zero_raises():
    with pytest.raises(DivisionByZero):
        Rationals().inv(Fraction(0))
    with pytest.raises(DivisionByZero):
        PrimeField(5).inv(0)


def test_nonprime_rejected():
    with pytest.raises(ValueError):
        PrimeField(6)
    with pytest.raises(ValueError):
        PrimeField(1)


def test_small_characteristic_needs_override():
    with pytest.raises(ValueError):
        PrimeField(2)
    with pytest.raises(ValueError):
        PrimeField(3)
    f2 = PrimeField(2, allow_small_char=True)
    assert not f2.conforming
    assert PrimeField(5).conforming
    assert Rationals().conforming


def test_field_from_name():
    assert field_from_name("q") == Rationals()
    assert field_from_name("gf7") == PrimeField(7)
    assert field_from_name("GF11") == PrimeField(11)
    with pytest.raises(ValueError):
        field_from_name("gfx")
    with pytest.raises(ValueError):
        field_from_name("reals")


def test_parse_fmt_roundtrip():
    q = Rationals()
    for s in ["3/4", "-5/6", "2", "0", "-7"]:
        assert q.fmt(q.parse(s)) == s
    f = PrimeField(5)
    for s in ["0", "1", "4"]:
        assert f.fmt(f.parse(s)) == s
    assert f.parse("9") == 4


def test_gfp_agrees_with_integer_arithmetic():
    # randomized oracle: GF(p) ops equal integer ops reduced mod p
    rng = random.Random(12)
    for p in (5, 7, 13):
        f = PrimeField(p)
        for _ in range(300):
            a, b = rng.randrange(-50, 50), rng.randrange(-50, 50)
            ar, br = a % p, b % p
            assert f.add(ar, br) == (a + b) % p
            assert f.mul(ar, br) == (a * b) % p
            assert f.sub(ar, br) == (a - b) % p
            assert f.neg(ar) == (-a) % p
            if br:
                assert f.mul(f.inv(br), br) == 1


def _evaluate(poly, point):
    total = 0
    for mono, c in poly:
        for x in mono:
            c *= point[x]
        total += c
    return total


def test_integer_polynomial_ring_agrees_with_evaluation():
    # Z[x], the ring of the symbolic catalog runs: no coefficient is reduced
    rng = random.Random(22)
    r = PolynomialRing()
    assert r == PolynomialRing() != PrimeField(5)
    assert r.canonical(7) == r.mul(r.canonical(7), r.one()) == (((), 7),)
    assert r.canonical(0) == r.zero() == ()
    assert r.neg(r.var(1)) == (((1,), -1),)
    assert r.sub(r.mul(r.var(0), r.var(2)), r.mul(r.var(2), r.var(0))) == r.zero()
    with pytest.raises(TypeError):
        r.canonical(1.0)

    def rand_poly():
        return r.canonical(tuple((tuple(sorted(rng.randrange(3) for _ in range(rng.randrange(3)))),
                                  rng.randint(-9, 9)) for _ in range(rng.randrange(4))))

    for _ in range(200):
        a, b = rand_poly(), rand_poly()
        point = [rng.randint(-9, 9) for _ in range(3)]
        ea, eb = _evaluate(a, point), _evaluate(b, point)
        assert _evaluate(r.add(a, b), point) == ea + eb
        assert _evaluate(r.sub(a, b), point) == ea - eb
        assert _evaluate(r.neg(a), point) == -ea
        assert _evaluate(r.mul(a, b), point) == ea * eb
        assert r.mul(a, b) == r.mul(b, a)
