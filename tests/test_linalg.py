import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zinbiel2.errors import DimError
from zinbiel2.fields import PrimeField, Rationals
from zinbiel2.linalg import (BilMap, LinMap, inverse, kernel_basis, rank, rref,
                             vadd, vbasis, vscale)

F5 = PrimeField(5)
Q = Rationals()


def test_linmap_identity_and_zero():
    ident = LinMap.identity(Q, 3)
    v = (Fraction(1), Fraction(2), Fraction(3))
    assert ident.apply(v) == v
    zero = LinMap.zero(Q, 2, 2)
    assert zero.apply((Fraction(1), Fraction(7))) == (Fraction(0), Fraction(0))


def test_linmap_gf5_example():
    m = LinMap(F5, 2, 2, [[2, 1], [0, 3]])
    assert m.apply((1, 4)) == (1, 2)   # (2+4, 12) mod 5


def test_linmap_dim_mismatch():
    m = LinMap.identity(F5, 2)
    with pytest.raises(DimError):
        m.apply((1, 2, 3))


def test_linmap_compose():
    a = LinMap(F5, 2, 2, [[1, 1], [0, 1]])
    b = LinMap(F5, 2, 2, [[2, 0], [0, 3]])
    v = (1, 2)
    assert a.compose(b).apply(v) == a.apply(b.apply(v))


@settings(max_examples=60)
@given(st.integers(0, 4), st.data())
def test_linmap_is_linear(dim, data):
    entries = [[data.draw(st.integers(0, 4)) for _ in range(dim)] for _ in range(dim)]
    m = LinMap(F5, dim, dim, entries)
    u = tuple(data.draw(st.integers(0, 4)) for _ in range(dim))
    v = tuple(data.draw(st.integers(0, 4)) for _ in range(dim))
    c = data.draw(st.integers(0, 4))
    lhs = m.apply(vadd(F5, vscale(F5, c, u), v))
    rhs = vadd(F5, vscale(F5, c, m.apply(u)), m.apply(v))
    assert lhs == rhs


def test_bilmap_basis_readoff():
    b = BilMap(Q, 2, 2, 2, {(1, 0, 0): Fraction(1)})  # e0*e0 = e1
    assert b.eval_bb(0, 0) == (Fraction(0), Fraction(1))
    e0 = vbasis(Q, 2, 0)
    e1 = vbasis(Q, 2, 1)
    assert b.eval(e0, e0) == e1
    assert b.eval(vadd(Q, e0, e1), e0) == e1   # e1*e0 = 0
    assert b.eval((Fraction(0), Fraction(0)), e0) == (Fraction(0), Fraction(0))


def test_bilmap_rejects_out_of_range():
    with pytest.raises(DimError):
        BilMap(F5, 1, 1, 1, {(0, 0, 1): 1})


@settings(max_examples=60)
@given(st.data())
def test_bilmap_is_bilinear(data):
    da = data.draw(st.integers(1, 3))
    db = data.draw(st.integers(1, 3))
    dc = data.draw(st.integers(1, 3))
    coeffs = {}
    for _ in range(data.draw(st.integers(0, 6))):
        key = (data.draw(st.integers(0, dc - 1)), data.draw(st.integers(0, da - 1)),
               data.draw(st.integers(0, db - 1)))
        coeffs[key] = data.draw(st.integers(0, 4))
    b = BilMap(F5, da, db, dc, coeffs)
    u = tuple(data.draw(st.integers(0, 4)) for _ in range(da))
    u2 = tuple(data.draw(st.integers(0, 4)) for _ in range(da))
    w = tuple(data.draw(st.integers(0, 4)) for _ in range(db))
    c = data.draw(st.integers(0, 4))
    lhs = b.eval(vadd(F5, vscale(F5, c, u), u2), w)
    rhs = vadd(F5, vscale(F5, c, b.eval(u, w)), b.eval(u2, w))
    assert lhs == rhs
    w2 = tuple(data.draw(st.integers(0, 4)) for _ in range(db))
    lhs = b.eval(u, vadd(F5, vscale(F5, c, w), w2))
    rhs = vadd(F5, vscale(F5, c, b.eval(u, w)), b.eval(u, w2))
    assert lhs == rhs


def test_bilmap_zero_dims_legal():
    b = BilMap.zero(F5, 0, 3, 0)
    assert b.eval((), (1, 2, 3)) == ()
    m = LinMap.zero(F5, 0, 2)
    assert m.apply((1, 2)) == ()


def test_bilmap_canonical_equality():
    b1 = BilMap(F5, 2, 2, 2, {(0, 1, 1): 3, (1, 0, 0): 2})
    b2 = BilMap(F5, 2, 2, 2, {(1, 0, 0): 2, (0, 1, 1): 3, (1, 1, 1): 0})
    assert b1 == b2 and hash(b1) == hash(b2)
    assert b1.items == ((0, 1, 1, 3), (1, 0, 0, 2))


def test_constructors_reduce_scalars_to_canonical_form():
    assert BilMap(F5, 1, 1, 1, {(0, 0, 0): 5}).is_zero()
    assert BilMap(F5, 1, 1, 1, {(0, 0, 0): 7}).items == ((0, 0, 0, 2),)
    assert LinMap(F5, 1, 1, [[6]]) == LinMap.identity(F5, 1)
    assert LinMap(Q, 1, 1, [[2]]).entries == ((Fraction(2),),)


def test_constructors_reject_scalars_of_the_wrong_type():
    with pytest.raises(TypeError):
        LinMap(F5, 1, 1, [[1.0]])
    with pytest.raises(TypeError):
        BilMap(F5, 1, 1, 1, {(0, 0, 0): Fraction(1, 2)})
    with pytest.raises(TypeError):
        LinMap(Q, 1, 1, [["1"]])


def test_rref_inverse_kernel_solve():
    m = LinMap(F5, 3, 3, [[1, 2, 0], [0, 1, 1], [1, 0, 1]])
    minv = inverse(m)
    if minv is not None:
        assert m.compose(minv) == LinMap.identity(F5, 3)
    proj = LinMap(F5, 1, 3, [[1, 2, 3]])
    ker = kernel_basis(proj)
    assert len(ker) == 2
    for v in ker:
        assert proj.apply(v) == (0,)
    assert rank(proj) == 1
    singular = LinMap(F5, 2, 2, [[1, 2], [2, 4]])
    assert inverse(singular) is None


def test_rref_over_q():
    rows = [[Fraction(2), Fraction(4)], [Fraction(1), Fraction(3)]]
    red, pivots = rref(Q, rows)
    assert pivots == [0, 1]
    assert red[0] == (Fraction(1), Fraction(0))
    assert red[1] == (Fraction(0), Fraction(1))


def test_random_inverse_oracle():
    rng = random.Random(5)
    for _ in range(40):
        n = rng.randint(1, 4)
        m = LinMap(F5, n, n, [[rng.randrange(5) for _ in range(n)] for _ in range(n)])
        minv = inverse(m)
        if minv is None:
            assert rank(m) < n
        else:
            assert m.compose(minv) == LinMap.identity(F5, n)
            assert minv.compose(m) == LinMap.identity(F5, n)
