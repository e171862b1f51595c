import random

import pytest

from helpers import (rand_ambient_with_subalgebra, rand_sparse_datum, scalar_bilmap,
                     standard_split, zero_two_algebra)
from zinbiel2 import unified
from zinbiel2.core import (BimodulePair, ZinbielAlgebra, ZinbielTwoAlgebra,
                           check_crossed_module, check_zinbiel)
from zinbiel2.errors import DimError, FieldMismatch, PreconditionError, SubalgebraError
from zinbiel2.fields import PrimeField
from zinbiel2.linalg import BilMap, LinMap, TwoVectorSpace
from zinbiel2.unified import (ComplementSplit, ExtendingDatum,
                              build_unified_product, check_datum_direct,
                              extract_datum, verify_psi)

F5 = PrimeField(5)
F7 = PrimeField(7)


def nf2_two_algebra(field):
    alg = ZinbielAlgebra(field, 2, BilMap(field, 2, 2, 2, {(1, 0, 0): field.one()}))
    return ZinbielTwoAlgebra.cone(alg)


def test_trivial_datum_gives_direct_product():
    z = nf2_two_algebra(F5)
    v = TwoVectorSpace(1, 1, LinMap.zero(F5, 1, 1))
    datum = ExtendingDatum.trivial(z, v)
    e = build_unified_product(datum)
    assert (e.z1.dim, e.z0.dim) == (3, 3)
    assert check_crossed_module(e).ok
    # V block is inert: products with a V basis vector vanish
    assert e.z0.mult.eval_bb(2, 2) == (0, 0, 0)
    assert e.z0.mult.eval_bb(0, 2) == (0, 0, 0)


def test_v_zero_returns_z_itself():
    z = nf2_two_algebra(F5)
    v = TwoVectorSpace(0, 0, LinMap.zero(F5, 0, 0))
    e = build_unified_product(ExtendingDatum.trivial(z, v))
    assert e.z1.mult == z.z1.mult and e.z0.mult == z.z0.mult
    assert e.phi == z.phi and e.act == z.act


def test_datum_refuses_d_over_another_field():
    # a d over GF(7) used to construct, and the product reduced it mod 5
    z = ZinbielTwoAlgebra.shell(ZinbielAlgebra.zero(F5, 1))
    datum = ExtendingDatum.trivial(z, TwoVectorSpace(1, 1, LinMap.zero(F5, 1, 1)))
    with pytest.raises(FieldMismatch):
        datum.replace(v=TwoVectorSpace(1, 1, LinMap(F7, 1, 1, [[6]])))


def test_build_matches_hand_expansion_tr2():
    # Z1 = 0, dims (Z0, V0, V1) = (1, 1, 1), only the level-2 V-component
    # map nonzero: (x0, u0) acting on u1 contributes c*u1 per x0 unit.
    c = 3
    z = ZinbielTwoAlgebra.shell(ZinbielAlgebra.zero(F5, 1))
    v = TwoVectorSpace(1, 1, LinMap.zero(F5, 1, 1))
    base = ExtendingDatum.trivial(z, v)
    datum = base.replace(tr=(base.tr[0], base.tr[1], scalar_bilmap(F5, c), base.tr[3]))
    e = build_unified_product(datum)
    # E1 basis: (u1); E0 basis: (z0, v0); left action: (x0,u0) |> u1
    assert e.act.left.eval_bb(0, 0) == (c,)   # x0 slot
    assert e.act.left.eval_bb(1, 0) == (0,)   # u0 slot: st2 = 0
    assert e.z1.mult.eval_bb(0, 0) == (0,)
    assert e.phi.entries == ((0,), (0,))


def test_direct_check_requires_valid_z():
    bad_alg = ZinbielAlgebra(F5, 1, BilMap(F5, 1, 1, 1, {(0, 0, 0): 1}))
    z = ZinbielTwoAlgebra.shell(bad_alg)
    v = TwoVectorSpace(0, 1, LinMap.zero(F5, 1, 0))
    with pytest.raises(PreconditionError):
        check_datum_direct(ExtendingDatum.trivial(z, v))


def test_direct_check_detects_bad_action_scalar():
    # datum whose level-0 tr/tl pair violates the bimodule constraint
    z = ZinbielTwoAlgebra.shell(ZinbielAlgebra.zero(F5, 1))
    v = TwoVectorSpace(0, 1, LinMap.zero(F5, 1, 0))
    base = ExtendingDatum.trivial(z, v)
    datum = base.replace(tr=(scalar_bilmap(F5, 1),) + base.tr[1:],
                         tl=(scalar_bilmap(F5, 1),) + base.tl[1:])
    rep = check_datum_direct(datum)
    assert not rep.ok
    assert any(v_.cond.startswith("E") or v_.cond in ("B1", "B2", "B3", "ZI")
               or v_.cond.endswith("ZI") for v_ in rep.violations)


def test_trivial_z1_reduction_shape():
    # with Z1 = 0 and V1 = 0 the problem is a level-0 extension problem
    z = ZinbielTwoAlgebra.shell(ZinbielAlgebra.zero(F5, 1))
    v = TwoVectorSpace(0, 1, LinMap.zero(F5, 1, 0))
    datum = ExtendingDatum.trivial(z, v)
    e = build_unified_product(datum)
    assert e.z1.dim == 0 and e.z0.dim == 2
    assert check_datum_direct(datum).ok


def test_extract_direct_product_split():
    z = nf2_two_algebra(F5)
    w = zero_two_algebra(F5, 1, 1, phi=LinMap(F5, 1, 1, [[2]]))
    # direct product of z and w via a trivial matched-style datum
    v = TwoVectorSpace(1, 1, LinMap(F5, 1, 1, [[2]]))
    base = ExtendingDatum.trivial(z, v)
    e = build_unified_product(base)
    assert check_crossed_module(e).ok
    iota1 = LinMap(F5, 3, 2, [[1, 0], [0, 1], [0, 0]])
    iota0 = LinMap(F5, 3, 2, [[1, 0], [0, 1], [0, 0]])
    p1 = LinMap(F5, 2, 3, [[1, 0, 0], [0, 1, 0]])
    p0 = LinMap(F5, 2, 3, [[1, 0, 0], [0, 1, 0]])
    split = ComplementSplit(e, iota1, iota0, p1, p0)
    datum = extract_datum(split)
    for attr in ("hr", "hl", "tr", "tl", "om"):
        assert all(m.is_zero() for m in getattr(datum, attr))
    assert datum.sigma.is_zero()
    assert datum.v.d == v.d
    assert verify_psi(split, datum).ok


def test_extract_v_zero_split():
    z = nf2_two_algebra(F5)
    e = build_unified_product(ExtendingDatum.trivial(
        z, TwoVectorSpace(0, 0, LinMap.zero(F5, 0, 0))))
    ident1 = LinMap.identity(F5, 2)
    split = ComplementSplit(e, ident1, ident1, ident1, ident1)
    datum = extract_datum(split)
    assert datum.v.dim1 == 0 and datum.v.dim0 == 0
    rebuilt = build_unified_product(datum)
    assert rebuilt == e
    assert verify_psi(split, datum).ok


def test_extract_rejects_non_subalgebra():
    # embed a line that is not closed: in the algebra e0*e0 = e1 take z = e0
    alg = ZinbielAlgebra(F5, 2, BilMap(F5, 2, 2, 2, {(1, 0, 0): 1}))
    e = ZinbielTwoAlgebra.shell(alg)
    iota1 = LinMap.zero(F5, 0, 0)
    iota0 = LinMap(F5, 2, 1, [[1], [0]])
    p1 = LinMap.zero(F5, 0, 0)
    p0 = LinMap(F5, 1, 2, [[1, 0]])
    split = ComplementSplit(e, iota1, iota0, p1, p0)
    with pytest.raises(SubalgebraError) as err:
        extract_datum(split)
    assert err.value.witness is not None


def test_verify_psi_inverts_each_level_once(monkeypatch):
    # the change of basis [iota | V-basis] is inverted once per level, when
    # the split is built; extract_datum and verify_psi read the stored maps
    e = build_unified_product(ExtendingDatum.trivial(
        nf2_two_algebra(F5), TwoVectorSpace(0, 0, LinMap.zero(F5, 0, 0))))
    ident = LinMap.identity(F5, 2)
    calls = []
    monkeypatch.setattr(unified, "inverse",
                        lambda m, real=unified.inverse: calls.append(m) or real(m))
    split = ComplementSplit(e, ident, ident, ident, ident)
    datum = extract_datum(split)
    assert verify_psi(split, datum).ok
    assert len(calls) == 2


@pytest.mark.parametrize("dims", [(1, 1, 1, 1), (0, 1, 1, 1), (1, 1, 0, 1), (1, 0, 1, 0),
                                  (2, 1, 1, 2)])
def test_extract_inverts_build_on_candidate_data(dims):
    # any candidate datum, valid or not, is read back exactly off its
    # product along the standard split (dims are Z1, Z0, V1, V0)
    n1, n0, m1, m0 = dims
    rng = random.Random(str(dims))

    def dense(da, db, dc):
        return BilMap(F5, da, db, dc, {(k, i, j): rng.randrange(5) for k in range(dc)
                                       for i in range(da) for j in range(db)})

    def matrix(rows, cols):
        return LinMap(F5, rows, cols, [[rng.randrange(5) for _ in range(cols)]
                                       for _ in range(rows)])

    for _ in range(10):
        z = ZinbielTwoAlgebra(ZinbielAlgebra(F5, n1, dense(n1, n1, n1)),
                              ZinbielAlgebra(F5, n0, dense(n0, n0, n0)), matrix(n0, n1),
                              BimodulePair(dense(n0, n1, n1), dense(n1, n0, n1)))
        datum = rand_sparse_datum(z, TwoVectorSpace(m1, m0, matrix(m0, m1)), rng, 0.5)
        e = build_unified_product(datum)
        assert extract_datum(standard_split(e, n1, n0), check_e=False) == datum


def test_split_refuses_dependent_complement_basis():
    # two multiples of e2 lie in ker(p0) and have the right count, but with
    # iota0 = e1 they miss e3, so they do not complement Z in E
    e = ZinbielTwoAlgebra.shell(ZinbielAlgebra.zero(F5, 3))
    iota0 = LinMap(F5, 3, 1, [[1], [0], [0]])
    p0 = LinMap(F5, 1, 3, [[1, 0, 0]])
    empty = LinMap.zero(F5, 0, 0)
    with pytest.raises(DimError, match="do not span"):
        ComplementSplit(e, empty, iota0, empty, p0, vbasis1=(),
                        vbasis0=[(0, 1, 0), (0, 2, 0)])
    split = ComplementSplit(e, empty, iota0, empty, p0, vbasis1=(),
                            vbasis0=[(0, 1, 0), (0, 2, 1)])
    assert split.dims() == (0, 1, 0, 2)


def test_roundtrip_random_splits_gf7():
    rng = random.Random(424242)
    for _ in range(25):
        e, split = rand_ambient_with_subalgebra(F7, rng)
        datum = extract_datum(split)
        rep = verify_psi(split, datum)
        assert rep.ok, rep.violations[:4]


def test_semidirect_subsumption():
    # only tr/tl nonzero at level 0: validity == the bimodule condition of
    # the level-0 semidirect product
    z = ZinbielTwoAlgebra.shell(ZinbielAlgebra.zero(F5, 1))
    v = TwoVectorSpace(0, 1, LinMap.zero(F5, 1, 0))
    base = ExtendingDatum.trivial(z, v)
    from zinbiel2.core import check_bimodule
    for a in range(5):
        for b in range(5):
            datum = base.replace(tr=(scalar_bilmap(F5, a),) + base.tr[1:],
                                 tl=(scalar_bilmap(F5, b),) + base.tl[1:])
            direct_ok = check_datum_direct(datum, check_z=False, first_only=True).ok
            bim_ok = check_bimodule(ZinbielAlgebra.zero(F5, 1), 1,
                                    BimodulePair(scalar_bilmap(F5, a),
                                                 scalar_bilmap(F5, b)),
                                    cap=1).ok
            assert direct_ok == bim_ok


def test_psi_detects_wrong_datum():
    rng = random.Random(11)
    e, split = rand_ambient_with_subalgebra(F7, rng)
    datum = extract_datum(split)
    # perturb one structure map: psi must stop being a morphism
    changed = scalar_bilmap(F7, (datum.st[0].eval_bb(0, 0)[0] + 1) % 7,
                            datum.st[0].dim_a, datum.st[0].dim_b, datum.st[0].dim_c)
    bad = datum.replace(st=(changed,) + datum.st[1:])
    assert not verify_psi(split, bad).ok
