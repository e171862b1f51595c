import itertools
import random
import sys

import pytest

from helpers import scalar_bilmap, standard_split, zero_two_algebra
from zinbiel2 import linalg
from zinbiel2.core import ZinbielAlgebra, ZinbielTwoAlgebra
from zinbiel2.errors import NotAnIdeal, NotComplementary, ObstructionNonzero, DimError
from zinbiel2.fields import PrimeField
from zinbiel2.linalg import BilMap, LinMap, TwoVectorSpace
from zinbiel2.special import (CrossedSystem, MatchedPairDatum,
                              build_bicrossed_product, build_crossed_product,
                              check_crossed_system, check_ideal_extension,
                              check_matched_pair, factorize)
from zinbiel2.unified import ExtendingDatum, build_unified_product, check_datum_direct

F5 = PrimeField(5)


def shell_z01():
    return ZinbielTwoAlgebra.shell(ZinbielAlgebra.zero(F5, 1))


def crossed_0101(p, q, w, m):
    z = shell_z01()
    v = TwoVectorSpace(0, 1, LinMap.zero(F5, 1, 0))
    base = ExtendingDatum.trivial(z, v)
    return CrossedSystem(base.replace(
        hr=(scalar_bilmap(F5, p),) + base.hr[1:],
        hl=(scalar_bilmap(F5, q),) + base.hl[1:],
        om=(scalar_bilmap(F5, w),) + base.om[1:],
        st=(scalar_bilmap(F5, m),) + base.st[1:]))


def rand_crossed_1111(rng, density):
    z = zero_two_algebra(F5, 1, 1, LinMap(F5, 1, 1, [[rng.randrange(5)]]))
    v = TwoVectorSpace(1, 1, LinMap(F5, 1, 1, [[rng.randrange(5)]]))
    base = ExtendingDatum.trivial(z, v)
    r = lambda: scalar_bilmap(F5, rng.randrange(1, 5) if rng.random() < density else 0)
    fam = lambda: (r(), r(), r(), r())
    sigma = LinMap(F5, 1, 1, [[rng.randrange(5) if rng.random() < density else 0]])
    return CrossedSystem(base.replace(hr=fam(), hl=fam(), om=fam(), st=fam(),
                                      sigma=sigma))


def mp_cross_scalars(fz, fv, tr_scalars, tl_scalars, hr_scalars=(0,) * 4,
                     hl_scalars=(0,) * 4):
    z = zero_two_algebra(F5, 1, 1, LinMap(F5, 1, 1, [[fz]]))
    vv = zero_two_algebra(F5, 1, 1, LinMap(F5, 1, 1, [[fv]]))
    base = ExtendingDatum.trivial(z, TwoVectorSpace(1, 1, vv.phi))
    mk = lambda scalars: tuple(scalar_bilmap(F5, s) for s in scalars)
    return MatchedPairDatum(z, vv, hr=mk(hr_scalars), hl=mk(hl_scalars),
                            tr=mk(tr_scalars), tl=mk(tl_scalars), check_v=False)


def rand_matched_1111(rng, density):
    while True:
        scalars = [[rng.randrange(1, 5) if rng.random() < density else 0
                    for _ in range(4)] for _ in range(4)]
        mp = mp_cross_scalars(rng.randrange(5), rng.randrange(5),
                              scalars[0], scalars[1], scalars[2], scalars[3])
        if check_datum_direct(mp.embed(), first_only=True, check_z=False).ok:
            return mp


def test_crossed_system_requires_zero_tr_tl():
    z = shell_z01()
    v = TwoVectorSpace(0, 1, LinMap.zero(F5, 1, 0))
    base = ExtendingDatum.trivial(z, v)
    bad = base.replace(tr=(scalar_bilmap(F5, 1),) + base.tr[1:])
    with pytest.raises(DimError):
        CrossedSystem(bad)


def test_crossed_build_matches_unified_embedding():
    rng = random.Random(61)
    for _ in range(100):
        cs = rand_crossed_1111(rng, rng.choice([0.1, 0.3, 0.6]))
        assert build_crossed_product(cs) == build_unified_product(cs.embed())


def test_bicrossed_build_matches_unified_embedding():
    rng = random.Random(62)
    for _ in range(100):
        scalars = [[rng.randrange(5) if rng.random() < 0.4 else 0 for _ in range(4)]
                   for _ in range(4)]
        mp = mp_cross_scalars(rng.randrange(5), rng.randrange(5),
                              scalars[0], scalars[1], scalars[2], scalars[3])
        assert build_bicrossed_product(mp) == build_unified_product(mp.embed())


def test_crossed_product_z_block_is_ideal():
    # products with a Z-block factor have zero V-component, on every level
    # and for both action maps, whatever the maps are
    rng = random.Random(63)
    for _ in range(30):
        cs = rand_crossed_1111(rng, 0.7)
        e = build_crossed_product(cs)
        n1, n0 = cs.datum.z.z1.dim, cs.datum.z.z0.dim
        for tensor, (la, lb, lc) in ((e.z0.mult, (0, 0, 0)), (e.z1.mult, (1, 1, 1)),
                                     (e.act.left, (0, 1, 1)), (e.act.right, (1, 0, 1))):
            dim_a = e.z0.dim if la == 0 else e.z1.dim
            dim_b = e.z0.dim if lb == 0 else e.z1.dim
            nza = n0 if la == 0 else n1
            nzb = n0 if lb == 0 else n1
            nzc = n0 if lc == 0 else n1
            for i in range(nza):
                for j in range(dim_b):
                    assert not any(tensor.eval_bb(i, j)[nzc:])
            for i in range(dim_a):
                for j in range(nzb):
                    assert not any(tensor.eval_bb(i, j)[nzc:])


def test_bicrossed_both_blocks_are_subalgebras():
    rng = random.Random(64)
    for _ in range(30):
        mp = rand_matched_1111(rng, 0.25)
        e = build_bicrossed_product(mp)
        n1, n0 = mp.z.z1.dim, mp.z.z0.dim
        for tensor, (la, lb, lc) in ((e.z0.mult, (0, 0, 0)), (e.z1.mult, (1, 1, 1)),
                                     (e.act.left, (0, 1, 1)), (e.act.right, (1, 0, 1))):
            nza = n0 if la == 0 else n1
            nzb = n0 if lb == 0 else n1
            nzc = n0 if lc == 0 else n1
            dim_c = e.z0.dim if lc == 0 else e.z1.dim
            for i in range(nza):       # Z x Z stays in Z
                for j in range(nzb):
                    assert not any(tensor.eval_bb(i, j)[nzc:])
            dim_a = e.z0.dim if la == 0 else e.z1.dim
            dim_b = e.z0.dim if lb == 0 else e.z1.dim
            for i in range(nza, dim_a):  # V x V stays in V
                for j in range(nzb, dim_b):
                    assert not any(tensor.eval_bb(i, j)[:nzc])


def test_cz_exhaustive_0101():
    mism = 0
    for combo in itertools.product(range(5), repeat=4):
        cs = crossed_0101(*combo)
        ok_direct = check_datum_direct(cs.embed(), check_z=False, first_only=True).ok
        ok_cz = check_crossed_system(cs, check_z=False, cap=1).ok
        mism += (ok_direct != ok_cz)
    assert mism == 0


def test_cz50_violation_witnessed():
    # nonzero hl2 with everything else zero: phi(x0 <-2 u1) = 0 must equal
    # x0.sigma(u1) + x0 <-0 d(u1) = 0, so turn on sigma and the level-0 action
    # of x0 via hl0 with d != 0 to break it
    z = zero_two_algebra(F5, 1, 1)
    v = TwoVectorSpace(1, 1, LinMap(F5, 1, 1, [[1]]))   # d = 1
    base = ExtendingDatum.trivial(z, v)
    cs = CrossedSystem(base.replace(hl=(scalar_bilmap(F5, 2),) + base.hl[1:]))
    # lhs = phi(hl2(x0,u1)) = 0; rhs = x0.sigma(u1) + hl0(x0, d(u1)) = 2
    rep = check_crossed_system(cs, check_z=False)
    assert any(v_.cond == "CZ50" and v_.rhs == (2,) for v_ in rep.violations)


def test_cz_random_1111():
    rng = random.Random(65)
    for _ in range(800):
        cs = rand_crossed_1111(rng, rng.choice([0.1, 0.3, 0.6]))
        ok_direct = check_datum_direct(cs.embed(), check_z=False, first_only=True).ok
        ok_cz = check_crossed_system(cs, check_z=False, cap=1).ok
        assert ok_direct == ok_cz


def test_bz_exhaustive_0101():
    z = shell_z01()
    vv = shell_z01()
    base = ExtendingDatum.trivial(z, TwoVectorSpace(0, 1, LinMap.zero(F5, 1, 0)))
    for (p, q, a, b) in itertools.product(range(5), repeat=4):
        hr = (scalar_bilmap(F5, p),) + base.hr[1:]
        hl = (scalar_bilmap(F5, q),) + base.hl[1:]
        tr = (scalar_bilmap(F5, a),) + base.tr[1:]
        tl = (scalar_bilmap(F5, b),) + base.tl[1:]
        mp = MatchedPairDatum(z, vv, hr=hr, hl=hl, tr=tr, tl=tl, check_v=False)
        ok_direct = check_datum_direct(mp.embed(), check_z=False, first_only=True).ok
        ok_bz = check_matched_pair(mp, check_z=False, cap=1).ok
        assert ok_direct == ok_bz


def test_bz_random_1111():
    rng = random.Random(66)
    for _ in range(800):
        scalars = [[rng.randrange(1, 5) if rng.random() < 0.3 else 0 for _ in range(4)]
                   for _ in range(4)]
        mp = mp_cross_scalars(rng.randrange(5), rng.randrange(5),
                              scalars[0], scalars[1], scalars[2], scalars[3])
        ok_direct = check_datum_direct(mp.embed(), check_z=False, first_only=True).ok
        ok_bz = check_matched_pair(mp, check_z=False, cap=1).ok
        assert ok_direct == ok_bz


def test_bz97_vacuous_under_type_invariant():
    # sigma is structurally zero for matched pairs; the conditions mentioning
    # it must pass without false positives
    mp = mp_cross_scalars(2, 3, (0, 0, 0, 0), (0, 0, 0, 0))
    rep = check_matched_pair(mp, check_z=False)
    assert rep.ok


def test_ideal_extension_direct_product():
    z = shell_z01()
    v = TwoVectorSpace(0, 1, LinMap.zero(F5, 1, 0))
    e = build_unified_product(ExtendingDatum.trivial(z, v))
    split = standard_split(e, 0, 1)
    cs = check_ideal_extension(split)
    assert all(m.is_zero() for m in cs.datum.hr + cs.datum.hl + cs.datum.om)


def test_ideal_extension_roundtrip():
    rng = random.Random(67)
    for _ in range(25):
        cs = rand_crossed_1111(rng, 0.3)
        if not check_datum_direct(cs.embed(), check_z=False, first_only=True).ok:
            continue
        e = build_crossed_product(cs)
        split = standard_split(e, 1, 1)
        cs2 = check_ideal_extension(split)
        assert cs2.datum == cs.datum   # standard split recovers the datum
        from zinbiel2.unified import verify_psi
        assert verify_psi(split, cs2.datum).ok


def test_not_an_ideal_from_bicrossed():
    # valid matched pair with nonzero tr3: z <| v escapes the Z block
    mp = mp_cross_scalars(0, 0, (0, 0, 0, 2), (0, 0, 0, 0))
    assert check_datum_direct(mp.embed(), check_z=False, first_only=True).ok
    e = build_bicrossed_product(mp)
    split = standard_split(e, 1, 1)
    with pytest.raises(NotAnIdeal) as err:
        check_ideal_extension(split)
    assert err.value.witness is not None


def test_not_an_ideal_when_z_is_not_a_subalgebra():
    # in the algebra e0*e0 = e1, the line of e0 is not closed: the ideal
    # check reports the subalgebra witness (operation 0, e0, e0)
    alg = ZinbielAlgebra(F5, 2, BilMap(F5, 2, 2, 2, {(1, 0, 0): 1}))
    split = standard_split(ZinbielTwoAlgebra.shell(alg), 0, 1)
    with pytest.raises(NotAnIdeal) as err:
        check_ideal_extension(split)
    assert err.value.witness == (0, 0, 0)


def test_factorize_direct_product():
    z = shell_z01()
    v = TwoVectorSpace(0, 1, LinMap.zero(F5, 1, 0))
    e = build_unified_product(ExtendingDatum.trivial(z, v))
    iota_z = (LinMap.zero(F5, 0, 0), LinMap(F5, 2, 1, [[1], [0]]))
    iota_v = (LinMap.zero(F5, 0, 0), LinMap(F5, 2, 1, [[0], [1]]))
    mp = factorize(e, iota_z, iota_v)
    assert all(m.is_zero() for m in mp.hr + mp.hl + mp.tr + mp.tl)


def test_factorize_inverts_each_level_once(monkeypatch):
    # the split reads p off its own B^-1: one inverse per level, not two
    calls = []
    real = linalg.inverse

    def counting(m):
        calls.append(m)
        return real(m)

    for name, module in list(sys.modules.items()):
        if name.startswith("zinbiel2") and getattr(module, "inverse", None) is real:
            monkeypatch.setattr(module, "inverse", counting)
    z = shell_z01()
    e = build_unified_product(ExtendingDatum.trivial(z, TwoVectorSpace(0, 1, LinMap.zero(F5, 1, 0))))
    iota_z = (LinMap.zero(F5, 0, 0), LinMap(F5, 2, 1, [[1], [0]]))
    iota_v = (LinMap.zero(F5, 0, 0), LinMap(F5, 2, 1, [[0], [1]]))
    factorize(e, iota_z, iota_v)
    assert len(calls) == 2


def test_factorize_roundtrip_random_matched_pairs():
    rng = random.Random(68)
    for _ in range(25):
        mp = rand_matched_1111(rng, 0.25)
        e = build_bicrossed_product(mp)
        iota_z = (LinMap(F5, 2, 1, [[1], [0]]), LinMap(F5, 2, 1, [[1], [0]]))
        iota_v = (LinMap(F5, 2, 1, [[0], [1]]), LinMap(F5, 2, 1, [[0], [1]]))
        mp2 = factorize(e, iota_z, iota_v)
        assert build_bicrossed_product(mp2) == e
        assert (mp2.hr, mp2.hl, mp2.tr, mp2.tl) == (mp.hr, mp.hl, mp.tr, mp.tl)


def test_factorize_obstruction_nonzero():
    # crossed product with nonzero omega_0: the complement is not closed
    cs = crossed_0101(0, 0, 3, 0)
    assert check_datum_direct(cs.embed(), check_z=False, first_only=True).ok
    e = build_crossed_product(cs)
    iota_z = (LinMap.zero(F5, 0, 0), LinMap(F5, 2, 1, [[1], [0]]))
    iota_v = (LinMap.zero(F5, 0, 0), LinMap(F5, 2, 1, [[0], [1]]))
    with pytest.raises(ObstructionNonzero) as err:
        factorize(e, iota_z, iota_v)
    assert err.value.witness[0] == "omega"


def test_factorize_not_complementary():
    z = shell_z01()
    v = TwoVectorSpace(0, 1, LinMap.zero(F5, 1, 0))
    e = build_unified_product(ExtendingDatum.trivial(z, v))
    iota_z = (LinMap.zero(F5, 0, 0), LinMap(F5, 2, 1, [[1], [0]]))
    iota_same = (LinMap.zero(F5, 0, 0), LinMap(F5, 2, 1, [[1], [0]]))
    with pytest.raises(NotComplementary):
        factorize(e, iota_z, iota_same)


def test_v_side_condition_enters_cz_report():
    # star family that is not a valid structure on V must surface as V.*
    z = shell_z01()
    v = TwoVectorSpace(0, 1, LinMap.zero(F5, 1, 0))
    base = ExtendingDatum.trivial(z, v)
    cs = CrossedSystem(base.replace(st=(scalar_bilmap(F5, 1),) + base.st[1:]))
    rep = check_crossed_system(cs, check_z=False)
    assert any(v_.cond.startswith("V.") for v_ in rep.violations)
