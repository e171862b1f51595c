import itertools
import pickle
import random
from math import prod
from pathlib import Path

import pytest

from helpers import (dense_datum, rand_ambient_with_subalgebra, rand_invertible, rand_scalar,
                     rand_sparse_datum, rand_split_of, reference_extract, scalar_bilmap,
                     standard_split, transport_two_algebra, zero_two_algebra)
from zinbiel2 import core, unified
from zinbiel2.core import (_FAMS, _FREE, _OP_LEVELS, MAP_SPACES, BimodulePair, ZinbielAlgebra,
                           ZinbielTwoAlgebra, _layout, check_crossed_module, datum_maps, map_items,
                           two_algebra, two_algebra_maps)
from zinbiel2.errors import (DimError, FieldMismatch, NotAnIdeal, NotSubalgebra, PreconditionError,
                             SubalgebraError)
from zinbiel2.fields import PrimeField, Rationals
from zinbiel2.linalg import BilMap, LinMap, TwoVectorSpace
from zinbiel2.io import datum_to_json, load_document, parse_datum
from zinbiel2.special import MatchedPairDatum, check_ideal_extension, factorize
from zinbiel2.unified import (ComplementSplit, ExtendingDatum,
                              build_unified_product, check_datum_direct,
                              extract_datum, verify_psi)

F5 = PrimeField(5)
F7 = PrimeField(7)
SPLIT_DIRECT = Path(__file__).parent.parent / "data" / "split_direct.json"


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


def test_extract_witnesses_phi_leaving_z():
    # E of zero algebras at level dims (1, 2), phi_E(e0) = e1: with Z1 = E1
    # and Z0 the line of e0, phi_E carries Z1 out of Z0, which only the
    # lower-left block of phi_E shows
    e = zero_two_algebra(F5, 1, 2, LinMap(F5, 2, 1, [[0], [1]]))
    iota1, iota0 = LinMap.identity(F5, 1), LinMap(F5, 2, 1, [[1], [0]])
    split = ComplementSplit(e, iota1, iota0, LinMap.identity(F5, 1), LinMap(F5, 1, 2, [[1, 0]]))
    for call, error in ((extract_datum, SubalgebraError), (check_ideal_extension, NotAnIdeal),
                        (lambda split: factorize(e, (iota1, iota0), (
                            LinMap.zero(F5, 1, 0), LinMap(F5, 2, 1, [[0], [1]]))), NotSubalgebra)):
        with pytest.raises(error, match="phi_E does not restrict to the Z levels") as err:
            call(split)
        assert err.value.witness == ("phi", 0)


def test_extract_witnesses_the_least_pair():
    # e1.e0 and e0.e1 leave Z = span(e0, e1) at (1, 0) and (0, 1); the
    # witness is the least (i, k), also where e1.e0 = e2 comes first in the
    # layout of the product's constants and e0.e1 = e3 after it
    for n, coeffs in ((3, {(2, 1, 0): 1, (2, 0, 1): 3}), (4, {(2, 1, 0): 1, (3, 0, 1): 1})):
        e = ZinbielTwoAlgebra.shell(ZinbielAlgebra(F5, n, BilMap(F5, n, n, n, coeffs)))
        assert check_crossed_module(e).ok
        with pytest.raises(SubalgebraError, match="not closed under operation 0") as err:
            extract_datum(standard_split(e, 0, 2))
        assert err.value.witness == (0, 0, 1)


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


def test_verify_psi_refuses_datum_of_another_split():
    # the datum with Z = 0 read off the same E has E's level dims, but not
    # the split's Z, so psi is no isomorphism of the two; it used to pass
    _, split, _ = load_document(str(SPLIT_DIRECT))
    other = extract_datum(standard_split(split.e, 0, 0))
    assert split.dims() == (2, 2, 1, 1) and core._dims(other) == (0, 0, 3, 3)
    assert verify_psi(split, extract_datum(split)).ok
    with pytest.raises(DimError, match=r"datum dims \(0, 0, 3, 3\) are not the split's"):
        verify_psi(split, other)


def test_split_refuses_maps_over_another_field():
    # with p read off the complement basis, an iota over GF(7) was read mod
    # 5 against an E over GF(5); every map of a split is over E's field
    e = zero_two_algebra(F5, 1, 1)
    one5, one7 = LinMap.identity(F5, 1), LinMap.identity(F7, 1)
    with pytest.raises(FieldMismatch, match="over another field than E"):
        ComplementSplit(e, one7, one7, None, None, vbasis1=(), vbasis0=())
    for k in range(4):
        maps = [one5] * 4
        maps[k] = one7
        with pytest.raises(FieldMismatch, match="over another field than E"):
            ComplementSplit(e, *maps)
    assert ComplementSplit(e, one5, one5, one5, one5).dims() == (1, 1, 0, 0)


def test_constants_are_read_once_on_every_route():
    # a datum keeps the nonzero constants of its maps (map_items of
    # datum_maps), read when it is built, whichever route builds it
    rng = random.Random(26)
    z = zero_two_algebra(F5, 1, 1, LinMap(F5, 1, 1, [[2]]))
    v = TwoVectorSpace(1, 1, LinMap(F5, 1, 1, [[3]]))
    d = rand_sparse_datum(z, v, rng, 0.5)
    mk = lambda: tuple(scalar_bilmap(F5, rng.randrange(5)) for _ in range(4))
    matched = MatchedPairDatum(z, zero_two_algebra(F5, 1, 1, v.d), hr=mk(), hl=mk(), tr=mk(),
                               tl=mk(), check_v=False)
    slots = rng.sample(range(len(core._places((1, 1, 1, 1)))), 9)
    routes = {
        "constructor": ExtendingDatum(z, v, d.hr, d.hl, d.tr, d.tl, d.om, d.st, d.sigma),
        "trivial": ExtendingDatum.trivial(z, v),
        "replace": d.replace(sigma=LinMap(F5, 1, 1, [[4]])),
        "_datum": unified._datum(F5, (1, 1, 1, 1), [(at, rng.randrange(1, 5)) for at in slots]),
        "extract_datum": extract_datum(standard_split(build_unified_product(d), 1, 1),
                                       check_e=False),
        "io": parse_datum(F5, datum_to_json(d), "$", None),
        "pickle": pickle.loads(pickle.dumps(d)),
        "embed": matched.embed(),
    }
    for route, datum in routes.items():
        assert datum._constants == tuple(map_items(datum_maps(datum))), route
        assert datum._constants or route == "trivial", route
    assert routes["pickle"] == routes["io"] == routes["extract_datum"] == d


FIELDS = (F5, F7, Rationals())
# (n1, n0, m1, m0): a zero level in each slot, all zero, and (2, 1, 1, 2)
SPARSE_DIMS = ((0, 0, 0, 0), (1, 1, 1, 1), (0, 1, 1, 0), (1, 0, 0, 1), (1, 1, 0, 0),
               (0, 0, 1, 1), (2, 1, 1, 2))


def _strays(dims):
    """The places of E at dims with no datum constant: (operation j, (k, i,
    jj)) in a Z x Z -> V block, (4, (row, col)) in the lower-left block of
    phi_E."""
    n1, n0, m1, m0 = dims
    nz, size = (n0, n1), (n0 + m0, n1 + m1)
    places = [(j, (k, i, jj)) for j, (a, b, c) in enumerate(_OP_LEVELS)
              for k in range(nz[c], size[c]) for i in range(nz[a]) for jj in range(nz[b])]
    return places + [(4, (r, col)) for r in range(n0, n0 + m0) for col in range(n1)]


def _split(field, dims, rng, strays):
    """A split of a candidate E (unchecked): the product of a random datum
    at dims with 1 added at each of the places strays (_strays), then
    transported along random changes of basis at both levels; its Z is the
    image of Z, its complement random."""
    n1, n0, m1, m0 = dims
    values = (rand_scalar(field, rng) if rng.random() < 0.4 else 0 for _ in itertools.count())
    maps = list(two_algebra_maps(build_unified_product(dense_datum(field, dims, values))))
    for m, key in strays:
        if m == 4:
            rows = [list(row) for row in maps[4].entries]
            rows[key[0]][key[1]] = field.one()
            maps[4] = LinMap(field, maps[4].rows, maps[4].cols, rows)
        else:
            t = maps[m]
            coeffs = {(k, i, j): v for k, i, j, v in t.items}
            coeffs[key] = field.one()
            maps[m] = BilMap(field, t.dim_a, t.dim_b, t.dim_c, coeffs)
    t1, t0 = rand_invertible(field, n1 + m1, rng), rand_invertible(field, n0 + m0, rng)
    e = transport_two_algebra(two_algebra(field, maps), t1, t0)
    iota1, iota0 = (LinMap.from_columns(field, [t.column(j) for j in range(n)], t.rows)
                    for t, n in ((t1, n1), (t0, n0)))
    return rand_split_of(e, iota1, iota0, rng)


def _extracted(extract, split):
    """The datum and its constants that extract reads off split, or the
    message and witness of its SubalgebraError."""
    try:
        datum = extract(split)
    except SubalgebraError as exc:
        return str(exc), exc.witness
    return datum, datum._constants


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.name)
def test_extract_is_the_dense_reference_on_random_splits(field):
    # the sparse contraction against the dense basis change on random
    # splits: in a subalgebra split every Z x Z -> V entry of E in the new
    # basis is a sum that cancels to zero, and with strays added the least
    # one that does not cancel is the witness
    rng = random.Random(f"extract-{field.name}")
    seen = set()
    for dims in SPARSE_DIMS:
        places = _strays(dims)
        cases = [[]] * 4 + [[place] for place in places]
        cases += [rng.sample(places, 2) for _ in range(4 if len(places) > 1 else 0)]
        for strays in cases:
            split = _split(field, dims, rng, strays)
            want = _extracted(reference_extract, split)
            assert _extracted(lambda s: extract_datum(s, check_e=False), split) == want, (
                dims, strays)
            seen.add(want[1][0] if isinstance(want[0], str) else "datum")
    assert seen == {"datum", 0, 1, 2, 3, "phi"}


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.name)
def test_datum_from_constants_is_the_dense_one(field):
    # a datum built from (slot, value) constants, its other maps shared
    # zeros, equals the one built densely from every map, with or without
    # its Z and V given, and keeps exactly those constants
    rng = random.Random(f"constants-{field.name}")
    for dims in SPARSE_DIMS:
        n = len(core._places(dims))
        top = sum(map(prod, _layout(dims)[:_FREE]))
        for density in (0.0, 0.2, 1.0):
            constants = [(at, rand_scalar(field, rng) or field.one()) for at in range(n)
                         if rng.random() < density]
            values = [field.zero()] * n
            for at, v in constants:
                values[at] = v
            dense = dense_datum(field, dims, values)
            datum = unified._datum(field, dims, reversed(constants))
            assert datum == dense and datum._constants == tuple(constants), dims
            shared = unified._datum(field, dims, constants, dense.z, dense.v)
            assert shared.z is dense.z and shared.v is dense.v and shared == dense
            trivial = ExtendingDatum.trivial(dense.z, dense.v)
            assert trivial == dense_datum(field, dims, itertools.repeat(0), dense.z, dense.v)
            assert trivial._constants == tuple(c for c in constants if c[0] < top)


def test_datum_names_each_wrong_family_map_and_field():
    # every family map of a wrong shape is refused with its own name and
    # shapes, read off the spaces of the map; sigma, and a map, sigma or d
    # over another field, likewise
    dims = {"Z1": 1, "Z0": 2, "V1": 2, "V0": 1}
    z = zero_two_algebra(F5, dims["Z1"], dims["Z0"])
    base = ExtendingDatum.trivial(z, TwoVectorSpace(dims["V1"], dims["V0"], LinMap.zero(F5, 1, 2)))
    for name in _FAMS:
        for j, (a, b, c) in enumerate(MAP_SPACES[name]):
            a, b, c = dims[a], dims[b], dims[c]
            for wrong, error, message in (
                    (BilMap.zero(F5, a + 1, b, c), DimError,
                     f"{name}[{j}] must be {a}x{b}->{c}, got {a + 1}x{b}->{c}"),
                    (BilMap.zero(F7, a, b, c), FieldMismatch, f"{name}[{j}] over wrong field")):
                family = list(getattr(base, name))
                family[j] = wrong
                with pytest.raises(error) as err:
                    base.replace(**{name: family})
                assert str(err.value) == message
        with pytest.raises(DimError) as err:
            base.replace(**{name: getattr(base, name)[:3]})
        assert str(err.value) == f"{name} must have 4 components"
    for kwargs, error, message in (
            ({"sigma": LinMap.zero(F5, 2, 1)}, DimError, "sigma must be 2x2"),
            ({"sigma": LinMap.zero(F7, 2, 2)}, FieldMismatch, "sigma over wrong field"),
            ({"v": TwoVectorSpace(2, 1, LinMap.zero(F7, 1, 2))}, FieldMismatch,
             "d over wrong field")):
        with pytest.raises(error) as err:
            base.replace(**kwargs)
        assert str(err.value) == message
