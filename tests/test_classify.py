import io
import random
from pathlib import Path

import pytest

from helpers import (brute_force_equivalent, brute_force_valid, nilpotent_families,
                     rand_sparse_datum, reference_checks, reference_rs_checks, scalar_bilmap,
                     zero_two_algebra)
from zinbiel2 import classify, cli
from zinbiel2.classify import (EnumerationSpec, RSData, are_equivalent, census,
                               check_rs_conditions, check_rs_direct, compute_quotients,
                               enumerate_valid_data, morphism_from_rs,
                               rs_search_space)
from zinbiel2.core import ZinbielAlgebra, ZinbielTwoAlgebra
from zinbiel2.errors import BudgetExceeded, FieldMismatch, InfeasibleSearch, PreconditionError
from zinbiel2.fields import PrimeField
from zinbiel2.io import pretty_dumps
from zinbiel2.linalg import BilMap, LinMap, TwoVectorSpace, inverse
from zinbiel2.unified import ExtendingDatum, build_unified_product, check_datum_direct

F5 = PrimeField(5)
GOLDEN = Path(__file__).parent / "goldens" / "census_gf5_zero01.json"
GOLDEN_V11 = Path(__file__).parent / "goldens" / "census_gf5_zero01_v11.json"
Z_ZERO01 = Path(__file__).parent.parent / "data" / "z_zero_01.json"


def zero_z(phi_val=0):
    return zero_two_algebra(F5, 1, 1, LinMap(F5, 1, 1, [[phi_val]]))


def zero_datum(z, d_val=0, sigma_val=0):
    v = TwoVectorSpace(1, 1, LinMap(F5, 1, 1, [[d_val]]))
    base = ExtendingDatum.trivial(z, v)
    return base.replace(sigma=LinMap(F5, 1, 1, [[sigma_val]]))


def test_morphism_from_rs_identity():
    z = zero_z(2)
    d = zero_datum(z)
    rs = RSData.identity(F5, d)
    m = morphism_from_rs(rs, d, d)
    assert m.phi1 == LinMap.identity(F5, 2)
    assert m.phi0 == LinMap.identity(F5, 2)
    assert check_rs_conditions(rs, d, d).ok
    assert check_rs_direct(rs, d, d).ok


def test_morphism_from_rs_blocks():
    z = zero_z(0)
    d = zero_datum(z)
    rs = RSData(LinMap(F5, 1, 1, [[2]]), LinMap(F5, 1, 1, [[3]]),
                LinMap(F5, 1, 1, [[4]]), LinMap(F5, 1, 1, [[1]]))
    m = morphism_from_rs(rs, d, d)
    assert m.phi1.entries == ((1, 2), (0, 4))
    assert m.phi0.entries == ((1, 3), (0, 1))


def test_rs_projection_is_morphism_but_not_isomorphism():
    z = zero_z(0)
    d = zero_datum(z)
    rs = RSData(LinMap.zero(F5, 1, 1), LinMap.zero(F5, 1, 1),
                LinMap.zero(F5, 1, 1), LinMap.zero(F5, 1, 1))
    assert check_rs_conditions(rs, d, d).ok
    assert check_rs_direct(rs, d, d).ok
    assert not rs.is_isomorphism_shape()


def test_h_agreement_random():
    rng = random.Random(313)
    morphism_count = 0
    for trial in range(1200):
        z = zero_z(rng.randrange(5))
        v = TwoVectorSpace(1, 1, LinMap(F5, 1, 1, [[rng.randrange(5)]]))
        dens = rng.choice([0.1, 0.3, 0.6])
        d1 = rand_sparse_datum(z, v, rng, dens)
        if trial % 5 == 0:
            # guaranteed positive: identity block map on the same datum
            d2, rs = d1, RSData.identity(F5, d1)
        else:
            d2 = d1 if rng.random() < 0.2 else rand_sparse_datum(z, v, rng, dens)
            rs = RSData(LinMap(F5, 1, 1, [[rng.randrange(5)]]),
                        LinMap(F5, 1, 1, [[rng.randrange(5)]]),
                        LinMap(F5, 1, 1, [[rng.randrange(5)]]),
                        LinMap(F5, 1, 1, [[rng.randrange(5)]]))
        ok_h = check_rs_conditions(rs, d1, d2, cap=1).ok
        ok_direct = check_rs_direct(rs, d1, d2, cap=1).ok
        assert ok_h == ok_direct
        morphism_count += ok_direct
    assert morphism_count >= 240   # positives are exercised, not just failures


def test_h_isomorphism_iff_s_invertible():
    rng = random.Random(314)
    seen_iso, seen_noniso = 0, 0
    for trial in range(600):
        z = zero_z(rng.randrange(5))
        v = TwoVectorSpace(1, 1, LinMap(F5, 1, 1, [[rng.randrange(5)]]))
        d1 = rand_sparse_datum(z, v, rng, 0.15)
        if trial % 3 == 0:
            d2 = d1   # self-maps give both invertible and projection hits
        else:
            d2 = rand_sparse_datum(z, v, rng, 0.15)
        rs = RSData(LinMap(F5, 1, 1, [[rng.randrange(5)]]),
                    LinMap(F5, 1, 1, [[rng.randrange(5)]]),
                    LinMap(F5, 1, 1, [[rng.randrange(5)]]),
                    LinMap(F5, 1, 1, [[rng.randrange(5)]]))
        if not check_rs_direct(rs, d1, d2, cap=1).ok:
            continue
        m = morphism_from_rs(rs, d1, d2)
        invertible = (inverse(m.phi1) is not None and inverse(m.phi0) is not None)
        assert invertible == rs.is_isomorphism_shape()
        seen_iso += invertible
        seen_noniso += not invertible
    assert seen_iso and seen_noniso


def test_h7_flag_recorded():
    z = zero_z(1)
    d = zero_datum(z)
    rep = check_rs_conditions(RSData.identity(F5, d), d, d)
    assert any(fl.cond == "H7" for fl in rep.flags)


def test_equivalence_reflexive():
    z = zero_z(3)
    d = zero_datum(z, sigma_val=2)
    found, rs = are_equivalent(d, d, mode="equivalent")
    assert found and rs is not None
    found, rs = are_equivalent(d, d, mode="cohomologous")
    assert found and rs.s1 == LinMap.identity(F5, 1)


def test_cohomologous_by_sigma_shift():
    # with phi = f nonzero and everything else zero, sigma and sigma' are
    # cohomologous via r1 with f*r1 = sigma - sigma' (take s = id, r0 = 0)
    z = zero_z(2)
    d0 = zero_datum(z, sigma_val=0)
    d1 = zero_datum(z, sigma_val=1)
    assert check_datum_direct(d0, check_z=False).ok
    assert check_datum_direct(d1, check_z=False).ok
    found, rs = are_equivalent(d0, d1, mode="cohomologous")
    assert found
    # witness satisfies the direct morphism check and fixes V
    assert check_rs_direct(rs, d0, d1).ok
    assert rs.s1 == LinMap.identity(F5, 1) and rs.s0 == LinMap.identity(F5, 1)
    assert not rs.r1.is_zero()


def test_not_equivalent_distinguished_by_square_dimension():
    # census representatives: the zero product and e_v e_v = e_z have product
    # spans of different dimension, hence cannot be equivalent
    f = F5
    z = ZinbielTwoAlgebra.shell(ZinbielAlgebra.zero(f, 1))
    v = TwoVectorSpace(0, 1, LinMap.zero(f, 1, 0))
    base = ExtendingDatum.trivial(z, v)
    d_zero = base
    d_w = base.replace(om=(scalar_bilmap(f, 1),) + base.om[1:])
    e0 = build_unified_product(d_zero)
    e1 = build_unified_product(d_w)
    span0 = {e0.z0.mult.eval_bb(i, j) for i in range(2) for j in range(2)}
    span1 = {e1.z0.mult.eval_bb(i, j) for i in range(2) for j in range(2)}
    assert len(span1) > len(span0)
    found, _ = are_equivalent(d_zero, d_w, mode="equivalent")
    assert not found


def test_are_equivalent_requires_valid_data():
    z = zero_z(0)
    v = TwoVectorSpace(1, 1, LinMap.zero(F5, 1, 1))
    base = ExtendingDatum.trivial(z, v)
    bad = base.replace(tl=(base.tl[0], scalar_bilmap(F5, 1), base.tl[2], base.tl[3]))
    assert not check_datum_direct(bad, check_z=False, first_only=True).ok
    with pytest.raises(PreconditionError):
        are_equivalent(bad, bad)


def test_rs_budget_enforced():
    z = zero_z(0)
    d = zero_datum(z)
    assert rs_search_space(F5, d, "equivalent") == 5 ** 4
    with pytest.raises(InfeasibleSearch) as err:
        are_equivalent(d, d, rs_budget=10)
    assert err.value.count == 5 ** 4


def test_enumerate_v_zero():
    z = zero_z(2)
    data = list(enumerate_valid_data(F5, z, (0, 0), LinMap.zero(F5, 0, 0)))
    assert len(data) == 1
    assert check_datum_direct(data[0]).ok


def test_enumerate_census_family():
    z = ZinbielTwoAlgebra.shell(ZinbielAlgebra.zero(F5, 1))
    data = list(enumerate_valid_data(F5, z, (0, 1), LinMap.zero(F5, 1, 0)))
    assert len(data) == 5    # the zero product plus e_v e_v = w e_z, w = 1..4


def test_enumerate_refuses_invalid_z():
    bad = ZinbielTwoAlgebra.shell(
        ZinbielAlgebra(F5, 1, BilMap(F5, 1, 1, 1, {(0, 0, 0): 1})))
    with pytest.raises(PreconditionError):
        list(enumerate_valid_data(F5, bad, (0, 1), LinMap.zero(F5, 1, 0)))


def test_enumerate_budget():
    z = ZinbielTwoAlgebra.shell(ZinbielAlgebra.zero(F5, 1))
    with pytest.raises(BudgetExceeded) as err:
        list(enumerate_valid_data(F5, z, (0, 1), LinMap.zero(F5, 1, 0), budget=100))
    assert err.value.count == 5 ** 6


def test_enumerate_refuses_inputs_over_another_field():
    # GF(7) over a Z and d of GF(5) used to return 7 "data" at V = (0, 1)
    f7 = PrimeField(7)
    z5 = ZinbielTwoAlgebra.shell(ZinbielAlgebra.zero(F5, 1))
    z7 = ZinbielTwoAlgebra.shell(ZinbielAlgebra.zero(f7, 1))
    for field, z, d in ((f7, z5, LinMap.zero(F5, 1, 0)), (F5, z7, LinMap.zero(f7, 1, 0)),
                        (F5, z5, LinMap.zero(f7, 1, 0)), (F5, z7, LinMap.zero(F5, 1, 0))):
        with pytest.raises(FieldMismatch):
            list(enumerate_valid_data(field, z, (0, 1), d))
        with pytest.raises(FieldMismatch):
            EnumerationSpec(field, z, (0, 1), d)


def test_compute_quotients_single_item():
    z = zero_z(1)
    d = zero_datum(z)
    part = compute_quotients([d], mode="equivalent")
    assert len(part.orbits) == 1 and part.orbits[0] == (0,)


def test_census_matches_golden():
    f = F5
    z = ZinbielTwoAlgebra.shell(ZinbielAlgebra.zero(f, 1))
    out = census(f, z, (0, 1), LinMap.zero(f, 1, 0))
    assert pretty_dumps(out) == GOLDEN.read_text()
    assert out["valid_count"] == 5
    quots = {q["relation"]: q for q in out["quotients"]}
    assert quots["equivalent"]["orbit_count"] == 3
    assert quots["cohomologous"]["orbit_count"] == 5
    assert quots["equivalent"]["orbit_count"] <= quots["cohomologous"]["orbit_count"]


def test_census_deterministic_across_runs():
    f = F5
    z = ZinbielTwoAlgebra.shell(ZinbielAlgebra.zero(f, 1))
    a = pretty_dumps(census(f, z, (0, 1), LinMap.zero(f, 1, 0)))
    b = pretty_dumps(census(f, z, (0, 1), LinMap.zero(f, 1, 0)))
    assert a == b


def test_refinement_on_census():
    f = F5
    z = ZinbielTwoAlgebra.shell(ZinbielAlgebra.zero(f, 1))
    data = list(enumerate_valid_data(f, z, (0, 1), LinMap.zero(f, 1, 0)))
    eq = compute_quotients(data, mode="equivalent")
    coh = compute_quotients(data, mode="cohomologous")
    assert len(eq.orbits) <= len(coh.orbits)
    for corbit in coh.orbits:
        owners = {next(i for i, orb in enumerate(eq.orbits) if m in orb)
                  for m in corbit}
        assert len(owners) == 1   # each cohomology class sits inside one orbit


def shell_spec(vdims, d_val=0):
    """Enumeration over Z = (0, 1) with zero product; d is 0 or the 1x1 [d_val]."""
    z = ZinbielTwoAlgebra.shell(ZinbielAlgebra.zero(F5, 1))
    m1, m0 = vdims
    d = LinMap(F5, 1, 1, [[d_val]]) if vdims == (1, 1) else LinMap.zero(F5, m0, m1)
    return EnumerationSpec(F5, z, vdims, d)


@pytest.mark.parametrize("zdims,vdims", [((0, 1), (0, 1)), ((0, 1), (1, 0)),
                                         ((0, 1), (0, 0)), ((1, 0), (0, 1)),
                                         ((1, 0), (1, 0))])
def test_search_matches_brute_force(zdims, vdims):
    z = zero_two_algebra(F5, *zdims)
    spec = EnumerationSpec(F5, z, vdims, LinMap.zero(F5, vdims[1], vdims[0]))
    assert spec.total <= 5 ** 6
    assert list(classify._walk(5, spec.checks)) == brute_force_valid(spec)


def _reference_z_cases(field):
    return (ZinbielTwoAlgebra.shell(ZinbielAlgebra.zero(field, 1)),
            zero_two_algebra(field, 1, 1, LinMap(field, 1, 1, [[1]])),
            zero_two_algebra(field, 1, 0),
            ZinbielTwoAlgebra.cone(ZinbielAlgebra(field, 2, nilpotent_families(field, 2)[1])))


REFERENCE_VDIMS = ((0, 1), (1, 0), (1, 1), (2, 0), (0, 2), (2, 1))


@pytest.mark.parametrize("p", (5, 7))
@pytest.mark.parametrize("zcase", range(4), ids=("shell01", "zero11phi", "zero10", "cone2"))
def test_checks_match_reference(p, zcase):
    # the constraints substituted into the compiled run are those the
    # interpreted oracle stream gives on the symbolic datum, level by level
    f = PrimeField(p)
    z = _reference_z_cases(f)[zcase]
    for m1, m0 in REFERENCE_VDIMS:
        for d_val in (0, 2) if m1 and m0 else (0,):
            spec = EnumerationSpec(f, z, (m1, m0), LinMap(f, m0, m1, [[d_val] * m1] * m0))
            checks = spec.checks
            assert [set(level) for level in checks] == reference_checks(spec), (m1, m0, d_val)
            assert sum(map(len, checks)) == sum(map(len, map(set, checks)))


@pytest.mark.parametrize("p", (5, 7))
def test_rs_checks_match_reference(p):
    f = PrimeField(p)
    rng = random.Random(p)
    for z in _reference_z_cases(f):
        for m1, m0 in REFERENCE_VDIMS:
            v = TwoVectorSpace(m1, m0, LinMap(f, m0, m1, [[1] * m1] * m0))
            d1, d2 = (rand_sparse_datum(z, v, rng, 0.3) for _ in range(2))
            e1, e2 = build_unified_product(d1), build_unified_product(d2)
            for mode in ("equivalent", "cohomologous"):
                shapes = classify._rs_shapes(d1, mode)
                checks = classify._rs_checks(e1, e2, shapes)
                assert [set(level) for level in checks] == reference_rs_checks(e1, e2, shapes)
                assert sum(map(len, checks)) == sum(map(len, map(set, checks)))


def test_spec_pickles_with_plain_tuple_checks():
    spec = shell_spec((0, 1))
    assert sum(map(len, spec.checks)) == 14
    for level in spec.checks:
        for poly in level:
            assert all(type(c) is int and all(type(x) is int for x in mono)
                       for mono, c in poly)


@pytest.mark.parametrize("d_val,hit_count", [(0, 25), (3, 5)])
def test_search_agrees_with_oracle_next_to_every_hit(d_val, hit_count):
    # 5^12 assignments are out of brute force's reach; instead, every
    # assignment one slot away from an accepted one gets the oracle's verdict
    spec = shell_spec((1, 1), d_val)
    n = spec.size
    assert spec.total == 5 ** n == 5 ** 12
    hits = list(classify._walk(5, spec.checks))
    assert len(hits) == hit_count
    accepted = set(hits)
    checked = 0
    for index in hits:
        for slot in range(n):
            weight = 5 ** (n - 1 - slot)
            digit = index // weight % 5
            for value in range(5):
                neighbour = index + (value - digit) * weight
                oracle = check_datum_direct(spec.datum_at(neighbour), first_only=True,
                                            check_z=False).ok
                assert oracle == (neighbour in accepted), neighbour
                checked += value != digit
    assert checked == 48 * hit_count


def test_census_next_size_matches_golden():
    z = ZinbielTwoAlgebra.shell(ZinbielAlgebra.zero(F5, 1))
    out = census(F5, z, (1, 1), LinMap.zero(F5, 1, 1), budget=5 ** 12)
    assert pretty_dumps(out) == GOLDEN_V11.read_text()
    assert out["valid_count"] == 25
    quots = {q["relation"]: q["orbit_count"] for q in out["quotients"]}
    assert quots == {"equivalent": 6, "cohomologous": 25}


def test_oracle_rejection_of_a_search_hit_is_raised(monkeypatch, capsys):
    # with no constraints every assignment is a leaf of the search; the
    # re-check must stop at the first invalid one instead of yielding it
    monkeypatch.setattr(EnumerationSpec, "checks",
                        property(lambda spec: ((),) * (spec.size + 1)))
    z = ZinbielTwoAlgebra.shell(ZinbielAlgebra.zero(F5, 1))
    yielded = []
    with pytest.raises(AssertionError, match="which the oracle rejects"):
        for datum in enumerate_valid_data(F5, z, (0, 1), LinMap.zero(F5, 1, 0)):
            yielded.append(datum)
    assert all(check_datum_direct(d, check_z=False).ok for d in yielded)
    code = cli.main(["classify", "--field", "gf5", "--z", str(Z_ZERO01), "--vdims", "0,1"],
                    out=io.StringIO())
    assert code == cli.EXIT_INTERNAL == 4
    assert "which the oracle rejects" in capsys.readouterr().err


def seeded_valid_data(zdims, vdims, d_val, count, seed):
    """count distinct valid data over the zero Z of zdims, by rejection sampling."""
    rng = random.Random(seed)
    m1, m0 = vdims
    v = TwoVectorSpace(m1, m0, LinMap(F5, m0, m1, [[d_val] * m1 for _ in range(m0)]))
    z = zero_two_algebra(F5, *zdims)
    data = []
    while len(data) < count:
        datum = rand_sparse_datum(z, v, rng, rng.choice([0.1, 0.2, 0.35]))
        if datum not in data and check_datum_direct(datum, first_only=True, check_z=False).ok:
            data.append(datum)
    return data


@pytest.mark.parametrize("zdims,vdims,d_val", [((1, 1), (1, 1), 0), ((1, 1), (1, 1), 1),
                                               ((0, 1), (1, 1), 3), ((0, 2), (0, 1), 0)])
def test_rs_search_matches_brute_force(zdims, vdims, d_val):
    data = seeded_valid_data(zdims, vdims, d_val, 4, seed=1)
    assert rs_search_space(F5, data[0], "equivalent") <= 625
    for d1 in data:
        for d2 in data:
            for mode in ("equivalent", "cohomologous"):
                assert are_equivalent(d1, d2, mode=mode) == brute_force_equivalent(d1, d2, mode)


def test_rs_search_matches_brute_force_with_2x2_s():
    # a self-pair, an equivalent pair that is not cohomologous and a pair
    # that is not equivalent
    data = seeded_valid_data((0, 1), (0, 2), 0, 4, seed=4)
    verdicts = []
    for i, j in ((0, 0), (3, 0), (0, 1)):
        for mode in ("equivalent", "cohomologous"):
            found = are_equivalent(data[i], data[j], mode=mode)
            assert found == brute_force_equivalent(data[i], data[j], mode)
            verdicts.append(found[0])
    assert verdicts == [True, True, True, False, False, False]


def test_oracle_rejection_of_an_rs_witness_is_raised(monkeypatch, capsys):
    # with no constraints the first leaf is r = 0 with the first invertible s,
    # here the identity, which is no morphism between different products
    monkeypatch.setattr(classify, "_rs_checks",
                        lambda e1, e2, shapes: ((),) * (sum(r * c for r, c in shapes) + 1))
    z = ZinbielTwoAlgebra.shell(ZinbielAlgebra.zero(F5, 1))
    base = ExtendingDatum.trivial(z, TwoVectorSpace(0, 1, LinMap.zero(F5, 1, 0)))
    d_w = base.replace(om=(scalar_bilmap(F5, 1),) + base.om[1:])
    with pytest.raises(AssertionError, match="which the oracle rejects"):
        are_equivalent(base, d_w)
    code = cli.main(["classify", "--field", "gf5", "--z", str(Z_ZERO01), "--vdims", "0,1"],
                    out=io.StringIO())
    assert code == cli.EXIT_INTERNAL == 4
    assert "which the oracle rejects" in capsys.readouterr().err
