import collections
import dataclasses
import functools
import hashlib
import io
import itertools
import json
import math
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (brute_force_equivalent, brute_force_valid, nilpotent_families,
                     pairwise_partition, rand_sparse_datum, recursive_walk, reference_checks,
                     reference_datum_at, reference_rs_checks, scalar_bilmap, zero_two_algebra)
from zinbiel2 import classify, cli, core, linalg, unified
from zinbiel2 import io as zio
from zinbiel2.classify import (EnumerationSpec, OrbitPartition, RSData, are_equivalent,
                               census, check_rs_conditions, check_rs_direct,
                               compute_quotients, enumerate_valid_data, morphism_from_rs,
                               rs_search_space)
from zinbiel2.core import (ZinbielAlgebra, ZinbielTwoAlgebra, check_2alg_morphism, map_values,
                           two_algebra_maps)
from zinbiel2.engine import datum_maps
from zinbiel2.errors import (BudgetExceeded, DimError, FieldMismatch, InfeasibleSearch,
                             PreconditionError)
from zinbiel2.fields import PolynomialRing, PrimeField, Rationals
from zinbiel2.io import canonical_dumps, datum_to_json, pretty_dumps
from zinbiel2.linalg import BilMap, LinMap, TwoVectorSpace, inverse
from zinbiel2.unified import ExtendingDatum, build_unified_product, check_datum_direct

F5 = PrimeField(5)
GOLDEN = Path(__file__).parent / "goldens" / "census_gf5_zero01.json"
GOLDEN_V11 = Path(__file__).parent / "goldens" / "census_gf5_zero01_v11.json"
Z_ZERO01 = Path(__file__).parent.parent / "data" / "z_zero_01.json"
Z_Z_ID = Path(__file__).parent.parent / "data" / "z_z_id.json"


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


def test_quotients_validate_before_searching(monkeypatch):
    # the checks of are_equivalent, once for all the data, with its errors
    def no_search(*args):
        raise AssertionError("searched before validating")

    monkeypatch.setattr(classify._RSSearch, "__call__", no_search)
    data = golden_data()
    with pytest.raises(ValueError):
        compute_quotients(data, mode="homotopic")
    with pytest.raises(DimError):
        compute_quotients(data + [zero_datum(zero_z(0))])
    with pytest.raises(InfeasibleSearch) as err:
        compute_quotients(data, rs_budget=10)
    assert err.value.count == 5 ** 2


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
    with pytest.raises(ValueError, match="budget must be nonnegative, got -5"):
        list(enumerate_valid_data(F5, z, (0, 1), LinMap.zero(F5, 1, 0), budget=-5))
    with pytest.raises(BudgetExceeded):
        list(enumerate_valid_data(F5, z, (0, 1), LinMap.zero(F5, 1, 0), budget=0))


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
def test_datum_at_reads_the_census_order(p):
    # the free scalars follow Z's constants, phi and d in the layout of
    # datum_maps, in the census's order: the first and the last index and
    # every one-digit index with digit 1 or p - 1, on every reference case
    f = PrimeField(p)
    for z in _reference_z_cases(f):
        for m1, m0 in REFERENCE_VDIMS:
            for d_val in (0, 2) if m1 and m0 else (0,):
                spec = EnumerationSpec(f, z, (m1, m0), LinMap(f, m0, m1, [[d_val] * m1] * m0))
                indices = {0, spec.total - 1}
                indices.update(c * p ** k for k in range(spec.size) for c in (1, p - 1))
                for index in sorted(indices):
                    assert spec.datum_at(index) == reference_datum_at(spec, index), (
                        m1, m0, d_val, index)


def test_a_warmed_shape_builds_no_unified_product(monkeypatch):
    # a spec reads its product's constants through the gather of its shape:
    # once one spec has built that, a spec at the same dims with another Z
    # or another d builds no product at all
    def spec(phi_val, d_val):
        z = zero_two_algebra(F5, 1, 1, LinMap(F5, 1, 1, [[phi_val]]))
        return EnumerationSpec(F5, z, (1, 1), LinMap(F5, 1, 1, [[d_val]]))

    assert spec(1, 0).checks
    built = []
    real = classify.build_unified_product
    monkeypatch.setattr(classify, "build_unified_product",
                        lambda datum: built.append(datum) or real(datum))
    for other in (spec(0, 0), spec(1, 2), spec(0, 2)):
        checks = other.checks
        assert built == []
        assert [set(level) for level in checks] == reference_checks(other)


def _refuted_alone(checks, reference):
    """Whether the levelled reference holds a nonzero constant; if it does,
    checks (_RSSearch.checks) must hold one of them alone, since the pass
    stops at its first nonzero constant."""
    if not reference[0]:
        return False
    assert len(checks[0]) == 1 and checks[0][0] in reference[0]
    assert not any(checks[1:])
    return True


@pytest.mark.parametrize("p", (5, 7))
def test_rs_checks_match_reference(p):
    f = PrimeField(p)
    rng = random.Random(p)
    refuted = []
    for z in _reference_z_cases(f):
        for m1, m0 in REFERENCE_VDIMS:
            v = TwoVectorSpace(m1, m0, LinMap(f, m0, m1, [[1] * m1] * m0))
            d1, d2 = (rand_sparse_datum(z, v, rng, 0.3) for _ in range(2))
            e1, e2 = build_unified_product(d1), build_unified_product(d2)
            source, target = classify._Product.of(d1), classify._Product.of(d2)
            # the search numbers its variables in the binding order: s1, s0,
            # then r1, r0
            for mode, binding in (("equivalent", (2, 3, 0, 1)), ("cohomologous", (0, 1))):
                search = classify._RSSearch((source, target), mode, math.inf, False)
                checks = search.checks(source, target)
                reference = reference_rs_checks(e1, e2, search.shapes, binding)
                refuted.append(_refuted_alone(checks, reference))
                if not refuted[-1]:
                    assert [set(level) for level in checks] == reference
                    assert sum(map(len, checks)) == sum(map(len, map(set, checks)))
    assert 0 < sum(refuted) < len(refuted)


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


@pytest.mark.parametrize("vdims,budget,counts", [((0, 1), 5 ** 23, (125, 8, 25)),
                                                 ((1, 0), 5 ** 29, (25, 1, 1))],
                         ids=["v01", "v10"])
def test_census_over_z_z_id_matches_golden(vdims, budget, counts):
    # a nonzero Z: its constants are the fixed prefix of every datum, and at
    # V = (0, 1) each cohomology class holds several data
    _, z, f = zio.load_document(str(Z_Z_ID))
    m1, m0 = vdims
    out = census(f, z, vdims, LinMap.zero(f, m0, m1), budget=budget)
    golden = Path(__file__).parent / "goldens" / f"census_gf5_z_z_id_v{m1}{m0}.json"
    assert pretty_dumps(out) == golden.read_text()
    assert (out["valid_count"], *(q["orbit_count"] for q in out["quotients"])) == counts


def test_datum_at_keeps_the_specs_z_and_v():
    # a leaf's datum is built over the spec's own Z and V, not a copy of them
    _, z, f = zio.load_document(str(Z_Z_ID))
    spec = EnumerationSpec(f, z, (0, 1), LinMap.zero(f, 1, 0))
    for index in (0, 1, spec.total - 1):
        datum = spec.datum_at(index)
        assert datum.z is spec.z and datum.v is spec.v
        assert datum == reference_datum_at(spec, index)


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


def seeded_valid_data(zdims, vdims, d_val, count, seed, draws=5000):
    """count distinct valid data over the zero Z of zdims, by rejection
    sampling; ValueError if draws samples do not hold that many."""
    rng = random.Random(seed)
    m1, m0 = vdims
    v = TwoVectorSpace(m1, m0, LinMap(F5, m0, m1, [[d_val] * m1 for _ in range(m0)]))
    z = zero_two_algebra(F5, *zdims)
    data, drawn = [], 0
    while len(data) < count:
        if drawn == draws:
            raise ValueError(f"{draws} draws hold {len(data)} distinct valid data, "
                             f"not {count}")
        drawn += 1
        datum = rand_sparse_datum(z, v, rng, rng.choice([0.1, 0.2, 0.35]))
        if datum not in data and check_datum_direct(datum, first_only=True, check_z=False).ok:
            data.append(datum)
    return data


def test_seeded_valid_data_stops_when_too_few_exist():
    # Z = (0, 1) zero, V = (1, 1), d = 3 has 5 valid data
    assert len(seeded_valid_data((0, 1), (1, 1), 3, 5, seed=1)) == 5
    with pytest.raises(ValueError, match="5000 draws hold 5 distinct valid data, not 6"):
        seeded_valid_data((0, 1), (1, 1), 3, 6, seed=1)


@pytest.mark.parametrize("zdims,vdims,d_val", [((1, 1), (1, 1), 0), ((1, 1), (1, 1), 1),
                                               ((0, 1), (1, 1), 3), ((0, 2), (0, 1), 0)])
def test_rs_search_matches_brute_force(zdims, vdims, d_val):
    data = seeded_valid_data(zdims, vdims, d_val, 4, seed=1)
    assert rs_search_space(F5, data[0], "equivalent") <= 625
    for d1 in data:
        for d2 in data:
            for mode in ("equivalent", "cohomologous"):
                assert are_equivalent(d1, d2, mode=mode) == brute_force_equivalent(d1, d2, mode)


def test_rs_solution_sets_match_the_reference():
    # every leaf of the walk over the one-pass checks, against every leaf of
    # the reference walk over the interpreted morphism stream, with the
    # same guards, on every ordered pair at the brute-force shapes: pins the
    # merge of the two halves and the early exit
    related, refuted = [], []
    for zdims, vdims, d_val, seed in (((1, 1), (1, 1), 0, 1), ((1, 1), (1, 1), 1, 1),
                                      ((0, 1), (1, 1), 3, 1), ((0, 2), (0, 1), 0, 1),
                                      ((0, 1), (0, 2), 0, 4)):
        data = seeded_valid_data(zdims, vdims, d_val, 4, seed)
        products = list(map(classify._Product.of, data))
        e = list(map(build_unified_product, data))
        for mode, binding in (("equivalent", (2, 3, 0, 1)), ("cohomologous", (0, 1))):
            search = classify._RSSearch(products, mode, math.inf, False)
            for i, j in itertools.product(range(len(data)), repeat=2):
                checks = search.checks(products[i], products[j])
                leaves = list(classify._walk(5, checks, search.guards))
                reference = reference_rs_checks(e[i], e[j], search.shapes, binding)
                assert leaves == list(recursive_walk(5, reference, search.guards)), (
                    zdims, vdims, mode, i, j)
                related.append(bool(leaves))
                refuted.append(bool(checks[0]))
    assert 0 < sum(related) < len(related)
    assert 0 < sum(refuted) < len(related) - sum(related)


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


class _CountingLevels(tuple):
    """Levelled checks that count the nodes a walk tests: a walk reads the
    level of a node's depth once per node."""

    def __new__(cls, levels, counter):
        self = super().__new__(cls, levels)
        self.counter = counter
        return self

    def __getitem__(self, depth):
        self.counter.append(depth)
        return super().__getitem__(depth)


def test_binding_s_first_tests_fewer_nodes_than_slot_order(monkeypatch):
    # every ordered pair in mode "equivalent": the search's walks, the
    # slot-order re-walks of related pairs included, against the first leaf
    # of the slot-order walk (r1, r0, s1, s0) over the reference constraints
    data = seeded_valid_data((1, 1), (1, 1), 0, 6, seed=1)
    searched, reference = [], []
    real = classify._walk
    monkeypatch.setattr(classify, "_walk", lambda p, checks, guards=None:
                        real(p, _CountingLevels(checks, searched), guards))
    slot_guards = {3: lambda values: values[2] % 5 != 0, 4: lambda values: values[3] % 5 != 0}
    shapes = ((1, 1),) * 4
    related = 0
    for d1 in data:
        for d2 in data:
            found, _ = are_equivalent(d1, d2, check_valid=False)
            levels = reference_rs_checks(build_unified_product(d1), build_unified_product(d2),
                                         shapes)
            leaf = next(recursive_walk(5, _CountingLevels(map(tuple, levels), reference),
                                       slot_guards), None)
            assert found == (leaf is not None)
            related += found
    assert 6 < related < 36
    assert 0 < len(searched) < len(reference)


def test_witness_stays_lexicographic_when_s_is_bound_first():
    # the first leaf in the binding order (s1, s0, r1, r0) of this related
    # pair is s = 1, r0 = 3; the lexicographically first witness in (r1, r0,
    # s1, s0) order, which the slot-order re-walk finds, is r0 = 1, s = 2
    data = seeded_valid_data((1, 1), (1, 1), 1, 6, seed=3)
    d1, d2 = data[:2]
    source, target = classify._Product.of(d1), classify._Product.of(d2)
    search = classify._RSSearch((source, target), "equivalent", math.inf, False)
    checks = search.checks(source, target)
    s1, s0, r1, r0 = classify._digits(next(classify._walk(5, checks, search.guards)), 5, 4)
    assert (r1, r0, s1, s0) == (0, 3, 1, 1)
    found, rs = are_equivalent(d1, d2)
    assert (found, rs) == brute_force_equivalent(d1, d2, "equivalent")
    assert [m.entries for m in (rs.r1, rs.r0, rs.s1, rs.s0)] == [((0,),), ((1,),), ((2,),),
                                                                  ((2,),)]


def test_oracle_rejection_of_an_rs_witness_is_raised(monkeypatch, capsys):
    # with no constraints the first leaf is r = 0 with the first invertible s,
    # here the identity, which is no morphism between different products
    monkeypatch.setattr(classify._RSSearch, "checks",
                        lambda search, source, target: ((),) * (search.size + 1))
    z = ZinbielTwoAlgebra.shell(ZinbielAlgebra.zero(F5, 1))
    base = ExtendingDatum.trivial(z, TwoVectorSpace(0, 1, LinMap.zero(F5, 1, 0)))
    d_w = base.replace(om=(scalar_bilmap(F5, 1),) + base.om[1:])
    with pytest.raises(AssertionError, match="which the oracle rejects"):
        are_equivalent(base, d_w)
    code = cli.main(["classify", "--field", "gf5", "--z", str(Z_ZERO01), "--vdims", "0,1"],
                    out=io.StringIO())
    assert code == cli.EXIT_INTERNAL == 4
    assert "which the oracle rejects" in capsys.readouterr().err


def test_rs_over_another_field_is_refused():
    f7 = PrimeField(7)
    d = zero_datum(zero_z(0))
    rs7 = RSData(LinMap.zero(f7, 1, 1), LinMap.zero(f7, 1, 1),
                 LinMap.identity(f7, 1), LinMap(f7, 1, 1, [[6]]))
    for check in (check_rs_direct, check_rs_conditions, morphism_from_rs):
        with pytest.raises(FieldMismatch):
            check(rs7, d, d)
    assert rs7.field == f7
    with pytest.raises(FieldMismatch):
        RSData(LinMap.zero(F5, 1, 1), LinMap.zero(f7, 1, 1),
               LinMap.identity(F5, 1), LinMap.identity(F5, 1))


def _rebuilt(value, leaf):
    """value with leaf(x) in place of each map (LinMap, BilMap) and each
    field x in it, in traversal order; value classes are rebuilt through
    their constructors."""
    if isinstance(value, (LinMap, BilMap, PrimeField, Rationals)):
        return leaf(value)
    if isinstance(value, tuple):
        return tuple(_rebuilt(v, leaf) for v in value)
    if dataclasses.is_dataclass(value):
        return type(value)(**{f.name: _rebuilt(getattr(value, f.name), leaf)
                              for f in dataclasses.fields(value)})
    return value


def _over(field, x):
    """The map or field x over field, entries unchanged."""
    if isinstance(x, LinMap):
        return LinMap(field, x.rows, x.cols, x.entries)
    if isinstance(x, BilMap):
        return BilMap(field, x.dim_a, x.dim_b, x.dim_c, {(k, i, j): v for k, i, j, v in x.items})
    return field


@functools.cache
def _v11_data():
    return tuple(golden_data((1, 1)))


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_a_map_over_another_field_is_refused(data):
    # valid inputs of each checker, then one map, or one whole argument, over
    # another field: FieldMismatch, from a constructor or from the checker
    d1, d2 = (data.draw(st.sampled_from(_v11_data())) for _ in range(2))
    r0, s1, s0 = (LinMap(F5, 1, 1, [[data.draw(st.integers(0, 4))]]) for _ in range(3))
    rs = RSData(LinMap.zero(F5, 0, 1), r0, s1, s0)
    products = (build_unified_product(d1), build_unified_product(d2))
    check, args = data.draw(st.sampled_from([
        (check_2alg_morphism, products + (morphism_from_rs(rs, d1, d2),)),
        (morphism_from_rs, (rs, d1, d2)),
        (check_rs_conditions, (rs, d1, d2)),
        (check_rs_direct, (rs, d1, d2))]))
    check(*args)
    other = data.draw(st.sampled_from((PrimeField(7), Rationals())))
    i = data.draw(st.integers(0, len(args) - 1))
    whole = args[:i] + (_rebuilt(args[i], functools.partial(_over, other)),) + args[i + 1:]
    with pytest.raises(FieldMismatch):
        check(*whole)
    leaves = []
    _rebuilt(args, lambda x: leaves.append(x) or x)
    n_maps = sum(isinstance(x, (LinMap, BilMap)) for x in leaves)
    k, position = data.draw(st.integers(0, n_maps - 1)), itertools.count()

    def swap_kth_map(x):
        if isinstance(x, (LinMap, BilMap)) and next(position) == k:
            return _over(other, x)
        return x

    with pytest.raises(FieldMismatch):
        check(*_rebuilt(args, swap_kth_map))


def _block_is_invertible(f, m, values):
    return inverse(LinMap(f, m, m, [values[r * m:(r + 1) * m] for r in range(m)])) is not None


@pytest.mark.parametrize("m", (1, 2))
@pytest.mark.parametrize("lo", (0, 3))
def test_invertible_block_matches_inverse(m, lo):
    # every 1x1 and 2x2 block over GF(5), after lo bound values and before
    # one stale one
    test = classify._invertible_block(5, m, lo)
    for block in itertools.product(range(5), repeat=m * m):
        assert test([4, 1, 2][:lo] + list(block) + [3]) == _block_is_invertible(F5, m, block)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 6), min_size=9, max_size=9), st.integers(0, 3),
       st.booleans(), st.integers(0, 6), st.integers(0, 6))
def test_invertible_3x3_block_matches_inverse(block, lo, dependent, a, b):
    # over GF(7), with the third row a*row0 + b*row1 when dependent
    if dependent:
        block[6:] = [(a * x + b * y) % 7 for x, y in zip(block[:3], block[3:6])]
    test = classify._invertible_block(7, 3, lo)
    assert test([5] * lo + block) == _block_is_invertible(PrimeField(7), 3, block)


def golden_data(vdims=(0, 1)):
    z = ZinbielTwoAlgebra.shell(ZinbielAlgebra.zero(F5, 1))
    m1, m0 = vdims
    return list(enumerate_valid_data(F5, z, vdims, LinMap.zero(F5, m0, m1), budget=5 ** 18))


@pytest.mark.parametrize("zdims,vdims,d_val", [((1, 1), (1, 1), 0), ((1, 1), (1, 1), 1),
                                               ((0, 2), (0, 1), 0)])
def test_quotients_match_pairwise_reference(zdims, vdims, d_val):
    data = seeded_valid_data(zdims, vdims, d_val, 6, seed=1)
    for mode in ("equivalent", "cohomologous"):
        assert compute_quotients(data, mode=mode).orbits == pairwise_partition(data, mode)


@pytest.mark.parametrize("vdims", [(0, 1), (1, 1)])
def test_census_quotients_match_pairwise_reference(vdims):
    data = golden_data(vdims)
    for mode in ("equivalent", "cohomologous"):
        assert compute_quotients(data, mode=mode).orbits == pairwise_partition(data, mode)


def test_quotients_at_v20():
    # Z = (0, 1) zero, V = (2, 0) over GF(5): the s1 block ranges over GL2(F5)
    # (480 elements), so every equivalence orbit size divides 480, and the
    # cohomologous relation (r and s0 are empty blocks) is trivial
    data = golden_data((2, 0))
    assert len(data) == 265
    eq = compute_quotients(data, mode="equivalent")
    assert sorted(map(len, eq.orbits)) == [1] + [24] * 7 + [96]
    coh = compute_quotients(data, mode="cohomologous")
    assert coh.orbits == tuple(sorted(((i,) for i in range(265)),
                                      key=lambda orbit: coh.items[orbit[0]]))


def _record_products_built(monkeypatch, built):
    """Patch _Product.e to append each _Product whose e it builds to built."""
    real = classify._Product.e.func
    prop = functools.cached_property(lambda product: built.append(product) or real(product))
    prop.__set_name__(classify._Product, "e")
    monkeypatch.setattr(classify._Product, "e", prop)


def test_quotients_build_each_product_once(monkeypatch):
    # at most once per datum, and exactly for the data whose witness the
    # oracle re-checks (as source or as representative)
    data = golden_data((1, 1))
    products, rechecked = [], set()
    real_call = classify._RSSearch.__call__

    def call(search, source, target):
        rs = real_call(search, source, target)
        if rs is not None:
            rechecked.update((data.index(source.datum), data.index(target.datum)))
        return rs

    _record_products_built(monkeypatch, products)
    monkeypatch.setattr(classify._RSSearch, "__call__", call)
    # one of the six equivalence classes is a singleton; the cohomology
    # classes all are
    for mode, count in (("equivalent", 24), ("cohomologous", 0)):
        products.clear()
        rechecked.clear()
        compute_quotients(data, mode=mode)
        built = [data.index(product.datum) for product in products]
        assert sorted(built) == sorted(rechecked)
        assert len(built) == count


def test_quotients_build_one_symbolic_block_map(monkeypatch):
    # the block map over Z[x] depends only on the shapes: one per shape, not
    # one per quotient call or per search
    data = golden_data((1, 1))
    built = []
    real = classify._block_map

    def counting(r1, r0, s1, s0):
        if isinstance(r1.field, PolynomialRing):
            built.append(r1)
        return real(r1, r0, s1, s0)

    monkeypatch.setattr(classify, "_block_map", counting)
    for mode in ("equivalent", "cohomologous"):
        classify._posed.cache_clear()
        built.clear()
        compute_quotients(data, mode=mode)
        compute_quotients(data, mode=mode)
        assert len(built) == 1


def test_quotients_call_no_inverse(monkeypatch):
    # a search tests a bound s block by elimination on its digits
    data = golden_data((1, 1))
    calls = []
    for module in (classify, linalg):
        monkeypatch.setattr(module, "inverse", lambda *args: calls.append("inverse"))
    parts = [compute_quotients(data, mode=mode) for mode in ("equivalent", "cohomologous")]
    assert calls == []
    assert [len(part.orbits) for part in parts] == [6, 25]


def test_datum_related_to_two_representatives_is_raised(monkeypatch, capsys):
    # the first two data in items order are not cohomologous; relating the
    # third to every representative contradicts transitivity
    data = golden_data()
    third = sorted(data, key=lambda d: canonical_dumps(datum_to_json(d)))[2]
    real = classify._RSSearch.__call__
    monkeypatch.setattr(classify._RSSearch, "__call__", lambda search, source, target:
                        real(search, source, target) or source.datum == third)
    with pytest.raises(AssertionError, match="is related to the representatives"):
        compute_quotients(data, mode="cohomologous")
    code = cli.main(["classify", "--field", "gf5", "--z", str(Z_ZERO01), "--vdims", "0,1"],
                    out=io.StringIO())
    assert code == cli.EXIT_INTERNAL == 4
    assert "is related to the representatives" in capsys.readouterr().err


def test_census_refuses_quotients_that_do_not_refine(monkeypatch):
    # one cohomology orbit holding all five data spans three equivalence orbits
    real = classify._quotients

    def coarse(products, mode, rs_budget):
        part = real(products, mode, rs_budget)
        if mode == "cohomologous":
            part = OrbitPartition(part.items, (tuple(range(len(products))),), mode)
        return part

    monkeypatch.setattr(classify, "_quotients", coarse)
    z = ZinbielTwoAlgebra.shell(ZinbielAlgebra.zero(F5, 1))
    with pytest.raises(AssertionError, match="cohomologous relation does not refine"):
        census(F5, z, (0, 1), LinMap.zero(F5, 1, 0))


def test_census_reads_each_datum_once(monkeypatch):
    # one _Product per valid leaf, for both relations; the encoder runs
    # only to read off the skeleton of the one shape
    calls = []
    real_json, real_product = zio.datum_to_json, classify._Product.__init__
    monkeypatch.setattr(zio, "datum_to_json",
                        lambda datum: calls.append("json") or real_json(datum))
    monkeypatch.setattr(classify._Product, "__init__", lambda product, z, v, constants:
                        calls.append("product") or real_product(product, z, v, constants))
    classify._skeleton.cache_clear()
    z = ZinbielTwoAlgebra.shell(ZinbielAlgebra.zero(F5, 1))
    out = census(F5, z, (1, 1), LinMap.zero(F5, 1, 1), budget=5 ** 12)
    assert pretty_dumps(out) == GOLDEN_V11.read_text()
    assert calls.count("product") == 25
    assert calls.count("json") == 2


def test_census_builds_no_datum_and_one_product_per_leaf(monkeypatch):
    # a leaf is its constants plus one product, re-checked by the oracle once
    # and reused by the quotients' witness re-checks; no ExtendingDatum is
    # built and build_unified_product is not called, but for what a shape
    # derives once (the gather and the skeleton), here on the first census
    z = ZinbielTwoAlgebra.shell(ZinbielAlgebra.zero(F5, 1))
    d = LinMap.zero(F5, 1, 0)
    counts, products = collections.Counter(), []
    real_init, real_build = ExtendingDatum.__post_init__, unified.build_unified_product
    real_check = classify.check_crossed_module
    monkeypatch.setattr(ExtendingDatum, "__post_init__",
                        lambda datum: counts.update(["datum"]) or real_init(datum))
    for module in (classify, unified):
        monkeypatch.setattr(module, "build_unified_product",
                            lambda datum: counts.update(["build"]) or real_build(datum))
    monkeypatch.setattr(classify, "check_crossed_module",
                        lambda e, cap: counts.update([f"check cap {cap}"]) or real_check(e, cap=cap))
    _record_products_built(monkeypatch, products)
    classify._gather.cache_clear()
    classify._skeleton.cache_clear()
    for derived in ({"datum": 3, "build": 1}, {}):
        counts.clear()
        products.clear()
        out = census(F5, z, (0, 1), d)
        assert pretty_dumps(out) == GOLDEN.read_text()
        assert counts == {**derived, "check cap 1": 5}
        assert len(products) == len(set(map(id, products))) == out["valid_count"] == 5


@pytest.mark.parametrize("zfile,vdims,count", [(Z_ZERO01, (0, 1), 5), (Z_ZERO01, (1, 1), 25),
                                               (Z_ZERO01, (2, 0), 265), (Z_Z_ID, (0, 1), 125),
                                               (Z_Z_ID, (1, 0), 25)],
                         ids=["zero01-v01", "zero01-v11", "zero01-v20", "z_z_id-v01",
                              "z_z_id-v10"])
def test_leaves_are_the_reference_data(zfile, vdims, count):
    # each census leaf, built from constants, against the reference datum at
    # its index: its product, its lazily built datum and its item
    _, z, f = zio.load_document(str(zfile))
    d = LinMap.zero(f, vdims[1], vdims[0])
    spec = EnumerationSpec(f, z, vdims, d)
    indices = list(classify._walk(5, spec.checks))
    leaves = list(classify._leaves(f, z, vdims, d, spec.total))
    assert len(indices) == len(leaves) == count
    for index, product in zip(indices, leaves):
        datum = reference_datum_at(spec, index)
        assert product.e == build_unified_product(datum), index
        assert product.datum == datum, index
        assert product.item == canonical_dumps(datum_to_json(datum)), index


def test_quotients_encode_only_to_read_off_the_skeleton(monkeypatch):
    # the probe and the zero datum of the one shape, once for both modes;
    # not once per datum
    data = golden_data((1, 1))
    calls = []
    real = zio.datum_to_json
    monkeypatch.setattr(zio, "datum_to_json", lambda datum: calls.append(datum) or real(datum))
    classify._skeleton.cache_clear()
    parts = [compute_quotients(data, mode=mode) for mode in ("equivalent", "cohomologous")]
    assert len(calls) == 2
    assert {d.field for d in calls} == {F5, Rationals()}
    monkeypatch.undo()
    for part in parts:
        assert part.items == tuple(canonical_dumps(datum_to_json(d)) for d in data)


def test_cohomologous_quotient_at_v20_sweeps_each_datum_at_most_twice(monkeypatch):
    # the search space there has size 0 (r1 is 0x2, r0 is 1x0, s = id); a
    # datum's half of the morphism run is swept and reduced once as source
    # and once as target, not once for each of the 34,980 pairs, and
    # straight off the half at phi, not through SymbolicRun.sweep: posing
    # the search sweeps the run once, before the count starts
    data = golden_data((2, 0))
    compute_quotients(data[:2], mode="cohomologous")
    sweeps = []
    real = classify._half_sweep
    monkeypatch.setattr(classify, "_half_sweep", lambda table, product, p:
                        sweeps.append(product) or real(table, product, p))
    monkeypatch.setattr(core.SymbolicRun, "sweep", lambda *args: sweeps.append("run"))
    assert len(compute_quotients(data, mode="cohomologous").orbits) == 265
    assert 0 < len(sweeps) <= 2 * len(data) and "run" not in sweeps


def test_census_at_v20_is_pinned():
    # Z = (0, 1) zero, V = (2, 0), d = 0: 265 valid data and 34,980
    # cohomologous pairs through the library; the hash is of the output
    # before the one-pass checks
    z = ZinbielTwoAlgebra.shell(ZinbielAlgebra.zero(F5, 1))
    out = census(F5, z, (2, 0), LinMap.zero(F5, 0, 2), budget=5 ** 18)
    assert out["valid_count"] == 265
    assert [q["orbit_count"] for q in out["quotients"]] == [9, 265]
    digest = hashlib.sha256(json.dumps(out, sort_keys=True).encode()).hexdigest()
    assert digest == "0f567076ae0f81b1441cfd66539649f17a79076d2338584ea7050c3fae8f9bd7"


def _random_system(rng, p, n):
    """Random checks for _walk over GF(p)^n: level k holds polynomials in
    x0..x_(k-1), level 0 (rarely) a constant."""
    checks = []
    for k in range(n + 1):
        level = []
        for _ in range(rng.choice((0, 1, 1, 2)) if k else rng.random() < 0.1):
            terms = {}
            for _ in range(rng.randint(1, 3)):
                mono = tuple(sorted(rng.randrange(k) for _ in range(rng.randint(1, 2)))) if k else ()
                terms[mono] = rng.randrange(1, p)
            level.append(tuple(sorted(terms.items())))
        checks.append(tuple(level))
    return tuple(checks)


def _sum_guard(p, k, shift, values):
    return (shift + sum(values[:k])) % p != 0


@pytest.mark.parametrize("p", (2, 3, 5, 7))
def test_walk_matches_the_recursive_walk(p):
    # random systems with n = 0..4 variables, with and without guards
    rng = random.Random(p)
    for trial in range(80):
        n = trial % 5
        checks = _random_system(rng, p, n)
        guards = None
        if trial % 2:
            guards = {k: functools.partial(_sum_guard, p, k, rng.randrange(p))
                      for k in range(n + 1) if rng.random() < 0.4}
            if n >= 4 and rng.random() < 0.5:
                guards[4] = classify._invertible_block(p, 2, 0)
        leaves = list(classify._walk(p, checks, guards))
        assert leaves == list(recursive_walk(p, checks, guards)), (trial, checks)
        assert leaves == sorted(set(leaves))


@pytest.mark.parametrize("p", (2, 3, 5, 7))
def test_walk_finds_its_first_leaf_lazily(p):
    # with no constraints the first leaf is 0, reached through one node per
    # depth, and the second is one node further on
    n = 4
    for walk in (classify._walk, recursive_walk):
        visited = []
        guards = {k: (lambda values, k=k: visited.append(k) or True) for k in range(n + 1)}
        leaves = walk(p, ((),) * (n + 1), guards)
        assert visited == []
        assert next(leaves) == 0 and visited == list(range(n + 1))
        assert next(leaves) == 1 and visited == list(range(n + 1)) + [n]


@pytest.mark.parametrize("p", (5, 7))
def test_gathered_products_match_the_built_ones(p):
    # the nonzero constants of E read from the datum's sparse ones through
    # the gather of its shape, on every reference shape, zero dims included
    f = PrimeField(p)
    rng = random.Random(p)
    for z in _reference_z_cases(f):
        for m1, m0 in REFERENCE_VDIMS + ((0, 0),):
            d = LinMap(f, m0, m1, [[rng.randrange(p) for _ in range(m1)] for _ in range(m0)])
            datum = rand_sparse_datum(z, TwoVectorSpace(m1, m0, d), rng, 0.5)
            e = build_unified_product(datum)
            product = classify._Product.of(datum)
            constants = dict(product.constants)
            gather = classify._gather((z.z1.dim, z.z0.dim, m1, m0))
            assert {i: constants[at] for i, at in enumerate(gather) if at in constants} == {
                i: c for i, c in enumerate(map_values(two_algebra_maps(e), f.zero())) if c}
            assert product.e == e


@pytest.mark.parametrize("doctor", ["doubled", "summed"])
def test_gather_refuses_a_constant_that_is_not_one_datum_constant(monkeypatch, doctor):
    real = classify.build_unified_product

    def doctored(datum):
        e = real(datum)
        ring = e.field
        other = (lambda x: x) if doctor == "doubled" else (lambda x: ring.var(0))
        phi = LinMap(ring, e.phi.rows, e.phi.cols,
                     [[ring.add(x, other(x)) for x in row] for row in e.phi.entries])
        return dataclasses.replace(e, phi=phi)

    monkeypatch.setattr(classify, "build_unified_product", doctored)
    with pytest.raises(AssertionError, match="not 0 or one datum constant"):
        classify._gather.__wrapped__((1, 1, 1, 1))


# (n1, n0, m1, m0): all dims zero, Z = (0, 1) with V = (2, 0), (1, 1) with
# (1, 1), and (2, 1) with (1, 2)
ITEM_DIMS = ((0, 0, 0, 0), (0, 1, 2, 0), (1, 1, 1, 1), (2, 1, 1, 2))


def _drawn_datum(data, field, values):
    """A datum at drawn dims over field, its constants drawn from values."""
    dims = data.draw(st.sampled_from(ITEM_DIMS))
    size = len(map_values(datum_maps(classify._datum_at(field, dims, itertools.repeat(0))), 0))
    return classify._datum_at(field, dims, data.draw(st.lists(values, min_size=size,
                                                              max_size=size)))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_spliced_item_is_the_encoders(data):
    f = PrimeField(data.draw(st.sampled_from((5, 7))))
    sparse = st.sampled_from([0] * 3 * (f.char - 1) + list(range(1, f.char)))
    d = _drawn_datum(data, f, data.draw(st.sampled_from((sparse, st.integers(0, f.char - 1)))))
    assert classify._Product.of(d).item == canonical_dumps(datum_to_json(d))


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_one_datum_quotient_over_q_has_the_encoders_item(data):
    values = st.just(0) | st.fractions(min_value=-9, max_value=9, max_denominator=9)
    d = _drawn_datum(data, Rationals(), values)
    part = compute_quotients([d])
    assert part.items == (canonical_dumps(datum_to_json(d)),)
    assert part.orbits == ((0,),)


@pytest.mark.parametrize("doctor,message", [("doubled", "not name each of its"),
                                            ("dropped", "not name each of its"),
                                            ("elided", "serialized differently")])
def test_skeleton_refuses_an_encoder_it_cannot_read_off(monkeypatch, doctor, message):
    # an entry of sigma repeated or left out, or a zero sigma left out
    real = zio.datum_to_json

    def doctored(datum):
        body = real(datum)
        entries = body["sigma"]["entries"]
        if doctor == "doubled":
            entries += entries[:1]
        elif doctor == "dropped":
            del entries[:1]
        elif not entries:
            del body["sigma"]
        return body

    monkeypatch.setattr(zio, "datum_to_json", doctored)
    with pytest.raises(AssertionError, match=message):
        classify._skeleton.__wrapped__(F5, (1, 1, 1, 1))


@pytest.mark.parametrize("field", [F5, Rationals()], ids=["gf5", "q"])
def test_quotients_refuse_an_unknown_mode_for_any_number_of_data(field):
    z = zero_two_algebra(field, 1, 1)
    d = ExtendingDatum.trivial(z, TwoVectorSpace(1, 1, LinMap.zero(field, 1, 1)))
    for data in ([], [d], [d, d]):
        with pytest.raises(ValueError, match="unknown mode 'bogus'"):
            compute_quotients(data, mode="bogus")


@pytest.mark.parametrize("p", (5, 7))
def test_merged_halves_are_the_full_sweep(p):
    # a pair sums the source half swept at the source and the target half
    # swept at the target: the constraints of one sweep of the whole run at
    # both products' dense constants, up to the pass's early exit
    f = PrimeField(p)
    rng = random.Random(10 + p)
    refuted = []
    for z in _reference_z_cases(f):
        for m1, m0 in REFERENCE_VDIMS:
            v = TwoVectorSpace(m1, m0, LinMap(f, m0, m1, [[1] * m1] * m0))
            d1, d2 = (rand_sparse_datum(z, v, rng, 0.4) for _ in range(2))
            products = classify._Product.of(d1), classify._Product.of(d2)
            values = {product: tuple((((), c),) if c else () for c in map_values(
                two_algebra_maps(product.e), f.zero())) for product in products}
            for mode in ("equivalent", "cohomologous"):
                search = classify._RSSearch(products, mode, math.inf, False)
                for source, target in itertools.product(products, repeat=2):
                    full = search.run.constraints(values[source] + values[target] + search.phi, p)
                    reference = classify._levelled(full, search.size)
                    checks = search.checks(source, target)
                    refuted.append(_refuted_alone(checks, reference))
                    if not refuted[-1]:
                        assert checks == reference
    assert 0 < sum(refuted) < len(refuted)


@pytest.mark.parametrize("mono", [(0, 1), (), (2 * len(classify._gather((1, 1, 1, 1))),)],
                         ids=["two", "constant", "rs only"])
def test_posing_refuses_a_run_whose_halves_do_not_sum_to_it(monkeypatch, mono):
    # a monomial of the morphism run with two product constants, or none:
    # "rs only" is the first constant of the block map
    ring = PolynomialRing()
    doctored = core.SymbolicRun(ring, [("M1", (0,), ((((mono, 1),),), ((),)))])
    monkeypatch.setattr(classify, "morphism_run", lambda dims, dims2: doctored)
    classify._posed.cache_clear()
    d = zero_datum(zero_z(0))
    try:
        with pytest.raises(AssertionError, match="carries no source or target constant"):
            are_equivalent(d, d)
    finally:
        classify._posed.cache_clear()


def test_spec_constants_match_the_trivial_datum():
    # fixed and size are read off Z, d and the layout; the reference reads
    # them off the datum_maps of the trivial datum
    def reference(spec):
        maps = datum_maps(ExtendingDatum.trivial(spec.z, spec.v))
        zero = spec.field.zero()
        return tuple(map_values(maps[:classify._FREE], zero)), len(
            map_values(maps[classify._FREE:], zero))

    specs = [shell_spec((1, 1), 3)]
    for zdims, vdims in [((0, 1), (0, 1)), ((0, 1), (1, 0)), ((0, 1), (0, 0)),
                         ((1, 0), (0, 1)), ((1, 0), (1, 0))]:
        specs.append(EnumerationSpec(F5, zero_two_algebra(F5, *zdims), vdims,
                                     LinMap.zero(F5, vdims[1], vdims[0])))
    for p in (5, 7):
        f = PrimeField(p)
        for z in _reference_z_cases(f):
            for m1, m0 in REFERENCE_VDIMS:
                for d_val in (0, 2) if m1 and m0 else (0,):
                    specs.append(EnumerationSpec(f, z, (m1, m0),
                                                 LinMap(f, m0, m1, [[d_val] * m1] * m0)))
    _, z, f = zio.load_document(str(Z_Z_ID))
    specs += [EnumerationSpec(f, z, (0, 1), LinMap.zero(f, 1, 0)),
              EnumerationSpec(f, z, (1, 0), LinMap.zero(f, 0, 1)),
              EnumerationSpec(f, z, (1, 1), LinMap(f, 1, 1, [[4]]))]
    for spec in specs:
        assert (spec.fixed, spec.size) == reference(spec), spec.dims
