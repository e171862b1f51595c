"""The compiled oracle against the interpreted instance streams.

Over GF(p) and Q, check_crossed_module and check_2alg_morphism (and through
them verify_psi and the V.* part of check_crossed_system) substitute the
input into one symbolic run of the stream per shape.  The reference is the
stream itself, core._crossed_module_instances or core._morphism_instances,
read by ConditionReport.fill on the concrete input.  Both must give
identical reports: violations, truncation and conformance.
"""

import random
from fractions import Fraction

import pytest

from helpers import (nilpotent_families, rand_ambient_with_subalgebra, rand_invertible,
                     rand_split_of, transport_two_algebra)
from zinbiel2 import classify, core, special, unified
from zinbiel2.classify import EnumerationSpec
from zinbiel2.core import (BimodulePair, ConditionReport, TwoMorphism, ZinbielAlgebra,
                           ZinbielTwoAlgebra, check_2alg_morphism, check_crossed_module)
from zinbiel2.errors import DimError
from zinbiel2.fields import PolynomialRing, PrimeField, Rationals
from zinbiel2.linalg import BilMap, LinMap, TwoVectorSpace
from zinbiel2.special import CrossedSystem, check_crossed_system
from zinbiel2.unified import ExtendingDatum, extract_datum, verify_psi

LEVEL_DIMS = ((0, 1), (1, 0), (1, 1), (2, 1), (2, 2))
FIELDS = (PrimeField(5), PrimeField(7), Rationals())
CAPS = (1, 3, 100)
DENSITIES = (1.0, 0.2)      # dense and sparse candidates
F5 = PrimeField(5)


def _scalar(field, rng, density):
    if rng.random() >= density:
        return field.zero()
    if isinstance(field, Rationals):
        return Fraction(rng.choice([-3, -1, 1, 2, 5]), rng.choice([1, 2, 3]))
    return rng.randrange(1, field.p)


def _bil(field, a, b, c, rng, density):
    return BilMap(field, a, b, c, {(k, i, j): _scalar(field, rng, density)
                                   for k in range(c) for i in range(a) for j in range(b)})


def _lin(field, rows, cols, rng, density):
    return LinMap(field, rows, cols, [[_scalar(field, rng, density) for _ in range(cols)]
                                      for _ in range(rows)])


def _candidate(field, n1, n0, rng, density):
    """A random 2-algebra candidate: no axiom need hold."""
    return ZinbielTwoAlgebra(ZinbielAlgebra(field, n1, _bil(field, n1, n1, n1, rng, density)),
                             ZinbielAlgebra(field, n0, _bil(field, n0, n0, n0, rng, density)),
                             _lin(field, n0, n1, rng, density),
                             BimodulePair(_bil(field, n0, n1, n1, rng, density),
                                          _bil(field, n1, n0, n1, rng, density)))


def _valid(field, n1, n0, rng):
    """A valid 2-algebra transported along random basis changes t1, t0,
    with (t1, t0): the valid 2-algebra before the transport -> after it."""
    if n1 == n0:
        t = ZinbielTwoAlgebra.cone(ZinbielAlgebra(field, n1,
                                                  rng.choice(nilpotent_families(field, n1))))
    else:   # zero products are a 2-algebra for any phi
        t = ZinbielTwoAlgebra(ZinbielAlgebra.zero(field, n1), ZinbielAlgebra.zero(field, n0),
                              _lin(field, n0, n1, rng, 1.0), BimodulePair.trivial(field, n0, n1))
    t1, t0 = rand_invertible(field, n1, rng), rand_invertible(field, n0, rng)
    return t, transport_two_algebra(t, t1, t0), TwoMorphism(t1, t0)


def _interpreted(field, stream, cap):
    return ConditionReport(conforming_field=field.conforming).fill(stream, cap).finalize()


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.name)
@pytest.mark.parametrize("dims", LEVEL_DIMS, ids=str)
def test_crossed_module_matches_stream(dims, field):
    rng = random.Random(f"cm-{dims}-{field.name}")
    inputs = [_candidate(field, *dims, rng, density) for density in DENSITIES]
    inputs += _valid(field, *dims, rng)[:2]
    seen_ok = seen_truncated = False
    for t in inputs:
        for cap in CAPS:
            got = check_crossed_module(t, cap)
            assert got == _interpreted(field, core._crossed_module_instances(t), cap), cap
            seen_ok |= got.ok
            seen_truncated |= got.truncated
    assert seen_ok and seen_truncated


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.name)
@pytest.mark.parametrize("dims", LEVEL_DIMS, ids=str)
def test_morphism_matches_stream(dims, field):
    rng = random.Random(f"m-{dims}-{field.name}")
    n1, n0 = dims
    cases = []
    for density in DENSITIES:
        for dims2 in (dims, (2, 2)):    # a target of the same and of another shape
            t, t2 = _candidate(field, *dims, rng, density), _candidate(field, *dims2, rng, density)
            m = TwoMorphism(_lin(field, dims2[0], n1, rng, density),
                            _lin(field, dims2[1], n0, rng, density))
            cases.append((t, t2, m))
    t, t2, m = _valid(field, *dims, rng)
    cases += [(t, t2, m), (t2, t2, TwoMorphism(LinMap.identity(field, n1),
                                                LinMap.identity(field, n0)))]
    seen_ok = False
    for t, t2, m in cases:
        for cap in CAPS:
            got = check_2alg_morphism(t, t2, m, cap)
            assert got == _interpreted(field, core._morphism_instances(t, t2, m), cap), cap
            seen_ok |= got.ok
    assert seen_ok


def _psi_cases(field, rng):
    """(split, datum) pairs: the extracted datum, and data that violate."""
    if isinstance(field, Rationals):
        # the cone of e0.e0 = e1 in dim 2; span(e1) is a sub-2-algebra
        alg = ZinbielAlgebra(field, 2, nilpotent_families(field, 2)[1])
        e1 = LinMap(field, 2, 1, [[0], [1]])
        split = rand_split_of(ZinbielTwoAlgebra.cone(alg), e1, e1, rng)
    else:
        _, split = rand_ambient_with_subalgebra(field, rng)
    datum = extract_datum(split)
    cases = [(split, datum)]
    for density in DENSITIES:
        fams = {name: tuple(_bil(field, b.dim_a, b.dim_b, b.dim_c, rng, density)
                            for b in getattr(datum, name))
                for name in ("hr", "hl", "tr", "tl", "om", "st")}
        cases.append((split, datum.replace(**fams)))
    return cases


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.name)
def test_verify_psi_matches_stream(field, monkeypatch):
    rng = random.Random(f"psi-{field.name}")
    cases = [case for _ in range(3) for case in _psi_cases(field, rng)]
    for cap in CAPS:
        got = [verify_psi(split, datum, cap) for split, datum in cases]
        with monkeypatch.context() as m:
            m.setattr(unified, "morphism_stream", core._morphism_instances)
            want = [verify_psi(split, datum, cap) for split, datum in cases]
        assert got == want, cap
    assert got[0].ok and not all(rep.ok for rep in got)


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.name)
def test_crossed_system_star_part_matches_stream(field, monkeypatch):
    rng = random.Random(f"cs-{field.name}")
    cases = []
    for m1, m0 in LEVEL_DIMS:
        z = _valid(field, 1, 1, rng)[1]
        for star in (_candidate(field, m1, m0, rng, 1.0), _valid(field, m1, m0, rng)[1]):
            base = ExtendingDatum.trivial(z, TwoVectorSpace(m1, m0, star.phi))
            sigma = _lin(field, 1, m1, rng, 0.5)
            st = (star.z0.mult, star.z1.mult, star.act.left, star.act.right)
            cases.append(CrossedSystem(base.replace(st=st, sigma=sigma)))
    for cap in CAPS:
        for strict in (False, True):
            got = [check_crossed_system(cs, cap, strict_printed=strict) for cs in cases]
            with monkeypatch.context() as m:
                m.setattr(special, "crossed_module_stream", core._crossed_module_instances)
                want = [check_crossed_system(cs, cap, strict_printed=strict) for cs in cases]
            assert got == want, (cap, strict)
    assert any(v.cond.startswith("V.") for rep in got for v in rep.violations)


def test_symbolic_pass_once_per_shape(monkeypatch):
    core._compiled.cache_clear()
    streams = []
    real_cm, real_m = core._crossed_module_instances, core._morphism_instances

    def counting_cm(t):
        streams.append(("cm", t.field))
        return real_cm(t)

    def counting_m(t, t2, m):
        streams.append(("m", t.field))
        return real_m(t, t2, m)

    monkeypatch.setattr(core, "_crossed_module_instances", counting_cm)
    monkeypatch.setattr(core, "_morphism_instances", counting_m)
    rng = random.Random(5)
    for field in FIELDS:
        for density in DENSITIES:
            t = _candidate(field, 2, 1, rng, density)
            t2 = _candidate(field, 1, 1, rng, density)
            check_crossed_module(t)
            check_2alg_morphism(t, t2, TwoMorphism(_lin(field, 1, 2, rng, density),
                                                   _lin(field, 1, 1, rng, density)))
    assert streams == [("cm", PolynomialRing()), ("m", PolynomialRing())]
    check_crossed_module(_candidate(F5, 1, 2, rng, 0.5))
    assert len(streams) == 3 and core._compiled.cache_info().currsize == 3
    # a morphism between the same shapes the other way round is a new shape
    t, t2 = _candidate(F5, 1, 1, rng, 0.5), _candidate(F5, 2, 1, rng, 0.5)
    check_2alg_morphism(t, t2, TwoMorphism(_lin(F5, 2, 1, rng, 0.5), _lin(F5, 1, 1, rng, 0.5)))
    assert len(streams) == 4 and core._compiled.cache_info().currsize == 4


def test_searches_substitute_into_the_compiled_runs(monkeypatch):
    # spec.checks and _RSSearch.checks run no stream of their own: the first
    # search at a shape compiles its run once, later ones reuse it
    core._compiled.cache_clear()
    classify._posed.cache_clear()
    streams = []
    real_cm, real_m = core._crossed_module_instances, core._morphism_instances

    def counting_cm(t):
        streams.append("cm")
        return real_cm(t)

    def counting_m(t, t2, m):
        streams.append("m")
        return real_m(t, t2, m)

    monkeypatch.setattr(core, "_crossed_module_instances", counting_cm)
    monkeypatch.setattr(core, "_morphism_instances", counting_m)
    z = ZinbielTwoAlgebra.shell(ZinbielAlgebra.zero(F5, 1))
    specs = [EnumerationSpec(F5, z, (0, 1), LinMap.zero(F5, 1, 0)) for _ in range(2)]
    # the golden census
    assert [sum(map(len, spec.checks)) for spec in specs] == [14, 14]
    assert streams == ["cm"]
    data = [specs[0].datum_at(index) for index in (0, 1, 7)]
    products = [classify._Product(d) for d in data]
    for mode in ("equivalent", "cohomologous"):
        search = classify._RSSearch(data, mode, classify.DEFAULT_RS_BUDGET, False)
        for source, target in zip(products, products[1:]):
            search.checks(source, target)
    assert streams == ["cm", "m"] and core._compiled.cache_info().currsize == 2


def test_verify_psi_refuses_datum_of_another_shape():
    # psi maps E(datum) to the split's E level by level; a datum whose
    # product has other level dims used to pass as an isomorphism
    _, split = rand_ambient_with_subalgebra(PrimeField(7), random.Random(1))
    f7 = split.field
    datum = ExtendingDatum.trivial(ZinbielTwoAlgebra.shell(ZinbielAlgebra.zero(f7, 1)),
                                   TwoVectorSpace(0, 1, LinMap.zero(f7, 1, 0)))
    with pytest.raises(DimError, match="phi1 must be"):
        verify_psi(split, datum)


def test_kernel_reads_constant_terms():
    # no current check has a constant lhs - rhs term, but the kernel must
    # read one: it is swept once whatever the values
    ring, f5 = PolynomialRing(), PrimeField(5)
    x0, x1 = ring.var(0), ring.var(1)
    run = core.SymbolicRun(ring, [("A", (0,), ((ring.add(ring.one(), x0),), (x0,))),
                                  ("B", (1,), ((ring.mul(x0, x1),), (ring.zero(),)))])
    assert list(run.substitute([0, 3], f5.canonical)) == [("A", (0,), (1,), (0,))]
    assert list(run.substitute([2, 3], f5.canonical)) == [("A", (0,), (3,), (2,)),
                                                          ("B", (1,), (1,), (0,))]


def test_kernel_reads_constraints_mod_p():
    # values are integers or free variables of Z[x]; each component is
    # summed before it is reduced mod p, and equal components collapse
    ring = PolynomialRing()
    y0, y1, y2, y3 = map(ring.var, range(4))
    two_plus_three = ring.add(ring.mul(ring.canonical(2), ring.mul(y0, y1)),
                              ring.mul(ring.canonical(3), ring.mul(y0, y2)))
    zero = ring.zero()
    run = core.SymbolicRun(ring, [
        ("A", (0,), ((ring.add(ring.one(), y0), ring.mul(y1, y2)), (zero, zero))),
        ("B", (1,), ((two_plus_three,), (zero,))),
        ("C", (2,), ((ring.add(y0, y2),), (zero,))),
        ("D", (3,), ((ring.mul(y0, y3),), (zero,)))])
    values = [ring.var(0), ring.one(), ring.one(), zero]    # y0 = x0, y1 = y2 = 1, y3 = 0
    one_plus_x0, one = (((), 1), ((0,), 1)), (((), 1),)
    # B is 2 x0 + 3 x0: zero mod 5 only as a sum; C repeats A's 1 + x0
    assert run.constraints(values, 5) == (one_plus_x0, one)
    assert run.constraints(values, 7) == (one_plus_x0, one, (((0,), 5),))
    with pytest.raises(ValueError):
        run.constraints([ring.add(ring.var(0), ring.one())] + values[1:], 5)
