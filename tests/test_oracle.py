"""The compiled oracle against the interpreted instance streams.

Over GF(p) and Q, check_crossed_module and check_2alg_morphism (and through
them the V.* part of check_crossed_system) read their report at the input
off one symbolic run of the stream per shape.  The reference is the stream itself,
core._crossed_module_instances or core._morphism_instances, read by
ConditionReport.fill on the concrete input.  Both must give identical
reports: violations, truncation and conformance.

The oracles on data (check_datum_direct, check_rs_direct, verify_psi)
read their reports at a datum's own constants off runs compiled on the products of
data whose constants are variables; their reference is the product route,
the same checks on the product built by the formula of the paper
(helpers.reference_product).
"""

import random
from fractions import Fraction
from pathlib import Path

import pytest

from helpers import (interpreted_report, nilpotent_families, rand_ambient_with_subalgebra,
                     rand_invertible, rand_split_of, reference_product, standard_split,
                     transport_two_algebra, zero_two_algebra)
from zinbiel2 import classify, core, special, unified
from zinbiel2.classify import RSData, check_rs_direct, morphism_from_rs
from zinbiel2.conds_special import CZ_TABLE
from zinbiel2.core import (BimodulePair, ConditionReport, TwoMorphism, ZinbielAlgebra,
                           ZinbielTwoAlgebra, check_2alg_morphism, check_crossed_module)
from zinbiel2.engine import DatumCtx
from zinbiel2.errors import DimError
from zinbiel2.fields import PolynomialRing, PrimeField, Rationals
from zinbiel2.io import pretty_dumps
from zinbiel2.linalg import BilMap, LinMap, TwoVectorSpace
from zinbiel2.special import CrossedSystem, check_crossed_system
from zinbiel2.unified import ExtendingDatum, check_datum_direct, extract_datum, verify_psi

LEVEL_DIMS = ((0, 1), (1, 0), (1, 1), (2, 1), (2, 2))
FIELDS = (PrimeField(5), PrimeField(7), Rationals())
CAPS = (1, 3, 100)
DENSITIES = (1.0, 0.2)      # dense and sparse candidates
F5 = PrimeField(5)
GOLDEN_CENSUS = Path(__file__).parent / "goldens" / "census_gf5_zero01.json"


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


def _cm_inputs(dims, field):
    """Random candidates and two valid 2-algebras at level dims over field."""
    rng = random.Random(f"cm-{dims}-{field.name}")
    inputs = [_candidate(field, *dims, rng, density) for density in DENSITIES]
    return inputs + list(_valid(field, *dims, rng)[:2])


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.name)
@pytest.mark.parametrize("dims", LEVEL_DIMS, ids=str)
def test_crossed_module_matches_stream(dims, field):
    seen_ok = seen_truncated = False
    for t in _cm_inputs(dims, field):
        for cap in CAPS:
            got = check_crossed_module(t, cap)
            assert got == _interpreted(field, core._crossed_module_instances(t), cap), cap
            seen_ok |= got.ok
            seen_truncated |= got.truncated
    assert seen_ok and seen_truncated


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.name)
@pytest.mark.parametrize("dims", LEVEL_DIMS, ids=str)
def test_two_algebra_is_its_product_at_v_zero(dims, field):
    # the base case of extending structures: t is the unified product of
    # its datum at V = 0, so the oracle on that datum reports as t's check
    v = TwoVectorSpace(0, 0, LinMap.zero(field, 0, 0))
    for t in _cm_inputs(dims, field):
        datum = ExtendingDatum.trivial(t, v)
        for cap in CAPS:
            assert check_datum_direct(datum, cap, check_z=False) == check_crossed_module(t, cap)


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


def _psi(split):
    """psi of verify_psi: the split's change of basis [iota | V-basis]."""
    (b1, _), (b0, _) = split._bases
    return TwoMorphism(b1, b0)


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.name)
def test_verify_psi_matches_stream(field):
    # against the stream on the product built by the formula of the paper;
    # PSI-STAB and PSI-COSTAB hold for every change of basis [iota | V-basis]
    rng = random.Random(f"psi-{field.name}")
    cases = [case for _ in range(3) for case in _psi_cases(field, rng)]
    for cap in CAPS:
        got = [verify_psi(split, datum, cap) for split, datum in cases]
        want = [_interpreted(field, core._morphism_instances(reference_product(datum), split.e,
                                                             _psi(split)), cap)
                for split, datum in cases]
        assert got == want, cap
    assert got[0].ok and not all(rep.ok for rep in got)


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.name)
def test_crossed_system_star_part_matches_stream(field):
    # the CZ part read off its run, then the V.* part filled from the star's
    # compiled check, against both parts interpreted in one stream
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
            want = [interpreted_report(DatumCtx(cs.datum), CZ_TABLE, cap, strict).fill(
                core._prefixed("V.", core._crossed_module_instances(
                    special.star_structure(cs.datum))), cap).finalize() for cs in cases]
            assert got == want, (cap, strict)
    assert any(v.cond.startswith("V.") for rep in got for v in rep.violations)


def test_symbolic_pass_once_per_shape(monkeypatch):
    # a 2-algebra's checks read the runs of the unified product at V = 0:
    # the datum run and the morphism run, each compiled once per shape
    core._datum_run.cache_clear()
    core._morphism_run.cache_clear()
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
    assert len(streams) == 3 and core._datum_run.cache_info().currsize == 2
    # a morphism between the same shapes the other way round is a new shape
    t, t2 = _candidate(F5, 1, 1, rng, 0.5), _candidate(F5, 2, 1, rng, 0.5)
    check_2alg_morphism(t, t2, TwoMorphism(_lin(F5, 2, 1, rng, 0.5), _lin(F5, 1, 1, rng, 0.5)))
    assert len(streams) == 4 and core._morphism_run.cache_info().currsize == 2


def test_searches_substitute_into_the_compiled_runs(monkeypatch):
    # the golden census runs no stream of its own: it compiles Z's
    # crossed-module run (its check of Z, the datum run at (0, 1, 0, 0)),
    # then the runs in a datum's constants at its dims (0, 1, 0, 1), all on
    # symbolic products, over Z[x] and no field; a second census compiles
    # nothing
    for cached in (core._datum_run, classify._rs_run, classify._posed):
        cached.cache_clear()
    compiled, fields = [], []
    real_run, real_product = core.compiled_run, core._product

    def counting(stream, *args):
        compiled.append((stream, *((t.z1.dim, t.z0.dim) for t in args[:2])))
        return real_run(stream, *args)

    for module in (core, classify):
        monkeypatch.setattr(module, "compiled_run", counting)
    monkeypatch.setattr(core, "_product", lambda field, dims, constants:
                        fields.append(field) or real_product(field, dims, constants))
    z = ZinbielTwoAlgebra.shell(ZinbielAlgebra.zero(F5, 1))
    for _ in range(2):
        out = classify.census(F5, z, (0, 1), LinMap.zero(F5, 1, 0))
        assert pretty_dumps(out) == GOLDEN_CENSUS.read_text()
    cm, m = core._crossed_module_instances, core._morphism_instances
    assert compiled == [(cm, (0, 1)), (cm, (0, 2)), (m, (0, 2), (0, 2))]
    assert set(fields) == {PolynomialRing()} and len(fields) == 4
    for run, size in ((core._datum_run, 2), (classify._rs_run, 1)):
        assert run.cache_info().currsize == size
        run((0, 1, 0, 1))
        assert run.cache_info().currsize == size


def test_verify_psi_refuses_datum_of_another_shape():
    # psi maps E(datum) to the split's E level by level; a datum whose
    # product has other level dims used to pass as an isomorphism
    _, split = rand_ambient_with_subalgebra(PrimeField(7), random.Random(1))
    f7 = split.field
    datum = ExtendingDatum.trivial(ZinbielTwoAlgebra.shell(ZinbielAlgebra.zero(f7, 1)),
                                   TwoVectorSpace(0, 1, LinMap.zero(f7, 1, 0)))
    with pytest.raises(DimError, match="not the split's"):
        verify_psi(split, datum)


def test_kernel_reads_constant_terms():
    # no current check has a constant lhs - rhs term, but the kernel must
    # read one: it is swept once whatever the values
    ring, f5 = PolynomialRing(), PrimeField(5)
    x0, x1 = ring.var(0), ring.var(1)
    run = core.SymbolicRun(ring, [("A", (0,), ((ring.add(ring.one(), x0),), (x0,))),
                                  ("B", (1,), ((ring.mul(x0, x1),), (ring.zero(),)))])
    assert run.report(f5, [0, 3]).violations == [("A", (0,), (1,), (0,))]
    assert run.report(f5, [2, 3]).violations == [("A", (0,), (3,), (2,)),
                                                 ("B", (1,), (1,), (0,))]


def test_kernel_report_is_ranked_at_build():
    # the report keeps the first violated items in run order, each form as
    # printed right after its instance, and lists them by rank: natural id
    # order (Z2 < Z2.as-printed < Z3 < Z10), then the witness, then run
    # order for a shared (id, witness)
    ring, f5 = PolynomialRing(), PrimeField(5)
    x0, zero = ring.var(0), ring.zero()
    two_x0 = ring.mul(ring.canonical(2), x0)
    run = core.SymbolicRun(ring, [("Z10", (0,), ((x0,), (zero,))),
                                  ("Z2", (0,), ((two_x0,), (zero,), (zero,), (zero,))),
                                  ("Z2", (1,), ((zero,), (zero,), (x0,), (zero,))),
                                  ("Z3", (0,), ((x0,), (zero,))),
                                  ("Z10", (0,), ((two_x0,), (zero,)))],
                           [("Z3", "no form as printed"), ("Z2", "typo")])
    z2, z2p = ("Z2", (0,), (2,), (0,)), ("Z2.as-printed", (1,), (1,), (0,))
    z3, z10, z10b = ("Z3", (0,), (1,), (0,)), ("Z10", (0,), (1,), (0,)), ("Z10", (0,), (2,), (0,))
    for strict, want in ((True, [z2, z2p, z3, z10, z10b]), (False, [z2, z3, z10, z10b])):
        rep = run.report(f5, [1], strict_printed=strict)
        assert rep.violations == want and not rep.truncated
        flags = [(f.cond, f.as_printed_disagrees) for f in rep.flags]
        assert flags == [("Z2", True), ("Z3", False)]
    # the cap falls on a Z2 whose form as printed holds: that form is not read
    rep = run.report(f5, [1], 2, strict_printed=True)
    assert rep.violations == [z2, z10] and rep.truncated and not rep.flags[0].as_printed_disagrees
    rep = run.report(f5, [1], 3, strict_printed=True)    # the cap falls on Z2.as-printed
    assert rep.violations == [z2, z2p, z10] and rep.truncated and rep.flags[0].as_printed_disagrees
    rep = run.report(f5, [0], strict_printed=True)
    assert rep.ok and not rep.truncated and not rep.flags[0].as_printed_disagrees
    with pytest.raises(ValueError):
        run.report(f5, [1], 0)


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


# datum dims (n1, n0, m1, m0): Z at level dims (n1, n0), V at (m1, m0)
DATUM_DIMS = ((0, 1, 1, 1), (1, 1, 1, 1), (2, 1, 1, 1), (1, 1, 2, 1))


def _datum(z, v, rng, density):
    """A random datum over z and v: no axiom need hold."""
    base = ExtendingDatum.trivial(z, v)
    fams = {name: tuple(_bil(z.field, b.dim_a, b.dim_b, b.dim_c, rng, density)
                        for b in getattr(base, name))
            for name in ("hr", "hl", "tr", "tl", "om", "st")}
    return base.replace(sigma=_lin(z.field, z.z0.dim, v.dim1, rng, density), **fams)


def _oracle_cases(field, dims, rng):
    """(oracle, product route) pairs, each a function of the cap, on random
    data at dims, dense and sparse, and on inputs every axiom holds for."""
    n1, n0, m1, m0 = dims
    zero = ExtendingDatum.trivial(zero_two_algebra(field, n1, n0),
                                  TwoVectorSpace(m1, m0, LinMap.zero(field, m0, m1)))
    cases = []
    for density in DENSITIES:
        z = _candidate(field, n1, n0, rng, density)
        v = TwoVectorSpace(m1, m0, _lin(field, m0, m1, rng, density))
        d1, d2 = _datum(z, v, rng, density), _datum(z, v, rng, density)
        rs = RSData(_lin(field, n1, m1, rng, density), _lin(field, n0, m0, rng, density),
                    _lin(field, m1, m1, rng, density), _lin(field, m0, m0, rng, density))
        e2 = standard_split(reference_product(d2), n1, n0)
        for d in (d1, d2, zero):
            cases.append((lambda cap, d=d: check_datum_direct(d, cap, check_z=False),
                          lambda cap, d=d: check_crossed_module(reference_product(d), cap)))
        for rs_, a, b in ((rs, d1, d2), (rs, d1, d1), (RSData.identity(field, d1), d1, d1)):
            cases.append((lambda cap, t=(rs_, a, b): check_rs_direct(*t, cap),
                          lambda cap, t=(rs_, a, b): check_2alg_morphism(
                              reference_product(t[1]), reference_product(t[2]),
                              morphism_from_rs(*t), cap)))
        for split, d in ((rand_split_of(e2.e, e2.iota1, e2.iota0, rng), d1),
                         (standard_split(reference_product(d1), n1, n0), d1)):
            cases.append((lambda cap, t=(split, d): verify_psi(*t, cap),
                          lambda cap, t=(split, d): check_2alg_morphism(
                              reference_product(t[1]), t[0].e, _psi(t[0]), cap)))
    return cases


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.name)
@pytest.mark.parametrize("dims", DATUM_DIMS, ids=str)
def test_oracles_on_data_match_the_product_route(dims, field):
    # the same violations in the same order, truncation and conformance;
    # verify_psi adds PSI-STAB and PSI-COSTAB, which hold on every split
    rng = random.Random(f"data-{dims}-{field.name}")
    seen_ok = seen_truncated = 0
    for oracle, route in _oracle_cases(field, dims, rng):
        for cap in CAPS:
            got = oracle(cap)
            assert got == route(cap), cap
            seen_ok += got.ok
            seen_truncated += got.truncated
    assert seen_ok >= 3 * len(CAPS) and seen_truncated


def test_oracles_on_data_build_no_product(monkeypatch):
    # once the runs of a shape are compiled, no oracle on data builds a
    # unified product: _product and build_unified_product are never called
    shapes = ((1, 1, 1, 1), (2, 1, 1, 1))
    for dims in shapes:     # compiles the runs of the shape
        for oracle, _ in _oracle_cases(F5, dims, random.Random(0)):
            oracle(3)
    rng = random.Random(7)
    cases = [case for dims in shapes for case in _oracle_cases(F5, dims, rng)]
    want = [route(3) for _, route in cases]

    def refuse(*args):
        raise AssertionError("an oracle built a unified product")

    for module in (core, unified, classify, special):
        for name in ("_product", "build_unified_product"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refuse)
    assert [oracle(3) for oracle, _ in cases] == want
