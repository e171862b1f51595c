import math
import random
from fractions import Fraction
from itertools import chain

import pytest

from helpers import (interpreted_report, rand_ambient_with_subalgebra, rand_sparse_datum,
                     rand_zinbiel_algebra, reference_product, scalar_bilmap, zero_two_algebra)
from zinbiel2 import core
from zinbiel2.classify import RSData, check_rs_conditions, check_rs_direct, morphism_from_rs
from zinbiel2.conds_morphism import H_TABLE
from zinbiel2.conds_special import BZ_TABLE, CZ_TABLE
from zinbiel2.conds_unified import ZZ_TABLE
from zinbiel2.core import (BimodulePair, ConditionReport, TwoMorphism, Violation, ZinbielAlgebra,
                           ZinbielTwoAlgebra, check_2alg_morphism, check_action,
                           check_bimodule, check_crossed_module, check_zinbiel, map_values,
                           semidirect_product, two_algebra, two_algebra_maps, value_maps)
from zinbiel2.engine import DatumCtx, MorphismCtx, evaluate_conditions
from zinbiel2.errors import FieldMismatch, PreconditionError
from zinbiel2.fields import PolynomialRing, PrimeField, Rationals
from zinbiel2.linalg import BilMap, LinMap, TwoVectorSpace
from zinbiel2.special import (CrossedSystem, MatchedPairDatum, check_crossed_system,
                              check_matched_pair, star_structure)
from zinbiel2.unified import (ExtendingDatum, check_datum_direct, check_trivial_z1_conditions,
                              extract_datum, verify_psi)

F5 = PrimeField(5)
F7 = PrimeField(7)
Q = Rationals()


def nf2(field):
    """e0*e0 = e1, everything else zero."""
    return ZinbielAlgebra(field, 2, BilMap(field, 2, 2, 2, {(1, 0, 0): field.one()}))


def test_check_zinbiel_dim2_over_q():
    rep = check_zinbiel(nf2(Q))
    assert rep.ok


def test_check_zinbiel_zero_mult():
    assert check_zinbiel(ZinbielAlgebra.zero(F5, 3)).ok


def test_check_zinbiel_idempotent_violation():
    alg = ZinbielAlgebra(F5, 1, BilMap(F5, 1, 1, 1, {(0, 0, 0): 1}))
    rep = check_zinbiel(alg)
    assert not rep.ok
    v = rep.violations[0]
    assert v.cond == "ZI" and v.witness == (0, 0, 0)
    assert v.lhs == (1,) and v.rhs == (2,)    # e*e = e vs 2e


def test_check_bimodule_trivial_action():
    z = rand_zinbiel_algebra(F5, random.Random(1))
    rep = check_bimodule(z, 2, BimodulePair.trivial(F5, z.dim, 2))
    assert rep.ok


def test_check_bimodule_scalar_constraints():
    # dim-1 zero algebra acting on a line: left scalar a, right scalar b.
    z = ZinbielAlgebra.zero(F5, 1)
    # a=1, b=4: a(a+b) = 0, b^2 = ... B2 gives b*b vs 0 -> violated unless b=0
    act = BimodulePair(scalar_bilmap(F5, 1), scalar_bilmap(F5, 4))
    rep = check_bimodule(z, 1, act)
    ids = {v.cond for v in rep.violations}
    assert "B1" not in ids            # a(a+b) = 1*(1+4) = 0
    assert "B2" in ids                # (v<|x)<|y = b^2 = 16 = 1 != 0
    # a=1, b=1: B1 rhs = a(a+b) = 2 != 0
    act = BimodulePair(scalar_bilmap(F5, 1), scalar_bilmap(F5, 1))
    rep = check_bimodule(z, 1, act)
    b1 = [v for v in rep.violations if v.cond == "B1"]
    assert b1 and b1[0].witness == (0, 0, 0) and b1[0].rhs == (2,)
    # the only bimodules here have a = b = 0 (that is a(a+b)=0, b^2=0, a(b+a)=0)
    for a in range(5):
        for b in range(5):
            act = BimodulePair(scalar_bilmap(F5, a), scalar_bilmap(F5, b))
            assert check_bimodule(z, 1, act).ok == (a == 0 and b == 0)


def test_check_bimodule_self_action():
    z = nf2(F5)
    rep = check_bimodule(z, 2, BimodulePair(z.mult, z.mult))
    assert rep.ok


def test_check_bimodule_embeds_zinbiel_precondition():
    bad = ZinbielAlgebra(F5, 1, BilMap(F5, 1, 1, 1, {(0, 0, 0): 1}))
    rep = check_bimodule(bad, 1, BimodulePair.trivial(F5, 1, 1))
    assert any(v.cond == "Z.ZI" for v in rep.violations)


def test_semidirect_trivial_action_is_direct_sum():
    z = nf2(F5)
    sd = semidirect_product(z, 2, BimodulePair.trivial(F5, 2, 2))
    assert sd.dim == 4
    assert check_zinbiel(sd).ok
    # the V block multiplies to zero
    assert sd.mult.eval_bb(2, 3) == (0, 0, 0, 0)
    assert sd.mult.eval_bb(0, 0) == (0, 1, 0, 0)


def test_semidirect_self_action_dim4():
    z = nf2(F5)
    sd = semidirect_product(z, 2, BimodulePair(z.mult, z.mult))
    assert sd.dim == 4
    assert check_zinbiel(sd).ok


def test_semidirect_dimv_zero_returns_z():
    z = nf2(F5)
    sd = semidirect_product(z, 0, BimodulePair.trivial(F5, 2, 0))
    assert sd.mult == z.mult


def test_semidirect_rejects_non_bimodule():
    z = ZinbielAlgebra.zero(F5, 1)
    act = BimodulePair(scalar_bilmap(F5, 1), scalar_bilmap(F5, 1))
    with pytest.raises(PreconditionError) as err:
        semidirect_product(z, 1, act)
    assert err.value.report is not None and not err.value.report.ok


def test_check_action_examples():
    z = nf2(F5)
    # trivial action on a zero algebra
    assert check_action(z, ZinbielAlgebra.zero(F5, 1),
                        BimodulePair.trivial(F5, 2, 1)).ok
    # an algebra acting on itself by multiplication
    assert check_action(z, z, BimodulePair(z.mult, z.mult)).ok
    # zero action with nonzero Z1 multiplication: every axiom has an action
    # factor on each side, so the report stays empty
    assert check_action(ZinbielAlgebra.zero(F5, 1), z,
                        BimodulePair.trivial(F5, 1, 2)).ok


def test_checks_refuse_inputs_over_different_fields():
    # Z0, Z1 and the action over one field, or each check refuses before
    # any instance runs: a GF(7) Z1 beside a GF(5) Z0, a GF(7) action on a
    # GF(5) Z
    z5, z7 = ZinbielAlgebra.zero(F5, 1), ZinbielAlgebra.zero(F7, 1)
    act7 = BimodulePair(scalar_bilmap(F7, 6), scalar_bilmap(F7, 5))
    for check in (lambda: check_action(z5, z7, BimodulePair.trivial(F5, 1, 1)),
                  lambda: check_action(z5, z5, act7), lambda: check_bimodule(z5, 1, act7),
                  lambda: semidirect_product(z5, 1, act7)):
        with pytest.raises(FieldMismatch, match="different fields"):
            check()


def test_crossed_module_shell_and_cone():
    rng = random.Random(7)
    for _ in range(10):
        z = rand_zinbiel_algebra(F5, rng)
        assert check_crossed_module(ZinbielTwoAlgebra.shell(z)).ok
        assert check_crossed_module(ZinbielTwoAlgebra.cone(z)).ok


def test_crossed_module_two_vector_space():
    # both algebras zero, arbitrary connecting map, trivial action
    d = LinMap(F5, 2, 3, [[1, 2, 0], [0, 1, 4]])
    t = zero_two_algebra(F5, 3, 2, phi=d)
    assert check_crossed_module(t).ok


def test_crossed_module_violation_localized():
    z = nf2(F5)
    t = ZinbielTwoAlgebra.cone(z)
    # break CM3 by zeroing the left action
    bad = ZinbielTwoAlgebra(t.z1, t.z0, t.phi, BimodulePair(
        BilMap.zero(F5, 2, 2, 2), t.act.right))
    rep = check_crossed_module(bad)
    assert not rep.ok
    assert any(v.cond == "CM3" for v in rep.violations)


def test_morphism_identity_and_zero():
    z = nf2(F5)
    t = ZinbielTwoAlgebra.cone(z)
    ident = TwoMorphism(LinMap.identity(F5, 2), LinMap.identity(F5, 2))
    assert check_2alg_morphism(t, t, ident).ok
    target = zero_two_algebra(F5, 0, 0)
    zero = TwoMorphism(LinMap.zero(F5, 0, 2), LinMap.zero(F5, 0, 2))
    assert check_2alg_morphism(t, target, zero).ok


def test_morphism_detects_perturbed_constant():
    z = nf2(F5)
    t = ZinbielTwoAlgebra.cone(z)
    mult2 = BilMap(F5, 2, 2, 2, {(1, 0, 0): 2})
    t2 = ZinbielTwoAlgebra(ZinbielAlgebra(F5, 2, mult2), t.z0, t.phi, t.act)
    ident = TwoMorphism(LinMap.identity(F5, 2), LinMap.identity(F5, 2))
    rep = check_2alg_morphism(t, t2, ident)
    assert not rep.ok
    assert any(v.cond == "M2" and v.witness == (0, 0) for v in rep.violations)


def test_morphism_over_another_field_is_refused():
    # over GF(7), 6 * 6 = 1 != 6, so [[6]] is no endomorphism of e.e = e;
    # read with the algebra's field GF(5) it would be the identity
    t = ZinbielTwoAlgebra.shell(ZinbielAlgebra(F5, 1, scalar_bilmap(F5, 1)))
    m = TwoMorphism(LinMap.zero(F7, 0, 0), LinMap(F7, 1, 1, [[6]]))
    with pytest.raises(FieldMismatch):
        check_2alg_morphism(t, t, m)
    assert m.field == F7
    with pytest.raises(FieldMismatch):
        TwoMorphism(LinMap.zero(F5, 0, 0), LinMap(F7, 1, 1, [[6]]))
    assert check_2alg_morphism(t, t, TwoMorphism(LinMap.zero(F5, 0, 0),
                                                 LinMap(F5, 1, 1, [[1]]))).ok


def test_multilinear_reduction_soundness():
    # basis-level verdict == verdict on random element triples
    rng = random.Random(2024)
    for _ in range(100):
        dim = rng.randint(1, 3)
        if rng.random() < 0.4:
            alg = rand_zinbiel_algebra(F5, rng, max_dim=dim)
        else:
            coeffs = {(rng.randrange(dim), rng.randrange(dim), rng.randrange(dim)):
                      rng.randrange(1, 5) for _ in range(rng.randint(0, 4))}
            alg = ZinbielAlgebra(F5, dim, BilMap(F5, dim, dim, dim, coeffs))
        basis_verdict = check_zinbiel(alg, cap=1).ok
        elt_verdict = True
        for _ in range(50):
            x = tuple(rng.randrange(5) for _ in range(alg.dim))
            y = tuple(rng.randrange(5) for _ in range(alg.dim))
            z = tuple(rng.randrange(5) for _ in range(alg.dim))
            lhs = alg.mult.eval(alg.mult.eval(x, y), z)
            from zinbiel2.linalg import vadd
            rhs = alg.mult.eval(x, vadd(F5, alg.mult.eval(y, z), alg.mult.eval(z, y)))
            if lhs != rhs:
                elt_verdict = False
                break
        assert basis_verdict == elt_verdict


def test_semidirect_iff_bimodule_dims_1_1_exhaustive():
    # dim Z = dim V = 1 over GF(5): the only Zinbiel Z is the zero one, and
    # the semidirect product is Zinbiel exactly when (a, b) is a bimodule
    z = ZinbielAlgebra.zero(F5, 1)
    for a in range(5):
        for b in range(5):
            act = BimodulePair(scalar_bilmap(F5, a), scalar_bilmap(F5, b))
            is_bimodule = check_bimodule(z, 1, act, cap=1).ok
            # assemble the candidate product without the precondition gate
            coeffs = {}
            if a:
                coeffs[(1, 0, 1)] = a
            if b:
                coeffs[(1, 1, 0)] = b
            cand = ZinbielAlgebra(F5, 2, BilMap(F5, 2, 2, 2, coeffs))
            assert check_zinbiel(cand, cap=1).ok == is_bimodule
            if is_bimodule:
                assert semidirect_product(z, 1, act) == cand


def test_semidirect_iff_bimodule_dims_2_1_exhaustive():
    # every (Z, act) with dim Z = 2, dim V = 1 over GF(5): a fast bespoke
    # filter finds the Zinbiel multiplications, the library confirms each,
    # and for all of them the semidirect product is Zinbiel iff the action
    # is a bimodule
    import itertools
    P = 5

    def zinbiel_ok(c):
        for i in range(2):
            for j in range(2):
                xij = c[(i, j)]
                for k in range(2):
                    l0 = (xij[0] * c[(0, k)][0] + xij[1] * c[(1, k)][0]) % P
                    l1 = (xij[0] * c[(0, k)][1] + xij[1] * c[(1, k)][1]) % P
                    s0 = (c[(j, k)][0] + c[(k, j)][0]) % P
                    s1 = (c[(j, k)][1] + c[(k, j)][1]) % P
                    r0 = (s0 * c[(i, 0)][0] + s1 * c[(i, 1)][0]) % P
                    r1 = (s0 * c[(i, 0)][1] + s1 * c[(i, 1)][1]) % P
                    if l0 != r0 or l1 != r1:
                        return False
        return True

    vals = list(itertools.product(range(P), repeat=2))
    zinbiel_tensors = []
    rejected_samples = []
    for c00 in vals:
        for c01 in vals:
            for c10 in vals:
                for c11 in vals:
                    c = {(0, 0): c00, (0, 1): c01, (1, 0): c10, (1, 1): c11}
                    if zinbiel_ok(c):
                        zinbiel_tensors.append(c)
                    elif len(rejected_samples) < 200 and (c00[0] + c01[1]) % 7 == 3:
                        rejected_samples.append(c)

    def to_algebra(c):
        coeffs = {}
        for (i, j), (a0, a1) in c.items():
            if a0:
                coeffs[(0, i, j)] = a0
            if a1:
                coeffs[(1, i, j)] = a1
        return ZinbielAlgebra(F5, 2, BilMap(F5, 2, 2, 2, coeffs))

    # cross-validate the bespoke filter against the library checker
    assert len(zinbiel_tensors) == 25
    for c in zinbiel_tensors:
        assert check_zinbiel(to_algebra(c), cap=1).ok
    for c in rejected_samples:
        assert not check_zinbiel(to_algebra(c), cap=1).ok

    # both directions of the semidirect criterion, exhaustively in (a, b)
    for c in zinbiel_tensors:
        z = to_algebra(c)
        for a0 in range(P):
            for a1 in range(P):
                for b0 in range(P):
                    for b1 in range(P):
                        left = BilMap(F5, 2, 1, 1,
                                      {(0, 0, 0): a0, (0, 1, 0): a1})
                        right = BilMap(F5, 1, 2, 1,
                                       {(0, 0, 0): b0, (0, 0, 1): b1})
                        act = BimodulePair(left, right)
                        is_bim = check_bimodule(z, 1, act, cap=1).ok
                        coeffs = {(k, i, j): v for (k, i, j, v) in z.mult.items}
                        if a0:
                            coeffs[(2, 0, 2)] = a0
                        if a1:
                            coeffs[(2, 1, 2)] = a1
                        if b0:
                            coeffs[(2, 2, 0)] = b0
                        if b1:
                            coeffs[(2, 2, 1)] = b1
                        cand = ZinbielAlgebra(F5, 3, BilMap(F5, 3, 3, 3, coeffs))
                        assert check_zinbiel(cand, cap=1).ok == is_bim
                        if is_bim:
                            assert semidirect_product(z, 1, act) == cand


def _cm5_follows_from_rest(t):
    rep = check_crossed_module(t)
    others = [v for v in rep.violations if v.cond != "CM5"]
    cm5 = [v for v in rep.violations if v.cond == "CM5"]
    if not others:
        assert not cm5
        return True
    return False


def test_cm5_redundant_exhaustive_dims_1_1():
    # all 5^5 candidates at dims (1,1): scalars (m1, m0, f, a, b)
    valid = 0
    for m1 in range(5):
        for m0 in range(5):
            for f in range(5):
                for a in range(5):
                    for b in range(5):
                        t = ZinbielTwoAlgebra(
                            ZinbielAlgebra(F5, 1, scalar_bilmap(F5, m1)),
                            ZinbielAlgebra(F5, 1, scalar_bilmap(F5, m0)),
                            LinMap(F5, 1, 1, [[f]]),
                            BimodulePair(scalar_bilmap(F5, a), scalar_bilmap(F5, b)))
                        valid += _cm5_follows_from_rest(t)
    assert valid == 5   # zero structures with arbitrary phi


def test_cm5_redundant_for_valid_crossed_modules():
    # every candidate passing CM1-CM4 (and the action axioms) satisfies CM5
    rng = random.Random(99)
    checked = 0
    for _ in range(10000):
        n1, n0 = rng.randint(1, 2), rng.randint(1, 2)
        phi = LinMap(F5, n0, n1, [[rng.randrange(5) for _ in range(n1)]
                                  for _ in range(n0)])
        def sparse(da, db, dc):
            return BilMap(F5, da, db, dc,
                          {(rng.randrange(dc), rng.randrange(da), rng.randrange(db)):
                           rng.randrange(1, 5) for _ in range(rng.randint(0, 2))})
        t = ZinbielTwoAlgebra(
            ZinbielAlgebra(F5, n1, sparse(n1, n1, n1)),
            ZinbielAlgebra(F5, n0, sparse(n0, n0, n0)),
            phi, BimodulePair(sparse(n0, n1, n1), sparse(n1, n0, n1)))
        checked += _cm5_follows_from_rest(t)
    assert checked > 50  # the sample actually exercised valid instances


def test_report_merge_is_canonically_sorted():
    bad = ZinbielAlgebra(F5, 2, BilMap(F5, 2, 2, 2, {(0, 0, 0): 1, (1, 1, 1): 1}))
    rep = check_crossed_module(ZinbielTwoAlgebra.cone(bad))
    keys = [v.sort_key() for v in rep.violations]
    assert keys == sorted(keys)


@pytest.mark.parametrize("cap", [0, -1])
def test_report_refuses_cap_below_one(cap):
    # refused before anything is evaluated, also on inputs with no violation
    trivial = ExtendingDatum.trivial(ZinbielTwoAlgebra.shell(ZinbielAlgebra.zero(F5, 1)),
                                     TwoVectorSpace(1, 1, LinMap.zero(F5, 1, 1)))
    calls = (lambda: ConditionReport().add("ZI", (0, 0, 0), (1,), (2,), cap),
             lambda: check_zinbiel(ZinbielAlgebra.zero(F5, 1), cap=cap),
             lambda: evaluate_conditions(DatumCtx(trivial), ZZ_TABLE, cap=cap))
    for call in calls:
        with pytest.raises(ValueError):
            call()


def test_violation_is_an_immutable_tuple():
    v = Violation("Z14", (0, 1), (1, 2), (0, 2))
    assert (v.cond, v.witness, v.lhs, v.rhs) == ("Z14", (0, 1), (1, 2), (0, 2))
    assert repr(v) == "Violation(cond='Z14', witness=(0, 1), lhs=(1, 2), rhs=(0, 2))"
    with pytest.raises(AttributeError):
        v.cond = "Z2"
    with pytest.raises(TypeError):
        v[0] = "Z2"
    twin = Violation("Z14", (0, 1), (1, 2), (0, 2))
    assert twin is not v and twin == v and hash(twin) == hash(v) and len({v, twin}) == 1
    assert v != Violation("Z14", (0, 1), (1, 2), (0, 3))
    assert v == ("Z14", (0, 1), (1, 2), (0, 2))     # a tuple of its fields
    # natural order of the ids, then the witness
    order = [Violation(*key, (), ()) for key in
             [("B1", (1, 0, 0)), ("Z1.ZI", (0, 0, 0)), ("Z2", (0,)), ("Z2", (1,)), ("Z14", (0,))]]
    assert sorted(reversed(order), key=Violation.sort_key) == order
    rep = check_zinbiel(ZinbielAlgebra(F5, 1, scalar_bilmap(F5, 1)))   # e0.e0 = e0
    assert rep.violations == [("ZI", (0, 0, 0), (1,), (2,))]
    assert type(rep.violations[0]) is Violation


def _added(instances, cap, report=None):
    """The report ConditionReport.add builds from the violated instances."""
    report = report or ConditionReport()
    for instance in instances:
        if instance[2] != instance[3] and not report.add(*instance, cap):
            break
    return report


def test_fill_keeps_the_rules_of_add():
    instances = [("A", (i,), (i % 2,), (0,)) for i in range(10)]     # 5 violated
    for cap in range(1, 8):
        stream = iter(instances)
        rep = ConditionReport().fill(stream, cap)
        assert rep == _added(instances, cap)
        assert len(rep.violations) == min(cap, 5)
        assert rep.truncated == (cap <= 5)      # exactly when it reaches the cap
        assert list(stream) == instances[2 * cap:]     # unread past the cap-th violation
    stream = iter(instances)
    with pytest.raises(ValueError):
        ConditionReport().fill(stream, 0)
    assert next(stream) == instances[0]
    # a fill into a full report adds nothing, and marks it truncated once
    # it meets a violated instance
    for more, truncated in ((instances[:1], False), (instances, True)):
        full = ConditionReport(violations=[Violation("B", (0,), (1,), (0,))])
        rep = full.fill(more, 1)
        assert rep is full and rep.violations == [("B", (0,), (1,), (0,))]
        assert rep.truncated == truncated
        assert rep == _added(more, 1, ConditionReport(violations=[Violation("B", (0,), (1,),
                                                                            (0,))]))


def _dense(field, da, db, dc, rng):
    return BilMap(field, da, db, dc, {(k, i, j): rng.randrange(field.char)
                                      for k in range(dc) for i in range(da) for j in range(db)})


def _interpreted(field, instances, cap):
    """The report fill and finalize build from an interpreted stream."""
    return ConditionReport(conforming_field=field.conforming).fill(instances, cap).finalize()


def _cap_cases():
    """Each check, as cap -> (report, the report at cap built by fill and
    finalize from the interpreted stream), on an input with many violations."""
    rng = random.Random(2024)
    bad1, bad2 = (ZinbielAlgebra(F5, 2, _dense(F5, 2, 2, 2, rng)) for _ in range(2))
    act = BimodulePair(_dense(F5, 2, 2, 2, rng), _dense(F5, 2, 2, 2, rng))
    phi = LinMap(F5, 2, 2, [[1, 2], [3, 4]])
    t = ZinbielTwoAlgebra(bad1, bad2, phi, act)
    t2 = ZinbielTwoAlgebra(bad2, bad1, phi, BimodulePair(act.right, act.left))
    m = TwoMorphism(LinMap(F5, 2, 2, [[1, 1], [0, 2]]), LinMap(F5, 2, 2, [[3, 0], [1, 1]]))
    _, split = rand_ambient_with_subalgebra(F7, random.Random(11))
    datum = extract_datum(split)
    perturbed = datum.replace(st=tuple(_dense(F7, b.dim_a, b.dim_b, b.dim_c, rng)
                                       for b in datum.st))
    (b1, _), (b0, _) = split._bases
    # nine ZZ violations, the sixth of them ZZ19.as-printed
    zz = rand_sparse_datum(ZinbielTwoAlgebra.shell(ZinbielAlgebra.zero(F5, 1)),
                           TwoVectorSpace(1, 1, LinMap.zero(F5, 1, 1)), random.Random(41), 0.4)
    # dense data over a valid Z at (1, 1, 1, 1): tr = tl = 0 for the crossed
    # system, whose star part also fails; omega = sigma = 0 for the matched pair
    z = zero_two_algebra(F5, 1, 1, LinMap(F5, 1, 1, [[2]]))
    v = TwoVectorSpace(1, 1, LinMap(F5, 1, 1, [[3]]))
    base = ExtendingDatum.trivial(z, v)
    dense = {name: tuple(_dense(F5, b.dim_a, b.dim_b, b.dim_c, rng) for b in getattr(base, name))
             for name in ("hr", "hl", "tr", "tl", "om", "st")}
    d1, d2 = (base.replace(**dense, sigma=LinMap(F5, 1, 1, [[k]])) for k in (1, 4))
    cs = CrossedSystem(d1.replace(tr=base.tr, tl=base.tl))
    mp = MatchedPairDatum(z, zero_two_algebra(F5, 1, 1, v.d), dense["hr"], dense["hl"],
                          dense["tr"], dense["tl"])
    rs = RSData(LinMap(F5, 1, 1, [[2]]), LinMap(F5, 1, 1, [[1]]), LinMap(F5, 1, 1, [[3]]),
                LinMap(F5, 1, 1, [[4]]))
    zz_ctx, cz_ctx, bz_ctx = DatumCtx(zz), DatumCtx(cs.datum), DatumCtx(mp.embed())
    rs_ctx = MorphismCtx(d1, d2, rs)
    return {
        "zinbiel": (lambda cap: check_zinbiel(bad1, cap),
                    lambda cap: _interpreted(F5, core._zinbiel_instances(bad1), cap)),
        "bimodule": (lambda cap: check_bimodule(bad1, 2, act, cap),
                     lambda cap: _interpreted(F5, chain(
                         core._prefixed("Z.", core._zinbiel_instances(bad1)),
                         core._bimodule_instances(bad1, 2, act)), cap)),
        "action": (lambda cap: check_action(bad1, bad2, act, cap),
                   lambda cap: _interpreted(F5, core._action_instances(bad1, bad2, act), cap)),
        "crossed_module": (lambda cap: check_crossed_module(t, cap),
                           lambda cap: _interpreted(F5, core._crossed_module_instances(t), cap)),
        "morphism": (lambda cap: check_2alg_morphism(t, t2, m, cap),
                     lambda cap: _interpreted(F5, core._morphism_instances(t, t2, m), cap)),
        # PSI-STAB and PSI-COSTAB hold for every split
        "verify_psi": (lambda cap: verify_psi(split, perturbed, cap),
                       lambda cap: _interpreted(F7, core._morphism_instances(
                           reference_product(perturbed), split.e, TwoMorphism(b1, b0)), cap)),
        "conditions": (lambda cap: check_trivial_z1_conditions(zz, cap, check_z=False,
                                                               strict_printed=True),
                       lambda cap: interpreted_report(zz_ctx, ZZ_TABLE, cap, True)),
        "datum_direct": (lambda cap: check_datum_direct(perturbed, cap, check_z=False),
                         lambda cap: _interpreted(F7, core._crossed_module_instances(
                             reference_product(perturbed)), cap)),
        "crossed_system": (lambda cap: check_crossed_system(cs, cap, check_z=False),
                           lambda cap: interpreted_report(cz_ctx, CZ_TABLE, cap).fill(
                               core._prefixed("V.", core._crossed_module_instances(
                                   star_structure(cs.datum))), cap).finalize()),
        "matched_pair": (lambda cap: check_matched_pair(mp, cap, check_z=False),
                         lambda cap: interpreted_report(bz_ctx, BZ_TABLE, cap)),
        "rs_direct": (lambda cap: check_rs_direct(rs, d1, d2, cap),
                      lambda cap: _interpreted(F5, core._morphism_instances(
                          reference_product(d1), reference_product(d2),
                          morphism_from_rs(rs, d1, d2)), cap)),
        "rs_conditions": (lambda cap: check_rs_conditions(rs, d1, d2, cap),
                          lambda cap: interpreted_report(rs_ctx, H_TABLE, cap)),
    }


@pytest.mark.parametrize("name", ["zinbiel", "bimodule", "action", "crossed_module",
                                  "morphism", "verify_psi", "conditions", "datum_direct",
                                  "crossed_system", "matched_pair", "rs_direct",
                                  "rs_conditions"])
def test_cap_keeps_the_first_violations(name):
    # each capped report is the one fill and finalize build from the
    # interpreted stream at that cap: the first violations in stream order
    check, reference = _cap_cases()[name]
    full = check(math.inf)
    total = len(full.violations)
    assert total >= 3 and not full.truncated and full == reference(math.inf)
    for k in range(1, total + 2):
        rep = check(k)
        assert rep == reference(k), k
        assert len(rep.violations) == min(k, total)
        assert set(rep.violations) <= set(full.violations)
        assert rep.truncated == (total >= k)
        assert rep.ok == full.ok


@pytest.mark.parametrize("ring", [F5, Q, PolynomialRing()], ids=["gf5", "q", "zx"])
@pytest.mark.parametrize("n1,n0", [(0, 0), (0, 1), (1, 0), (1, 1), (2, 1)])
def test_two_algebra_inverts_two_algebra_maps(ring, n1, n0):
    # level-0 mult, level-1 mult, left and right action, then phi, read from
    # and written to the map_values layout
    rng = random.Random(10 * n1 + n0)
    shapes = ((n0, n0, n0), (n1, n1, n1), (n0, n1, n1), (n1, n0, n1), (n0, n1))
    size = sum(math.prod(shape) for shape in shapes)
    if isinstance(ring, PolynomialRing):
        values = [ring.var(i) if rng.random() < 0.7 else ring.zero() for i in range(size)]
    else:
        values = [ring.canonical(Fraction(rng.randint(-9, 9), rng.randint(1, 9)) if ring is Q
                                 else rng.randrange(5)) for _ in range(size)]
    maps = value_maps(ring, shapes, values)
    t = two_algebra(ring, maps)
    assert (t.z1.dim, t.z0.dim) == (n1, n0)
    assert (t.z0.mult, t.z1.mult, t.act.left, t.act.right, t.phi) == tuple(maps)
    assert two_algebra_maps(t) == tuple(maps)
    assert map_values(two_algebra_maps(t), ring.zero()) == values
    assert two_algebra(ring, two_algebra_maps(t)) == t
