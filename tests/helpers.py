"""Shared generators for randomized tests.

Valid structures are produced constructively (known families transported
along random basis changes, or sparse rejection sampling filtered by the
direct oracle), never by assuming unchecked candidates are valid.
"""

from __future__ import annotations

import random
from itertools import count

from zinbiel2 import core
from zinbiel2.classify import RSData, _lift, morphism_from_rs
from zinbiel2.core import (DEFAULT_VIOLATION_CAP, BimodulePair, ConditionReport, FlagNote,
                           TwoMorphism, ZinbielAlgebra, ZinbielTwoAlgebra, check_2alg_morphism,
                           check_crossed_module, check_zinbiel)
from zinbiel2.engine import _grid
from zinbiel2.fields import PolynomialRing
from zinbiel2.linalg import BilMap, LinMap, TwoVectorSpace, inverse, upper_block
from zinbiel2.unified import (ComplementSplit, ExtendingDatum, build_unified_product,
                              check_datum_direct)


def rand_scalar(field, rng):
    if hasattr(field, "p"):
        return rng.randrange(field.p)
    from fractions import Fraction
    return Fraction(rng.randint(-9, 9), rng.randint(1, 9))


def rand_invertible(field, n, rng):
    if n == 0:
        return LinMap.identity(field, 0)
    while True:
        m = LinMap(field, n, n, [[rand_scalar(field, rng) for _ in range(n)]
                                 for _ in range(n)])
        if inverse(m) is not None:
            return m


def transport_algebra(alg: ZinbielAlgebra, t: LinMap) -> ZinbielAlgebra:
    """Push the structure along the basis change t (an automorphism source)."""
    tinv = inverse(t)
    mult = BilMap.from_basis_function(
        alg.field, alg.dim, alg.dim, alg.dim,
        lambda i, j: t.apply(alg.mult.eval(tinv.column(i), tinv.column(j))))
    return ZinbielAlgebra(alg.field, alg.dim, mult)


def transport_two_algebra(t2: ZinbielTwoAlgebra, t1: LinMap, t0: LinMap) -> ZinbielTwoAlgebra:
    f = t2.field
    t1inv, t0inv = inverse(t1), inverse(t0)
    z1 = transport_algebra(t2.z1, t1)
    z0 = transport_algebra(t2.z0, t0)
    phi = t0.compose(t2.phi).compose(t1inv)
    left = BilMap.from_basis_function(
        f, z0.dim, z1.dim, z1.dim,
        lambda a, i: t1.apply(t2.act.left.eval(t0inv.column(a), t1inv.column(i))))
    right = BilMap.from_basis_function(
        f, z1.dim, z0.dim, z1.dim,
        lambda i, a: t1.apply(t2.act.right.eval(t1inv.column(i), t0inv.column(a))))
    return ZinbielTwoAlgebra(z1, z0, phi, BimodulePair(left, right))


def nilpotent_families(field, dim):
    """Known Zinbiel multiplications in the given dimension (structure
    tensors; includes the zero algebra)."""
    out = [BilMap.zero(field, dim, dim, dim)]
    one = field.one()
    if dim >= 2:
        out.append(BilMap(field, dim, dim, dim, {(1, 0, 0): one}))
    if dim >= 3:
        two = field.canonical(2)
        out.append(BilMap(field, dim, dim, dim,
                          {(1, 0, 0): one, (2, 0, 1): one, (2, 1, 0): two}))
        out.append(BilMap(field, dim, dim, dim, {(2, 0, 0): one, (2, 1, 1): one}))
    return out


def rand_zinbiel_algebra(field, rng, max_dim=3):
    """A random valid Zinbiel algebra: a known family member transported
    along a random basis change."""
    dim = rng.randint(1, max_dim)
    mult = rng.choice(nilpotent_families(field, dim))
    alg = ZinbielAlgebra(field, dim, mult)
    alg = transport_algebra(alg, rand_invertible(field, dim, rng))
    assert check_zinbiel(alg, cap=1).ok
    return alg


def zero_two_algebra(field, n1, n0, phi=None):
    """Zero multiplications and action, arbitrary phi (valid for any phi)."""
    phi = phi if phi is not None else LinMap.zero(field, n0, n1)
    return ZinbielTwoAlgebra(ZinbielAlgebra.zero(field, n1),
                             ZinbielAlgebra.zero(field, n0),
                             phi, BimodulePair.trivial(field, n0, n1))


def scalar_bilmap(field, val, da=1, db=1, dc=1):
    return BilMap(field, da, db, dc, {(0, 0, 0): val} if val else {})


def rand_sparse_datum(z, v, rng, density):
    """Random datum at dims (1,1,1,1)-like shapes with sparse nonzeros."""
    base = ExtendingDatum.trivial(z, v)
    f = z.field

    def sparse_like(proto):
        coeffs = {}
        for k in range(proto.dim_c):
            for i in range(proto.dim_a):
                for j in range(proto.dim_b):
                    if rng.random() < density:
                        coeffs[(k, i, j)] = rng.randrange(1, f.p)
        return BilMap(f, proto.dim_a, proto.dim_b, proto.dim_c, coeffs)

    kwargs = {}
    for attr in ("hr", "hl", "tr", "tl", "om", "st"):
        kwargs[attr] = tuple(sparse_like(m) for m in getattr(base, attr))
    sigma = LinMap(f, z.z0.dim, v.dim1,
                   [[rng.randrange(f.p) if rng.random() < density else f.zero()
                     for _ in range(v.dim1)] for _ in range(z.z0.dim)])
    return base.replace(sigma=sigma, **kwargs)


def rand_valid_datum_1111(field, rng, max_tries=400):
    """Rejection-sample a valid extending datum at dims (1,1,1,1)."""
    for _ in range(max_tries):
        z = zero_two_algebra(field, 1, 1, LinMap(field, 1, 1, [[rng.randrange(field.p)]]))
        v = TwoVectorSpace(1, 1, LinMap(field, 1, 1, [[rng.randrange(field.p)]]))
        datum = rand_sparse_datum(z, v, rng, rng.choice([0.08, 0.15, 0.3]))
        if check_datum_direct(datum, first_only=True, check_z=False).ok:
            return datum
    raise RuntimeError("no valid datum found")


def rand_split_of(e: ZinbielTwoAlgebra, iota1: LinMap, iota0: LinMap, rng):
    """A ComplementSplit for e along the given inclusions, with a random
    retraction (hence a random complement)."""
    f = e.field
    ps = []
    for iota, dim_e in ((iota1, e.z1.dim), (iota0, e.z0.dim)):
        nz = iota.cols
        while True:
            cols = [iota.column(j) for j in range(nz)]
            cols += [tuple(rand_scalar(f, rng) for _ in range(dim_e))
                     for _ in range(dim_e - nz)]
            b = LinMap.from_columns(f, cols, dim_e)
            binv = inverse(b)
            if binv is not None:
                ps.append(LinMap(f, nz, dim_e, binv.entries[:nz]))
                break
    return ComplementSplit(e, iota1, iota0, ps[0], ps[1])


def standard_split(e, n1, n0):
    """The split of e whose Z spans the first n1 (level 1) and n0 (level 0)
    basis vectors, with the retraction that drops the other coordinates."""
    f = e.field

    def eye(rows, cols):
        return LinMap(f, rows, cols, [[f.one() if r == c else f.zero() for c in range(cols)]
                                      for r in range(rows)])

    return ComplementSplit(e, eye(e.z1.dim, n1), eye(e.z0.dim, n0),
                           eye(n1, e.z1.dim), eye(n0, e.z0.dim))


def rand_ambient_with_subalgebra(field, rng):
    """A random valid 2-algebra E (level dims 2) with an embedded 1-dim-per-
    level sub-2-algebra and a random complement.

    Built as a unified product of a random valid (1,1,1,1) datum, transported
    along random basis changes at both levels; the image of Z under the
    transport is the distinguished subalgebra.
    """
    datum = rand_valid_datum_1111(field, rng)
    e = build_unified_product(datum)
    t1 = rand_invertible(field, e.z1.dim, rng)
    t0 = rand_invertible(field, e.z0.dim, rng)
    e2 = transport_two_algebra(e, t1, t0)
    assert check_crossed_module(e2, cap=1).ok
    n1, n0 = datum.z.z1.dim, datum.z.z0.dim
    iota1 = LinMap.from_columns(field, [t1.column(j) for j in range(n1)], e.z1.dim)
    iota0 = LinMap.from_columns(field, [t0.column(j) for j in range(n0)], e.z0.dim)
    split = rand_split_of(e2, iota1, iota0, rng)
    return e2, split


def brute_force_valid(spec):
    """Reference enumeration: every assignment index of the EnumerationSpec
    that the oracle accepts, ascending."""
    return [index for index in range(spec.total)
            if check_datum_direct(spec.datum_at(index), first_only=True, check_z=False).ok]


def _iter_matrices(field, rows, cols):
    """All rows x cols matrices over GF(p) in lexicographic row-major entry order."""
    p, n = field.p, rows * cols
    for index in range(p ** n):
        digits = [index // p ** (n - 1 - k) % p for k in range(n)]
        yield LinMap(field, rows, cols, [digits[r * cols:(r + 1) * cols] for r in range(rows)])


def brute_force_equivalent(d1, d2, mode):
    """Reference rs search: every block map in lexicographic (r1, r0, s1, s0)
    order, s = id in mode "cohomologous" and s invertible otherwise, built
    and checked by the oracle; (True, the first that passes) or (False, None)."""
    f = d1.field
    e1, e2 = build_unified_product(d1), build_unified_product(d2)
    n1, n0 = d1.z.z1.dim, d1.z.z0.dim
    m1, m0 = d1.v.dim1, d1.v.dim0
    if mode == "cohomologous":
        s1_iter = [LinMap.identity(f, m1)]
        s0_iter = [LinMap.identity(f, m0)]
    else:
        s1_iter = [m for m in _iter_matrices(f, m1, m1) if inverse(m) is not None]
        s0_iter = [m for m in _iter_matrices(f, m0, m0) if inverse(m) is not None]
    for r1 in _iter_matrices(f, n1, m1):
        for r0 in _iter_matrices(f, n0, m0):
            for s1 in s1_iter:
                for s0 in s0_iter:
                    rs = RSData(r1, r0, s1, s0)
                    if check_2alg_morphism(e1, e2, morphism_from_rs(rs, d1, d2),
                                           cap=1).ok:
                        return True, rs
    return False, None


def interpreted_report(ctx, table, cap=DEFAULT_VIOLATION_CAP, strict_printed=False):
    """Reference for engine.evaluate_conditions: run the table's lambdas on
    the concrete context at every basis tuple, in table order, with the same
    cap, flag and as-printed semantics."""
    disagrees = set()

    def instances():
        for cond in table.conds:
            for idx in _grid(ctx.dims, cond.spaces):
                elts = [ctx.basis(s, i) for s, i in zip(cond.spaces, idx)]
                lhs, rhs = cond.fn(ctx, *elts)
                assert lhs.space == rhs.space, cond.cid
                witness = idx if cond.level is None else (cond.level,) + idx
                yield cond.cid, witness, lhs.vec, rhs.vec
                if cond.as_printed is not None:
                    plhs, prhs = cond.as_printed(ctx, *elts)
                    if (plhs.vec != prhs.vec) != (lhs.vec != rhs.vec):
                        disagrees.add(cond.cid)
                        if strict_printed:
                            yield f"{cond.cid}.as-printed", witness, plhs.vec, prhs.vec

    report = ConditionReport(conforming_field=ctx.field.conforming).fill(instances(), cap)
    for cond in table.conds:
        if cond.suspect is not None and (cond.level is None or cond.level == 0):
            report.flags.append(FlagNote(cond.cid, cond.suspect, cond.cid in disagrees))
    return report.finalize()


def _levels_mod_p(instances, p, size):
    """The distinct nonzero lhs - rhs components of instances over Z[x] in
    the variables x0..x_(size-1), reduced mod p, as one set per highest
    variable (the constant ones first)."""
    ring = PolynomialRing()
    levels = [set() for _ in range(size + 1)]
    for _, _, lhs, rhs in instances:
        for a, b in zip(lhs, rhs):
            poly = tuple((mono, c % p) for mono, c in ring.sub(a, b) if c % p)
            if poly:
                levels[max((x for mono, _ in poly for x in mono), default=-1) + 1].add(poly)
    return levels


def reference_checks(spec):
    """Reference for EnumerationSpec.checks, level by level as sets: the
    interpreted crossed-module stream on the product of the datum whose
    free scalar i is x_i of Z[x] (the families hr..st, each map in (k, i, j)
    order, then sigma row-major), reduced mod p."""
    ring = PolynomialRing()
    var = map(ring.var, count())
    d = spec.v.d
    v = TwoVectorSpace(d.cols, d.rows, LinMap(ring, d.rows, d.cols, d.entries))
    base = ExtendingDatum.trivial(_lift(ring, spec.z), v)
    fams = {name: tuple(BilMap(ring, m.dim_a, m.dim_b, m.dim_c,
                               {(k, i, j): next(var) for k in range(m.dim_c)
                                for i in range(m.dim_a) for j in range(m.dim_b)})
                        for m in getattr(base, name))
            for name in ("hr", "hl", "tr", "tl", "om", "st")}
    rows, cols = base.sigma.rows, base.sigma.cols
    sigma = LinMap(ring, rows, cols, [[next(var) for _ in range(cols)] for _ in range(rows)])
    e = build_unified_product(base.replace(sigma=sigma, **fams))
    return _levels_mod_p(core._crossed_module_instances(e), spec.field.p, spec.size)


def reference_rs_checks(e1, e2, shapes):
    """Reference for classify._rs_checks, level by level as sets: the
    interpreted morphism stream on the block map from e1 to e2 whose r1,
    r0 (then s1, s0, else the identity) entries are x0, x1, ... of Z[x]
    row-major, reduced mod p."""
    ring = PolynomialRing()
    var = map(ring.var, count())
    blocks = [LinMap(ring, rows, cols, [[next(var) for _ in range(cols)] for _ in range(rows)])
              for rows, cols in shapes]
    if len(blocks) == 2:
        blocks += [LinMap.identity(ring, m.cols) for m in blocks]
    r1, r0, s1, s0 = blocks
    phi = TwoMorphism(upper_block(LinMap.identity(ring, r1.rows), r1, s1),
                      upper_block(LinMap.identity(ring, r0.rows), r0, s0))
    instances = core._morphism_instances(_lift(ring, e1), _lift(ring, e2), phi)
    return _levels_mod_p(instances, e1.field.p, sum(rows * cols for rows, cols in shapes))
