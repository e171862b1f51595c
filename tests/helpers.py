"""Shared generators for randomized tests.

Valid structures are produced constructively (known families transported
along random basis changes, or sparse rejection sampling filtered by the
direct oracle), never by assuming unchecked candidates are valid.
"""

from __future__ import annotations

import itertools
from functools import reduce
from itertools import count

from zinbiel2 import core
from zinbiel2.classify import RSData, morphism_from_rs
from zinbiel2.core import (_FAMS, _FREE, _OP_LEVELS, DEFAULT_VIOLATION_CAP, BimodulePair,
                           ConditionReport, FlagNote, TwoMorphism, ZinbielAlgebra,
                           ZinbielTwoAlgebra, _layout, _places, check_2alg_morphism,
                           check_crossed_module, check_zinbiel, two_algebra, two_algebra_maps,
                           value_maps)
from zinbiel2.errors import SubalgebraError
from zinbiel2.fields import PolynomialRing
from zinbiel2.io import canonical_dumps, datum_to_json
from zinbiel2.linalg import BilMap, LinMap, TwoVectorSpace, inverse, upper_block, vbasis
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


def reference_product(datum):
    """Reference for build_unified_product, from the formula of the paper on
    basis pairs: operation j of E = Z + V is

        (x, u).(y, w) = (x.y + hr(u, y) + hl(x, w) + om(u, w),
                         tr(x, w) + tl(u, y) + st(u, w))

    with the maps j of each family, and phi_E(x, u) = (phi(x) + sigma(u), d(u))."""
    z, v, f = datum.z, datum.v, datum.field
    nz, nv = (z.z0.dim, z.z1.dim), (v.dim0, v.dim1)
    zops = (z.z0.mult, z.z1.mult, z.act.left, z.act.right)

    def pair(level, i):
        """The basis vector i of E at level as (x, u)."""
        e = vbasis(f, nz[level] + nv[level], i)
        return e[:nz[level]], e[nz[level]:]

    def add(*vectors):
        return tuple(reduce(f.add, column, f.zero()) for column in zip(*vectors))

    ops = []
    for j, (la, lb, lc) in enumerate(((0, 0, 0), (1, 1, 1), (0, 1, 1), (1, 0, 1))):
        def product(a, b, j=j, la=la, lb=lb):
            (x, u), (y, w) = pair(la, a), pair(lb, b)
            return (add(zops[j].eval(x, y), datum.hr[j].eval(u, y), datum.hl[j].eval(x, w),
                        datum.om[j].eval(u, w))
                    + add(datum.tr[j].eval(x, w), datum.tl[j].eval(u, y), datum.st[j].eval(u, w)))

        ops.append(BilMap.from_basis_function(f, nz[la] + nv[la], nz[lb] + nv[lb],
                                              nz[lc] + nv[lc], product))
    columns = []
    for i in range(nz[1] + nv[1]):
        x, u = pair(1, i)
        columns.append(add(z.phi.apply(x), datum.sigma.apply(u)) + v.d.apply(u))
    phi = LinMap.from_columns(f, columns, nz[0] + nv[0])
    return ZinbielTwoAlgebra(ZinbielAlgebra(f, nz[1] + nv[1], ops[1]),
                             ZinbielAlgebra(f, nz[0] + nv[0], ops[0]), phi,
                             BimodulePair(ops[2], ops[3]))


def dense_datum(ring, dims, values, z=None, v=None):
    """Reference for unified._datum, dense: the datum over ring at dims (n1,
    n0, m1, m0) whose constants, in the layout of core.datum_maps, are read
    from the iterable values through core.value_maps, every map built.  Given
    z and v, they are its Z and V, and values holds its free scalars alone,
    its constants from core._FREE on."""
    values, layout = iter(values), _layout(dims)
    if z is None:
        *zmaps, d = value_maps(ring, layout[:_FREE], values)
        z, v = two_algebra(ring, zmaps), TwoVectorSpace(*dims[2:], d)
    maps = value_maps(ring, layout[_FREE:], values)
    return ExtendingDatum(z, v, sigma=maps.pop(),
                          **{name: tuple(maps[4 * k:4 * k + 4]) for k, name in enumerate(_FAMS)})


def reference_extract(split):
    """Reference for unified.extract_datum (check_e=False), dense: each
    operation of E rewritten in the basis [iota | V-basis] of the split as
    B^-1 t(B x, B y) on basis pairs (BilMap.eval, LinMap.apply), phi_E as
    B0^-1 phi_E B1 (compose), and each nonzero constant read back through
    core._places into a dense_datum.  A constant with no place raises
    SubalgebraError with the least witness, (j, i, k) or ("phi", i)."""
    e = split.e
    f = e.field
    (b1, b1inv), (b0, b0inv) = split._bases
    dims = split.dims()
    binv = (b0inv, b1inv)
    cols = tuple([b.column(i) for i in range(b.cols)] for b in (b0, b1))
    entries = []
    for j, tensor in enumerate(two_algebra_maps(e)[:4]):
        la, lb, lc = _OP_LEVELS[j]
        entries += [(j, (k, i, jj), v) for i, x in enumerate(cols[la])
                    for jj, y in enumerate(cols[lb])
                    for k, v in enumerate(binv[lc].apply(tensor.eval(x, y))) if v]
    phi_e = b0inv.compose(e.phi.compose(b1)).entries
    entries += [(4, (r, c), v) for r, row in enumerate(phi_e) for c, v in enumerate(row) if v]
    slot = {place: at for at, place in enumerate(_places(dims))}
    values, strays = [f.zero()] * len(slot), []
    for m, key, v in entries:
        at = slot.get((m, key))
        if at is None:
            strays.append((m, key[1:]))
        else:
            values[at] = v
    if strays:
        m, witness = min(strays)
        if m == 4:
            raise SubalgebraError("phi_E does not restrict to the Z levels",
                                  witness=("phi", *witness))
        raise SubalgebraError(f"iota(Z) is not closed under operation {m}",
                              witness=(m, *witness))
    return dense_datum(f, dims, values)


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


def reference_datum_at(spec, index):
    """Reference for EnumerationSpec.datum_at: the datum over spec.z and
    spec.v whose free scalars are the base-p digits of index, most
    significant first, read into the families hr, hl, tr, tl, om, st, each
    map in (k, i, j) order, then into sigma row-major."""
    f, p, n = spec.field, spec.field.p, spec.size
    digits = iter([index // p ** (n - 1 - k) % p for k in range(n)])
    base = ExtendingDatum.trivial(spec.z, spec.v)
    fams = {name: tuple(BilMap(f, m.dim_a, m.dim_b, m.dim_c,
                               {(k, i, j): next(digits) for k in range(m.dim_c)
                                for i in range(m.dim_a) for j in range(m.dim_b)})
                        for m in getattr(base, name))
            for name in ("hr", "hl", "tr", "tl", "om", "st")}
    rows, cols = base.sigma.rows, base.sigma.cols
    sigma = LinMap(f, rows, cols, [[next(digits) for _ in range(cols)] for _ in range(rows)])
    assert next(digits, None) is None
    return ExtendingDatum(spec.z, spec.v, **fams, sigma=sigma)


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


def pairwise_partition(data, mode):
    """Reference for classify.compute_quotients: brute_force_equivalent on
    every pair not yet joined, the hits closed under a union-find; the
    orbits as sorted index tuples, sorted by their least canonical
    serialization."""
    items = [canonical_dumps(datum_to_json(d)) for d in data]
    parent = list(range(len(data)))

    def find(i):
        while parent[i] != i:
            i = parent[i]
        return i

    for i in range(len(data)):
        for j in range(i + 1, len(data)):
            ri, rj = find(i), find(j)
            if ri != rj and brute_force_equivalent(data[i], data[j], mode)[0]:
                parent[max(ri, rj)] = min(ri, rj)
    groups = {}
    for i in range(len(data)):
        groups.setdefault(find(i), []).append(i)
    return tuple(sorted((tuple(g) for g in groups.values()),
                        key=lambda orbit: min(items[i] for i in orbit)))


def interpreted_report(ctx, table, cap=DEFAULT_VIOLATION_CAP, strict_printed=False):
    """Reference for engine.evaluate_conditions: run the table's lambdas on
    the concrete context at every basis tuple, in table order, with the same
    cap, flag and as-printed semantics."""
    disagrees = set()

    def instances():
        for cond in table.conds:
            for idx in itertools.product(*(range(ctx.dims[s]) for s in cond.spaces)):
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


def _lift(ring, z: ZinbielTwoAlgebra):
    """z over ring, every scalar read as a constant."""
    def bil(m):
        return BilMap(ring, m.dim_a, m.dim_b, m.dim_c, {(k, i, j): v for k, i, j, v in m.items})

    return ZinbielTwoAlgebra(ZinbielAlgebra(ring, z.z1.dim, bil(z.z1.mult)),
                             ZinbielAlgebra(ring, z.z0.dim, bil(z.z0.mult)),
                             LinMap(ring, z.phi.rows, z.phi.cols, z.phi.entries),
                             BimodulePair(bil(z.act.left), bil(z.act.right)))


def reference_checks(spec):
    """Reference for EnumerationSpec.checks, level by level as sets: the
    interpreted crossed-module stream on the reference product of the datum
    whose free scalar i is x_i of Z[x] (the families hr..st, each map in
    (k, i, j) order, then sigma row-major), reduced mod p."""
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
    e = reference_product(base.replace(sigma=sigma, **fams))
    return _levels_mod_p(core._crossed_module_instances(e), spec.field.p, spec.size)


def variable_rs_blocks(shapes, binding=None):
    """r1, r0, s1, s0 over Z[x] whose r1, r0 (then s1, s0, else the
    identity) entries are the variables x0, x1, ... row-major through the
    blocks of shapes taken in the order binding (indices into shapes; by
    default r1, r0, s1, s0)."""
    ring = PolynomialRing()
    var = map(ring.var, count())
    blocks = [None] * len(shapes)
    for k in range(len(shapes)) if binding is None else binding:
        rows, cols = shapes[k]
        blocks[k] = LinMap(ring, rows, cols,
                           [[next(var) for _ in range(cols)] for _ in range(rows)])
    if len(blocks) == 2:
        blocks += [LinMap.identity(ring, m.cols) for m in blocks]
    return blocks


def reference_rs_checks(e1, e2, shapes, binding=None):
    """Reference for classify._RSSearch.checks, level by level as sets: the
    interpreted morphism stream on the block map from e1 to e2 of
    variable_rs_blocks(shapes, binding), reduced mod p."""
    ring = PolynomialRing()
    r1, r0, s1, s0 = variable_rs_blocks(shapes, binding)
    phi = TwoMorphism(upper_block(LinMap.identity(ring, r1.rows), r1, s1),
                      upper_block(LinMap.identity(ring, r0.rows), r0, s0))
    instances = core._morphism_instances(_lift(ring, e1), _lift(ring, e2), phi)
    return _levels_mod_p(instances, e1.field.p, sum(rows * cols for rows, cols in shapes))


def recursive_walk(p, checks, guards=None):
    """Reference for classify._walk: the same depth-first search written
    with one nested generator per depth."""
    n = len(checks) - 1
    guards = guards or {}
    values = [0] * n

    def holds(depth):
        for poly in checks[depth]:
            total = 0
            for mono, c in poly:
                for x in mono:
                    c *= values[x]
                total += c
            if total % p:
                return False
        guard = guards.get(depth)
        return guard is None or guard(values)

    def walk(depth, index):
        if not holds(depth):
            return
        if depth == n:
            yield index
            return
        for value in range(p):
            values[depth] = value
            yield from walk(depth + 1, index * p + value)

    return walk(0, 0)
