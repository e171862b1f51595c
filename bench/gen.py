"""Seeded input generators for the benchmark workloads.

Every generator takes a `random.Random` and the already-imported library
modules (`lib`, see `run.load_library`), so the same seed always yields the
same inputs and the library receives only the finished objects.  Valid
structures are made constructively or by rejection sampling against the
direct oracle, never by assuming a candidate is valid.
"""

from __future__ import annotations


def sparse_bilmap(lib, proto, rng, density):
    """A random BilMap of proto's shape; each coefficient is nonzero with
    probability `density`."""
    f = proto.field
    coeffs = {}
    for k in range(proto.dim_c):
        for i in range(proto.dim_a):
            for j in range(proto.dim_b):
                if rng.random() < density:
                    coeffs[(k, i, j)] = rng.randrange(1, f.p)
    return lib.linalg.BilMap(f, proto.dim_a, proto.dim_b, proto.dim_c, coeffs)


def zero_two_algebra(lib, field, n1, n0, phi):
    """Zero multiplications and action with the given phi (valid for any phi)."""
    core = lib.core
    return core.ZinbielTwoAlgebra(core.ZinbielAlgebra.zero(field, n1),
                                  core.ZinbielAlgebra.zero(field, n0),
                                  phi, core.BimodulePair.trivial(field, n0, n1))


def scalar_linmap(lib, field, rng):
    return lib.linalg.LinMap(field, 1, 1, [[rng.randrange(field.p)]])


def sparse_datum(lib, z, v, rng, density):
    """A random extending datum over (z, v) with sparse nonzero coefficients."""
    f = z.field
    base = lib.unified.ExtendingDatum.trivial(z, v)
    fams = {attr: tuple(sparse_bilmap(lib, m, rng, density) for m in getattr(base, attr))
            for attr in ("hr", "hl", "tr", "tl", "om", "st")}
    sigma = lib.linalg.LinMap(
        f, z.z0.dim, v.dim1,
        [[rng.randrange(f.p) if rng.random() < density else f.zero()
          for _ in range(v.dim1)] for _ in range(z.z0.dim)])
    return base.replace(sigma=sigma, **fams)


def random_z_v_1111(lib, field, rng):
    """Z = zero 2-algebra at dims (1,1) and V = (1,1), both with random phi/d."""
    z = zero_two_algebra(lib, field, 1, 1, scalar_linmap(lib, field, rng))
    v = lib.linalg.TwoVectorSpace(1, 1, scalar_linmap(lib, field, rng))
    return z, v


def valid_datum_1111(lib, field, rng, density, max_tries=400):
    """Rejection-sample a valid extending datum at dims (1,1,1,1)."""
    for _ in range(max_tries):
        z, v = random_z_v_1111(lib, field, rng)
        datum = sparse_datum(lib, z, v, rng, density)
        if lib.unified.check_datum_direct(datum, first_only=True, check_z=False).ok:
            return datum
    raise RuntimeError("no valid datum found")


def crossed_system_1111(lib, field, rng, density):
    """A random crossed system (tr = tl = 0) at dims (1,1,1,1)."""
    z, v = random_z_v_1111(lib, field, rng)
    base = lib.unified.ExtendingDatum.trivial(z, v)
    fams = {attr: tuple(sparse_bilmap(lib, m, rng, density) for m in getattr(base, attr))
            for attr in ("hr", "hl", "om", "st")}
    sigma = lib.linalg.LinMap(field, 1, 1, [[rng.randrange(1, field.p)
                                             if rng.random() < density else 0]])
    return lib.special.CrossedSystem(base.replace(sigma=sigma, **fams))


def matched_pair_1111(lib, field, rng, density):
    """A random matched pair of zero 2-algebras at dims (1,1) with sparse
    cross maps."""
    z = zero_two_algebra(lib, field, 1, 1, scalar_linmap(lib, field, rng))
    vv = zero_two_algebra(lib, field, 1, 1, scalar_linmap(lib, field, rng))
    base = lib.unified.ExtendingDatum.trivial(
        z, lib.linalg.TwoVectorSpace(1, 1, vv.phi))
    fams = {attr: tuple(sparse_bilmap(lib, m, rng, density) for m in getattr(base, attr))
            for attr in ("hr", "hl", "tr", "tl")}
    return lib.special.MatchedPairDatum(z, vv, **fams)


def random_rs_1111(lib, field, rng):
    lm = lambda: scalar_linmap(lib, field, rng)
    return lib.classify.RSData(lm(), lm(), lm(), lm())


def invertible(lib, field, n, rng):
    linalg = lib.linalg
    while True:
        m = linalg.LinMap(field, n, n, [[rng.randrange(field.p) for _ in range(n)]
                                        for _ in range(n)])
        if linalg.inverse(m) is not None:
            return m


def transport_two_algebra(lib, t2, t1, t0):
    """Push a 2-algebra along the basis changes t1 (level 1) and t0 (level 0)."""
    linalg, core = lib.linalg, lib.core
    f = t2.field
    t1inv, t0inv = linalg.inverse(t1), linalg.inverse(t0)

    def transport(alg, t, tinv):
        mult = linalg.BilMap.from_basis_function(
            f, alg.dim, alg.dim, alg.dim,
            lambda i, j: t.apply(alg.mult.eval(tinv.column(i), tinv.column(j))))
        return core.ZinbielAlgebra(f, alg.dim, mult)

    left = linalg.BilMap.from_basis_function(
        f, t2.z0.dim, t2.z1.dim, t2.z1.dim,
        lambda a, i: t1.apply(t2.act.left.eval(t0inv.column(a), t1inv.column(i))))
    right = linalg.BilMap.from_basis_function(
        f, t2.z1.dim, t2.z0.dim, t2.z1.dim,
        lambda i, a: t1.apply(t2.act.right.eval(t1inv.column(i), t0inv.column(a))))
    return core.ZinbielTwoAlgebra(transport(t2.z1, t1, t1inv), transport(t2.z0, t0, t0inv),
                                  t0.compose(t2.phi).compose(t1inv),
                                  core.BimodulePair(left, right))


def random_split(lib, e, iota1, iota0, rng):
    """A ComplementSplit of e along the inclusions, with a random retraction."""
    linalg = lib.linalg
    f = e.field
    ps = []
    for iota, dim_e in ((iota1, e.z1.dim), (iota0, e.z0.dim)):
        nz = iota.cols
        while True:
            cols = [iota.column(j) for j in range(nz)]
            cols += [tuple(rng.randrange(f.p) for _ in range(dim_e))
                     for _ in range(dim_e - nz)]
            binv = linalg.inverse(linalg.LinMap.from_columns(f, cols, dim_e))
            if binv is not None:
                ps.append(linalg.LinMap(f, nz, dim_e, binv.entries[:nz]))
                break
    return lib.unified.ComplementSplit(e, iota1, iota0, ps[0], ps[1])


def ambient_with_subalgebra(lib, field, rng, density):
    """A valid ambient E at level dims (2,2) with an embedded copy of Z and a
    random complement: the unified product of a random valid (1,1,1,1) datum,
    transported along random basis changes at both levels."""
    linalg = lib.linalg
    datum = valid_datum_1111(lib, field, rng, density)
    e = lib.unified.build_unified_product(datum)
    t1 = invertible(lib, field, e.z1.dim, rng)
    t0 = invertible(lib, field, e.z0.dim, rng)
    e2 = transport_two_algebra(lib, e, t1, t0)
    n1, n0 = datum.z.z1.dim, datum.z.z0.dim
    iota1 = linalg.LinMap.from_columns(field, [t1.column(j) for j in range(n1)], e.z1.dim)
    iota0 = linalg.LinMap.from_columns(field, [t0.column(j) for j in range(n0)], e.z0.dim)
    return random_split(lib, e2, iota1, iota0, rng)
