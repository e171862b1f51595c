"""Morphisms between unified products, equivalence of extending data, and
desk-scale classification over GF(p).

Valid data are enumerated by backtracking with forward checking: the
validity constraints are read off the direct oracle's compiled run, by
substituting the datum whose free coefficients are variables of Z[x] and
reducing mod p (core.crossed_module_constraints), and a depth-first
assignment of the coefficients cuts every branch on which a fully bound
constraint fails.  Each accepted datum is re-checked by the oracle.

Equivalence testing searches block maps (x, u) -> (x + r(u), s(u)) rather
than all linear maps of the ambient product: a morphism that stabilizes Z
has exactly this form, and it is an isomorphism precisely when both s
components are invertible (criterion H1..H20, cross-validated against the
direct morphism check).  The cohomologous relation additionally fixes
s = id.  The search is the same depth-first walk as the enumeration, over
the morphism constraints read off the compiled morphism check at a block
map whose r and s entries are variables; singular s blocks are cut as soon
as they are bound, and the witness found is re-checked by the oracle.
Each are_equivalent or compute_quotients call poses the search once
(_RSSearch: the compiled morphism run, the layout of the block map, the
guards) and reads each product's structure constants once (_product); a
pair then pays for one sweep of the run, the walk, in which a bound s block
is tested by elimination mod p on its digits, and the oracle re-check of
the witness.  A quotient searches each datum against one representative per
orbit.
Searches and enumerations run in the calling process and are deterministic
and lexicographic, budgets are hard limits, and nothing is silently sampled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import count

from .core import (DEFAULT_VIOLATION_CAP, BimodulePair, TwoMorphism, ZinbielAlgebra,
                   ZinbielTwoAlgebra, check_2alg_morphism, crossed_module_constraints,
                   map_values, morphism_run, two_algebra_maps, value_maps)
from .engine import MAP_SPACES, MorphismCtx, evaluate_conditions
from .errors import (BudgetExceeded, DimError, FieldMismatch, InfeasibleSearch,
                     PreconditionError)
from .fields import PolynomialRing, PrimeField
from .linalg import BilMap, LinMap, TwoVectorSpace, inverse, upper_block
from .unified import (_FAMS, ExtendingDatum, _require_valid_z, build_unified_product,
                      check_datum_direct)

DEFAULT_ENUM_BUDGET = 5 ** 8
DEFAULT_RS_BUDGET = 10 ** 6


@dataclass(frozen=True, slots=True)
class RSData:
    """Block-map parameters: r_i: V_i -> Z_i and s_i: V_i -> V_i."""

    r1: LinMap
    r0: LinMap
    s1: LinMap
    s0: LinMap

    def __post_init__(self):
        r1, r0, s1, s0 = self.r1, self.r0, self.s1, self.s0
        if s1.rows != s1.cols or s0.rows != s0.cols:
            raise DimError("s components must be square")
        if r1.cols != s1.cols or r0.cols != s0.cols:
            raise DimError("r and s domains disagree")
        if any(m.field != r1.field for m in (r0, s1, s0)):
            raise FieldMismatch("rs components over different fields")

    @property
    def field(self):
        return self.r1.field

    @classmethod
    def identity(cls, field, datum: ExtendingDatum):
        n1, n0 = datum.z.z1.dim, datum.z.z0.dim
        m1, m0 = datum.v.dim1, datum.v.dim0
        return cls(LinMap.zero(field, n1, m1), LinMap.zero(field, n0, m0),
                   LinMap.identity(field, m1), LinMap.identity(field, m0))

    def is_isomorphism_shape(self):
        return inverse(self.s1) is not None and inverse(self.s0) is not None


def _require_compatible(d1: ExtendingDatum, d2: ExtendingDatum, rs=None):
    if d1.field != d2.field or (rs is not None and rs.field != d1.field):
        raise FieldMismatch("data or rs over different fields")
    if d1.z != d2.z or d1.v != d2.v:
        raise DimError("data must share the same Z and the same (V1, V0, d)")


def _block_map(r1, r0, s1, s0):
    """The block map (x, u) -> (x + r(u), s(u)) at both levels."""
    return TwoMorphism(upper_block(LinMap.identity(r1.field, r1.rows), r1, s1),
                       upper_block(LinMap.identity(r0.field, r0.rows), r0, s0))


def morphism_from_rs(rs: RSData, d1: ExtendingDatum, d2: ExtendingDatum) -> TwoMorphism:
    """The block map of rs, checked against the two data."""
    _require_compatible(d1, d2, rs)
    for (r, s, nz, mv) in ((rs.r1, rs.s1, d1.z.z1.dim, d1.v.dim1),
                           (rs.r0, rs.s0, d1.z.z0.dim, d1.v.dim0)):
        if (r.rows, r.cols) != (nz, mv) or s.rows != mv:
            raise DimError("rs maps do not match the datum dimensions")
    return _block_map(rs.r1, rs.r0, rs.s1, rs.s0)


def check_rs_conditions(rs: RSData, d1: ExtendingDatum, d2: ExtendingDatum,
                        cap=DEFAULT_VIOLATION_CAP, strict_printed=False):
    """Evaluate H1..H20 for the block map rs between the two data."""
    from .conds_morphism import H_TABLE
    _require_compatible(d1, d2, rs)
    return evaluate_conditions(MorphismCtx(d1, d2, rs), H_TABLE, cap=cap,
                               strict_printed=strict_printed)


def check_rs_direct(rs: RSData, d1: ExtendingDatum, d2: ExtendingDatum,
                    cap=DEFAULT_VIOLATION_CAP):
    """Oracle: build both products and run the direct morphism check."""
    return check_2alg_morphism(build_unified_product(d1), build_unified_product(d2),
                               morphism_from_rs(rs, d1, d2), cap=cap)


def _rs_shapes(datum: ExtendingDatum, mode):
    """(rows, cols) of the blocks the rs search binds, in binding order:
    r1 and r0, then s1 and s0 in mode "equivalent"."""
    n1, n0 = datum.z.z1.dim, datum.z.z0.dim
    m1, m0 = datum.v.dim1, datum.v.dim0
    return [(n1, m1), (n0, m0)] + ([(m1, m1), (m0, m0)] if mode == "equivalent" else [])


def rs_search_space(field, datum: ExtendingDatum, mode):
    """Number of candidate rs tuples for the given mode."""
    return field.char ** sum(rows * cols for rows, cols in _rs_shapes(datum, mode))


def _invertible_block(p, m, lo):
    """Predicate on bound values, integers read mod p: the m x m block
    starting at lo, row-major, has rank m (elimination on the rows)."""
    def test(values):
        rows = [values[lo + r * m:lo + (r + 1) * m] for r in range(m)]
        for c in range(m):
            pivot = next((row for row in rows if row[c] % p), None)
            if pivot is None:
                return False
            rows.remove(pivot)
            rows = [[(x * pivot[c] - row[c] * y) % p for x, y in zip(row, pivot)] for row in rows]
        return True
    return test


def _product(datum):
    """The unified product of datum and its structure constants as Z[x]
    constants, in the layout of the compiled morphism run, as the search
    reads them."""
    e = build_unified_product(datum)
    values = map_values(two_algebra_maps(e), e.field.zero())
    return e, [(((), v),) if v else () for v in values]


class _RSSearch:
    """The rs search among data of one shape, posed once: construction
    checks that it is well posed (a known mode, one prime field, Z and V,
    valid data if check_valid, rs space in budget, in that order) and holds
    what depends only on the shape: the compiled morphism run between the
    products, phi, the structure constants of the block map over Z[x] whose
    r and s entries are x0, x1, ... in _maps order, and the guards that cut
    a singular s block once it is bound."""

    def __init__(self, data, mode, rs_budget, check_valid):
        if mode not in ("equivalent", "cohomologous"):
            raise ValueError(f"unknown mode {mode!r}")
        first = data[0]
        for d in data[1:]:
            _require_compatible(first, d)
        f = first.field
        if not isinstance(f, PrimeField):
            raise PreconditionError("equivalence search requires a prime field")
        if check_valid:
            for d in data:
                rep = check_datum_direct(d, cap=1)
                if not rep.ok:
                    raise PreconditionError("datum is not a valid extending structure", rep)
        space = rs_search_space(f, first, mode)
        if space > rs_budget:
            raise InfeasibleSearch(
                f"rs search space has {space} candidates (budget {rs_budget})", count=space)
        self.field, self.shapes = f, _rs_shapes(first, mode)
        self.size = sum(rows * cols for rows, cols in self.shapes)
        ring = PolynomialRing()
        phi = _block_map(*self._maps(ring, map(ring.var, count())))
        self.phi = map_values((phi.phi1, phi.phi0), ring.zero())
        dims = (phi.phi1.rows, phi.phi0.rows)
        self.run = morphism_run(dims, dims)
        self.guards, depth = {}, 0
        for k, (rows, cols) in enumerate(self.shapes):
            depth += rows * cols
            if k >= 2 and rows:     # s1 or s0
                self.guards[depth] = _invertible_block(f.char, rows, depth - rows * cols)

    def _maps(self, ring, values):
        """r1, r0, s1, s0 over ring, read row-major from values; s = id in
        mode "cohomologous"."""
        maps = value_maps(ring, self.shapes, values)
        if len(maps) == 2:
            maps += [LinMap.identity(ring, m.cols) for m in maps]
        return maps

    def checks(self, v1, v2):
        """The morphism constraints on rs between the products whose
        structure constants are v1 and v2 (_product): v1, v2 and self.phi
        substituted into the compiled morphism run (SymbolicRun.constraints),
        levelled as in _levelled.  The rs over GF(p) at which every
        polynomial vanishes are exactly those whose block map is a
        morphism."""
        return _levelled(self.run.constraints(v1 + v2 + self.phi, self.field.char), self.size)

    def __call__(self, source, target):
        """The lexicographically first rs whose block map is a morphism from
        source to target (_product pairs), or None: the first leaf of _walk
        over checks and guards, re-checked by the oracle; a rejection raises."""
        (e1, v1), (e2, v2) = source, target
        p = self.field.char
        leaf = next(_walk(p, self.checks(v1, v2), guards=self.guards), None)
        if leaf is None:
            return None
        values = _digits(leaf, p, self.size)
        maps = self._maps(self.field, values)
        if not check_2alg_morphism(e1, e2, _block_map(*maps), cap=1).ok:
            raise AssertionError(f"the rs search found the block map with entries {values}, "
                                 "which the oracle rejects")
        return RSData(*maps)


def are_equivalent(d1: ExtendingDatum, d2: ExtendingDatum, mode="equivalent",
                   rs_budget=DEFAULT_RS_BUDGET, check_valid=True):
    """Search for a stabilizing isomorphism between the products.

    mode "equivalent": any rs with both s components invertible;
    mode "cohomologous": s fixed to the identity.  Returns (found, witness),
    the witness being the lexicographically first rs (r1, r0, s1, s0,
    row-major), found by _RSSearch and re-checked by the oracle.
    """
    search = _RSSearch((d1, d2), mode, rs_budget, check_valid)
    rs = search(_product(d1), _product(d2))
    return rs is not None, rs


# ---------------------------------------------------------------------------
# enumeration of valid extending data
# ---------------------------------------------------------------------------

class EnumerationSpec:
    """Deterministic indexing of all coefficient assignments over GF(p),
    and the validity constraints the search prunes with.

    The free scalars are the entries of the maps of shapes, in the
    map_values layout: the families hr, hl, tr, tl, om, st with j = 0..3
    (coefficients in (k, i, j) order), then sigma row-major; size counts
    them, and assignment index digits are big-endian in that order.
    """

    def __init__(self, field, z: ZinbielTwoAlgebra, vdims, d: LinMap):
        if not isinstance(field, PrimeField):
            raise PreconditionError("enumeration requires a prime field")
        if z.field != field or d.field != field:
            raise FieldMismatch(f"Z and d must be over {field.name}")
        m1, m0 = vdims
        if (d.rows, d.cols) != (m0, m1):
            raise DimError(f"d must be {m0}x{m1}")
        self.field = field
        self.z = z
        self.v = TwoVectorSpace(m1, m0, d)
        dims = {"Z0": z.z0.dim, "Z1": z.z1.dim, "V0": m0, "V1": m1}
        self.shapes = [tuple(dims[s] for s in spaces)
                       for name in _FAMS for spaces in MAP_SPACES[name]]
        self.shapes.append((z.z0.dim, m1))
        self.size = sum(map(math.prod, self.shapes))
        self.total = field.char ** self.size

    def _datum(self, z, v, values):
        """The datum over z and v whose free scalars are read from values."""
        maps = value_maps(z.field, self.shapes, values)
        fams = {name: tuple(maps[4 * k:4 * k + 4]) for k, name in enumerate(_FAMS)}
        return ExtendingDatum(z, v, **fams, sigma=maps[-1])

    def datum_at(self, index):
        if not (0 <= index < self.total):
            raise IndexError(f"index {index} out of range ({self.total} assignments)")
        return self._datum(self.z, self.v, _digits(index, self.field.char, self.size))

    @cached_property
    def checks(self):
        """The validity constraints, read off the compiled oracle.

        The product of the datum whose free scalar i is the variable x_i of
        Z[x] is substituted into the compiled crossed-module check
        (core.crossed_module_constraints); the assignments at which every
        constraint vanishes mod p are exactly the valid ones.  checks[k]
        holds the constraints whose highest variable is x_(k-1) (see
        _levelled).
        """
        ring = PolynomialRing()
        d = self.v.d
        v = TwoVectorSpace(d.cols, d.rows, LinMap(ring, d.rows, d.cols, d.entries))
        datum = self._datum(_lift(ring, self.z), v, map(ring.var, count()))
        polys = crossed_module_constraints(build_unified_product(datum), self.field.char)
        return _levelled(polys, self.size)


def _digits(index, p, n):
    """index as n base-p digits, the most significant first."""
    digits = [0] * n
    for i in reversed(range(n)):
        index, digits[i] = divmod(index, p)
    return digits


def _lift(ring, z: ZinbielTwoAlgebra):
    """z over ring, every scalar read as a constant."""
    def bil(m):
        return BilMap(ring, m.dim_a, m.dim_b, m.dim_c, {(k, i, j): v for k, i, j, v in m.items})

    return ZinbielTwoAlgebra(ZinbielAlgebra(ring, z.z1.dim, bil(z.z1.mult)),
                             ZinbielAlgebra(ring, z.z0.dim, bil(z.z0.mult)),
                             LinMap(ring, z.phi.rows, z.phi.cols, z.phi.entries),
                             BimodulePair(bil(z.act.left), bil(z.act.right)))


def _levelled(polys, size):
    """The polynomials over the variables x0..x_(size-1) by level:
    levels[k] holds those whose highest variable is x_(k-1), levels[0] the
    constant ones."""
    levels = [[] for _ in range(size + 1)]
    for poly in polys:
        levels[max((x for mono, _ in poly for x in mono), default=-1) + 1].append(poly)
    return tuple(map(tuple, levels))


def _walk(p, checks, guards=None):
    """The leaves of a depth-first search over GF(p)^n, n = len(checks) - 1,
    as indices (digits big-endian in variable order), ascending.

    Backtracking with forward checking: variable i is bound at depth i with
    values 0..p-1 ascending, and a node at depth k (variables below k bound)
    is cut when a polynomial of checks[k] does not vanish or when the
    predicate guards[k] (if any) rejects the bound values.
    """
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


def _rechecked(spec, indices):
    """The data at the indices, each confirmed by the oracle."""
    for index in indices:
        datum = spec.datum_at(index)
        if not check_datum_direct(datum, cap=1, check_z=False).ok:
            raise AssertionError(f"the search accepted assignment {index}, "
                                 "which the oracle rejects")
        yield datum


def enumerate_valid_data(field, z: ZinbielTwoAlgebra, vdims, d: LinMap,
                         budget=DEFAULT_ENUM_BUDGET):
    """All valid extending data for (z, V) in lexicographic order.

    Raises BudgetExceeded (with the exact candidate count) before searching
    anything if the assignment space is too large, and PreconditionError if
    z itself is not a valid 2-algebra.  The search (_walk over spec.checks,
    free scalars bound in index order) visits only assignments that pass every
    check so far; each datum it accepts is rebuilt and re-checked by the
    oracle, and a disagreement raises.
    """
    _require_valid_z(z, DEFAULT_VIOLATION_CAP)
    spec = EnumerationSpec(field, z, vdims, d)
    if spec.total > budget:
        raise BudgetExceeded(
            f"enumeration space has {spec.total} candidates (budget {budget})",
            count=spec.total)
    yield from _rechecked(spec, _walk(field.char, spec.checks))


# ---------------------------------------------------------------------------
# quotient computation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OrbitPartition:
    items: tuple          # canonical serializations, in enumeration order
    orbits: tuple         # tuple of index tuples, sorted by representative
    relation: str         # "equivalent" or "cohomologous"

    @property
    def representatives(self):
        return tuple(min(self.items[i] for i in orbit) for orbit in self.orbits)


def compute_quotients(data, mode="equivalent", rs_budget=DEFAULT_RS_BUDGET):
    """Partition valid data under the chosen relation.

    One pass in items order: each datum, its product built once, is searched
    against the representative (first member) of every orbit so far, and
    joins the orbit it is related to or opens one; orbits thus come sorted
    by representative.  A datum related to two representatives raises
    AssertionError.  With two data or more the search is posed once, up
    front (_RSSearch, as in are_equivalent with check_valid=False).
    """
    from .io import canonical_dumps, datum_to_json
    data = list(data)
    items = tuple(canonical_dumps(datum_to_json(d)) for d in data)
    search = _RSSearch(data, mode, rs_budget, False) if len(data) > 1 else None
    orbits = []         # (representative's product, members)
    for i in sorted(range(len(data)), key=items.__getitem__):
        product = _product(data[i])
        hits = [members for rep, members in orbits if search(product, rep)]
        if len(hits) > 1:
            raise AssertionError(f"item {i} is related to the representatives "
                                 f"{hits[0][0]} and {hits[1][0]}")
        if hits:
            hits[0].append(i)
        else:
            orbits.append((product, [i]))
    return OrbitPartition(items=items, orbits=tuple(tuple(sorted(members))
                                                    for _, members in orbits),
                          relation=mode)


def census(field, z: ZinbielTwoAlgebra, vdims, d: LinMap,
           budget=DEFAULT_ENUM_BUDGET, rs_budget=DEFAULT_RS_BUDGET):
    """Enumerate valid data and compute both quotients; returns census JSON."""
    from .io import two_algebra_to_json
    data = list(enumerate_valid_data(field, z, vdims, d, budget=budget))
    out = {"field": field.name,
           "Z": two_algebra_to_json(z, kind=None),
           "Vdims": list(vdims),
           "valid_count": len(data),
           "quotients": []}
    parts = {}
    for mode in ("equivalent", "cohomologous"):
        part = compute_quotients(data, mode=mode, rs_budget=rs_budget)
        parts[mode] = part
        out["quotients"].append({
            "relation": mode,
            "orbit_count": len(part.orbits),
            "orbits": [list(o) for o in part.orbits],
            "representatives": list(part.representatives)})
    # each cohomology orbit lies inside one equivalence orbit (so |HE2| <= |HC2|)
    eq_of = {i: k for k, orbit in enumerate(parts["equivalent"].orbits) for i in orbit}
    if any(len({eq_of[i] for i in orbit}) > 1 for orbit in parts["cohomologous"].orbits):
        raise AssertionError("cohomologous relation does not refine equivalence")
    return out
