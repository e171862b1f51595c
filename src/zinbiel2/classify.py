"""Morphisms between unified products, equivalence of extending data, and
desk-scale classification over GF(p).

Valid data are enumerated by backtracking with forward checking: the
validity constraints are read off the direct oracle once, by running it
over a polynomial ring on a datum whose free coefficients are variables,
and a depth-first assignment of the coefficients cuts every branch on which
a fully bound constraint fails.  Each accepted datum is re-checked by the
oracle.

Equivalence testing searches block maps (x, u) -> (x + r(u), s(u)) rather
than all linear maps of the ambient product: a morphism that stabilizes Z
has exactly this form, and it is an isomorphism precisely when both s
components are invertible (criterion H1..H20, cross-validated against the
direct morphism check).  The cohomologous relation additionally fixes
s = id.  The search is the same depth-first walk as the enumeration, over
the morphism constraints read off the direct morphism check run on a block
map whose r and s entries are variables; singular s blocks are cut as soon
as they are bound, and the witness found is re-checked by the oracle.
Searches and enumerations run in the calling process and are deterministic
and lexicographic, budgets are hard limits, and nothing is silently sampled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

from .core import (DEFAULT_VIOLATION_CAP, BimodulePair, TwoMorphism, ZinbielAlgebra,
                   ZinbielTwoAlgebra, check_2alg_morphism)
from .engine import MorphismCtx, evaluate_conditions
from .errors import (BudgetExceeded, DimError, FieldMismatch, InfeasibleSearch,
                     PreconditionError)
from .fields import PolynomialRing, PrimeField
from .linalg import BilMap, LinMap, TwoVectorSpace, inverse, upper_block
from .unified import (ExtendingDatum, _require_valid_z, build_unified_product,
                      check_datum_direct)

DEFAULT_ENUM_BUDGET = 5 ** 8
DEFAULT_RS_BUDGET = 10 ** 6
_FAMILIES = ("hr", "hl", "tr", "tl", "om", "st")


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

    @classmethod
    def identity(cls, field, datum: ExtendingDatum):
        n1, n0 = datum.z.z1.dim, datum.z.z0.dim
        m1, m0 = datum.v.dim1, datum.v.dim0
        return cls(LinMap.zero(field, n1, m1), LinMap.zero(field, n0, m0),
                   LinMap.identity(field, m1), LinMap.identity(field, m0))

    def is_isomorphism_shape(self):
        return inverse(self.s1) is not None and inverse(self.s0) is not None


def _require_compatible(d1: ExtendingDatum, d2: ExtendingDatum):
    if d1.field != d2.field:
        raise FieldMismatch("data over different fields")
    if d1.z != d2.z or d1.v != d2.v:
        raise DimError("data must share the same Z and the same (V1, V0, d)")


def morphism_from_rs(rs: RSData, d1: ExtendingDatum, d2: ExtendingDatum) -> TwoMorphism:
    """The block map (x, u) -> (x + r(u), s(u)) at both levels."""
    _require_compatible(d1, d2)
    f = d1.field
    out = []
    for (r, s, nz, mv) in ((rs.r1, rs.s1, d1.z.z1.dim, d1.v.dim1),
                           (rs.r0, rs.s0, d1.z.z0.dim, d1.v.dim0)):
        if (r.rows, r.cols) != (nz, mv) or s.rows != mv:
            raise DimError("rs maps do not match the datum dimensions")
        out.append(upper_block(LinMap.identity(f, nz), r, s))
    return TwoMorphism(out[0], out[1])


def check_rs_conditions(rs: RSData, d1: ExtendingDatum, d2: ExtendingDatum,
                        cap=DEFAULT_VIOLATION_CAP, strict_printed=False):
    """Evaluate H1..H20 for the block map rs between the two data."""
    from .conds_morphism import H_TABLE
    _require_compatible(d1, d2)
    return evaluate_conditions(MorphismCtx(d1, d2, rs), H_TABLE, cap=cap,
                               strict_printed=strict_printed)


def check_rs_direct(rs: RSData, d1: ExtendingDatum, d2: ExtendingDatum,
                    cap=DEFAULT_VIOLATION_CAP):
    """Oracle: build both products and run the direct morphism check."""
    _require_compatible(d1, d2)
    return check_2alg_morphism(build_unified_product(d1), build_unified_product(d2),
                               morphism_from_rs(rs, d1, d2), cap=cap)


def _rs_shapes(datum: ExtendingDatum, mode):
    """(rows, cols) of the blocks the rs search binds, in binding order:
    r1 and r0, then s1 and s0 in mode "equivalent"."""
    n1, n0 = datum.z.z1.dim, datum.z.z0.dim
    m1, m0 = datum.v.dim1, datum.v.dim0
    shapes = [(n1, m1), (n0, m0)]
    if mode == "equivalent":
        shapes += [(m1, m1), (m0, m0)]
    return shapes


def _rs_maps(ring, shapes, values):
    """r1, r0, s1, s0 over ring, each block of shapes filled row-major from
    values in order; s1 and s0 are the identity when shapes holds r1 and r0
    only."""
    maps, pos = [], 0
    for rows, cols in shapes:
        maps.append(LinMap(ring, rows, cols,
                           [values[pos + r * cols:pos + (r + 1) * cols] for r in range(rows)]))
        pos += rows * cols
    if len(maps) == 2:
        maps += [LinMap.identity(ring, m.cols) for m in maps]
    return maps


def rs_search_space(field, datum: ExtendingDatum, mode):
    """Number of candidate rs tuples for the given mode."""
    return field.char ** sum(rows * cols for rows, cols in _rs_shapes(datum, mode))


def _rs_checks(e1: ZinbielTwoAlgebra, e2: ZinbielTwoAlgebra, shapes):
    """The morphism constraints on rs, read off the oracle once.

    The oracle runs on the block map from e1 to e2 whose rs entries are the
    variables x0, x1, ... of GF(p)[x] in _rs_maps order; the assignments at
    which every returned polynomial vanishes are exactly the rs values that
    make the block map a morphism.  Levelled as in _levelled.
    """
    ring = PolynomialRing(e1.field)
    count = sum(rows * cols for rows, cols in shapes)
    r1, r0, s1, s0 = _rs_maps(ring, shapes, [ring.var(i) for i in range(count)])
    phi = TwoMorphism(upper_block(LinMap.identity(ring, r1.rows), r1, s1),
                      upper_block(LinMap.identity(ring, r0.rows), r0, s0))
    report = check_2alg_morphism(_lift(ring, e1), _lift(ring, e2), phi, cap=math.inf)
    return _levelled(ring, report, count)


def _invertible_block(field, m, lo):
    """Predicate on bound values: the m x m block starting at lo is invertible."""
    def test(values):
        rows = [values[lo + r * m:lo + (r + 1) * m] for r in range(m)]
        return inverse(LinMap(field, m, m, rows)) is not None
    return test


def are_equivalent(d1: ExtendingDatum, d2: ExtendingDatum, mode="equivalent",
                   rs_budget=DEFAULT_RS_BUDGET, check_valid=True):
    """Search for a stabilizing isomorphism between the products.

    mode "equivalent": any rs with both s components invertible;
    mode "cohomologous": s fixed to the identity.  Returns (found, witness),
    the witness being the lexicographically first rs (r1, r0, s1, s0,
    row-major).  The search is backtracking with forward checking over the
    constraints of _rs_checks (see _walk); in mode "equivalent" an s block
    is cut as soon as its entries are bound and it is singular.  The witness
    is re-checked by the oracle, and a disagreement raises.
    """
    if mode not in ("equivalent", "cohomologous"):
        raise ValueError(f"unknown mode {mode!r}")
    _require_compatible(d1, d2)
    f = d1.field
    if not isinstance(f, PrimeField):
        raise PreconditionError("equivalence search requires a prime field")
    if check_valid:
        for d in (d1, d2):
            rep = check_datum_direct(d, cap=1)
            if not rep.ok:
                raise PreconditionError("datum is not a valid extending structure", rep)
    space = rs_search_space(f, d1, mode)
    if space > rs_budget:
        raise InfeasibleSearch(
            f"rs search space has {space} candidates (budget {rs_budget})", count=space)
    e1 = build_unified_product(d1)
    e2 = build_unified_product(d2)
    shapes = _rs_shapes(d1, mode)
    guards, depth = {}, 0
    for k, (rows, cols) in enumerate(shapes):
        depth += rows * cols
        if k >= 2 and rows:     # s1 or s0: cut when singular, once bound
            guards[depth] = _invertible_block(f, rows, depth - rows * cols)
    leaf = next(_walk(f.char, _rs_checks(e1, e2, shapes), guards=guards), None)
    if leaf is None:
        return False, None
    values = _digits(leaf, f.char, depth)
    rs = RSData(*_rs_maps(f, shapes, values))
    if not check_2alg_morphism(e1, e2, morphism_from_rs(rs, d1, d2), cap=1).ok:
        raise AssertionError(f"the rs search found the block map with entries {values}, "
                             "which the oracle rejects")
    return True, rs


# ---------------------------------------------------------------------------
# enumeration of valid extending data
# ---------------------------------------------------------------------------

class EnumerationSpec:
    """Deterministic indexing of all coefficient assignments over GF(p),
    and the validity constraints the search prunes with.

    Free scalars (slots) are ordered family by family (hr, hl, tr, tl, om,
    st with j = 0..3, coefficients in (k, i, j) order) followed by sigma
    entries in row-major order; assignment index digits are big-endian in
    that order.
    """

    def __init__(self, field, z: ZinbielTwoAlgebra, vdims, d: LinMap):
        if not isinstance(field, PrimeField):
            raise PreconditionError("enumeration requires a prime field")
        m1, m0 = vdims
        if (d.rows, d.cols) != (m0, m1):
            raise DimError(f"d must be {m0}x{m1}")
        self.field = field
        self.z = z
        self.v = TwoVectorSpace(m1, m0, d)
        self.base = ExtendingDatum.trivial(z, self.v)
        slots = []
        for attr in _FAMILIES:
            for j in range(4):
                m = getattr(self.base, attr)[j]
                for k in range(m.dim_c):
                    for i in range(m.dim_a):
                        for jj in range(m.dim_b):
                            slots.append((attr, j, (k, i, jj)))
        for r in range(z.z0.dim):
            for c in range(m1):
                slots.append(("sigma", None, (r, c)))
        self.slots = slots
        self.total = field.char ** len(slots)

    def _fill(self, base, values):
        """base with slot i set to values[i]; zero values keep base's zero maps."""
        f = base.field
        zero = f.zero()
        fams = {attr: [dict() for _ in range(4)] for attr in _FAMILIES}
        sigma_entries = {}
        for (attr, j, key), val in zip(self.slots, values):
            if val == zero:
                continue
            if attr == "sigma":
                sigma_entries[key] = val
            else:
                fams[attr][j][key] = val
        kwargs = {}
        for attr in fams:
            maps = []
            for j in range(4):
                proto = getattr(base, attr)[j]   # the zero map of this shape
                coeffs = fams[attr][j]
                maps.append(BilMap(f, proto.dim_a, proto.dim_b, proto.dim_c, coeffs)
                            if coeffs else proto)
            kwargs[attr] = tuple(maps)
        rows, cols = base.sigma.rows, base.sigma.cols
        sigma = LinMap(f, rows, cols, [[sigma_entries.get((r, c), zero) for c in range(cols)]
                                       for r in range(rows)])
        return base.replace(sigma=sigma, **kwargs)

    def datum_at(self, index):
        if not (0 <= index < self.total):
            raise IndexError(f"index {index} out of range ({self.total} assignments)")
        return self._fill(self.base, _digits(index, self.field.char, len(self.slots)))

    @cached_property
    def checks(self):
        """The validity constraints, read off the oracle once.

        The oracle runs on the datum whose slot i holds the variable x_i of
        GF(p)[x]; the assignments at which every constraint vanishes are
        exactly the valid ones.  checks[k] holds the constraints whose
        highest variable is x_(k-1) (see _levelled).
        """
        ring = PolynomialRing(self.field)
        d = self.v.d
        base = ExtendingDatum.trivial(
            _lift(ring, self.z),
            TwoVectorSpace(self.v.dim1, self.v.dim0, LinMap(ring, d.rows, d.cols, d.entries)))
        datum = self._fill(base, [ring.var(i) for i in range(len(self.slots))])
        report = check_datum_direct(datum, cap=math.inf, check_z=False)
        return _levelled(ring, report, len(self.slots))


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


def _levelled(ring, report, count):
    """The constraints in a symbolic oracle report over the variables
    x0..x_(count-1): every nonzero lhs - rhs component is a polynomial that
    must vanish.  levels[k] holds the distinct ones whose highest variable
    is x_(k-1), levels[0] the constant ones."""
    if report.truncated:
        raise AssertionError("the symbolic oracle report is truncated")
    levels = [{} for _ in range(count + 1)]
    for v in report.violations:
        for a, b in zip(v.lhs, v.rhs):
            poly = ring.sub(a, b)
            if poly:
                last = max((x for mono, _ in poly for x in mono), default=-1)
                levels[last + 1][poly] = None
    return tuple(tuple(level) for level in levels)


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
    slots bound in spec.slots order) visits only assignments that pass every
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


class _UnionFind:
    def __init__(self, n):
        self.parent = list(range(n))

    def find(self, i):
        while self.parent[i] != i:
            self.parent[i] = self.parent[self.parent[i]]
            i = self.parent[i]
        return i

    def union(self, i, j):
        ri, rj = self.find(i), self.find(j)
        if ri != rj:
            self.parent[max(ri, rj)] = min(ri, rj)


def compute_quotients(data, mode="equivalent", rs_budget=DEFAULT_RS_BUDGET):
    """Partition valid data under the chosen relation via pairwise search.

    Transitivity holds abstractly (witnesses compose); it is re-checked
    empirically by confirming every member is directly related to its orbit
    representative.
    """
    from .io import canonical_dumps, datum_to_json
    data = list(data)
    items = tuple(canonical_dumps(datum_to_json(d)) for d in data)
    uf = _UnionFind(len(data))
    for i in range(len(data)):
        for j in range(i + 1, len(data)):
            if uf.find(i) == uf.find(j):
                continue
            found, _ = are_equivalent(data[i], data[j], mode=mode,
                                      rs_budget=rs_budget, check_valid=False)
            if found:
                uf.union(i, j)
    groups = {}
    for i in range(len(data)):
        groups.setdefault(uf.find(i), []).append(i)
    orbits = sorted((tuple(sorted(g)) for g in groups.values()),
                    key=lambda orbit: min(items[i] for i in orbit))
    for orbit in orbits:
        rep = min(orbit, key=lambda i: items[i])
        for i in orbit:
            if i == rep:
                continue
            found, _ = are_equivalent(data[i], data[rep], mode=mode,
                                      rs_budget=rs_budget, check_valid=False)
            if not found:
                raise AssertionError(
                    f"transitivity breakdown: item {i} not directly related "
                    f"to representative {rep}")
    return OrbitPartition(items=items, orbits=tuple(orbits), relation=mode)


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
    if len(parts["equivalent"].orbits) > len(parts["cohomologous"].orbits):
        raise AssertionError("refinement violated: |HE2| > |HC2|")
    # every equivalence orbit must be a union of cohomology orbits
    coh_root = {}
    for oi, orbit in enumerate(parts["cohomologous"].orbits):
        for i in orbit:
            coh_root[i] = oi
    for orbit in parts["equivalent"].orbits:
        for oi in {coh_root[i] for i in orbit}:
            if not set(parts["cohomologous"].orbits[oi]) <= set(orbit):
                raise AssertionError("cohomologous relation does not refine equivalence")
    return out
