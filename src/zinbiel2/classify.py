"""Morphisms between unified products, equivalence of extending data, and
desk-scale classification over GF(p).

A census walks a datum's constants in the one layout of engine.datum_maps,
Z's (core.two_algebra_maps) and d fixed, the free scalars bound depth-first
with forward checking against the validity constraints, read off the direct
oracle's compiled run (core.crossed_module_run) at the product gathered from
the constants (_gather), the free scalars variables of Z[x], reduced mod p.
A leaf is its constants plus one product built from them and re-checked by
the oracle (_leaves); its datum is built only on request.

Equivalence testing searches block maps (x, u) -> (x + r(u), s(u)) rather
than all linear maps of the ambient product: a morphism that stabilizes Z
has exactly this form, and it is an isomorphism precisely when both s
components are invertible (criterion H1..H20, cross-validated against the
direct morphism check).  The cohomologous relation additionally fixes
s = id.  The search is the same walk over the morphism constraints read off
the compiled morphism check at a block map of variables, bound fail-first,
s before r, so that a singular s block is cut before any r is bound.  A
related pair is walked again in the slot order (r before s) for its
lexicographically first witness, which the oracle re-checks.

What depends only on the shape is derived once (_skeleton, _gather,
_posed).  A datum is read as its nonzero constants (_Product): its item is
spliced from them, each half of the morphism run is swept at them once per
search object, and its product is built from them at most once.  A pair
costs one pass over its two swept halves, which stops at the first nonzero
constant (the pair is then refuted with no walk); else the walk.  A quotient
searches each datum against one representative per orbit.  Everything runs
in the calling process, deterministic and lexicographic; budgets are hard
limits, and nothing is silently sampled.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass
from functools import cache, cached_property
from itertools import accumulate, count, repeat
from math import prod

from .core import (DEFAULT_VIOLATION_CAP, TwoMorphism, ZinbielTwoAlgebra, check_2alg_morphism,
                   check_crossed_module, crossed_module_run, map_items, map_values, morphism_run,
                   reduced, two_algebra, two_algebra_maps, value_maps)
from .engine import (_DATUM_KEYS, _FAMS, MorphismCtx, datum_maps, evaluate_conditions,
                     map_shape)
from .errors import (BudgetExceeded, DimError, FieldMismatch, InfeasibleSearch,
                     PreconditionError)
from .fields import PolynomialRing, PrimeField, Rationals
from .linalg import LinMap, TwoVectorSpace, inverse, upper_block
from .unified import ExtendingDatum, _require_valid_z, build_unified_product, check_datum_direct

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


def _require_compatible(d1, d2, rs=None):
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


def _rs_shapes(datum, mode):
    """(rows, cols) of the blocks of rs in slot order, the order of its
    lexicographic witnesses: r1 and r0, then s1 and s0 in mode
    "equivalent".  datum may be a _Product."""
    n1, n0 = datum.z.z1.dim, datum.z.z0.dim
    m1, m0 = datum.v.dim1, datum.v.dim0
    return [(n1, m1), (n0, m0)] + ([(m1, m1), (m0, m0)] if mode == "equivalent" else [])


def rs_search_space(field, datum: ExtendingDatum, mode):
    """Number of candidate rs tuples for the given mode."""
    return field.char ** sum(rows * cols for rows, cols in _rs_shapes(datum, mode))


def _invertible_block(p, m, lo):
    """Predicate on bound values, integers read mod p: the m x m block
    starting at lo, row-major, has rank m (elimination on the rows)."""
    if m == 1:      # the walk's most frequent test: one entry
        return lambda values: values[lo] % p != 0

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


# where the free scalars of a datum's maps start in the order of
# engine.datum_maps: after Z's two_algebra_maps and d, at the first family map
_FREE = [key for key, _ in _DATUM_KEYS].index((_FAMS[0], 0))


@cache
def _layout(dims):
    """The shapes (engine.map_shape) of the maps of a datum at dims (n1, n0,
    m1, m0), in the order of engine.datum_maps."""
    sizes = dict(zip(("Z1", "Z0", "V1", "V0"), dims))
    return tuple(map_shape(sizes, spaces) for _, spaces in _DATUM_KEYS)


def _datum_over(z, v, free):
    """The datum over z and v whose free scalars, its constants from _FREE on
    in the layout of engine.datum_maps (the families in _FAMS order, four
    maps each, then sigma), are read from the iterable free."""
    maps = value_maps(z.field, _layout((z.z1.dim, z.z0.dim, v.dim1, v.dim0))[_FREE:], free)
    return ExtendingDatum(z, v, sigma=maps.pop(),
                          **{name: tuple(maps[4 * k:4 * k + 4]) for k, name in enumerate(_FAMS)})


def _datum_at(ring, dims, values):
    """The datum over ring at dims (n1, n0, m1, m0) whose structure constants,
    in the layout of engine.datum_maps, are read from the iterable values."""
    values = iter(values)
    *z, d = value_maps(ring, _layout(dims)[:_FREE], values)
    return _datum_over(two_algebra(ring, z), TwoVectorSpace(*dims[2:], d), values)


@cache
def _gather(dims):
    """Where each structure constant of a unified product at dims (n1, n0,
    m1, m0) comes from: for each entry of map_values(two_algebra_maps(E)),
    the position of the datum constant it equals in the layout of
    engine.datum_maps, or -1 where it is 0.  Read off the product of the
    datum whose constants are the variables x0, x1, ... (_datum_at);
    AssertionError unless each entry is 0 or one variable with coefficient 1."""
    ring = PolynomialRing()
    datum = _datum_at(ring, dims, map(ring.var, count()))
    table = []
    for v in map_values(two_algebra_maps(build_unified_product(datum)), ring.zero()):
        if v and (len(v) > 1 or v[0][1] != 1 or len(v[0][0]) != 1):
            raise AssertionError(f"a constant of the unified product is {v}, "
                                 "not 0 or one datum constant")
        table.append(v[0][0][0] if v else -1)
    return tuple(table)


# an entry of a serialized map: its indices, then its value as a string
_ENTRY = re.compile(r'(\[(?:\d+,)+")(\d+)"\]')


@cache
def _skeleton(field, dims):
    """The canonical serialization (io.canonical_dumps of io.datum_to_json)
    of the data over field at dims (n1, n0, m1, m0), as a function of their
    nonzero constants, (slot, value) in the layout of engine.datum_maps.

    It splices those constants, formatted by field.fmt, into the
    serialization of the zero datum: each entry where its list opens, after
    its indices ('[k,i,j,"' or '[r,c,"').  Read off the encoder at two data,
    the zero datum over field and a probe over Q whose constant s is s + 1,
    so that each entry of the probe names its constant; AssertionError
    unless each constant is named once and each list of the probe lies where
    the two serializations agree."""
    from .io import canonical_dumps, datum_to_json
    zero_datum = _datum_at(field, dims, repeat(0))
    probe = canonical_dumps(datum_to_json(_datum_at(Rationals(), dims, count(1))))
    zero = canonical_dumps(datum_to_json(zero_datum))
    text, entries, end, length = [], [], 0, 0   # the probe without its entries
    for m in _ENTRY.finditer(probe):
        gap = probe[end:m.start()]
        if not (entries and gap == ","):        # not the next entry of a list
            text.append(gap)
            length += len(gap)
        entries.append((length, m[1], int(m[2]) - 1))
        end = m.end()
    text = "".join(text) + probe[end:]
    # the two agree but for a middle run, the field's name
    head = len(os.path.commonprefix([text, zero]))
    tail = len(text) - len(os.path.commonprefix([text[head:][::-1], zero[head:][::-1]]))
    layout = []
    for at, prefix, slot in entries:
        if head < at < tail:
            raise AssertionError(f"the entry {prefix}{slot + 1}\"] of the probe lies where "
                                 "it and the zero datum are serialized differently")
        layout.append((at if at <= head else at + len(zero) - len(text), prefix, slot))
    size = len(map_values(datum_maps(zero_datum), 0))
    if sorted(slot for _, _, slot in entries) != list(range(size)):
        raise AssertionError(f"the {len(entries)} entries of the serialized probe do not "
                             f"name each of its {size} constants once")
    rank = {slot: n for n, (_, _, slot) in enumerate(layout)}     # in the serialization
    fmt = field.fmt

    def spliced(constants):
        parts, at = [], 0
        for n, c in sorted((rank[slot], c) for slot, c in constants):
            offset, prefix, _ = layout[n]
            parts += (zero[at:offset] if offset != at else ",", prefix, fmt(c), '"]')
            at = offset
        parts.append(zero[at:])
        return "".join(parts)
    return spliced


class _Product:
    """A datum over the 2-algebra z and the space v as the census and the
    quotients read it: constants, its nonzero constants, (slot, value) in the
    layout of engine.datum_maps; item, its canonical serialization, spliced
    from them (_skeleton); e, its unified product, built from them once, each
    of its own constants read through _gather; datum, built from them only on
    request (_Product.of)."""

    def __init__(self, z, v, constants):
        self.z, self.v, self.constants = z, v, constants
        self.field, self.dims = z.field, (z.z1.dim, z.z0.dim, v.dim1, v.dim0)
        self.item = _skeleton(self.field, self.dims)(constants)

    @classmethod
    def of(cls, datum):
        """The _Product of datum, its constants read once, sparsely (map_items)."""
        product = cls(datum.z, datum.v, tuple(map_items(datum_maps(datum))))
        product.datum = datum
        return product

    @cached_property
    def e(self):
        n1, n0, m1, m0 = self.dims
        shapes = _layout((n1 + m1, n0 + m0, 0, 0))[:_FREE - 1]     # E's two_algebra_maps
        values = map(dict(self.constants).get, _gather(self.dims), repeat(0))
        return two_algebra(self.field, value_maps(self.field, shapes, values))

    @cached_property
    def datum(self):
        start = sum(map(prod, _layout(self.dims)[:_FREE]))     # the first free scalar
        return _datum_over(self.z, self.v, map(dict(self.constants).get, count(start), repeat(0)))


def _rs_maps(ring, shapes, values):
    """r1, r0, s1, s0 over ring, read row-major from values into the blocks
    of shapes (_rs_shapes); s = id in mode "cohomologous"."""
    maps = value_maps(ring, shapes, values)
    if len(maps) == 2:
        maps += [LinMap.identity(ring, m.cols) for m in maps]
    return maps


def _guards(p, shapes, order):
    """The guards of a walk that binds the blocks of shapes (_rs_shapes) in
    the given order of their indices, each row-major: at the depth where an
    s block is bound in full, the test that it is invertible."""
    guards, depth = {}, 0
    for k in order:
        rows, cols = shapes[k]
        depth += rows * cols
        if k >= 2 and rows:     # s1 or s0
            guards[depth] = _invertible_block(p, rows, depth - rows * cols)
    return guards


@cache
def _posed(p, shapes):
    """What an rs search over GF(p) with the blocks of shapes depends on,
    derived once.  The entries of the blocks are the variables x0, x1, ...
    of Z[x] in the binding order, fail first: s1, s0, then r1, r0, each
    block row-major, so that a singular s is cut before any r is bound and
    most constraints are complete once s is.  slot[i] is the position of
    x_i in the slot order of _rs_maps (r1, r0, s1, s0), the order in which
    witnesses are lexicographic; slot is None where the two orders agree (in
    mode "cohomologous", and wherever r is empty).

    Derived: phi, the structure constants of the block map over Z[x]; the
    compiled morphism run between the products; its two halves, read off one
    sweep of the run at phi, the product constants numbered after phi's
    variables (constant e is x_(top+e), top the number of phi's), each a
    table from a datum constant's slot to the (component, monomial,
    coefficient) terms it adds per unit; and the guards that cut a singular
    s block once bound, in the binding order and in the slot order.  A swept
    monomial must carry exactly one product constant, its last variable:
    divmod(e, n) gives its half and its slot in the product, which _gather
    maps to a datum constant.  One that carries none or two raises
    AssertionError, since the halves would not sum to the run."""
    ring = PolynomialRing()
    sizes = [rows * cols for rows, cols in shapes]
    starts = list(accumulate(sizes, initial=0))     # of the blocks in slot order
    order = (*range(2, len(shapes)), 0, 1)
    slot = tuple(starts[k] + i for k in order for i in range(sizes[k]))
    entries = [None] * len(slot)
    for x, at in enumerate(slot):
        entries[at] = ring.var(x)
    phi = _block_map(*_rs_maps(ring, shapes, entries))
    phi = tuple(map_values((phi.phi1, phi.phi0), ring.zero()))
    (n1, m1), (n0, m0) = shapes[:2]
    gather = _gather((n1, n0, m1, m0))
    n, top = len(gather), len(slot)
    run = morphism_run((n1 + m1, n0 + m0), (n1 + m1, n0 + m0))
    tables = ({}, {})
    for comp, poly in run.sweep([*map(ring.var, range(top, top + 2 * n)), *phi]).items():
        for mono, c in poly.items():
            if not mono or mono[-1] < top or len(mono) > 1 and mono[-2] >= top:
                raise AssertionError("a monomial of the run carries no source or target "
                                     "constant, or more than one")
            half, e = divmod(mono[-1] - top, n)
            if gather[e] >= 0 and c:
                tables[half].setdefault(gather[e], []).append((comp, mono[:-1], c))
    if slot == tuple(range(len(slot))):
        slot = None
    return (phi, run, tables, _guards(p, shapes, order), slot,
            _guards(p, shapes, range(len(shapes))))


def _require_mode(mode):
    if mode not in ("equivalent", "cohomologous"):
        raise ValueError(f"unknown mode {mode!r}")


class _RSSearch:
    """The rs search among _Products of one shape: construction checks that
    it is well posed (a known mode, one prime field, Z and V, valid data if
    check_valid, rs space in budget, in that order) and takes what depends
    only on the shape from _posed.  Each product's half of the morphism run
    is swept and reduced at most once per search object, as either side."""

    def __init__(self, products, mode, rs_budget, check_valid):
        _require_mode(mode)
        first = products[0]
        for product in products[1:]:
            _require_compatible(first, product)
        f = first.field
        if not isinstance(f, PrimeField):
            raise PreconditionError("equivalence search requires a prime field")
        if check_valid:
            for product in products:
                rep = check_datum_direct(product.datum, cap=1)
                if not rep.ok:
                    raise PreconditionError("datum is not a valid extending structure", rep)
        space = rs_search_space(f, first, mode)
        if space > rs_budget:
            raise InfeasibleSearch(
                f"rs search space has {space} candidates (budget {rs_budget})", count=space)
        self.field, self.shapes = f, tuple(_rs_shapes(first, mode))
        self.size = sum(rows * cols for rows, cols in self.shapes)
        (self.phi, self.run, self._tables, self.guards, self.slot,
         self.slot_guards) = _posed(f.char, self.shapes)
        self._swept = {}        # (product, 0 as source or 1 as target) -> its sweep

    def _sweep(self, product, k):
        """Half k of the run swept at product's constants (_half_sweep)."""
        acc = self._swept.get((product, k))
        if acc is None:
            acc = self._swept[product, k] = _half_sweep(self._tables[k], product, self.field.char)
        return acc

    def checks(self, source, target):
        """The morphism constraints on rs between the _Products source and
        target, run.constraints at their constants and phi levelled over the
        variables in the binding order (_levelled, _posed): one pass over the
        components of the source half swept at source and the target half at
        target merges only those both carry, and stops at the first nonzero
        constant, returned alone.  The rs over GF(p) at which every polynomial
        vanishes are exactly those whose block map is a morphism."""
        a, b = self._sweep(source, 0), self._sweep(target, 1)
        levels = [{} for _ in range(self.size + 1)]     # dicts as ordered sets
        for comp in sorted(a.keys() | b.keys()):
            poly, level = a.get(comp) or b[comp]
            if comp in a and comp in b:
                poly = reduced(a[comp][0] + b[comp][0], self.field.char)
                level = _level(poly)
            if level:
                levels[level][poly] = None
            elif poly:
                return ((poly,),) + ((),) * self.size
        return tuple(map(tuple, levels))

    def __call__(self, source, target):
        """The lexicographically first rs whose block map is a morphism from
        source to target (_Products), or None.  The pair is decided by the
        first leaf of _walk over checks and guards, in the binding order; if
        there is one and the binding order is not the slot order, the checks
        relabelled to the slot order are walked again for the first leaf in
        that order.  The witness is re-checked by the oracle; a rejection
        raises."""
        p = self.field.char
        checks = self.checks(source, target)
        if checks[0]:       # a nonzero constant: no rs at all
            return None
        leaf = next(_walk(p, checks, self.guards), None)
        if leaf is None:
            return None
        if self.slot is not None:
            leaf = next(_walk(p, _relabelled(checks, self.slot), self.slot_guards), None)
            if leaf is None:
                raise AssertionError("the rs search found a witness in the binding order "
                                     "and none in the slot order")
        values = _digits(leaf, p, self.size)
        maps = _rs_maps(self.field, self.shapes, values)
        if not check_2alg_morphism(source.e, target.e, _block_map(*maps), cap=1).ok:
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
    products = _Product.of(d1), _Product.of(d2)
    rs = _RSSearch(products, mode, rs_budget, check_valid)(*products)
    return rs is not None, rs


# ---------------------------------------------------------------------------
# enumeration of valid extending data
# ---------------------------------------------------------------------------

class EnumerationSpec:
    """Deterministic indexing of all coefficient assignments over GF(p),
    and the validity constraints the search prunes with.

    A datum's constants, in the layout of engine.datum_maps, are fixed (Z's
    two_algebra_maps, then d) up to _FREE, its first family map; the free
    scalars are the rest: hr, hl, tr, tl, om, st with j = 0..3 (each in (k, i,
    j) order), then sigma row-major.  size counts them; index digits are
    big-endian.  The data at the indices share the spec's own z and v.
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
        self.dims = (z.z1.dim, z.z0.dim, m1, m0)
        self.fixed = tuple(map_values([*two_algebra_maps(z), d], field.zero()))
        self.size = sum(map(prod, _layout(self.dims)[_FREE:]))
        self.total = field.char ** self.size

    def datum_at(self, index):
        if not (0 <= index < self.total):
            raise IndexError(f"index {index} out of range ({self.total} assignments)")
        return _datum_over(self.z, self.v, _digits(index, self.field.char, self.size))

    @cached_property
    def checks(self):
        """The validity constraints, read off the compiled oracle.

        The product's constants, gathered (_gather) from the datum's with the
        fixed ones constants of Z[x] and free scalar i the variable x_i, are
        substituted into the compiled crossed-module check
        (core.crossed_module_run); the assignments at which every constraint
        vanishes mod p are exactly the valid ones.  checks[k] holds those
        whose highest variable is x_(k-1) (see _levelled).
        """
        ring = PolynomialRing()
        values = [*map(ring.canonical, self.fixed), *map(ring.var, range(self.size))]
        n1, n0, m1, m0 = self.dims
        run = crossed_module_run((n1 + m1, n0 + m0))
        polys = run.constraints([values[at] if at >= 0 else () for at in _gather(self.dims)],
                                self.field.char)
        return _levelled(polys, self.size)


def _digits(index, p, n):
    """index as n base-p digits, the most significant first."""
    digits = [0] * n
    for i in reversed(range(n)):
        index, digits[i] = divmod(index, p)
    return digits


def _level(poly):
    """k where x_(k-1) is the highest variable of poly, 0 if it has none."""
    return max((mono[-1] for mono, _ in poly if mono), default=-1) + 1


def _levelled(polys, size):
    """The polynomials over the variables x0..x_(size-1) by level (_level):
    levels[k] holds those whose highest variable is x_(k-1), levels[0] the
    constant ones."""
    levels = [[] for _ in range(size + 1)]
    for poly in polys:
        levels[_level(poly)].append(poly)
    return tuple(map(tuple, levels))


def _half_sweep(table, product, p):
    """A half of the morphism run (a table of _posed) swept at a _Product's
    constants: component -> (its terms summed mod p, _level) unless that is 0."""
    acc = {}
    for at, v in product.constants:
        for comp, mono, c in table.get(at, ()):
            acc.setdefault(comp, []).append((mono, c * v))
    return {comp: (poly, _level(poly)) for comp, terms in acc.items()
            if (poly := reduced(terms, p))}


def _relabelled(checks, slot):
    """The levelled checks with each variable x_i renamed x_slot[i] (slot a
    permutation), levelled anew."""
    polys = (tuple(sorted((tuple(sorted(slot[x] for x in mono)), c) for mono, c in poly))
             for level in checks for poly in level)
    return _levelled(polys, len(checks) - 1)


def _walk(p, checks, guards=None):
    """The leaves of a depth-first search over GF(p)^n, n = len(checks) - 1,
    as indices (digits big-endian in variable order), ascending, each found
    as it is read.

    Backtracking with forward checking: variable i is bound at depth i with
    values 0..p-1 ascending, and a node at depth k (variables below k bound)
    is cut when a polynomial of checks[k] does not vanish or when the
    predicate guards[k] (if any) rejects the bound values.  The path is an
    explicit stack, the bound values; each node is tested in one place.
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

    depth = index = 0       # the node: values[:depth] bound, index their digits
    while True:
        if holds(depth):
            if depth == n:
                yield index
            else:           # bind the next variable to 0
                values[depth] = 0
                depth += 1
                index *= p
                continue
        while depth and values[depth - 1] == p - 1:     # its last value: back up
            depth -= 1
            index //= p
        if not depth:
            return
        values[depth - 1] += 1
        index += 1


def _leaves(field, z: ZinbielTwoAlgebra, vdims, d: LinMap, budget):
    """The leaves of _walk over spec.checks for (z, V), in lexicographic order:
    each a _Product over z and V of the spec's fixed constants and its digits,
    its e re-checked by the oracle as check_datum_direct does; a rejection raises.

    Raises ValueError for a negative budget, BudgetExceeded (with the exact
    candidate count) before searching anything if the assignment space is
    too large, and PreconditionError if z itself is not a valid 2-algebra.
    """
    if budget < 0:
        raise ValueError(f"budget must be nonnegative, got {budget}")
    _require_valid_z(z, DEFAULT_VIOLATION_CAP)
    spec = EnumerationSpec(field, z, vdims, d)
    if spec.total > budget:
        raise BudgetExceeded(
            f"enumeration space has {spec.total} candidates (budget {budget})",
            count=spec.total)
    for index in _walk(field.char, spec.checks):
        values = enumerate((*spec.fixed, *_digits(index, field.char, spec.size)))
        product = _Product(z, spec.v, tuple((at, c) for at, c in values if c))
        if not check_crossed_module(product.e, cap=1).ok:
            raise AssertionError(f"the search accepted assignment {index}, "
                                 "which the oracle rejects")
        yield product


def enumerate_valid_data(field, z: ZinbielTwoAlgebra, vdims, d: LinMap,
                         budget=DEFAULT_ENUM_BUDGET):
    """All valid extending data for (z, V) in lexicographic order, raising as
    _leaves: the datum of each leaf (its constants plus one re-checked
    product), built on request."""
    return (product.datum for product in _leaves(field, z, vdims, d, budget))


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

    One pass in items order: each datum is searched against the
    representative (first member) of every orbit so far, and joins the
    orbit it is related to or opens one; orbits thus come sorted by
    representative.  A datum related to two representatives raises
    AssertionError.  The mode is checked first, whatever the number of data;
    with two data or more the inputs are checked once, up front (_RSSearch).
    The items are their canonical serializations (_Product.of).
    """
    _require_mode(mode)
    return _quotients(list(map(_Product.of, data)), mode, rs_budget)


def _quotients(products, mode, rs_budget):
    """compute_quotients on the _Products given; census calls it on its
    leaves, each read once for both relations."""
    items = tuple(product.item for product in products)
    search = _RSSearch(products, mode, rs_budget, False) if len(products) > 1 else None
    orbits = []         # members, the representative first
    for i in sorted(range(len(products)), key=items.__getitem__):
        hits = [members for members in orbits if search(products[i], products[members[0]])]
        if len(hits) > 1:
            raise AssertionError(f"item {i} is related to the representatives "
                                 f"{hits[0][0]} and {hits[1][0]}")
        if hits:
            hits[0].append(i)
        else:
            orbits.append([i])
    return OrbitPartition(items=items, orbits=tuple(tuple(sorted(members)) for members in orbits),
                          relation=mode)


def census(field, z: ZinbielTwoAlgebra, vdims, d: LinMap,
           budget=DEFAULT_ENUM_BUDGET, rs_budget=DEFAULT_RS_BUDGET):
    """Enumerate the valid leaves and compute both quotients; returns census
    JSON.  A leaf is its constants plus one product re-checked by the oracle
    (_leaves), read for both relations; no datum is built."""
    from .io import two_algebra_to_json
    products = list(_leaves(field, z, vdims, d, budget))
    out = {"field": field.name,
           "Z": two_algebra_to_json(z, kind=None),
           "Vdims": list(vdims),
           "valid_count": len(products),
           "quotients": []}
    parts = {}
    for mode in ("equivalent", "cohomologous"):
        parts[mode] = part = _quotients(products, mode, rs_budget)
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
