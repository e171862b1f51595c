"""Morphisms between unified products, equivalence of extending data, and
desk-scale classification over GF(p).

A census walks a datum's constants in the one layout of core.datum_maps,
Z's (core.two_algebra_maps) and d fixed, the free scalars bound depth-first
with forward checking against the validity constraints: the oracle's run in
a datum's constants (core._datum_run) swept at the fixed constants and
at the free scalars as variables of Z[x], reduced mod p.  A leaf is its
constants, re-checked by substitution into the same run (_leaves); only
enumerate_valid_data builds its datum, and no product is built at all.

Equivalence testing searches block maps (x, u) -> (x + r(u), s(u)) rather
than all linear maps of the ambient product: a morphism that stabilizes Z
has exactly this form, and it is an isomorphism precisely when both s
components are invertible (criterion H1..H20, cross-validated against the
direct morphism check).  The cohomologous relation additionally fixes
s = id.  The search is the same walk over the morphism constraints, read
off the direct check's run in the two data's constants and the block map's
(_rs_run) at a block map of variables, bound fail-first, s before r, so
that a singular s block is cut before any r is bound.  A related pair is
walked again in the slot order (r before s) for its lexicographically first
witness, which the oracle re-checks by substitution into the same run.

What depends only on the shape is derived once (_skeleton, _posed, and the
runs).  A datum is read as its nonzero constants (ExtendingDatum._constants;
a census leaf is only that tuple): its item is spliced from them, and each
half of the morphism run, in the source's constants or in the target's, each
datum laid out in full, is swept at them once per search object.
A pair costs one pass over its two swept halves, which stops at the first
nonzero constant (the pair is then refuted with no walk); else the walk.  A
quotient searches each datum against one representative per orbit.
Everything runs in the calling process, deterministic and lexicographic;
budgets are hard limits, and nothing is silently sampled.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass
from functools import cache, cached_property
from itertools import accumulate, count
from math import inf, prod

from .core import (_FREE, DEFAULT_VIOLATION_CAP, TwoMorphism, ZinbielTwoAlgebra, _datum_run,
                   _dims, _layout, _morphism_instances, _places, _symbolic, _values, compiled_run,
                   map_values, reduced, two_algebra_maps, value_maps)
from .engine import MorphismCtx, evaluate_conditions
from .errors import (BudgetExceeded, DimError, FieldMismatch, InfeasibleSearch,
                     PreconditionError)
from .fields import PolynomialRing, PrimeField, Rationals
from .linalg import LinMap, TwoVectorSpace, inverse, upper_block
from .unified import ExtendingDatum, _datum, _require_valid_z, check_datum_direct

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
        n1, n0, m1, m0 = _dims(datum)
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


def _require_rs(rs, d1, d2):
    """_require_compatible, then DimError unless the blocks of rs fit the data
    (_rs_shapes)."""
    _require_compatible(d1, d2, rs)
    blocks = (rs.r1, rs.r0, rs.s1, rs.s0)
    if [(m.rows, m.cols) for m in blocks] != _rs_shapes(_dims(d1), "equivalent"):
        raise DimError("rs maps do not match the datum dimensions")


def morphism_from_rs(rs: RSData, d1: ExtendingDatum, d2: ExtendingDatum) -> TwoMorphism:
    """The block map of rs, checked against the two data."""
    _require_rs(rs, d1, d2)
    return _block_map(rs.r1, rs.r0, rs.s1, rs.s0)


def check_rs_conditions(rs: RSData, d1: ExtendingDatum, d2: ExtendingDatum,
                        cap=DEFAULT_VIOLATION_CAP, strict_printed=False):
    """Evaluate H1..H20 for the block map rs between the two data."""
    from .conds_morphism import H_TABLE
    _require_rs(rs, d1, d2)
    return evaluate_conditions(MorphismCtx(d1, d2, rs), H_TABLE, cap=cap,
                               strict_printed=strict_printed)


@cache
def _rs_run(dims):
    """The morphism run between the unified products of two data at dims (n1,
    n0, m1, m0), under the block map of rs, in the layout of
    MorphismCtx.values(): x_at is the source datum's constant at (layout of
    core.datum_maps), x_(n+at) the target's, then r1, r0, s1, s0
    (_rs_shapes), each row-major."""
    n, ring = len(_places(dims)), PolynomialRing()
    rs = value_maps(ring, _rs_shapes(dims, "equivalent"), map(ring.var, count(2 * n)))
    return compiled_run(_morphism_instances, _symbolic(dims, range(n)),
                        _symbolic(dims, range(n, 2 * n)), _block_map(*rs))


def check_rs_direct(rs: RSData, d1: ExtendingDatum, d2: ExtendingDatum,
                    cap=DEFAULT_VIOLATION_CAP):
    """Oracle: the direct morphism check of the block map of rs between the
    unified products of the two data, read in their own constants as the
    H1..H20 catalog reads them (MorphismCtx.values()), with its report read
    off _rs_run: the report is that of check_2alg_morphism on the two
    products, which are not built."""
    _require_rs(rs, d1, d2)
    f, dims = d1.field, _dims(d1)
    values = _values(f.zero(), dims, d1._constants, d2._constants, (rs.r1, rs.r0, rs.s1, rs.s0))
    return _rs_run(dims).report(f, values, cap)


def _rs_shapes(dims, mode):
    """(rows, cols) of the blocks of rs between data at dims (n1, n0, m1, m0)
    in slot order, the order of its lexicographic witnesses: r1 and r0, then
    s1 and s0 in mode "equivalent"."""
    n1, n0, m1, m0 = dims
    return [(n1, m1), (n0, m0)] + ([(m1, m1), (m0, m0)] if mode == "equivalent" else [])


def rs_search_space(field, datum: ExtendingDatum, mode):
    """Number of candidate rs tuples over field for the given mode between
    data at the dims of datum (_rs_space, which _RSSearch budgets with);
    ValueError for an unknown mode, FieldMismatch unless datum is over
    field."""
    _require_mode(mode)
    if datum.field != field:
        raise FieldMismatch(f"datum over {datum.field.name}, not {field.name}")
    return _rs_space(field, _dims(datum), mode)


def _rs_space(field, dims, mode):
    """The number of candidate rs over field between data at dims in mode,
    inf over Q unless r and s are empty."""
    size = sum(rows * cols for rows, cols in _rs_shapes(dims, mode))
    return field.char ** size if field.char or not size else inf


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


# an entry of a serialized map: its indices, then its value as a string
_ENTRY = re.compile(r'(\[(?:\d+,)+")(\d+)"\]')


@cache
def _skeleton(field, dims):
    """The canonical serialization (io.canonical_dumps of io.datum_to_json)
    of the data over field at dims (n1, n0, m1, m0), as a function of their
    nonzero constants, (slot, value) in the layout of core.datum_maps.

    It splices those constants, formatted by field.fmt, into the
    serialization of the zero datum: each entry where its list opens, after
    its indices ('[k,i,j,"' or '[r,c,"').  Read off the encoder at two data,
    the zero datum over field and a probe over Q whose constant s is s + 1,
    so that each entry of the probe names its constant; AssertionError
    unless each constant is named once and each list of the probe lies where
    the two serializations agree."""
    from .io import canonical_dumps, datum_to_json
    size = len(_places(dims))
    probe = canonical_dumps(datum_to_json(_datum(Rationals(), dims, zip(range(size), count(1)))))
    zero = canonical_dumps(datum_to_json(_datum(field, dims, ())))
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
def _posed(p, dims, mode):
    """What an rs search over GF(p) between data at dims in mode depends on,
    derived once.  The entries of the blocks of rs (_rs_shapes) are the
    variables x0, x1, ... of Z[x] in the binding order, fail first: s1, s0,
    then r1, r0, each block row-major, so that a singular s is cut before
    any r is bound and most constraints are complete once s is.  slot[i] is the position of
    x_i in the slot order of _rs_maps (r1, r0, s1, s0), the order in which
    witnesses are lexicographic; slot is None where the two orders agree (in
    mode "cohomologous", and wherever r is empty).

    Derived: the two halves of the morphism run in the data's constants
    (_rs_run), read off one sweep of it at the block map of those variables
    (s = id in mode "cohomologous") and at data whose constants are
    variables numbered after them: half 0 the source's constants, half 1
    the target's.  Datum constant at of half h is x_(size+h*n+at), size the
    number of block entries and n of a datum's constants.  Each half is a
    table from a datum constant's slot to the (component, monomial,
    coefficient) terms it adds per unit.  Also derived: the guards that cut
    a singular s block once bound, in the binding order and in the slot
    order.  A swept monomial must carry exactly one datum constant, its
    last variable: divmod(x - size, n) gives its half and its slot.  One
    that carries none or two raises AssertionError, since the halves would
    not sum to the run."""
    ring = PolynomialRing()
    shapes = _rs_shapes(dims, mode)
    sizes = [rows * cols for rows, cols in shapes]
    starts = list(accumulate(sizes, initial=0))     # of the blocks in slot order
    order = (*range(2, len(shapes)), 0, 1)
    slot = tuple(starts[k] + i for k in order for i in range(sizes[k]))
    entries = [None] * len(slot)
    for x, at in enumerate(slot):
        entries[at] = ring.var(x)
    n, size = len(_places(dims)), len(slot)
    source, target = ([(at, ring.var(size + half * n + at)) for at in range(n)] for half in (0, 1))
    values = _values(ring.zero(), dims, source, target, _rs_maps(ring, shapes, entries))
    tables = ({}, {})
    for comp, poly in _rs_run(dims).sweep(values).items():
        for mono, c in poly.items():
            if not mono or mono[-1] < size or len(mono) > 1 and mono[-2] >= size:
                raise AssertionError("a monomial of the run carries no source or target "
                                     "constant, or more than one")
            if c:
                half, at = divmod(mono[-1] - size, n)
                tables[half].setdefault(at, []).append((comp, mono[:-1], c))
    if slot == tuple(range(len(slot))):
        slot = None
    return tables, _guards(p, shapes, order), slot, _guards(p, shapes, range(len(shapes)))


def _require_mode(mode):
    if mode not in ("equivalent", "cohomologous"):
        raise ValueError(f"unknown mode {mode!r}")


class _RSSearch:
    """The rs search over the prime field among data at dims in mode, each
    datum read as its constants (ExtendingDatum._constants): construction
    refuses an rs space over budget and takes what depends only on the shape
    from _posed.  A datum's constants are swept into each half of the
    morphism run (_rs_run), the source's and the target's, and reduced at
    most once per search object."""

    def __init__(self, field, dims, mode, rs_budget):
        self.field, self.dims, self.shapes = field, dims, tuple(_rs_shapes(dims, mode))
        self.size = sum(rows * cols for rows, cols in self.shapes)
        space = _rs_space(field, dims, mode)
        if space > rs_budget:
            raise InfeasibleSearch(
                f"rs search space has {space} candidates (budget {rs_budget})", count=space)
        self._tables, self.guards, self.slot, self.slot_guards = _posed(field.char, dims, mode)
        self._swept = {}        # (constants, 0 as source or 1 as target) -> its sweep

    def _sweep(self, constants, k):
        """Half k of the run swept at a datum's constants (_half_sweep)."""
        acc = self._swept.get((constants, k))
        if acc is None:
            acc = self._swept[constants, k] = _half_sweep(self._tables[k], constants,
                                                          self.field.char)
        return acc

    def checks(self, source, target):
        """The morphism constraints on rs between the data whose constants
        are source and target, _rs_run's constraints at their constants and
        a block map of variables in the binding order, levelled (_levelled,
        _posed): one pass over the components of the source half swept at
        source and the target half at target merges only those both carry,
        and stops at the first nonzero constant, returned alone.  The rs
        over GF(p) at which every polynomial vanishes are exactly those
        whose block map is a morphism."""
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
        source to target (constants of data), or None.  The pair is decided
        by the first leaf of _walk over checks and guards, in the binding
        order; if there is one and the binding order is not the slot order,
        the checks relabelled to the slot order are walked again for the
        first leaf in that order.  The witness is re-checked by the oracle, read off _rs_run
        at cap 1 as check_rs_direct reads it; a rejection raises."""
        f, p = self.field, self.field.char
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
        digits = _digits(leaf, p, self.size)
        maps = _rs_maps(f, self.shapes, digits)
        values = _values(f.zero(), self.dims, source, target, maps)
        if not _rs_run(self.dims).report(f, values, 1).ok:
            raise AssertionError(f"the rs search found the block map with entries {digits}, "
                                 "which the oracle rejects")
        return RSData(*maps)


def _search(data, mode, rs_budget, check_valid):
    """The _RSSearch among data, once it is well posed: a known mode, one
    field, Z and V, a prime field, valid data if check_valid, rs space in
    budget, in that order."""
    _require_mode(mode)
    first = data[0]
    for datum in data[1:]:
        _require_compatible(first, datum)
    if not isinstance(first.field, PrimeField):
        raise PreconditionError("equivalence search requires a prime field")
    if check_valid:
        for datum in data:
            rep = check_datum_direct(datum, cap=1)
            if not rep.ok:
                raise PreconditionError("datum is not a valid extending structure", rep)
    return _RSSearch(first.field, _dims(first), mode, rs_budget)


def are_equivalent(d1: ExtendingDatum, d2: ExtendingDatum, mode="equivalent",
                   rs_budget=DEFAULT_RS_BUDGET, check_valid=True):
    """Search for a stabilizing isomorphism between the products.

    mode "equivalent": any rs with both s components invertible;
    mode "cohomologous": s fixed to the identity.  Returns (found, witness),
    the witness being the lexicographically first rs (r1, r0, s1, s0,
    row-major), found by _RSSearch and re-checked by the oracle.
    """
    rs = _search((d1, d2), mode, rs_budget, check_valid)(d1._constants, d2._constants)
    return rs is not None, rs


# ---------------------------------------------------------------------------
# enumeration of valid extending data
# ---------------------------------------------------------------------------

class EnumerationSpec:
    """Deterministic indexing of all coefficient assignments over GF(p),
    and the validity constraints the search prunes with.

    A datum's constants, in the layout of core.datum_maps, are fixed (Z's
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
        digits = _digits(index, self.field.char, self.size)
        free = [(at, c) for at, c in enumerate(digits, len(self.fixed)) if c]
        return _datum(self.field, self.dims, free, self.z, self.v)

    @cached_property
    def checks(self):
        """The validity constraints, read off the compiled oracle: the
        datum run at the spec's dims (core._datum_run) swept at the fixed
        constants, constants of Z[x], and at the free scalars, free scalar i
        the variable x_i, reduced mod p.  The assignments at which every
        constraint vanishes mod p are exactly the valid ones.  checks[k]
        holds those whose highest variable is x_(k-1) (see _levelled).
        """
        ring = PolynomialRing()
        values = [*map(ring.canonical, self.fixed), *map(ring.var, range(self.size))]
        return _levelled(_datum_run(self.dims).constraints(values, self.field.char), self.size)


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


def _half_sweep(table, constants, p):
    """A half of the morphism run (a table of _posed) swept at a datum's
    constants: component -> (its terms summed mod p, _level) unless that is 0."""
    acc = {}
    for at, v in constants:
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


def _spec(field, z: ZinbielTwoAlgebra, vdims, d: LinMap, budget):
    """The EnumerationSpec of (z, V), once a search of it is well posed:
    ValueError for a negative budget, PreconditionError if z itself is not a
    valid 2-algebra, then the spec's own errors, and BudgetExceeded (with the
    exact candidate count) if the assignment space is too large."""
    if budget < 0:
        raise ValueError(f"budget must be nonnegative, got {budget}")
    _require_valid_z(z, DEFAULT_VIOLATION_CAP)
    spec = EnumerationSpec(field, z, vdims, d)
    if spec.total > budget:
        raise BudgetExceeded(
            f"enumeration space has {spec.total} candidates (budget {budget})",
            count=spec.total)
    return spec


def _leaves(spec):
    """The leaves of _walk over spec.checks, in lexicographic order: each the
    nonzero constants, (slot, value) in the layout of core.datum_maps, of
    the spec's fixed constants and its digits, re-checked by the oracle as
    check_datum_direct does, read off core._datum_run at cap 1; a
    rejection raises."""
    p, run = spec.field.char, _datum_run(spec.dims)
    for index in _walk(p, spec.checks):
        values = (*spec.fixed, *_digits(index, p, spec.size))
        if not run.report(spec.field, values, 1).ok:
            raise AssertionError(f"the search accepted assignment {index}, "
                                 "which the oracle rejects")
        yield tuple((at, c) for at, c in enumerate(values) if c)


def enumerate_valid_data(field, z: ZinbielTwoAlgebra, vdims, d: LinMap,
                         budget=DEFAULT_ENUM_BUDGET):
    """All valid extending data for (z, V) in lexicographic order, raising as
    _spec once iterated: the datum of each leaf, its free scalars read off
    its re-checked constants."""
    spec = _spec(field, z, vdims, d, budget)
    for leaf in _leaves(spec):
        yield _datum(field, spec.dims, leaf, z, spec.v)


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
    with two data or more the inputs are checked once, up front (_search).
    The items are their canonical serializations, spliced from their
    constants (_skeleton).
    """
    _require_mode(mode)
    data = list(data)
    search = _search(data, mode, rs_budget, False) if len(data) > 1 else None
    items = tuple(_skeleton(d.field, _dims(d))(d._constants) for d in data)
    return _quotients(items, [d._constants for d in data], search, mode)


def _quotients(items, leaves, search, mode):
    """The partition under search (an _RSSearch in mode, None for fewer than
    two) of the data whose constants are leaves and whose items are items;
    census calls it on its leaves, each spliced once for both relations."""
    orbits = []         # members, the representative first
    for i in sorted(range(len(items)), key=items.__getitem__):
        hits = [members for members in orbits if search(leaves[i], leaves[members[0]])]
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
    JSON.  A leaf is its constants, re-checked by the oracle (_leaves),
    spliced into its item once and read for both relations; no datum and no
    product is built."""
    from .io import two_algebra_to_json
    spec = _spec(field, z, vdims, d, budget)
    leaves = list(_leaves(spec))
    items = tuple(map(_skeleton(field, spec.dims), leaves))
    out = {"field": field.name,
           "Z": two_algebra_to_json(z, kind=None),
           "Vdims": list(vdims),
           "valid_count": len(leaves),
           "quotients": []}
    parts = {}
    for mode in ("equivalent", "cohomologous"):
        search = _RSSearch(field, spec.dims, mode, rs_budget) if len(leaves) > 1 else None
        parts[mode] = part = _quotients(items, leaves, search, mode)
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
