"""Core Zinbiel structures and basis-level axiom checks.

Structures here are candidates: any structure-constant tensor is
representable, and validity (the Zinbiel identity, bimodule/action axioms,
crossed-module compatibilities) is established by the check_* functions.
Checks verify identities on all basis tuples, which by multilinearity is
equivalent to verification on all elements.  Each check is a stream of
(condition id, basis tuple, lhs, rhs) instances in a fixed loop order, and
its report holds the first `cap` violated ones in that order, sorted; cap=1
asks for a verdict only (ConditionReport.fill and finalize on a stream).

The streams are the only definition of each axiom.  Each runs once per
shape over Z[x] (compiled_run) into a SymbolicRun, the substitution kernel
the catalogs of engine share, and the report at each input over GF(p) or Q
is read off the run (SymbolicRun.report, which builds only the violations
it keeps).  Every oracle run is compiled by one builder, _symbolic: the
unified product of a datum whose constants are variables, placed through
_places.  A 2-algebra is the unified product of its datum at V = 0, whose
constants are its own (map_values of two_algebra_maps, the one order of a
2-algebra's constants, read sparsely by map_items; inverted by two_algebra
and item_maps).  So there are two families of runs: _datum_run, the
crossed-module run at datum dims, read by check_crossed_module at (n1, n0,
0, 0) and by unified.check_datum_direct and the census at a datum's dims;
and _morphism_run, between the products at two dims, read by
check_2alg_morphism at V = 0 on both sides and by unified.verify_psi.
classify._rs_run is built on _symbolic too.  A check builds no product.
The searches of classify read their constraints off the same runs at a
datum's constants, each an integer or a free variable (sweep, its one
symbolic reading).

The layout of a datum's constants is stated here once, for the oracle's
runs, the catalogs of engine and every reader of a datum's maps: _BLOCKS
names the datum family that fills each block of an operation on Z + V,
MAP_SPACES the spaces of every map, datum_maps their order (_datum_keys
names each, marked for a second datum; _datum_zeros reads the zero maps by
name) and _values the variables of a run at a datum's constants, or at two
data side by side, each laid out in full.  semidirect_product is the
level-0 algebra of a unified product too.

Condition IDs are namespaced so a nested report localizes failures:
  ZI               Zinbiel identity (prefixed Z./Z0./Z1. when embedded)
  B1..B3           bimodule axioms
  A1..A3           action axioms
  CM1..CM5         crossed-module compatibilities (CM5 is the derived
                   homomorphism consequence, checked redundantly)
  M1..M5           morphism conditions
"""

from __future__ import annotations

import functools
import re
from bisect import bisect_right
from collections import namedtuple
from dataclasses import dataclass, field as dc_field
from itertools import accumulate, chain, count, product
from math import prod

from .errors import DimError, FieldMismatch, PreconditionError
from .fields import PolynomialRing
from .linalg import BilMap, LinMap, vadd, vbasis

DEFAULT_VIOLATION_CAP = 100

_ID_TOKEN = re.compile(r"\d+|\D+")


@functools.cache
def _id_sort_key(cond_id):
    """Natural order: Z2 before Z14, with namespaced ids grouped by prefix."""
    return tuple((0, t) if not t.isdigit() else (1, int(t))
                 for t in _ID_TOKEN.findall(cond_id))


class Violation(namedtuple("Violation", "cond witness lhs rhs")):
    """A violated instance: an immutable tuple (cond, witness, lhs, rhs), so
    it also equals the plain tuple of its fields."""

    __slots__ = ()

    def sort_key(self):
        return (_id_sort_key(self[0]), self[1])


@dataclass(frozen=True)
class FlagNote:
    """Advisory note attached to a condition evaluated in a corrected form."""

    cond: str
    note: str
    as_printed_disagrees: bool


@dataclass
class ConditionReport:
    violations: list = dc_field(default_factory=list)
    conforming_field: bool = True
    truncated: bool = False
    flags: list = dc_field(default_factory=list)

    @property
    def ok(self):
        return not self.violations

    def add(self, cond, witness, lhs, rhs, cap=DEFAULT_VIOLATION_CAP):
        """Record a violation; returns False once the cap is reached.

        A report that filled the cap is marked truncated (evaluation stops
        there, so further violations may exist).  The cap must be at least 1.
        """
        if cap < 1:
            raise ValueError(f"violation cap must be at least 1, got {cap}")
        if len(self.violations) >= cap:
            self.truncated = True
            return False
        self.violations.append(Violation(cond, tuple(witness), tuple(lhs), tuple(rhs)))
        if len(self.violations) >= cap:
            self.truncated = True
            return False
        return True

    def fill(self, instances, cap=DEFAULT_VIOLATION_CAP):
        """Add the violated (id, witness, lhs, rhs) instances in stream order;
        the stream is left unread once the cap is reached, and not read at
        all for a cap below 1 (ValueError).  Returns self."""
        if cap < 1:
            raise ValueError(f"violation cap must be at least 1, got {cap}")
        violations, new = self.violations, tuple.__new__
        for cond, witness, lhs, rhs in instances:
            if lhs != rhs:      # add's rules, inline: a Violation is a tuple
                if len(violations) < cap:
                    violations.append(new(Violation, (cond, tuple(witness), tuple(lhs),
                                                      tuple(rhs))))
                    if len(violations) < cap:
                        continue
                self.truncated = True
                break
        return self

    def finalize(self):
        self.violations.sort(key=Violation.sort_key)
        self.flags.sort(key=lambda f: _id_sort_key(f.cond))
        return self


def map_items(maps):
    """The (position, entry) of each nonzero entry of the maps, ascending, as
    map_values lays them, in a list; an all-zero map adds nothing and is not
    walked."""
    items, base = [], 0
    for m in maps:
        if isinstance(m, BilMap):
            na, nb = m.dim_a, m.dim_b
            if m.items:
                items += [(base + (k * na + i) * nb + j, v) for k, i, j, v in m.items]
            base += na * nb * m.dim_c
        else:
            if any(map(any, m.entries)):
                items += [(at, v) for at, v in enumerate(chain.from_iterable(m.entries), base) if v]
            base += m.rows * m.cols
    return items


def map_values(maps, zero):
    """Every entry of the maps in the variable layout: a bilinear map
    densely in (k, i, j) order, a linear map row-major."""
    out = []
    for m in maps:
        if isinstance(m, BilMap):
            base, na, nb = len(out), m.dim_a, m.dim_b
            out += [zero] * (na * nb * m.dim_c)
            for k, i, j, v in m.items:
                out[base + (k * na + i) * nb + j] = v
        else:
            for row in m.entries:
                out += row
    return out


@functools.cache
def _zeros(ring, shapes):
    """The zero map over ring of each shape, shared (maps are immutable): a
    BilMap for a shape (dim a, dim b, dim c), a LinMap for a shape (rows,
    cols)."""
    return tuple(BilMap(ring, *shape, {}) if len(shape) == 3 else LinMap.zero(ring, *shape)
                 for shape in shapes)


def value_maps(ring, shapes, values):
    """The inverse of map_values: maps over ring whose entries are read from
    the iterable values in the map_values layout, a BilMap for a shape (dim
    a, dim b, dim c) and a LinMap for a shape (rows, cols)."""
    shapes = tuple(shapes)
    return item_maps(ring, shapes, zip(range(_starts(shapes)[-1]), values))


@functools.cache
def _starts(shapes):
    """Where the map of each shape starts in the map_values layout."""
    return tuple(accumulate((prod(shape) for shape in shapes), initial=0))


def item_maps(ring, shapes, items):
    """The sparse inverse of map_items: maps over ring of shapes (as
    value_maps reads them) whose nonzero entries are the (position, entry)
    pairs items, in any order, positions in the map_values layout.  Only a
    map that an item falls in is built; the others are shared zero maps
    (_zeros)."""
    starts, entries = _starts(shapes), {}
    for at, v in items:
        m = bisect_right(starts, at) - 1
        entries.setdefault(m, []).append((at - starts[m], v))
    maps = list(_zeros(ring, shapes))
    for m, pairs in entries.items():
        shape = shapes[m]
        if len(shape) == 3:
            na, nb = shape[0], shape[1]
            maps[m] = BilMap(ring, *shape, {(at // (na * nb), at // nb % na, at % nb): v
                                            for at, v in pairs})
        else:
            rows, cols = shape
            matrix = [[ring.zero()] * cols for _ in range(rows)]
            for at, v in pairs:
                matrix[at // cols][at % cols] = v
            maps[m] = LinMap(ring, rows, cols, matrix)
    return maps


class SymbolicRun:
    """One run of a check over Z[x], indexed for substitution: the kernel of
    both routes.  Built from the instances (id, witness, sides), sides read
    in pairs (lhs, rhs[, lhs, rhs of the form as printed, the next item,
    "<id>.as-printed"]), and the (id, note) of the suspect conditions.  Its
    items are ranked in report order (natural id order, witness, run order),
    each lhs - rhs component is numbered, and the index maps each monomial,
    grouped by its first variable, to its components and coefficients.
    report reads the run at values of a field, sweep (and constraints, which
    reduces it mod p) at values of Z[x]."""

    def __init__(self, ring, instances, notes=()):
        self._items = items = []    # (id, witness, first component, rhs)
        self._item = item = []      # component -> its item
        self._twins = twins = {}    # item with a form as printed (the next item) -> id
        groups = {}                 # first variable (None: constant) -> rest -> entries
        for cid, witness, sides in instances:
            if len(sides) > 2:
                twins[len(items)] = cid
            for form, (lhs, rhs) in enumerate(zip(sides[::2], sides[1::2])):
                n = len(items)
                items.append((cid + ".as-printed" if form else cid, tuple(witness), len(item), rhs))
                for a, b in zip(lhs, rhs):
                    comp = len(item)
                    item.append(n)
                    for mono, c in ring.sub(a, b):
                        group = groups.setdefault(mono[0] if mono else None, {})
                        group.setdefault(mono[1:], []).append((comp, c))
        self._index = tuple((x, tuple((rest, tuple(entries)) for rest, entries in group.items()))
                            for x, group in groups.items())
        order = sorted(range(len(items)), key=lambda n: (_id_sort_key(items[n][0]), items[n][1]))
        self._rank = sorted(range(len(items)), key=order.__getitem__)     # item -> rank
        self._notes = sorted(notes, key=lambda note: _id_sort_key(note[0]))

    def report(self, field, values, cap=DEFAULT_VIOLATION_CAP, strict_printed=False):
        """The finished report at x = values over field, GF(p) or Q, by fill's
        rules on the items in run order: one sweep of the nonzero first
        variables finds the violated items, the first `cap` (a form as
        printed only with strict_printed, where its instance holds) are put
        in rank order and each is built once, its rhs substituted and its
        lhs the rhs plus the swept lhs - rhs.  A note disagrees if some
        instance and its form as printed disagree before the cap.  ValueError
        for a cap below 1."""
        if cap < 1:
            raise ValueError(f"violation cap must be at least 1, got {cap}")
        canonical, acc = field.canonical, {}
        for x, group in self._index:
            v = 1 if x is None else values[x]
            if not v:
                continue
            for rest, entries in group:
                m = v
                for y in rest:
                    m *= values[y]
                if m:
                    for comp, c in entries:
                        acc[comp] = acc.get(comp, 0) + c * m
        item, twins, disagrees = self._item, self._twins, set()
        bad = {item[comp] for comp, total in acc.items() if canonical(total)}
        chosen = []
        for n in sorted(bad):
            if n - 1 in twins:      # n is the form as printed of item n - 1
                if n - 1 in bad:
                    continue
                disagrees.add(twins[n - 1])
                if not strict_printed:
                    continue
            chosen.append(n)
            if len(chosen) == cap:
                break
            if n in twins and n + 1 not in bad:
                disagrees.add(twins[n])
        chosen.sort(key=self._rank.__getitem__)
        report = ConditionReport(conforming_field=field.conforming, truncated=len(chosen) == cap,
                                 flags=[FlagNote(cid, note, cid in disagrees)
                                        for cid, note in self._notes])
        items, swept, new, violations = self._items, acc.get, tuple.__new__, report.violations
        for n in chosen:
            cid, witness, comp, rhs = items[n]
            lhs, vec = [], []
            for poly in rhs:
                total = 0
                for mono, c in poly:
                    for x in mono:
                        c *= values[x]
                    total += c
                vec.append(canonical(total))
                lhs.append(canonical(total + swept(comp, 0)))
                comp += 1
            violations.append(new(Violation, (cid, witness, tuple(lhs), tuple(vec))))
        return report

    def sweep(self, values):
        """component -> monomial -> coefficient: the lhs - rhs components at
        x = values.  values are Z[x] polynomials of one term at most, so each
        structure constant is an integer constant or a free variable, and
        each swept monomial stays one term."""
        if max(map(len, values), default=0) > 1:
            raise ValueError("each value must be a constant or a single term")
        terms = [v[0] if v else None for v in values]
        acc = {}
        for x, group in self._index:
            first = ((), 1) if x is None else terms[x]
            if first is None:
                continue
            for rest, entries in group:
                mono, m = first
                for y in rest:
                    term = terms[y]
                    if term is None:
                        break
                    mono, m = mono + term[0], m * term[1]
                else:
                    if len(mono) > 1:
                        mono = tuple(sorted(mono))
                    for comp, c in entries:
                        poly = acc.setdefault(comp, {})
                        poly[mono] = poly.get(mono, 0) + c * m
        return acc

    def constraints(self, values, p):
        """The distinct nonzero lhs - rhs components at x = values (sweep),
        reduced mod p, in run order."""
        polys = (reduced(poly.items(), p) for _, poly in sorted(self.sweep(values).items()))
        return tuple(dict.fromkeys(poly for poly in polys if poly))


def reduced(terms, p):
    """The sum of the (monomial, coefficient) terms mod p, sorted; () if 0."""
    if len(terms) == 1:     # most swept components: the one coefficient mod p
        (mono, c), = terms
        return ((mono, c % p),) if c % p else ()
    total = {}
    for mono, c in terms:
        total[mono] = total.get(mono, 0) + c
    return tuple(sorted((mono, c % p) for mono, c in total.items() if c % p))


@dataclass(frozen=True, slots=True)
class ZinbielAlgebra:
    """A candidate algebra: a space with a multiplication tensor."""

    field: object
    dim: int
    mult: BilMap

    def __post_init__(self):
        dim, mult = self.dim, self.mult
        if (mult.dim_a, mult.dim_b, mult.dim_c) != (dim, dim, dim):
            raise DimError(f"mult must be {dim}x{dim}->{dim}")
        if mult.field != self.field:
            raise FieldMismatch("mult tensor over wrong field")

    @classmethod
    def zero(cls, field, dim):
        return cls(field, dim, BilMap.zero(field, dim, dim, dim))

    def __repr__(self):
        return f"ZinbielAlgebra({self.field.name}, dim={self.dim})"


@dataclass(frozen=True, slots=True)
class BimodulePair:
    """Action tensors: left z|>v (dz x dv -> dv) and right v<|z (dv x dz -> dv)."""

    left: BilMap
    right: BilMap

    def __post_init__(self):
        left, right = self.left, self.right
        dz, dv = left.dim_a, left.dim_b
        if (left.dim_c != dv or (right.dim_a, right.dim_b, right.dim_c) != (dv, dz, dv)):
            raise DimError("action tensors have inconsistent dimensions")
        if left.field != right.field:
            raise FieldMismatch("action tensors over different fields")

    @property
    def dim_z(self):
        return self.left.dim_a

    @property
    def dim_v(self):
        return self.left.dim_b

    @classmethod
    def trivial(cls, field, dim_z, dim_v):
        return cls(BilMap.zero(field, dim_z, dim_v, dim_v),
                   BilMap.zero(field, dim_v, dim_z, dim_v))


@dataclass(frozen=True, slots=True)
class ZinbielTwoAlgebra:
    """Candidate 2-algebra: (Z1, Z0, phi, action of Z0 on Z1)."""

    z1: ZinbielAlgebra
    z0: ZinbielAlgebra
    phi: LinMap
    act: BimodulePair

    def __post_init__(self):
        z1, z0, phi, act = self.z1, self.z0, self.phi, self.act
        if z1.field != z0.field or phi.field != z0.field or act.left.field != z0.field:
            raise FieldMismatch("components over different fields")
        if (phi.cols, phi.rows) != (z1.dim, z0.dim):
            raise DimError(f"phi must be {z0.dim}x{z1.dim}")
        if (act.dim_z, act.dim_v) != (z0.dim, z1.dim):
            raise DimError("action dimensions must match (dim Z0, dim Z1)")

    @property
    def field(self):
        return self.z0.field

    @classmethod
    def shell(cls, z: ZinbielAlgebra):
        """(0, Z, 0) with the trivial action."""
        f = z.field
        return cls(ZinbielAlgebra.zero(f, 0), z, LinMap.zero(f, z.dim, 0),
                   BimodulePair.trivial(f, z.dim, 0))

    @classmethod
    def cone(cls, z: ZinbielAlgebra):
        """(Z, Z, id) with the action given by the multiplication itself."""
        return cls(z, z, LinMap.identity(z.field, z.dim),
                   BimodulePair(z.mult, z.mult))

    def __repr__(self):
        return f"ZinbielTwoAlgebra({self.field.name}, dims=({self.z1.dim},{self.z0.dim}))"


@dataclass(frozen=True, slots=True)
class TwoMorphism:
    """A pair of linear maps between the levels of two 2-algebras."""

    phi1: LinMap
    phi0: LinMap

    def __post_init__(self):
        if self.phi1.field != self.phi0.field:
            raise FieldMismatch("morphism components over different fields")

    @property
    def field(self):
        return self.phi0.field


def _prefixed(prefix, instances):
    """The instances with `prefix` put before each condition id."""
    return ((prefix + cond, witness, lhs, rhs) for cond, witness, lhs, rhs in instances)


def _zinbiel_instances(alg):
    """ZI: (ei.ej).ek = ei.(ej.ek + ek.ej) on every basis triple."""
    f, mult, n = alg.field, alg.mult, alg.dim
    b = [vbasis(f, n, i) for i in range(n)]
    prod = [[mult.eval_bb(i, j) for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(n):
            for k in range(n):
                lhs = mult.eval(prod[i][j], b[k])
                yield "ZI", (i, j, k), lhs, mult.eval(b[i], vadd(f, prod[j][k], prod[k][j]))


def check_zinbiel(alg: ZinbielAlgebra, cap=DEFAULT_VIOLATION_CAP):
    """The Zinbiel identity on every basis triple; ID "ZI"."""
    report = ConditionReport(conforming_field=alg.field.conforming)
    return report.fill(_zinbiel_instances(alg), cap).finalize()


def _bimodule_instances(z, dim_v, act):
    """B1-B3 for Z acting on a dim_v space, without the identity of Z."""
    f = z.field
    mult, left, right = z.mult, act.left, act.right
    n, m = z.dim, dim_v
    bz = [vbasis(f, n, i) for i in range(n)]
    bv = [vbasis(f, m, i) for i in range(m)]
    for i in range(n):
        for j in range(n):
            mij = mult.eval_bb(i, j)
            mji = mult.eval_bb(j, i)
            msym = vadd(f, mij, mji)
            for k in range(m):
                # B1: (x.y)|>v = x|>(y|>v + v<|y)
                lhs = left.eval(mij, bv[k])
                rhs = left.eval(bz[i], vadd(f, left.eval_bb(j, k), right.eval_bb(k, j)))
                yield "B1", (i, j, k), lhs, rhs
                # B2: (v<|x)<|y = v<|(x.y + y.x)
                lhs = right.eval(right.eval_bb(k, i), bz[j])
                yield "B2", (k, i, j), lhs, right.eval(bv[k], msym)
                # B3: (x|>v)<|y = x|>(v<|y + y|>v)
                lhs = right.eval(left.eval_bb(i, k), bz[j])
                rhs = left.eval(bz[i], vadd(f, right.eval_bb(k, j), left.eval_bb(j, k)))
                yield "B3", (i, k, j), lhs, rhs


def check_bimodule(z: ZinbielAlgebra, dim_v, act: BimodulePair, cap=DEFAULT_VIOLATION_CAP):
    """Bimodule axioms B1-B3 for Z acting on a dim_v space.

    The Zinbiel identity for Z itself is a checked precondition; its
    violations appear namespaced as Z.ZI.
    """
    if (act.dim_z, act.dim_v) != (z.dim, dim_v):
        raise DimError("action dimensions do not match (dim Z, dim V)")
    if act.left.field != z.field:
        raise FieldMismatch("Z and its action over different fields")
    instances = chain(_prefixed("Z.", _zinbiel_instances(z)),
                      _bimodule_instances(z, dim_v, act))
    return ConditionReport(conforming_field=z.field.conforming).fill(instances, cap).finalize()


def semidirect_product(z: ZinbielAlgebra, dim_v, act: BimodulePair):
    """Algebra on Z + V with (x,u).(y,v) = (x.y, x|>v + u<|y).

    Requires the bimodule axioms; raises PreconditionError carrying the
    report otherwise.
    """
    pre = check_bimodule(z, dim_v, act)
    if not pre.ok:
        raise PreconditionError("not a bimodule; semidirect product undefined", pre)
    dims = (0, z.dim, 0, dim_v)     # Z and V at level 0: the level-0 algebra of a product
    maps = _datum_zeros(z.field, dims) | {("z", 0): z.mult, ("tr", 0): act.left,
                                          ("tl", 0): act.right}
    return _product(z.field, dims, map_items(maps.values())).z0


def _action_instances(z0, z1, act):
    """Z0.ZI, Z1.ZI, B1-B3 for Z0 acting on the space of Z1, then A1-A3."""
    yield from _prefixed("Z0.", _zinbiel_instances(z0))
    yield from _prefixed("Z1.", _zinbiel_instances(z1))
    yield from _bimodule_instances(z0, z1.dim, act)
    f = z0.field
    mult1, left, right = z1.mult, act.left, act.right
    n0, n1 = z0.dim, z1.dim
    b0 = [vbasis(f, n0, i) for i in range(n0)]
    b1 = [vbasis(f, n1, i) for i in range(n1)]
    for a in range(n0):
        for i in range(n1):
            for j in range(n1):
                m1ij = mult1.eval_bb(i, j)
                m1ji = mult1.eval_bb(j, i)
                # A1: (x0|>x1).y1 = x0|>(x1.y1 + y1.x1)
                lhs = mult1.eval(left.eval_bb(a, i), b1[j])
                yield "A1", (a, i, j), lhs, left.eval(b0[a], vadd(f, m1ij, m1ji))
                # A2: (x1<|x0).y1 = x1.(x0|>y1 + y1<|x0)
                lhs = mult1.eval(right.eval_bb(i, a), b1[j])
                rhs = mult1.eval(b1[i], vadd(f, left.eval_bb(a, j), right.eval_bb(j, a)))
                yield "A2", (i, a, j), lhs, rhs
                # A3: (x1.y1)<|x0 = x1.(y1<|x0 + x0|>y1)
                lhs = right.eval(m1ij, b0[a])
                rhs = mult1.eval(b1[i], vadd(f, right.eval_bb(j, a), left.eval_bb(a, j)))
                yield "A3", (i, j, a), lhs, rhs


def check_action(z0: ZinbielAlgebra, z1: ZinbielAlgebra, act: BimodulePair,
                 cap=DEFAULT_VIOLATION_CAP):
    """Action axioms A1-A3 on top of the bimodule axioms.

    Embeds Zinbiel checks for both algebras (Z0.ZI / Z1.ZI) and the bimodule
    axioms for Z0 acting on the space underlying Z1.
    """
    if (act.dim_z, act.dim_v) != (z0.dim, z1.dim):
        raise DimError("action dimensions do not match (dim Z0, dim Z1)")
    if z1.field != z0.field or act.left.field != z0.field:
        raise FieldMismatch("Z0, Z1 and the action over different fields")
    report = ConditionReport(conforming_field=z0.field.conforming)
    return report.fill(_action_instances(z0, z1, act), cap).finalize()


def _crossed_module_instances(t):
    """The action instances of t, then CM1-CM4 and the derived CM5."""
    yield from _action_instances(t.z0, t.z1, t.act)
    f = t.field
    phi, mult0, mult1 = t.phi, t.z0.mult, t.z1.mult
    left, right = t.act.left, t.act.right
    n0, n1 = t.z0.dim, t.z1.dim
    b0 = [vbasis(f, n0, i) for i in range(n0)]
    b1 = [vbasis(f, n1, i) for i in range(n1)]
    phi_b = [phi.apply(b1[i]) for i in range(n1)]
    for a in range(n0):
        for i in range(n1):
            # CM1: phi(x0|>x1) = x0.phi(x1)
            yield "CM1", (a, i), phi.apply(left.eval_bb(a, i)), mult0.eval(b0[a], phi_b[i])
            # CM2: phi(x1<|x0) = phi(x1).x0
            yield "CM2", (i, a), phi.apply(right.eval_bb(i, a)), mult0.eval(phi_b[i], b0[a])
    for i in range(n1):
        for j in range(n1):
            mij = mult1.eval_bb(i, j)
            # CM3: phi(x1)|>y1 = x1.y1
            yield "CM3", (i, j), left.eval(phi_b[i], b1[j]), mij
            # CM4: x1.y1 = x1<|phi(y1)
            yield "CM4", (i, j), mij, right.eval(b1[i], phi_b[j])
            # CM5 (derived): phi(x1.y1) = phi(x1).phi(y1)
            yield "CM5", (i, j), phi.apply(mij), mult0.eval(phi_b[i], phi_b[j])


# Operation j of a 2-algebra (0: level-0 mult, 1: level-1 mult, 2: left
# action, 3: right action) as (level of slot a, level of slot b, result level).
_OP_LEVELS = ((0, 0, 0), (1, 1, 1), (0, 1, 1), (1, 0, 1))


def two_algebra_maps(t):
    """The five maps of the 2-algebra t in the one order of its constants:
    its four operations in _OP_LEVELS order, then phi.  The compiled runs lay
    out their variables as map_values of these, and a datum's constants
    begin with them (datum_maps); two_algebra is the inverse."""
    return (t.z0.mult, t.z1.mult, t.act.left, t.act.right, t.phi)


def two_algebra(ring, maps):
    """The 2-algebra over ring whose two_algebra_maps are maps."""
    mult0, mult1, left, right, phi = maps
    return ZinbielTwoAlgebra(ZinbielAlgebra(ring, mult1.dim_a, mult1),
                             ZinbielAlgebra(ring, mult0.dim_a, mult0), phi,
                             BimodulePair(left, right))


# The blocks of an operation on Z + V as (slot a, slot b, result), each 0 for
# Z and 1 for V, with the datum family that fills the block ("z" is the
# operation of Z itself), in the one order of the families, that of
# datum_maps and of the census.  Z x Z -> V is the one block left out: it
# vanishes exactly when Z is closed under the operation.
_BLOCKS = (((0, 0, 0), "z"), ((1, 0, 0), "hr"), ((0, 1, 0), "hl"), ((0, 1, 1), "tr"),
           ((1, 0, 1), "tl"), ((1, 1, 0), "om"), ((1, 1, 1), "st"))

# the datum families in the one order of _BLOCKS
_FAMS = tuple(name for _, name in _BLOCKS[1:])

# Family name -> (left space, right space, result space) of its map j: the
# sides of the family's block at the levels of operation j.
MAP_SPACES = {name: tuple(tuple("ZV"[side] + str(level) for side, level in zip(block, levels))
                          for levels in _OP_LEVELS)
              for block, name in _BLOCKS}


def map_shape(dims, spaces):
    """The shape value_maps reads for a map between spaces at dims: (dim a,
    dim b, dim c) if bilinear, else (rows, cols) = (dim codomain, dim domain)."""
    return tuple(dims[s] for s in (spaces if len(spaces) == 3 else spaces[::-1]))


def _datum_keys(mark):
    """key, spaces of every structure map of a datum in datum_maps order,
    each name marked: mark is "" for the datum of a context, "p" for its
    target."""
    ops = [((name + mark, j), spaces) for name, row in MAP_SPACES.items()
           for j, spaces in enumerate(row)]
    return [*ops[:4], ("phi" + mark, ("Z1", "Z0")), ("d" + mark, ("V1", "V0")), *ops[4:],
            ("sig" + mark, ("V1", "Z0"))]


_DATUM_KEYS = _datum_keys("")


def datum_maps(datum):
    """Every structure map of datum in the order engine.DatumCtx lists them,
    the layout of its values() and symbolic(): Z's two_algebra_maps (its four
    operations, then phi), d, then the 24 family maps in _FAMS order and
    sigma, a census's free scalars in its order (_DATUM_KEYS names each)."""
    return [*two_algebra_maps(datum.z), datum.v.d,
            *(m for name in _FAMS for m in getattr(datum, name)), datum.sigma]


# where the free scalars of a datum's maps start in the order of datum_maps:
# after Z's two_algebra_maps and d, at the first family map
_FREE = [key for key, _ in _DATUM_KEYS].index((_FAMS[0], 0))


@functools.cache
def _layout(dims):
    """The shapes (map_shape) of the maps of a datum at dims (n1, n0, m1,
    m0), in the order of datum_maps."""
    sizes = dict(zip(("Z1", "Z0", "V1", "V0"), dims))
    return tuple(map_shape(sizes, spaces) for _, spaces in _DATUM_KEYS)


def _dims(datum):
    """The dims (n1, n0, m1, m0) of a datum."""
    z, v = datum.z, datum.v
    return (z.z1.dim, z.z0.dim, v.dim1, v.dim0)


def _values(zero, dims, source, target=None, tail=()):
    """The variables of DatumCtx.values() (and, given target, of MorphismCtx)
    at dims: the datum constants source, (slot, value) pairs in the layout of
    datum_maps, densely, then target's likewise, then map_values of the maps
    tail."""
    n = _starts(_layout(dims))[-1]
    values = [zero] * (n if target is None else 2 * n)
    for at, v in source:
        values[at] = v
    for at, v in target or ():
        values[n + at] = v
    return values + map_values(tail, zero)


def _datum_zeros(ring, dims):
    """key (as _DATUM_KEYS names it) -> the zero map over ring of that map of
    a datum at dims, shared (_zeros)."""
    return dict(zip((key for key, _ in _DATUM_KEYS), _zeros(ring, _layout(dims))))


@functools.cache
def _places(dims):
    """Where each constant of a datum at dims (n1, n0, m1, m0), in the layout
    of datum_maps, sits in its unified product E: (m, key), m the index of
    its map in two_algebra_maps(E) and key its (k, i, j) there, or its (row,
    col) in phi_E (m = 4).  Read off the map's spaces alone: their levels
    name the operation of E, and a V index follows the Z of its level, so
    phi, sigma and d are the blocks of phi_E = [[phi, sigma], [0, d]]."""
    sizes = dict(zip(("Z1", "Z0", "V1", "V0"), dims))
    offset = {"Z1": 0, "Z0": 0, "V1": sizes["Z1"], "V0": sizes["Z0"]}
    places = []
    for _, spaces in _DATUM_KEYS:
        m = _OP_LEVELS.index(tuple(int(s[1]) for s in spaces)) if len(spaces) == 3 else 4
        axes = (spaces[2], *spaces[:2]) if len(spaces) == 3 else spaces[::-1]     # of its key
        places += [(m, tuple(offset[s] + i for s, i in zip(axes, key)))
                   for key in product(*(range(sizes[s]) for s in axes))]
    return tuple(places)


def _product(field, dims, constants):
    """The unified product over field of the datum at dims (n1, n0, m1, m0)
    whose constants are the (slot, value) pairs constants, slots in the
    layout of datum_maps, each placed through _places; a slot left out is
    0."""
    places = _places(dims)
    coeffs = [{} for _ in range(5)]
    for at, v in constants:
        m, key = places[at]
        coeffs[m][key] = v
    n1, n0, m1, m0 = dims
    size = (n0 + m0, n1 + m1)
    ops = [BilMap(field, size[a], size[b], size[c], coeffs[j])
           for j, (a, b, c) in enumerate(_OP_LEVELS)]
    zero, phi = field.zero(), coeffs[4]
    return two_algebra(field, [*ops, LinMap(field, size[0], size[1], [
        [phi.get((r, c), zero) for c in range(size[1])] for r in range(size[0])])])


def _symbolic(dims, variables):
    """The unified product over Z[x] of the datum at dims whose constant at,
    in the layout of datum_maps, is the variable x_(variables[at]): the one
    builder of the oracle's runs."""
    ring = PolynomialRing()
    return _product(ring, dims, ((at, ring.var(x)) for at, x in enumerate(variables)))


def compiled_run(stream, *args):
    """The SymbolicRun of stream(*args), run once: args are a 2-algebra, or
    two and a morphism, over Z[x]."""
    return SymbolicRun(PolynomialRing(), ((c, w, (l, r)) for c, w, l, r in stream(*args)))


@functools.cache
def _datum_run(dims):
    """The crossed-module run of the unified product at dims (n1, n0, m1, m0)
    in its datum's constants: x_at is constant at, in the layout of
    datum_maps (_values, DatumCtx.values()).  At (n1, n0, 0, 0) the product
    is a 2-algebra itself, its constants in the order of two_algebra_maps."""
    return compiled_run(_crossed_module_instances, _symbolic(dims, range(len(_places(dims)))))


def check_crossed_module(t: ZinbielTwoAlgebra, cap=DEFAULT_VIOLATION_CAP):
    """Full 2-algebra check: action axioms plus CM1-CM4 and derived CM5, read
    off the run of t as the unified product at V = 0 (_datum_run)."""
    f = t.field
    values = map_values(two_algebra_maps(t), f.zero())
    return _datum_run((t.z1.dim, t.z0.dim, 0, 0)).report(f, values, cap)


def _morphism_instances(t, t2, m):
    """M1-M5 for m: t -> t2."""
    f = t.field
    p1, p0 = m.phi1, m.phi0
    n0, n1 = t.z0.dim, t.z1.dim
    b0 = [vbasis(f, n0, i) for i in range(n0)]
    b1 = [vbasis(f, n1, i) for i in range(n1)]
    im0 = [p0.apply(v) for v in b0]
    im1 = [p1.apply(v) for v in b1]
    for i in range(n0):
        for j in range(n0):
            # M1: phi0 is an algebra homomorphism
            yield "M1", (i, j), p0.apply(t.z0.mult.eval_bb(i, j)), t2.z0.mult.eval(im0[i], im0[j])
    for i in range(n1):
        for j in range(n1):
            # M2: phi1 is an algebra homomorphism
            yield "M2", (i, j), p1.apply(t.z1.mult.eval_bb(i, j)), t2.z1.mult.eval(im1[i], im1[j])
    for i in range(n1):
        # M3: phi' o phi1 = phi0 o phi
        yield "M3", (i,), t2.phi.apply(im1[i]), p0.apply(t.phi.apply(b1[i]))
    for a in range(n0):
        for i in range(n1):
            # M4: phi1(x0|>x1) = phi0(x0) |>' phi1(x1)
            lhs = p1.apply(t.act.left.eval_bb(a, i))
            yield "M4", (a, i), lhs, t2.act.left.eval(im0[a], im1[i])
            # M5: phi1(x1<|x0) = phi1(x1) <|' phi0(x0)
            lhs = p1.apply(t.act.right.eval_bb(i, a))
            yield "M5", (i, a), lhs, t2.act.right.eval(im1[i], im0[a])


@functools.cache
def _morphism_run(dims, dims2):
    """The morphism run from the unified product at dims (n1, n0, m1, m0) to
    the one at dims2, in their datum constants, x_0 .. x_(n-1) and then the
    target's, under a morphism whose phi1 and phi0 come last, each
    row-major."""
    n, n2 = len(_places(dims)), len(_places(dims2))
    ring = PolynomialRing()
    shapes = [(dims2[k] + dims2[k + 2], dims[k] + dims[k + 2]) for k in (0, 1)]
    phi = value_maps(ring, shapes, map(ring.var, count(n + n2)))
    return compiled_run(_morphism_instances, _symbolic(dims, range(n)),
                        _symbolic(dims2, range(n, n + n2)), TwoMorphism(*phi))


def check_2alg_morphism(t: ZinbielTwoAlgebra, t2: ZinbielTwoAlgebra, m: TwoMorphism,
                        cap=DEFAULT_VIOLATION_CAP):
    """Morphism conditions M1-M5 for m: t -> t2, read off the run between
    them as unified products at V = 0 (_morphism_run); DimError unless m maps
    the levels of t to those of t2."""
    f = t.field
    if t2.field != f or m.field != f:
        raise FieldMismatch("morphism and 2-algebras over different fields")
    dims, dims2 = (t.z1.dim, t.z0.dim), (t2.z1.dim, t2.z0.dim)
    for k, p in enumerate((m.phi1, m.phi0)):
        if (p.cols, p.rows) != (dims[k], dims2[k]):
            raise DimError(f"phi{1 - k} must be {dims2[k]}x{dims[k]}")
    values = map_values([*two_algebra_maps(t), *two_algebra_maps(t2), m.phi1, m.phi0], f.zero())
    return _morphism_run((*dims, 0, 0), (*dims2, 0, 0)).report(f, values, cap)
