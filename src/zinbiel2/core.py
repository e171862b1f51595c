"""Core Zinbiel structures and basis-level axiom checks.

Structures here are candidates: any structure-constant tensor is
representable, and validity (the Zinbiel identity, bimodule/action axioms,
crossed-module compatibilities) is established by the check_* functions.
Checks verify identities on all basis tuples, which by multilinearity is
equivalent to verification on all elements.  Each check is a stream of
(condition id, basis tuple, lhs, rhs) instances in a fixed loop order;
ConditionReport.fill adds the violated ones in that order until the cap, so
a report holds the first `cap` violations, sorted, and cap=1 asks for a
verdict only.

The streams are the only definition of each axiom.  Each runs once per
shape with every structure constant a variable of Z[x] (layout:
map_values, inverted by value_maps), and SymbolicRun, the substitution
kernel the catalogs of engine share, serves every use of that run: over
GF(p) or Q check_crossed_module and check_2alg_morphism substitute each
input into it, and the searches of classify read their constraints off it
by substituting an input whose structure constants are integers or free
variables (crossed_module_constraints, morphism_constraints).

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
from dataclasses import dataclass, field as dc_field
from itertools import chain, count, islice, product

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


@dataclass(frozen=True)
class Violation:
    cond: str
    witness: tuple
    lhs: tuple
    rhs: tuple

    def sort_key(self):
        return (_id_sort_key(self.cond), self.witness)


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
        for cond, witness, lhs, rhs in instances:
            if lhs != rhs and not self.add(cond, witness, lhs, rhs, cap):
                break
        return self

    def finalize(self):
        self.violations.sort(key=Violation.sort_key)
        self.flags.sort(key=lambda f: _id_sort_key(f.cond))
        return self


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


def value_maps(ring, shapes, values):
    """The inverse of map_values: maps over ring whose entries are read from
    the iterable values in the map_values layout, a BilMap for a shape (dim
    a, dim b, dim c) and a LinMap for a shape (rows, cols)."""
    values = iter(values)
    maps = []
    for shape in shapes:
        if len(shape) == 3:
            na, nb, nc = shape
            keys = product(range(nc), range(na), range(nb))
            maps.append(BilMap(ring, na, nb, nc, {key: v for key, v in zip(keys, values) if v}))
        else:
            rows, cols = shape
            maps.append(LinMap(ring, rows, cols, [list(islice(values, cols)) for _ in range(rows)]))
    return maps


class SymbolicRun:
    """One run of a check over Z[x], indexed for substitution: the kernel of
    both routes.  Built from the instances (id, witness, sides), sides read
    in pairs (lhs, rhs[, lhs, rhs of a second form]); every lhs - rhs
    component is numbered in run order, and the index maps each monomial,
    grouped by its first variable, to its components and coefficients."""

    def __init__(self, ring, instances):
        self._rows = rows = []      # (id, witness, first component, rhs vectors)
        self._owner = owner = []    # component -> instance position
        groups = {}                 # first variable (None: constant) -> rest -> entries
        for n, (cid, witness, sides) in enumerate(instances):
            rows.append((cid, witness, len(owner), sides[1::2]))
            for lhs, rhs in zip(sides[::2], sides[1::2]):
                for a, b in zip(lhs, rhs):
                    comp = len(owner)
                    owner.append(n)
                    for mono, c in ring.sub(a, b):
                        group = groups.setdefault(mono[0] if mono else None, {})
                        group.setdefault(mono[1:], []).append((comp, c))
        self._index = tuple((x, tuple((rest, tuple(entries)) for rest, entries in group.items()))
                            for x, group in groups.items())

    def substitute(self, values, canonical):
        """(id, witness, *sides) at x = values for the instances with an lhs -
        rhs component that canonical keeps nonzero, in run order: a sweep of
        the nonzero first variables, then each rhs substituted as it is read
        and its lhs the rhs plus the swept lhs - rhs."""
        acc = {}
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
        owner, rows = self._owner, self._rows
        for n in sorted({owner[comp] for comp, total in acc.items() if canonical(total)}):
            cid, witness, comp, rhss = rows[n]
            out = []
            for rhs in rhss:
                vec = []
                for poly in rhs:
                    total = 0
                    for mono, c in poly:
                        for x in mono:
                            c *= values[x]
                        total += c
                    vec.append(canonical(total))
                out += (tuple([canonical(r + acc.get(c, 0)) for c, r in enumerate(vec, comp)]),
                        tuple(vec))
                comp += len(vec)
            yield (cid, witness, *out)

    def constraints(self, values, p):
        """The distinct nonzero lhs - rhs components at x = values, reduced
        mod p, in run order.  values are Z[x] polynomials of one term at
        most, so each structure constant is an integer constant or a free
        variable, and each swept monomial stays one term."""
        if any(len(v) > 1 for v in values):
            raise ValueError("each value must be a constant or a single term")
        terms = [v[0] if v else None for v in values]
        acc = {}        # component -> monomial -> coefficient
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
                    mono = tuple(sorted(mono))
                    for comp, c in entries:
                        poly = acc.setdefault(comp, {})
                        poly[mono] = poly.get(mono, 0) + c * m
        out = {}
        for comp in sorted(acc):
            poly = tuple(sorted((mono, c % p) for mono, c in acc[comp].items() if c % p))
            if poly:
                out[poly] = None
        return tuple(out)


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
    f = z.field
    n, m = z.dim, dim_v
    dim = n + m
    coeffs = {}
    for (k, i, j, v) in z.mult.items:
        coeffs[(k, i, j)] = v
    for (k, i, j, v) in act.left.items:   # x |> v lands in the V block
        coeffs[(n + k, i, n + j)] = v
    for (k, i, j, v) in act.right.items:  # u <| y
        coeffs[(n + k, n + i, j)] = v
    return ZinbielAlgebra(f, dim, BilMap(f, dim, dim, dim, coeffs))


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


@functools.cache
def _compiled(stream, dims):
    """stream run once over Z[x] on a 2-algebra of level dims (n1, n0) per
    pair in dims and, for two pairs, a morphism from the first to the second,
    every structure constant a variable, in the map order of _stream."""
    ring = PolynomialRing()
    shapes = [s for n1, n0 in dims
              for s in ((n1, n1, n1), (n0, n0, n0), (n0, n1), (n0, n1, n1), (n1, n0, n1))]
    if len(dims) == 2:      # phi1 and phi0
        shapes += [(b, a) for a, b in zip(*dims)]
    maps = value_maps(ring, shapes, map(ring.var, count()))
    args = []
    for k in range(len(dims)):
        m1, m0, phi, left, right = maps[5 * k:5 * k + 5]
        args.append(ZinbielTwoAlgebra(ZinbielAlgebra(ring, m1.dim_a, m1),
                                      ZinbielAlgebra(ring, m0.dim_a, m0), phi,
                                      BimodulePair(left, right)))
    if len(dims) == 2:
        args.append(TwoMorphism(*maps[10:]))
    return SymbolicRun(ring, ((c, w, (l, r)) for c, w, l, r in stream(*args)))


def _compiled_at(stream, args):
    """The compiled run of stream at the shape of args, and the structure
    constants of args in its layout."""
    algebras, morphism = args[:2], args[2:]
    maps = [x for t in algebras for x in (t.z1.mult, t.z0.mult, t.phi, t.act.left, t.act.right)]
    maps += [x for m in morphism for x in (m.phi1, m.phi0)]
    run = _compiled(stream, tuple((t.z1.dim, t.z0.dim) for t in algebras))
    return run, map_values(maps, args[0].field.zero())


def _stream(stream, *args):
    """The instances of stream(*args) over GF(p) or Q that a report reads:
    the violated ones, substituted into the compiled run of their shape."""
    run, values = _compiled_at(stream, args)
    return run.substitute(values, args[0].field.canonical)


def crossed_module_constraints(t, p):
    """The polynomials over GF(p) that must vanish for t, a 2-algebra over
    Z[x] whose structure constants are integers or free variables, to be a
    2-algebra at an assignment of the variables (SymbolicRun.constraints)."""
    run, values = _compiled_at(_crossed_module_instances, (t,))
    return run.constraints(values, p)


def morphism_constraints(t, t2, m, p):
    """As crossed_module_constraints, for m: t -> t2 to be a morphism."""
    run, values = _compiled_at(_morphism_instances, (t, t2, m))
    return run.constraints(values, p)


def crossed_module_stream(t):
    """The crossed-module instances of t that a report reads (see _stream)."""
    return _stream(_crossed_module_instances, t)


def morphism_stream(t, t2, m):
    """The morphism instances of m: t -> t2 that a report reads (see _stream);
    DimError unless m maps the levels of t to those of t2."""
    p1, p0 = m.phi1, m.phi0
    if (p1.cols, p1.rows) != (t.z1.dim, t2.z1.dim):
        raise DimError(f"phi1 must be {t2.z1.dim}x{t.z1.dim}")
    if (p0.cols, p0.rows) != (t.z0.dim, t2.z0.dim):
        raise DimError(f"phi0 must be {t2.z0.dim}x{t.z0.dim}")
    return _stream(_morphism_instances, t, t2, m)


def check_crossed_module(t: ZinbielTwoAlgebra, cap=DEFAULT_VIOLATION_CAP):
    """Full 2-algebra check: action axioms plus CM1-CM4 and derived CM5."""
    report = ConditionReport(conforming_field=t.field.conforming)
    return report.fill(crossed_module_stream(t), cap).finalize()


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


def check_2alg_morphism(t: ZinbielTwoAlgebra, t2: ZinbielTwoAlgebra, m: TwoMorphism,
                        cap=DEFAULT_VIOLATION_CAP):
    """Morphism conditions M1-M5 for m: t -> t2."""
    f = t.field
    if f != t2.field:
        raise FieldMismatch("morphism between 2-algebras over different fields")
    report = ConditionReport(conforming_field=f.conforming)
    return report.fill(morphism_stream(t, t2, m), cap).finalize()
