"""Typed expression engine for evaluating long compatibility-condition lists.

Each condition is a small lambda over typed basis elements; the context
dispatches the overloaded product "." by the spaces of its operands
(Z0.Z0 -> level-0 mult, Z1.Z1 -> level-1 mult, Z0.Z1 / Z1.Z0 -> the fixed
action), and every structure-map application validates its operand spaces,
so an index slip in a transcription fails loudly instead of silently
producing a wrong tensor.

The lambdas only add elements and apply structure maps to basis vectors, so
each (condition, basis tuple) instance is a pair of vectors of polynomials
with nonnegative integer coefficients in the structure constants.  A table
is therefore run once per shape (context kind and dims), symbolically: on a
context whose map entries are the variables x0, x1, ... of Z[x], in the
order the context lists its maps (the layout of core.map_values), with
every space check in force.  The run is cached on the table as a
core.SymbolicRun, the one substitution kernel the oracle's compiled checks
use too.  evaluate_conditions sweeps a concrete context's nonzero structure
constants through it and substitutes only the instances where a side
disagrees, as ConditionReport.fill reads them, reducing every value with
field.canonical, so GF(p) for every p and Q go through one evaluator.  The
polynomials come from the catalog lambdas, never from the product E, so the
catalog route stays independent of the oracle.

The shapes of the structure maps come from one table: _OP_LEVELS gives the
levels of the four operations of a 2-algebra, _BLOCKS the datum family that
fills each block of an operation on Z + V, and MAP_SPACES the spaces of
every map they determine.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import count

from .core import (DEFAULT_VIOLATION_CAP, ConditionReport, FlagNote, SymbolicRun, map_values,
                   value_maps)
from .errors import DimError
from .fields import PolynomialRing
from .linalg import vadd, vbasis, vzero

# Operation j of a 2-algebra (0: level-0 mult, 1: level-1 mult, 2: left
# action, 3: right action) as (level of slot a, level of slot b, result level).
_OP_LEVELS = ((0, 0, 0), (1, 1, 1), (0, 1, 1), (1, 0, 1))

# The blocks of an operation on Z + V as (slot a, slot b, result), each 0 for
# Z and 1 for V, with the datum family that fills the block ("z" is the
# operation of Z itself).  Z x Z -> V is the one block left out: it vanishes
# exactly when Z is closed under the operation.
_BLOCKS = (((0, 0, 0), "z"), ((0, 1, 0), "hl"), ((0, 1, 1), "tr"), ((1, 0, 0), "hr"),
           ((1, 0, 1), "tl"), ((1, 1, 0), "om"), ((1, 1, 1), "st"))

# Family name -> (left space, right space, result space) of its map j: the
# sides of the family's block at the levels of operation j.
MAP_SPACES = {name: tuple(tuple("ZV"[side] + str(level) for side, level in zip(block, levels))
                          for levels in _OP_LEVELS)
              for block, name in _BLOCKS}

# Operand spaces of the overloaded product -> the operation of Z it applies.
_DOT = {spaces[:2]: j for j, spaces in enumerate(MAP_SPACES["z"])}


def _ops(t):
    """The four structure tensors of a 2-algebra t in operation order."""
    return (t.z0.mult, t.z1.mult, t.act.left, t.act.right)


class Elt:
    """A vector tagged with the space it lives in."""

    __slots__ = ("space", "vec", "ctx")

    def __init__(self, space, vec, ctx):
        self.space = space
        self.vec = vec
        self.ctx = ctx

    def __add__(self, other):
        if self.space != other.space:
            raise DimError(f"adding {self.space} and {other.space} elements")
        return Elt(self.space, vadd(self.ctx.field, self.vec, other.vec), self.ctx)

    def __repr__(self):
        return f"Elt({self.space}, {self.vec})"


class BaseCtx:
    """Space bookkeeping and typed map application for condition contexts.

    `maps` holds every structure map the accessors read, key -> (spaces,
    map), in the one order that values() and symbolic() both follow; the
    spaces are (left, right, result) for a bilinear map and (domain,
    codomain) for a linear one.
    """

    def __init__(self, field, dims):
        self.field = field
        self.dims = dims  # {"Z0": n, "Z1": n, "V0": n, "V1": n}
        self.maps = {}

    def shape(self):
        """What a symbolic run of a table depends on: context kind and dims."""
        return type(self), tuple(sorted(self.dims.items()))

    def values(self):
        """Every map entry in `maps` order, in the map_values layout.  A map
        whose shape does not fit its spaces raises DimError."""
        dims = self.dims
        for key, (spaces, m) in self.maps.items():
            if len(spaces) == 3:
                la, lb, lc = spaces
                if (m.dim_a, m.dim_b, m.dim_c) != (dims[la], dims[lb], dims[lc]):
                    raise DimError(f"{key} must be {dims[la]}x{dims[lb]}->{dims[lc]}, "
                                   f"got {m.dim_a}x{m.dim_b}->{m.dim_c}")
            else:
                dom, cod = spaces
                if (m.cols, m.rows) != (dims[dom], dims[cod]):
                    raise DimError(f"{key} must be {dims[cod]}x{dims[dom]}, "
                                   f"got {m.rows}x{m.cols}")
        return map_values((m for _, m in self.maps.values()), self.field.zero())

    def symbolic(self):
        """A context of the same kind and dims over Z[x] whose map entries
        are the variables x0, x1, ... in values() order."""
        ring = PolynomialRing()
        sym = object.__new__(type(self))
        BaseCtx.__init__(sym, ring, self.dims)
        # value_maps reads (dim a, dim b, dim c) or (rows, cols) = (cod, dom)
        shapes = [tuple(self.dims[s] for s in (spaces if len(spaces) == 3 else spaces[::-1]))
                  for spaces, _ in self.maps.values()]
        maps = value_maps(ring, shapes, map(ring.var, count()))
        for (key, (spaces, _)), m in zip(self.maps.items(), maps):
            sym.maps[key] = (spaces, m)
        return sym

    def basis(self, space, i):
        return Elt(space, vbasis(self.field, self.dims[space], i), self)

    def zero(self, space):
        return Elt(space, vzero(self.field, self.dims[space]), self)

    def _bil(self, key, a, b):
        (la, lb, lc), tensor = self.maps[key]
        if a.space != la or b.space != lb:
            raise DimError(f"map expects ({la},{lb}), got ({a.space},{b.space})")
        return Elt(lc, tensor.eval(a.vec, b.vec), self)

    def _lin(self, key, a):
        (dom, cod), linmap = self.maps[key]
        if a.space != dom:
            raise DimError(f"map expects {dom}, got {a.space}")
        return Elt(cod, linmap.apply(a.vec), self)


def _datum_maps(datum, mark):
    """key, (spaces, map) for the 24 family maps and sigma of datum; mark
    is "" for the source datum of a context and "p" for the target."""
    for _, name in _BLOCKS[1:]:
        for j, m in enumerate(getattr(datum, name)):
            yield (name + mark, j), (MAP_SPACES[name][j], m)
    yield "sig" + mark, (("V1", "Z0"), datum.sigma)


class DatumCtx(BaseCtx):
    """Context over one extending datum: Z ops plus the 24 maps and sigma."""

    def __init__(self, datum):
        z, v = datum.z, datum.v
        super().__init__(z.field, {"Z0": z.z0.dim, "Z1": z.z1.dim,
                                   "V0": v.dim0, "V1": v.dim1})
        self.maps.update((("z", j), (MAP_SPACES["z"][j], t)) for j, t in enumerate(_ops(z)))
        self.maps.update(phi=(("Z1", "Z0"), z.phi), d=(("V1", "V0"), v.d))
        self.maps.update(_datum_maps(datum, ""))

    # The overloaded product of the source formulas: multiplication on a
    # level, or the fixed action across levels.
    def dot(self, a, b):
        j = _DOT.get((a.space, b.space))
        if j is None:
            raise DimError(f"no product for spaces {(a.space, b.space)}")
        return self._bil(("z", j), a, b)

    def hr(self, j, a, b):
        return self._bil(("hr", j), a, b)

    def hl(self, j, a, b):
        return self._bil(("hl", j), a, b)

    def tr(self, j, a, b):
        return self._bil(("tr", j), a, b)

    def tl(self, j, a, b):
        return self._bil(("tl", j), a, b)

    def om(self, j, a, b):
        return self._bil(("om", j), a, b)

    def st(self, j, a, b):
        return self._bil(("st", j), a, b)

    def phi(self, a):
        return self._lin("phi", a)

    def sig(self, a):
        return self._lin("sig", a)

    def d(self, a):
        return self._lin("d", a)


class MorphismCtx(DatumCtx):
    """Context over two extending data sharing Z and V, plus block maps r, s.

    Unprimed map accessors read the source datum; the *p accessors read the
    target datum.  r(i, u): Vi -> Zi and s(i, u): Vi -> Vi.
    """

    def __init__(self, datum, datum_p, rs):
        super().__init__(datum)
        self.maps.update(_datum_maps(datum_p, "p"))
        self.maps.update({("r", 1): (("V1", "Z1"), rs.r1), ("r", 0): (("V0", "Z0"), rs.r0),
                          ("s", 1): (("V1", "V1"), rs.s1), ("s", 0): (("V0", "V0"), rs.s0)})

    def hrp(self, j, a, b):
        return self._bil(("hrp", j), a, b)

    def hlp(self, j, a, b):
        return self._bil(("hlp", j), a, b)

    def trp(self, j, a, b):
        return self._bil(("trp", j), a, b)

    def tlp(self, j, a, b):
        return self._bil(("tlp", j), a, b)

    def omp(self, j, a, b):
        return self._bil(("omp", j), a, b)

    def stp(self, j, a, b):
        return self._bil(("stp", j), a, b)

    def sigp(self, a):
        return self._lin("sigp", a)

    def r(self, i, a):
        return self._lin(("r", i), a)

    def s(self, i, a):
        return self._lin(("s", i), a)


@dataclass(frozen=True)
class Condition:
    cid: str
    level: int | None          # set for level-indexed condition families
    spaces: tuple
    fn: object                 # (ctx, *elts) -> (Elt, Elt)
    suspect: str | None = None  # note when a corrected transcription is used
    as_printed: object = None   # original form, when it is evaluatable


class ConditionTable:
    """An ordered list of conditions sharing one context type.

    The symbolic run of the table at each shape it is evaluated on is built
    on first use and kept (see instances).
    """

    def __init__(self, name):
        self.name = name
        self.conds = []
        self._runs = {}     # ctx.shape() -> the instances of _symbolic_run

    def add(self, cid, spaces, fn, suspect=None, as_printed=None):
        self.conds.append(Condition(cid, None, tuple(spaces.split()), fn,
                                    suspect, as_printed))
        self._runs.clear()

    def add_leveled(self, cid, spaces, make, suspect=None):
        """Register a condition family once per level i = 0, 1.

        `spaces` uses Zi/Vi placeholders; `make(i)` returns the lambda bound
        to that level.
        """
        for i in (0, 1):
            resolved = tuple(s.replace("i", str(i)) for s in spaces.split())
            self.conds.append(Condition(cid, i, resolved, make(i), suspect, None))
        self._runs.clear()

    def instances(self, ctx):
        """The SymbolicRun of the table at the shape of ctx."""
        key = ctx.shape()
        run = self._runs.get(key)
        if run is None:
            run = self._runs[key] = _symbolic_run(ctx.symbolic(), self)
        return run


def _grid(dims, spaces):
    """All index tuples for the given spaces; empty iff some dim is 0."""
    ranges = [range(dims[s]) for s in spaces]
    if not ranges:
        return [()]
    out = [()]
    for r in ranges:
        out = [t + (i,) for t in out for i in r]
    return out


def _sides(cid, fn, ctx, elts):
    """The (lhs, rhs) vectors of one condition instance."""
    lhs, rhs = fn(ctx, *elts)
    if lhs.space != rhs.space:
        raise DimError(f"{cid}: sides live in {lhs.space} vs {rhs.space}")
    return lhs.vec, rhs.vec


def _symbolic_run(ctx, table):
    """The SymbolicRun of `table` on the symbolic context ctx: every
    condition on every basis tuple, in table order, with sides (lhs, rhs),
    followed by the (lhs, rhs) of the form as printed where there is one."""
    run = []
    for cond in table.conds:
        for idx in _grid(ctx.dims, cond.spaces):
            elts = [ctx.basis(s, i) for s, i in zip(cond.spaces, idx)]
            witness = idx if cond.level is None else (cond.level,) + idx
            sides = _sides(cond.cid, cond.fn, ctx, elts)
            if cond.as_printed is not None:
                sides += _sides(cond.cid, cond.as_printed, ctx, elts)
            run.append((cond.cid, witness, sides))
    return SymbolicRun(ctx.field, run)


def _condition_instances(ctx, table, strict_printed, disagrees):
    """(id, witness, lhs, rhs) for the conditions of `table` on the basis
    tuples of ctx where a side disagrees, in table order, substituted into
    the symbolic run as they are read.  Where a suspect condition's form as
    printed disagrees with the corrected one, its id is added to
    `disagrees` and, with strict_printed, the "<cid>.as-printed" instance
    follows."""
    run = table.instances(ctx)
    for cid, witness, lhs, rhs, *printed in run.substitute(ctx.values(), ctx.field.canonical):
        yield cid, witness, lhs, rhs
        if printed:
            plhs, prhs = printed
            if (plhs != prhs) != (lhs != rhs):
                disagrees.add(cid)
                if strict_printed:
                    yield f"{cid}.as-printed", witness, plhs, prhs


def evaluate_conditions(ctx, table, cap=DEFAULT_VIOLATION_CAP, strict_printed=False):
    """Evaluate every condition of `table` on all applicable basis tuples.

    ctx is over GF(p) or Q.  Violations of corrected (typo-suspect)
    conditions count toward the verdict; each suspect condition also gets a
    FlagNote recording whether the form as originally printed disagrees
    with the corrected form on this input.  With strict_printed=True, a
    point where the form as printed is violated and the corrected form
    holds is added as a violation with id "<cid>.as-printed".  The report
    holds the first `cap` violations in (condition, basis tuple) order,
    sorted; cap=1 asks for a verdict only.  Flags are emitted even when the
    report stops at the cap; they cover the instances evaluated before it.
    """
    report = ConditionReport(conforming_field=ctx.field.conforming)
    disagrees = set()
    report.fill(_condition_instances(ctx, table, strict_printed, disagrees), cap)
    for cond in table.conds:
        if cond.suspect is not None and (cond.level is None or cond.level == 0):
            report.flags.append(FlagNote(cond.cid, cond.suspect, cond.cid in disagrees))
    return report.finalize()
