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
use too.  evaluate_conditions reads the finished report off it
(SymbolicRun.report): it sweeps a concrete context's nonzero structure
constants through the run and builds only the violations the report
keeps, in the order ranked when the run was built, reducing every value
with field.canonical, so GF(p) for every p and Q go through one
evaluator.  The polynomials come from the catalog lambdas, never from the
product E, so the catalog route stays independent of the oracle.

The shapes of the structure maps come from one table: core._OP_LEVELS gives
the levels of the four operations of a 2-algebra, in the order of
core.two_algebra_maps, _BLOCKS the datum family that fills each block of an
operation on Z + V (_FAMS lists the families), and MAP_SPACES the spaces of
every map they determine.  A datum's constants (datum_maps) are its Z's in
the one order of two_algebra_maps, then d, the families and sigma; a
context reads them off its datum (ExtendingDatum._constants), laid out by
_values, which the runs of unified and classify read too.  So a numeric
context keeps its data and no more: its key -> map table (DatumCtx.maps),
which the accessors of the lambdas read, is built on the first read, on a
symbolic context or by an interpreted reference.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property
from itertools import count
from math import prod

from .core import (_OP_LEVELS, DEFAULT_VIOLATION_CAP, SymbolicRun, map_values, two_algebra_maps,
                   value_maps)
from .errors import DimError
from .fields import PolynomialRing
from .linalg import vadd, vbasis, vzero

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

# Operand spaces of the overloaded product -> the operation of Z it applies.
_DOT = {spaces[:2]: j for j, spaces in enumerate(MAP_SPACES["z"])}


def map_shape(dims, spaces):
    """The shape value_maps reads for a map between spaces at dims: (dim a,
    dim b, dim c) if bilinear, else (rows, cols) = (dim codomain, dim domain)."""
    return tuple(dims[s] for s in (spaces if len(spaces) == 3 else spaces[::-1]))


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


def _family_keys(mark):
    """key, spaces of the 24 family maps and sigma of a datum, in
    _family_maps order; mark is "" for the source datum of a context and
    "p" for the target."""
    return ([((name + mark, j), MAP_SPACES[name][j]) for name in _FAMS for j in range(4)]
            + [("sig" + mark, ("V1", "Z0"))])


def _family_maps(datum):
    """The 24 family maps of datum in _FAMS order, j = 0..3 each, then sigma."""
    maps = []
    for name in _FAMS:
        maps += getattr(datum, name)
    maps.append(datum.sigma)
    return maps


# key, spaces of every structure map of a datum in datum_maps order, and of
# the family maps and sigma of a context's target datum, then r1, r0, s1, s0
_DATUM_KEYS = ([(("z", j), spaces) for j, spaces in enumerate(MAP_SPACES["z"])]
               + [("phi", ("Z1", "Z0")), ("d", ("V1", "V0"))] + _family_keys(""))
_TARGET_KEYS = _family_keys("p") + [(("r", 1), ("V1", "Z1")), (("r", 0), ("V0", "Z0")),
                                    (("s", 1), ("V1", "V1")), (("s", 0), ("V0", "V0"))]


def datum_maps(datum):
    """Every structure map of datum in the order DatumCtx lists them, the
    layout of its values() and symbolic(): Z's two_algebra_maps (its four
    operations, then phi), d, then the 24 family maps and sigma, a census's
    free scalars in its order (_DATUM_KEYS names each)."""
    return [*two_algebra_maps(datum.z), datum.v.d, *_family_maps(datum)]


# where the free scalars of a datum's maps start in the order of datum_maps:
# after Z's two_algebra_maps and d, at the first family map
_FREE = [key for key, _ in _DATUM_KEYS].index((_FAMS[0], 0))


@cache
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
    datum_maps, densely, then target's from _FREE on (Z and d are shared),
    then map_values of the maps tail."""
    layout = _layout(dims)
    n = sum(map(prod, layout))
    top = n if target is None else sum(map(prod, layout[:_FREE]))
    values = [zero] * (2 * n - top)
    for at, v in source:
        values[at] = v
    for at, v in target or ():
        if at >= top:
            values[n - top + at] = v
    return values + map_values(tail, zero)


def _family_accessor(key):
    """The accessor ctx.<key>(j, a, b) of the family map (key, j) of a context."""
    return lambda self, j, a, b: self._bil((key, j), a, b)


class DatumCtx:
    """Context over one extending datum: Z ops plus the 24 maps and sigma,
    with space bookkeeping and typed map application.

    _KEYS names every structure map the accessors read, (key, spaces), in
    the one order that values() and symbolic() both follow; the spaces are
    (left, right, result) for a bilinear map and (domain, codomain) for a
    linear one.  `maps`, key -> (spaces, map), is built on the first read:
    only the accessors read it (a symbolic context's, or an interpreted
    reference's), and a numeric context's values() are its data's
    constants.
    """

    _KEYS = _DATUM_KEYS

    def __init__(self, datum):
        self.field, self.datum = datum.field, datum
        self.dims = dict(zip(("Z1", "Z0", "V1", "V0"), _dims(datum)))

    def _maps(self):
        """The structure maps in _KEYS order."""
        return datum_maps(self.datum)

    @cached_property
    def maps(self):
        return {key: (spaces, m) for (key, spaces), m in zip(self._KEYS, self._maps())}

    def values(self):
        """The datum's constants, densely, in the layout of datum_maps."""
        return _values(self.field.zero(), _dims(self.datum), self.datum._constants)

    def shape(self):
        """What a symbolic run of a table depends on: context kind and dims."""
        return type(self), tuple(sorted(self.dims.items()))

    def symbolic(self):
        """A context of the same kind and dims over Z[x] whose map entries
        are the variables x0, x1, ... in values() order."""
        ring = PolynomialRing()
        sym = object.__new__(type(self))
        sym.field, sym.dims = ring, self.dims
        shapes = [map_shape(self.dims, spaces) for _, spaces in self._KEYS]
        maps = value_maps(ring, shapes, map(ring.var, count()))
        sym.maps = {key: (spaces, m) for (key, spaces), m in zip(self._KEYS, maps)}
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

    # The overloaded product of the source formulas: multiplication on a
    # level, or the fixed action across levels.
    def dot(self, a, b):
        j = _DOT.get((a.space, b.space))
        if j is None:
            raise DimError(f"no product for spaces {(a.space, b.space)}")
        return self._bil(("z", j), a, b)

    hr, hl, tr, tl, om, st = map(_family_accessor, ("hr", "hl", "tr", "tl", "om", "st"))

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

    _KEYS = _DATUM_KEYS + _TARGET_KEYS

    def __init__(self, datum, datum_p, rs):
        super().__init__(datum)
        self.datum_p, self.rs = datum_p, (rs.r1, rs.r0, rs.s1, rs.s0)

    def _maps(self):
        return [*datum_maps(self.datum), *_family_maps(self.datum_p), *self.rs]

    def values(self):
        """The source's constants, the target's family maps and sigma, then
        r1, r0, s1, s0 (_values): the variables of classify._rs_run."""
        return _values(self.field.zero(), _dims(self.datum), self.datum._constants,
                       self.datum_p._constants, self.rs)

    hrp, hlp, trp, tlp, omp, stp = map(_family_accessor,
                                       ("hrp", "hlp", "trp", "tlp", "omp", "stp"))

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
    followed by the (lhs, rhs) of the form as printed where there is one;
    its notes are the suspect conditions, once per family."""
    run = []
    for cond in table.conds:
        for idx in _grid(ctx.dims, cond.spaces):
            elts = [ctx.basis(s, i) for s, i in zip(cond.spaces, idx)]
            witness = idx if cond.level is None else (cond.level,) + idx
            sides = _sides(cond.cid, cond.fn, ctx, elts)
            if cond.as_printed is not None:
                sides += _sides(cond.cid, cond.as_printed, ctx, elts)
            run.append((cond.cid, witness, sides))
    notes = [(cond.cid, cond.suspect) for cond in table.conds
             if cond.suspect is not None and cond.level in (None, 0)]
    return SymbolicRun(ctx.field, run, notes)


def evaluate_conditions(ctx, table, cap=DEFAULT_VIOLATION_CAP, strict_printed=False):
    """Evaluate every condition of `table` on all applicable basis tuples,
    read off the table's run at ctx's constants (SymbolicRun.report).

    ctx is over GF(p) or Q.  Violations of corrected (typo-suspect)
    conditions count toward the verdict; each suspect condition also gets a
    FlagNote recording whether the form as originally printed disagrees
    with the corrected form on this input.  With strict_printed=True, a
    point where the form as printed is violated and the corrected form
    holds is added as a violation with id "<cid>.as-printed", right after
    its instance.  The report holds the first `cap` violations in
    (condition, basis tuple) order, sorted; cap=1 asks for a verdict only.
    Flags are emitted even when the report stops at the cap; they cover the
    instances evaluated before it.
    """
    return table.instances(ctx).report(ctx.field, ctx.values(), cap, strict_printed)
