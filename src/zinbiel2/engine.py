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

The layout of a datum's constants is core's (MAP_SPACES, _datum_keys,
datum_maps, _values), the one statement of it that the oracle's runs read
too: a context lists its maps in the order of datum_maps, a morphism
context both data's in full, and a numeric context's values() are its
data's constants (ExtendingDatum._constants) laid out by _values.  So a
numeric context keeps its data and no more: its key -> map table
(DatumCtx.maps), which the accessors of the lambdas read, is built on the
first read, on a symbolic context or by an interpreted reference.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import count, product

from .core import (_DATUM_KEYS, DEFAULT_VIOLATION_CAP, MAP_SPACES, SymbolicRun, _datum_keys,
                   _dims, _values, datum_maps, map_shape, value_maps)
from .errors import DimError
from .fields import PolynomialRing
from .linalg import vadd, vbasis, vzero

# Operand spaces of the overloaded product -> the operation of Z it applies.
_DOT = {spaces[:2]: j for j, spaces in enumerate(MAP_SPACES["z"])}


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
    """Context over two extending data, each laid out in full, plus block
    maps r, s.

    Unprimed map accessors read the source datum; the *p accessors read the
    target datum.  r(i, u): Vi -> Zi and s(i, u): Vi -> Vi.
    """

    _KEYS = _DATUM_KEYS + _datum_keys("p") + [
        (("r", 1), ("V1", "Z1")), (("r", 0), ("V0", "Z0")), (("s", 1), ("V1", "V1")),
        (("s", 0), ("V0", "V0"))]

    def __init__(self, datum, datum_p, rs):
        super().__init__(datum)
        self.datum_p, self.rs = datum_p, (rs.r1, rs.r0, rs.s1, rs.s0)

    def _maps(self):
        return [*datum_maps(self.datum), *datum_maps(self.datum_p), *self.rs]

    def values(self):
        """The source's constants, the target's, then r1, r0, s1, s0
        (_values): the variables of classify._rs_run."""
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
        for idx in product(*(range(ctx.dims[s]) for s in cond.spaces)):
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
