"""Typed expression engine for evaluating long compatibility-condition lists.

Each condition is a small lambda over typed basis elements; the context
dispatches the overloaded product "." by the spaces of its operands
(Z0.Z0 -> level-0 mult, Z1.Z1 -> level-1 mult, Z0.Z1 / Z1.Z0 -> the fixed
action), and every structure-map application validates its operand spaces,
so an index slip in a transcription fails loudly instead of silently
producing a wrong tensor.  evaluate_conditions streams the (condition,
basis tuple) instances in table order into ConditionReport.fill, which
stops at the cap, as the oracle's checks do.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import DEFAULT_VIOLATION_CAP, ConditionReport, FlagNote
from .errors import DimError
from .linalg import vadd, vbasis, vzero

# Domain/codomain tables for the 24 datum maps, keyed by the map family and
# the index j: (left space, right space, result space).
HR_DOM = {0: ("V0", "Z0", "Z0"), 1: ("V1", "Z1", "Z1"), 2: ("V0", "Z1", "Z1"), 3: ("V1", "Z0", "Z1")}
HL_DOM = {0: ("Z0", "V0", "Z0"), 1: ("Z1", "V1", "Z1"), 2: ("Z0", "V1", "Z1"), 3: ("Z1", "V0", "Z1")}
TR_DOM = {0: ("Z0", "V0", "V0"), 1: ("Z1", "V1", "V1"), 2: ("Z0", "V1", "V1"), 3: ("Z1", "V0", "V1")}
TL_DOM = {0: ("V0", "Z0", "V0"), 1: ("V1", "Z1", "V1"), 2: ("V0", "Z1", "V1"), 3: ("V1", "Z0", "V1")}
OM_DOM = {0: ("V0", "V0", "Z0"), 1: ("V1", "V1", "Z1"), 2: ("V0", "V1", "Z1"), 3: ("V1", "V0", "Z1")}
ST_DOM = {0: ("V0", "V0", "V0"), 1: ("V1", "V1", "V1"), 2: ("V0", "V1", "V1"), 3: ("V1", "V0", "V1")}


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
    """Shared space bookkeeping for condition contexts."""

    def __init__(self, field, dims):
        self.field = field
        self.dims = dims  # {"Z0": n, "Z1": n, "V0": n, "V1": n}

    def basis(self, space, i):
        return Elt(space, vbasis(self.field, self.dims[space], i), self)

    def zero(self, space):
        return Elt(space, vzero(self.field, self.dims[space]), self)

    def _bil(self, tensor, dom, a, b):
        la, lb, lc = dom
        if a.space != la or b.space != lb:
            raise DimError(f"map expects ({la},{lb}), got ({a.space},{b.space})")
        return Elt(lc, tensor.eval(a.vec, b.vec), self)

    def _lin(self, linmap, dom, cod, a):
        if a.space != dom:
            raise DimError(f"map expects {dom}, got {a.space}")
        return Elt(cod, linmap.apply(a.vec), self)


class DatumCtx(BaseCtx):
    """Context over one extending datum: Z ops plus the 24 maps and sigma."""

    def __init__(self, datum):
        z, v = datum.z, datum.v
        super().__init__(z.field, {"Z0": z.z0.dim, "Z1": z.z1.dim,
                                   "V0": v.dim0, "V1": v.dim1})
        self.datum = datum
        self._m0 = z.z0.mult
        self._m1 = z.z1.mult
        self._ar = z.act.left
        self._al = z.act.right
        self._phi = z.phi
        self._d = v.d
        self._sigma = datum.sigma

    # The overloaded product of the source formulas: multiplication on a
    # level, or the fixed action across levels.
    def dot(self, a, b):
        pair = (a.space, b.space)
        if pair == ("Z0", "Z0"):
            return Elt("Z0", self._m0.eval(a.vec, b.vec), self)
        if pair == ("Z1", "Z1"):
            return Elt("Z1", self._m1.eval(a.vec, b.vec), self)
        if pair == ("Z0", "Z1"):
            return Elt("Z1", self._ar.eval(a.vec, b.vec), self)
        if pair == ("Z1", "Z0"):
            return Elt("Z1", self._al.eval(a.vec, b.vec), self)
        raise DimError(f"no product for spaces {pair}")

    def hr(self, j, a, b):
        return self._bil(self.datum.hr[j], HR_DOM[j], a, b)

    def hl(self, j, a, b):
        return self._bil(self.datum.hl[j], HL_DOM[j], a, b)

    def tr(self, j, a, b):
        return self._bil(self.datum.tr[j], TR_DOM[j], a, b)

    def tl(self, j, a, b):
        return self._bil(self.datum.tl[j], TL_DOM[j], a, b)

    def om(self, j, a, b):
        return self._bil(self.datum.om[j], OM_DOM[j], a, b)

    def st(self, j, a, b):
        return self._bil(self.datum.st[j], ST_DOM[j], a, b)

    def phi(self, a):
        return self._lin(self._phi, "Z1", "Z0", a)

    def sig(self, a):
        return self._lin(self._sigma, "V1", "Z0", a)

    def d(self, a):
        return self._lin(self._d, "V1", "V0", a)


class MorphismCtx(DatumCtx):
    """Context over two extending data sharing Z and V, plus block maps r, s.

    Unprimed map accessors read the source datum; the *p accessors read the
    target datum.  r(i, u): Vi -> Zi and s(i, u): Vi -> Vi.
    """

    def __init__(self, datum, datum_p, rs):
        super().__init__(datum)
        self.datum_p = datum_p
        self._sigma_p = datum_p.sigma
        self._r = {0: rs.r0, 1: rs.r1}
        self._s = {0: rs.s0, 1: rs.s1}

    def hrp(self, j, a, b):
        return self._bil(self.datum_p.hr[j], HR_DOM[j], a, b)

    def hlp(self, j, a, b):
        return self._bil(self.datum_p.hl[j], HL_DOM[j], a, b)

    def trp(self, j, a, b):
        return self._bil(self.datum_p.tr[j], TR_DOM[j], a, b)

    def tlp(self, j, a, b):
        return self._bil(self.datum_p.tl[j], TL_DOM[j], a, b)

    def omp(self, j, a, b):
        return self._bil(self.datum_p.om[j], OM_DOM[j], a, b)

    def stp(self, j, a, b):
        return self._bil(self.datum_p.st[j], ST_DOM[j], a, b)

    def sigp(self, a):
        return self._lin(self._sigma_p, "V1", "Z0", a)

    def r(self, i, a):
        return self._lin(self._r[i], f"V{i}", f"Z{i}", a)

    def s(self, i, a):
        return self._lin(self._s[i], f"V{i}", f"V{i}", a)


@dataclass(frozen=True)
class Condition:
    cid: str
    level: int | None          # set for level-indexed condition families
    spaces: tuple
    fn: object                 # (ctx, *elts) -> (Elt, Elt)
    suspect: str | None = None  # note when a corrected transcription is used
    as_printed: object = None   # original form, when it is evaluatable


class ConditionTable:
    """An ordered list of conditions sharing one context type."""

    def __init__(self, name):
        self.name = name
        self.conds = []

    def add(self, cid, spaces, fn, suspect=None, as_printed=None):
        self.conds.append(Condition(cid, None, tuple(spaces.split()), fn,
                                    suspect, as_printed))

    def add_leveled(self, cid, spaces, make, suspect=None):
        """Register a condition family once per level i = 0, 1.

        `spaces` uses Zi/Vi placeholders; `make(i)` returns the lambda bound
        to that level.
        """
        for i in (0, 1):
            resolved = tuple(s.replace("i", str(i)) for s in spaces.split())
            self.conds.append(Condition(cid, i, resolved, make(i), suspect, None))

    def ids(self):
        seen = []
        for c in self.conds:
            if c.cid not in seen:
                seen.append(c.cid)
        return seen


def _grid(dims, spaces):
    """All index tuples for the given spaces; empty iff some dim is 0."""
    ranges = [range(dims[s]) for s in spaces]
    if not ranges:
        return [()]
    out = [()]
    for r in ranges:
        out = [t + (i,) for t in out for i in r]
    return out


def _condition_instances(ctx, table, strict_printed, disagrees):
    """(id, witness, lhs, rhs) for every condition of `table` on every basis
    tuple, in table order.  Where a suspect condition's form as printed
    disagrees with the corrected one, its id is added to `disagrees` and,
    with strict_printed, the "<cid>.as-printed" instance follows."""
    for cond in table.conds:
        for idx in _grid(ctx.dims, cond.spaces):
            elts = [ctx.basis(s, i) for s, i in zip(cond.spaces, idx)]
            lhs, rhs = cond.fn(ctx, *elts)
            if lhs.space != rhs.space:
                raise DimError(f"{cond.cid}: sides live in {lhs.space} vs {rhs.space}")
            witness = idx if cond.level is None else (cond.level,) + idx
            yield cond.cid, witness, lhs.vec, rhs.vec
            if cond.as_printed is not None:
                plhs, prhs = cond.as_printed(ctx, *elts)
                if (plhs.vec != prhs.vec) != (lhs.vec != rhs.vec):
                    disagrees.add(cond.cid)
                    if strict_printed:
                        yield f"{cond.cid}.as-printed", witness, plhs.vec, prhs.vec


def evaluate_conditions(ctx, table, cap=DEFAULT_VIOLATION_CAP, strict_printed=False):
    """Evaluate every condition of `table` on all applicable basis tuples.

    Violations of corrected (typo-suspect) conditions count toward the
    verdict; each suspect condition also gets a FlagNote recording whether
    the form as originally printed disagrees with the corrected form on this
    input.  With strict_printed=True, a point where the form as printed is
    violated and the corrected form holds is added as a violation with id
    "<cid>.as-printed".  The report holds the first `cap` violations in
    (condition, basis tuple) order, sorted; cap=1 asks for a verdict only.
    Flags are emitted even when the report stops at the cap; they cover the
    instances evaluated before it.
    """
    report = ConditionReport(conforming_field=ctx.field.conforming)
    disagrees = set()
    report.fill(_condition_instances(ctx, table, strict_printed, disagrees), cap)
    for cond in table.conds:
        if cond.suspect is not None and (cond.level is None or cond.level == 0):
            report.flags.append(FlagNote(cond.cid, cond.suspect, cond.cid in disagrees))
    return report.finalize()
