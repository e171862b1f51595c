"""Extending data, the unified product, and reconstruction from a split.

An ExtendingDatum packages the 24 bilinear maps and sigma that parameterize
candidate 2-algebra structures on (Z1+V1, Z0+V0) containing a fixed
2-algebra Z; build_unified_product assembles the candidate, and
check_datum_direct is the ground-truth oracle: every 2-algebra axiom on
that candidate, checked in the datum's own constants.  The transcribed
condition lists live in conds_unified.py and are cross-validated against
the oracle.

A datum reads its maps into constants once, when it is built: its nonzero
constants, (slot, value) in the layout of core.datum_maps, are
ExtendingDatum._constants, and every reader takes them from there.  One
table, core._places, says where each constant sits in the unified product
E, read off the spaces of its map alone; build_unified_product places a
datum's nonzero constants through it (core._product).  extract_datum is its
inverse in constants: one sparse contraction of E's nonzero constants with
the nonzero rows of the change of basis [iota | V-basis] that a
ComplementSplit stores and the nonzero columns of its inverse, each sum
reduced once and placed back through the inverse table (_slots).  A datum
is built from its nonzero constants by _datum, the inverse of _constants:
only the maps that carry a constant are built (core.item_maps), the others
are shared zero maps.  Z and E are put together with core.two_algebra.

The oracle and verify_psi build no product: they read core's runs on the
product over Z[x] whose datum constants are variables (core._datum_run,
core._morphism_run), at a datum's constants laid out as the catalogs read
them (core._values), and the run returns the finished report
(core.SymbolicRun.report); the census sweeps _datum_run at free scalars
left as variables.  Each report holds the first `cap` violations in
evaluation order, sorted, as the same check on the built product would.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field as dc_field
from functools import cache
from itertools import chain

from .core import (_FAMS, _FREE, _OP_LEVELS, DEFAULT_VIOLATION_CAP, ConditionReport,
                   ZinbielTwoAlgebra, _datum_run, _dims, _layout, _morphism_run, _places, _product,
                   _starts, _values, check_crossed_module, datum_maps, item_maps, map_items,
                   two_algebra, two_algebra_maps)
from .engine import DatumCtx, evaluate_conditions
from .errors import (DimError, FieldMismatch, NotComplementary, PreconditionError,
                     SubalgebraError)
from .linalg import LinMap, TwoVectorSpace, inverse, kernel_basis, vbasis


@dataclass(frozen=True, slots=True)
class ExtendingDatum:
    """The 24 structure maps + sigma over a fixed Z and 2-vector space V.

    Map families, indexed j = 0..3 (hr = harpoon-right, hl = harpoon-left,
    tr = triangle-right, tl = triangle-left, om = omega, st = star):
        hr[j]: V x Z -> Z     hl[j]: Z x V -> Z
        tr[j]: Z x V -> V     tl[j]: V x Z -> V
        om[j]: V x V -> Z     st[j]: V x V -> V
    with levels (0: both level 0; 1: both level 1; 2: mixed V0/Z0 against
    level 1; 3: mixed V1/Z1 against level 0) and sigma: V1 -> Z0.
    """

    z: ZinbielTwoAlgebra
    v: TwoVectorSpace
    hr: tuple
    hl: tuple
    tr: tuple
    tl: tuple
    om: tuple
    st: tuple
    sigma: LinMap
    _constants: tuple = dc_field(init=False, repr=False, compare=False)  # map_items, read once

    def __post_init__(self):
        z, v, sigma, f = self.z, self.v, self.sigma, self.z.field
        shapes = iter(_layout(_dims(self))[_FREE:])    # of the family maps, then sigma
        for fam_name in _FAMS:
            maps = tuple(getattr(self, fam_name))
            if len(maps) != 4:
                raise DimError(f"{fam_name} must have 4 components")
            for j, (m, (a, b, c)) in enumerate(zip(maps, shapes)):
                if (m.dim_a, m.dim_b, m.dim_c) != (a, b, c):
                    raise DimError(f"{fam_name}[{j}] must be {a}x{b}->{c}, "
                                   f"got {m.dim_a}x{m.dim_b}->{m.dim_c}")
                if m.field is not f and m.field != f:
                    raise FieldMismatch(f"{fam_name}[{j}] over wrong field")
            object.__setattr__(self, fam_name, maps)
        rows, cols = next(shapes)
        if (sigma.rows, sigma.cols) != (rows, cols):
            raise DimError(f"sigma must be {rows}x{cols}")
        if sigma.field != f:
            raise FieldMismatch("sigma over wrong field")
        if v.d.field != f:
            raise FieldMismatch("d over wrong field")
        object.__setattr__(self, "_constants", tuple(map_items(datum_maps(self))))

    @property
    def field(self):
        return self.z.field

    @classmethod
    def trivial(cls, z: ZinbielTwoAlgebra, v: TwoVectorSpace):
        """All maps zero (including sigma), shared."""
        return _datum(z.field, (z.z1.dim, z.z0.dim, v.dim1, v.dim0), (), z, v)

    def replace(self, **kwargs):
        """Copy with some map families replaced."""
        return dataclasses.replace(self, **kwargs)

    def __repr__(self):
        return f"ExtendingDatum({self.field.name}, dims Z1,Z0,V1,V0={_dims(self)})"


def _datum(ring, dims, constants, z=None, v=None):
    """The datum over ring at dims (n1, n0, m1, m0) whose nonzero constants
    are the (slot, value) pairs constants, slots in the layout of
    core.datum_maps: the inverse of ExtendingDatum._constants.  Only the
    maps that carry a constant are built, the others are shared zero maps
    (core.item_maps).  Given z and v, they are its Z and V, and only its
    constants from _FREE on, its free scalars, are read."""
    layout = _layout(dims)
    if z is None:
        maps = item_maps(ring, layout, constants)
        z, v = two_algebra(ring, maps[:_FREE - 1]), TwoVectorSpace(*dims[2:], maps[_FREE - 1])
        maps = maps[_FREE:]
    else:
        top = _starts(layout)[_FREE]
        maps = item_maps(ring, layout[_FREE:], [(at - top, c) for at, c in constants if at >= top])
    return ExtendingDatum(z, v, sigma=maps.pop(),
                          **{name: maps[4 * k:4 * k + 4] for k, name in enumerate(_FAMS)})


@cache
def _slots(dims):
    """The inverse of _places(dims): the slot of each place."""
    return {place: at for at, place in enumerate(_places(dims))}


def build_unified_product(datum: ExtendingDatum) -> ZinbielTwoAlgebra:
    """Assemble the candidate 2-algebra on (Z1+V1, Z0+V0); no validity check.

    Each nonzero constant of the datum (ExtendingDatum._constants) is placed
    through _places: the Z operations, hl/hr cross terms and omega into Z,
    tr/tl/st into V, and phi_E(x, u) = (phi(x) + sigma(u), d(u)).
    """
    return _product(datum.field, _dims(datum), datum._constants)


def _require_valid_z(z: ZinbielTwoAlgebra, cap):
    rep = check_crossed_module(z, cap=cap)
    if not rep.ok:
        raise PreconditionError("the base Z is not a valid Zinbiel 2-algebra", rep)


def check_datum_direct(datum: ExtendingDatum, cap=DEFAULT_VIOLATION_CAP,
                       first_only=False, check_z=True) -> ConditionReport:
    """Oracle verdict: every 2-algebra axiom on the unified product, checked
    in the datum's own constants.  They are read as the catalogs read them
    (DatumCtx.values()), and the report is read off the crossed-module run of
    the product at the datum's dims (_datum_run), so it is that of
    check_crossed_module on build_unified_product(datum), and no product is
    built.

    first_only=True means cap=1 for the datum: a verdict only.
    """
    if check_z:
        _require_valid_z(datum.z, cap)
    f, dims = datum.field, _dims(datum)
    return _datum_run(dims).report(f, _values(f.zero(), dims, datum._constants),
                                   1 if first_only else cap)


def check_datum_conditions(datum: ExtendingDatum, cap=DEFAULT_VIOLATION_CAP,
                           check_z=True, strict_printed=False) -> ConditionReport:
    """Evaluate the transcribed compatibility list Z1..Z120 on all basis tuples."""
    from .conds_unified import Z_TABLE
    if check_z:
        _require_valid_z(datum.z, cap)
    return evaluate_conditions(DatumCtx(datum), Z_TABLE, cap=cap,
                               strict_printed=strict_printed)


def check_trivial_z1_conditions(datum: ExtendingDatum, cap=DEFAULT_VIOLATION_CAP,
                                check_z=True, strict_printed=False) -> ConditionReport:
    """Evaluate the reduced list ZZ1..ZZ40 (requires dim Z1 = 0)."""
    from .conds_unified import ZZ_TABLE
    if datum.z.z1.dim != 0:
        raise PreconditionError(
            f"ZZ conditions apply only when dim Z1 = 0 (got {datum.z.z1.dim})")
    if check_z:
        _require_valid_z(datum.z, cap)
    return evaluate_conditions(DatumCtx(datum), ZZ_TABLE, cap=cap,
                               strict_printed=strict_printed)


@dataclass(frozen=True, slots=True)
class ComplementSplit:
    """An ambient 2-algebra E with an embedded copy of Z and projections.

    iota_i: Z_i -> E_i are injections, p_i: E_i -> Z_i retractions with
    p_i o iota_i = id; the complement V_i := ker(p_i) gets the deterministic
    kernel basis unless a basis is given.  Checked at construction: that
    every map is over the field of E (FieldMismatch), shapes, the retraction
    identity, and that a given basis lies in ker(p_i) and has
    the right size.  The change of basis B_i = [iota_i | V-basis] and its
    inverse are built here once; B_i not invertible means the basis does not
    span E_i together with the image of iota_i, and is refused.  With a
    basis given, p_i may be None: it is then the retraction along that basis,
    the Z rows of B_i^-1, and a B_i that is not invertible raises
    NotComplementary.
    """

    e: ZinbielTwoAlgebra
    iota1: LinMap
    iota0: LinMap
    p1: LinMap | None
    p0: LinMap | None
    vbasis1: tuple = None
    vbasis0: tuple = None
    _bases: tuple = dc_field(init=False, repr=False, compare=False)  # ((B1, B1^-1), (B0, B0^-1))

    def __post_init__(self):
        e = self.e
        for (iota, p, dim_e, lvl) in ((self.iota1, self.p1, e.z1.dim, 1),
                                      (self.iota0, self.p0, e.z0.dim, 0)):
            if iota.field != e.field or p is not None and p.field != e.field:
                raise FieldMismatch(f"level-{lvl} split maps over another field than E")
            if iota.rows != dim_e or p is not None and (p.cols != dim_e or iota.cols != p.rows):
                raise DimError(f"level-{lvl} split maps have inconsistent shapes")
            if p is not None and p.compose(iota) != LinMap.identity(e.field, iota.cols):
                raise DimError(f"p{lvl} o iota{lvl} is not the identity")
        z = e.field.zero()
        bases = []
        for iota, p, dim_e, lvl in ((self.iota1, self.p1, e.z1.dim, 1),
                                    (self.iota0, self.p0, e.z0.dim, 0)):
            given = getattr(self, f"vbasis{lvl}")
            if given is None:
                if p is None:
                    raise DimError(f"level-{lvl} split needs p{lvl} or a complement basis")
                given = tuple(kernel_basis(p))
            else:
                given = tuple(tuple(v) for v in given)
                if len(given) != dim_e - iota.cols:
                    raise DimError(f"level-{lvl} complement basis has wrong size")
                if p is not None and any(x != z for v in given for x in p.apply(v)):
                    raise DimError(f"level-{lvl} complement basis not in ker(p)")
            cols = [iota.column(j) for j in range(iota.cols)] + list(given)
            b = LinMap.from_columns(e.field, cols, dim_e)
            binv = inverse(b)
            if binv is None and p is None:
                raise NotComplementary(f"level {lvl}: images do not span E")
            if binv is None:
                raise DimError(f"level-{lvl} iota image and complement basis do not span E")
            if p is None:
                object.__setattr__(self, f"p{lvl}",
                                   LinMap(e.field, iota.cols, dim_e, binv.entries[:iota.cols]))
            object.__setattr__(self, f"vbasis{lvl}", given)
            bases.append((b, binv))
        object.__setattr__(self, "_bases", tuple(bases))

    @property
    def field(self):
        return self.e.field

    def dims(self):
        return (self.iota1.cols, self.iota0.cols, len(self.vbasis1), len(self.vbasis0))


def extract_datum(split: ComplementSplit, check_e=True,
                  cap=DEFAULT_VIOLATION_CAP) -> ExtendingDatum:
    """Read an extending datum off an ambient E along the split.

    The inverse of build_unified_product: each operation of E in the basis
    [iota | V-basis] of the split, B^-1 t(B x, B y), and phi_E as B0^-1
    phi_E B1, as one sparse contraction of the nonzero constants of E with
    the nonzero rows of B and the nonzero columns of B^-1.  Each sum is
    reduced by field.canonical and, unless it is zero, read back to its
    datum constant through _slots, the inverse of _places.  A constant with
    no place lies in a Z x Z -> V block or the lower-left block of phi_E,
    which must vanish: that is the subalgebra condition (SubalgebraError
    with witness (j, i, k) or ("phi", i) otherwise, the least operation j,
    then the least (i, k) or column i).  The Z constants are the induced
    structure on Z.
    """
    e = split.e
    f = e.field
    if check_e:
        rep = check_crossed_module(e, cap=cap)
        if not rep.ok:
            raise PreconditionError("ambient E is not a valid Zinbiel 2-algebra", rep)
    (b1, b1inv), (b0, b0inv) = split._bases
    dims = split.dims()
    # by level: the nonzero (column, entry) of each row of B, and the
    # nonzero (row, entry) of each column of B^-1
    rows = [[[(a, x) for a, x in enumerate(row) if x] for row in b.entries] for b in (b0, b1)]
    cols = [[[(c, row[k]) for c, row in enumerate(binv.entries) if row[k]]
             for k in range(binv.cols)] for binv in (b0inv, b1inv)]
    acc = {}        # (m, key) as _places names them -> its raw sum
    for m, tensor in enumerate(two_algebra_maps(e)[:4]):
        la, lb, lc = _OP_LEVELS[m]
        for k, i, j, v in tensor.items:
            for a, x in rows[la][i]:
                for b, y in rows[lb][j]:
                    vxy = v * x * y
                    for c, w in cols[lc][k]:
                        place = (m, (c, a, b))
                        acc[place] = acc.get(place, 0) + w * vxy
    for k, row in enumerate(e.phi.entries):
        for i, v in enumerate(row):
            if v:
                for c, y in rows[1][i]:
                    for r, w in cols[0][k]:
                        place = (4, (r, c))
                        acc[place] = acc.get(place, 0) + w * v * y
    slots, canonical = _slots(dims), f.canonical
    constants, strays = [], []
    for place, total in acc.items():
        v = canonical(total)
        if v:
            at = slots.get(place)
            if at is None:
                strays.append((place[0], place[1][1:]))
            else:
                constants.append((at, v))
    if strays:
        m, witness = min(strays)
        if m == 4:
            raise SubalgebraError("phi_E does not restrict to the Z levels",
                                  witness=("phi", *witness))
        raise SubalgebraError(f"iota(Z) is not closed under operation {m}",
                              witness=(m, *witness))
    return _datum(f, dims, constants)


def verify_psi(split: ComplementSplit, datum: ExtendingDatum,
               cap=DEFAULT_VIOLATION_CAP) -> ConditionReport:
    """Check psi: Z natural V -> E is an isomorphism stabilizing Z and
    co-stabilizing V.

    IDs: morphism conditions M1..M5 on psi, PSI-STAB (psi o incl_Z = iota),
    PSI-COSTAB (proj_V o psi = pr_V), evaluated in that order until the cap.
    psi is the split's change of basis [iota | V-basis] at each level,
    invertible because ComplementSplit refuses a V-basis that does not span
    E with the image of iota.  M1..M5 are read in the datum's own constants,
    E's and psi's, and read off _morphism_run to E as the product at V = 0:
    their report is that of check_2alg_morphism from
    build_unified_product(datum), which is not built, and PSI-STAB and
    PSI-COSTAB fill what room it leaves.  DimError unless the datum's dims
    are the split's.
    """
    f, e, dims = split.field, split.e, _dims(datum)
    (b1, b1inv), (b0, b0inv) = split._bases
    if dims != split.dims():
        raise DimError(f"datum dims {dims} are not the split's {split.dims()}")
    if datum.field != f:
        raise FieldMismatch("arguments over different fields")
    n1, n0, m1, m0 = dims
    # Stabilizes Z: psi restricted to the Z block equals iota.
    stab = ((f"PSI-STAB{lvl}", (j,), b.column(j), iota.column(j))
            for lvl, b, iota, nz in ((1, b1, split.iota1, n1), (0, b0, split.iota0, n0))
            for j in range(nz))
    # Co-stabilizes V: complement coordinates of psi(0, u) are u.
    costab = ((f"PSI-COSTAB{lvl}", (j,), binv.apply(b.column(nz + j))[nz:], vbasis(f, mv, j))
              for lvl, b, binv, nz, mv in ((1, b1, b1inv, n1, m1), (0, b0, b0inv, n0, m0))
              for j in range(mv))
    values = _values(f.zero(), dims, datum._constants, tail=[*two_algebra_maps(e), b1, b0])
    run = _morphism_run(dims, (n1 + m1, n0 + m0, 0, 0))
    return run.report(f, values, cap).fill(chain(stab, costab), cap).finalize()
