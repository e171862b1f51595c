"""Extending data, the unified product, and reconstruction from a split.

An ExtendingDatum packages the 24 bilinear maps and sigma that parameterize
candidate 2-algebra structures on (Z1+V1, Z0+V0) containing a fixed
2-algebra Z; build_unified_product assembles the candidate, and
check_datum_direct is the ground-truth oracle: every 2-algebra axiom on
that candidate, checked in the datum's own constants.  The transcribed
condition lists live in conds_unified.py and are cross-validated against
the oracle.

A datum reads its maps into constants once, when it is built: its nonzero
constants, (slot, value) in the layout of engine.datum_maps, are
ExtendingDatum._constants, and every reader takes them from there.  One
table, _places, says where each constant sits in the unified product E,
read off the spaces of its map alone.  _product places a datum's nonzero
constants through it: build_unified_product those of a datum, and
_symbolic, with variables of Z[x] for constants, builds the products the
runs of the oracles (and through them the searches of classify) are
compiled on.  extract_datum is its inverse in constants: one sparse
contraction of E's nonzero constants with the nonzero rows of the change of
basis [iota | V-basis] that a ComplementSplit stores and the nonzero
columns of its inverse, each sum reduced once and placed back through the
inverse table (_slots).  A datum is built from its nonzero constants by
_datum, the inverse of _constants: only the maps that carry a constant are
built (core.item_maps), the others are shared zero maps.  Z and E are put
together with core.two_algebra.

The oracle and verify_psi build no product: core's instance streams are run
once per shape on the product over Z[x] whose datum constants are variables
(_symbolic; _datum_run, _psi_run, classify._rs_run), and a datum's
constants, laid out as the catalogs read them (engine._values), are
substituted into that run, which returns the finished report
(core.SymbolicRun.report); the census sweeps _datum_run at free scalars
left as variables.  Each report holds the first `cap` violations in
evaluation order, sorted, as the same check on the built product would.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field as dc_field
from functools import cache
from itertools import chain, count, product

from .core import (_OP_LEVELS, DEFAULT_VIOLATION_CAP, ConditionReport, TwoMorphism,
                   ZinbielTwoAlgebra, _crossed_module_instances, _morphism_instances, _starts,
                   check_crossed_module, compiled_run, item_maps, map_items, require_levels,
                   two_algebra, two_algebra_maps, value_maps)
from .engine import (_DATUM_KEYS, _FAMS, _FREE, DatumCtx, _dims, _layout, _values, datum_maps,
                     evaluate_conditions)
from .errors import (DimError, FieldMismatch, NotComplementary, PreconditionError,
                     SubalgebraError)
from .fields import PolynomialRing
from .linalg import BilMap, LinMap, TwoVectorSpace, inverse, kernel_basis, vbasis


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
    engine.datum_maps: the inverse of ExtendingDatum._constants.  Only the
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
def _places(dims):
    """Where each constant of a datum at dims (n1, n0, m1, m0), in the layout
    of engine.datum_maps, sits in its unified product E: (m, key), m the
    index of its map in two_algebra_maps(E) and key its (k, i, j) there, or
    its (row, col) in phi_E (m = 4).  Read off the map's spaces alone: their
    levels name the operation of E, and a V index follows the Z of its
    level, so phi, sigma and d are the blocks of phi_E = [[phi, sigma], [0, d]]."""
    sizes = dict(zip(("Z1", "Z0", "V1", "V0"), dims))
    offset = {"Z1": 0, "Z0": 0, "V1": sizes["Z1"], "V0": sizes["Z0"]}
    places = []
    for _, spaces in _DATUM_KEYS:
        m = _OP_LEVELS.index(tuple(int(s[1]) for s in spaces)) if len(spaces) == 3 else 4
        axes = (spaces[2], *spaces[:2]) if len(spaces) == 3 else spaces[::-1]     # of its key
        places += [(m, tuple(offset[s] + i for s, i in zip(axes, key)))
                   for key in product(*(range(sizes[s]) for s in axes))]
    return tuple(places)


@cache
def _slots(dims):
    """The inverse of _places(dims): the slot of each place."""
    return {place: at for at, place in enumerate(_places(dims))}


def _product(field, dims, constants):
    """The unified product over field of the datum at dims (n1, n0, m1, m0)
    whose constants are the (slot, value) pairs constants, slots in the
    layout of engine.datum_maps, each placed through _places; a slot left
    out is 0."""
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


def build_unified_product(datum: ExtendingDatum) -> ZinbielTwoAlgebra:
    """Assemble the candidate 2-algebra on (Z1+V1, Z0+V0); no validity check.

    Each nonzero constant of the datum (ExtendingDatum._constants) is placed
    through _places: the Z operations, hl/hr cross terms and omega into Z,
    tr/tl/st into V, and phi_E(x, u) = (phi(x) + sigma(u), d(u)).
    """
    return _product(datum.field, _dims(datum), datum._constants)


def _symbolic(dims, variables):
    """The unified product over Z[x] of the datum at dims whose constant at,
    in the layout of engine.datum_maps, is the variable x_(variables[at])."""
    ring = PolynomialRing()
    return _product(ring, dims, ((at, ring.var(x)) for at, x in enumerate(variables)))


@cache
def _datum_run(dims):
    """The crossed-module run of the unified product at dims (n1, n0, m1, m0)
    in its datum's constants: x_at is constant at, in the layout of
    engine.datum_maps (engine._values, DatumCtx.values())."""
    return compiled_run(_crossed_module_instances, _symbolic(dims, range(len(_places(dims)))))


@cache
def _psi_run(dims):
    """The morphism run from the unified product at dims, in its datum's
    constants x_0 .. x_(n-1), to a 2-algebra of its level dims (the product
    at V = 0) whose constants, in two_algebra_maps order, follow, under a
    morphism whose phi1 and phi0 come last, each row-major."""
    n1, n0, m1, m0 = dims
    level = (n1 + m1, n0 + m0, 0, 0)
    n, size = len(_places(dims)), len(_places(level))
    ring = PolynomialRing()
    psi = value_maps(ring, [(n1 + m1,) * 2, (n0 + m0,) * 2], map(ring.var, count(n + size)))
    return compiled_run(_morphism_instances, _symbolic(dims, range(n)),
                        _symbolic(level, range(n, n + size)), TwoMorphism(*psi))


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
    kernel basis unless a basis is given.  Checked at construction: shapes,
    the retraction identity, and that a given basis lies in ker(p_i) and has
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
    E's and psi's, and read off _psi_run: their report is that of
    check_2alg_morphism from build_unified_product(datum), which is not
    built, and PSI-STAB and PSI-COSTAB fill what room it leaves.
    """
    f, e, dims = split.field, split.e, _dims(datum)
    (b1, b1inv), (b0, b0inv) = split._bases
    require_levels((b1, b0), (dims[0] + dims[2], dims[1] + dims[3]), (e.z1.dim, e.z0.dim))
    if datum.field != f:
        raise FieldMismatch("arguments over different fields")
    n1, n0, m1, m0 = split.dims()
    # Stabilizes Z: psi restricted to the Z block equals iota.
    stab = ((f"PSI-STAB{lvl}", (j,), b.column(j), iota.column(j))
            for lvl, b, iota, nz in ((1, b1, split.iota1, n1), (0, b0, split.iota0, n0))
            for j in range(nz))
    # Co-stabilizes V: complement coordinates of psi(0, u) are u.
    costab = ((f"PSI-COSTAB{lvl}", (j,), binv.apply(b.column(nz + j))[nz:], vbasis(f, mv, j))
              for lvl, b, binv, nz, mv in ((1, b1, b1inv, n1, m1), (0, b0, b0inv, n0, m0))
              for j in range(mv))
    values = _values(f.zero(), dims, datum._constants, tail=[*two_algebra_maps(e), b1, b0])
    return _psi_run(dims).report(f, values, cap).fill(chain(stab, costab), cap).finalize()
