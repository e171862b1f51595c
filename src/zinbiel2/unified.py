"""Extending data, the unified product, and reconstruction from a split.

An ExtendingDatum packages the 24 bilinear maps and sigma that parameterize
candidate 2-algebra structures on (Z1+V1, Z0+V0) containing a fixed
2-algebra Z; build_unified_product assembles the candidate, and
check_datum_direct is the ground-truth oracle: build, then verify every
2-algebra axiom on the result.  The transcribed condition lists live in
conds_unified.py and are cross-validated against the oracle.

One block table, engine._BLOCKS, says which datum family fills each block
of an operation on Z + V.  build_unified_product writes the blocks through
it, and extract_datum is its inverse: it rewrites E in the basis [iota |
V-basis] that a ComplementSplit stores and reads the blocks back through
the same table.  The oracle and verify_psi fill their reports from core's
instance streams, so each report holds the first `cap` violations in
evaluation order, sorted.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field as dc_field
from itertools import chain

from .core import (ConditionReport, ZinbielAlgebra, ZinbielTwoAlgebra,
                   BimodulePair, TwoMorphism, DEFAULT_VIOLATION_CAP,
                   check_crossed_module, morphism_stream)
from .engine import _BLOCKS, _OP_LEVELS, MAP_SPACES, DatumCtx, _ops, evaluate_conditions
from .errors import (DimError, FieldMismatch, NotComplementary, PreconditionError,
                     SubalgebraError)
from .linalg import (BilMap, LinMap, TwoVectorSpace, inverse, kernel_basis, upper_block,
                     vbasis)

_FAMS = ("hr", "hl", "tr", "tl", "om", "st")


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

    def __post_init__(self):
        z, v, sigma = self.z, self.v, self.sigma
        dims = {"Z0": z.z0.dim, "Z1": z.z1.dim, "V0": v.dim0, "V1": v.dim1}
        for fam_name in _FAMS:
            maps = tuple(getattr(self, fam_name))
            if len(maps) != 4:
                raise DimError(f"{fam_name} must have 4 components")
            for j, m in enumerate(maps):
                la, lb, lc = MAP_SPACES[fam_name][j]
                if (m.dim_a, m.dim_b, m.dim_c) != (dims[la], dims[lb], dims[lc]):
                    raise DimError(
                        f"{fam_name}[{j}] must be {dims[la]}x{dims[lb]}->{dims[lc]}, "
                        f"got {m.dim_a}x{m.dim_b}->{m.dim_c}")
                if m.field != z.field:
                    raise FieldMismatch(f"{fam_name}[{j}] over wrong field")
            object.__setattr__(self, fam_name, maps)
        if (sigma.cols, sigma.rows) != (v.dim1, z.z0.dim):
            raise DimError(f"sigma must be {z.z0.dim}x{v.dim1}")
        if sigma.field != z.field:
            raise FieldMismatch("sigma over wrong field")
        if v.d.field != z.field:
            raise FieldMismatch("d over wrong field")

    @property
    def field(self):
        return self.z.field

    @classmethod
    def trivial(cls, z: ZinbielTwoAlgebra, v: TwoVectorSpace):
        """All maps zero (including sigma)."""
        f = z.field
        dims = {"Z0": z.z0.dim, "Z1": z.z1.dim, "V0": v.dim0, "V1": v.dim1}
        fams = {name: tuple(BilMap.zero(f, dims[a], dims[b], dims[c])
                            for a, b, c in MAP_SPACES[name]) for name in _FAMS}
        return cls(z, v, **fams, sigma=LinMap.zero(f, z.z0.dim, v.dim1))

    def replace(self, **kwargs):
        """Copy with some map families replaced."""
        return dataclasses.replace(self, **kwargs)

    def __repr__(self):
        dims = (self.z.z1.dim, self.z.z0.dim, self.v.dim1, self.v.dim0)
        return f"ExtendingDatum({self.field.name}, dims Z1,Z0,V1,V0={dims})"


def _assemble(field, j, nz, nv, fams):
    """Operation j on Z + V from the families filling its blocks, given in
    _BLOCKS order.

    nz and nv are the (level-0, level-1) dims of Z and V; the basis of each
    level is the Z indices, then the V indices.
    """
    la, lb, lc = _OP_LEVELS[j]
    za, zb, zc = nz[la], nz[lb], nz[lc]
    coeffs = {}
    for ((a, b, c), _), fam in zip(_BLOCKS, fams):
        items = fam[j].items
        if items:
            a_off, b_off, c_off = a * za, b * zb, c * zc
            for (k, i, jj, val) in items:
                coeffs[(k + c_off, i + a_off, jj + b_off)] = val
    return BilMap(field, za + nv[la], zb + nv[lb], zc + nv[lc], coeffs)


def _split(field, j, tensor, nz, nv):
    """The blocks of operation j on Z + V in _BLOCKS order: the inverse of
    _assemble.  A nonzero Z x Z -> V block raises SubalgebraError with the
    least (i, k) of its entries as witness."""
    la, lb, lc = _OP_LEVELS[j]
    za, zb, zc = nz[la], nz[lb], nz[lc]
    coeffs = {}
    for (k, i, jj, val) in tensor.items:
        a, b, c = int(i >= za), int(jj >= zb), int(k >= zc)
        coeffs.setdefault((a, b, c), {})[(k - c * zc, i - a * za, jj - b * zb)] = val
    if (0, 0, 1) in coeffs:
        i, k = min((i, k) for _, i, k in coeffs[(0, 0, 1)])
        raise SubalgebraError(f"iota(Z) is not closed under operation {j}",
                              witness=(j, i, k))
    dims = ((nz[la], nv[la]), (nz[lb], nv[lb]), (nz[lc], nv[lc]))
    return tuple(BilMap(field, dims[0][a], dims[1][b], dims[2][c], coeffs.get((a, b, c), {}))
                 for (a, b, c), _ in _BLOCKS)


def build_unified_product(datum: ExtendingDatum) -> ZinbielTwoAlgebra:
    """Assemble the candidate 2-algebra on (Z1+V1, Z0+V0); no validity check.

    Each operation is written block by block through _BLOCKS: the Z
    operation, hl/hr cross terms and omega into Z, and tr/tl/st into V.
    """
    z, v = datum.z, datum.v
    f = datum.field
    nz, nv = (z.z0.dim, z.z1.dim), (v.dim0, v.dim1)
    fams = [_ops(z) if name == "z" else getattr(datum, name) for _, name in _BLOCKS]
    mult0, mult1, act_left, act_right = (_assemble(f, j, nz, nv, fams) for j in range(4))
    # phi_E(x, u) = (phi(x) + sigma(u), d(u))
    phi_e = upper_block(z.phi, datum.sigma, v.d)
    return ZinbielTwoAlgebra(ZinbielAlgebra(f, nz[1] + nv[1], mult1),
                             ZinbielAlgebra(f, nz[0] + nv[0], mult0),
                             phi_e, BimodulePair(act_left, act_right))


def _require_valid_z(z: ZinbielTwoAlgebra, cap):
    rep = check_crossed_module(z, cap=cap)
    if not rep.ok:
        raise PreconditionError("the base Z is not a valid Zinbiel 2-algebra", rep)


def check_datum_direct(datum: ExtendingDatum, cap=DEFAULT_VIOLATION_CAP,
                       first_only=False, check_z=True) -> ConditionReport:
    """Oracle verdict: build the unified product and check every axiom on it.

    first_only=True means cap=1 for the datum: a verdict only.
    """
    if check_z:
        _require_valid_z(datum.z, cap)
    return check_crossed_module(build_unified_product(datum), cap=1 if first_only else cap)


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

    The inverse of build_unified_product: each operation of E is rewritten
    in the basis [iota | V-basis] of the split, B^-1 t(B x, B y), and cut
    into its blocks with _split; B0^-1 phi_E B1 is cut into
    [[phi, sigma], [0, d]].  The Z x Z -> V blocks and the lower-left block
    of phi_E must vanish (that is the subalgebra condition; SubalgebraError
    with witness (j, i, k) or ("phi", i) otherwise), and the Z blocks are
    the induced structure on Z.
    """
    e = split.e
    f = e.field
    if check_e:
        rep = check_crossed_module(e, cap=cap)
        if not rep.ok:
            raise PreconditionError("ambient E is not a valid Zinbiel 2-algebra", rep)
    (b1, b1inv), (b0, b0inv) = split._bases
    n1, n0 = split.iota1.cols, split.iota0.cols
    m1, m0 = len(split.vbasis1), len(split.vbasis0)
    binv = (b0inv, b1inv)
    cols = tuple([b.column(i) for i in range(b.cols)] for b in (b0, b1))
    blocks = []
    for j, tensor in enumerate(_ops(e)):
        la, lb, lc = _OP_LEVELS[j]
        rebased = BilMap.from_basis_function(
            f, len(cols[la]), len(cols[lb]), len(cols[lc]),
            lambda i, k: binv[lc].apply(tensor.eval(cols[la][i], cols[lb][k])))
        blocks.append(_split(f, j, rebased, (n0, n1), (m0, m1)))
    phi_e = b0inv.compose(e.phi.compose(b1)).entries
    for i in range(n1):
        if any(row[i] != f.zero() for row in phi_e[n0:]):
            raise SubalgebraError("phi_E does not restrict to the Z levels",
                                  witness=("phi", i))
    fams = {name: fam for (_, name), fam in zip(_BLOCKS, zip(*blocks))}
    mult0, mult1, act_l, act_r = fams.pop("z")
    z = ZinbielTwoAlgebra(ZinbielAlgebra(f, n1, mult1), ZinbielAlgebra(f, n0, mult0),
                          LinMap(f, n0, n1, [row[:n1] for row in phi_e[:n0]]),
                          BimodulePair(act_l, act_r))
    d = LinMap(f, m0, m1, [row[n1:] for row in phi_e[n0:]])
    return ExtendingDatum(z, TwoVectorSpace(m1, m0, d), **fams,
                          sigma=LinMap(f, n0, m1, [row[n1:] for row in phi_e[:n0]]))


def verify_psi(split: ComplementSplit, datum: ExtendingDatum,
               cap=DEFAULT_VIOLATION_CAP) -> ConditionReport:
    """Check psi: Z natural V -> E is an isomorphism stabilizing Z and
    co-stabilizing V.

    IDs: morphism conditions M1..M5 on psi, PSI-STAB (psi o incl_Z = iota),
    PSI-COSTAB (proj_V o psi = pr_V), evaluated in that order until the cap.
    psi is the split's change of basis [iota | V-basis] at each level,
    invertible because ComplementSplit refuses a V-basis that does not span
    E with the image of iota.
    """
    f = split.field
    (b1, b1inv), (b0, b0inv) = split._bases
    n1, n0 = split.iota1.cols, split.iota0.cols
    m1, m0 = len(split.vbasis1), len(split.vbasis0)
    # Stabilizes Z: psi restricted to the Z block equals iota.
    stab = ((f"PSI-STAB{lvl}", (j,), b.column(j), iota.column(j))
            for lvl, b, iota, nz in ((1, b1, split.iota1, n1), (0, b0, split.iota0, n0))
            for j in range(nz))
    # Co-stabilizes V: complement coordinates of psi(0, u) are u.
    costab = ((f"PSI-COSTAB{lvl}", (j,), binv.apply(b.column(nz + j))[nz:], vbasis(f, mv, j))
              for lvl, b, binv, nz, mv in ((1, b1, b1inv, n1, m1), (0, b0, b0inv, n0, m0))
              for j in range(mv))
    psi = TwoMorphism(b1, b0)
    instances = chain(morphism_stream(build_unified_product(datum), split.e, psi),
                      stab, costab)
    return ConditionReport(conforming_field=f.conforming).fill(instances, cap).finalize()
