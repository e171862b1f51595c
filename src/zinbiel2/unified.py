"""Extending data, the unified product, and reconstruction from a split.

An ExtendingDatum packages the 24 bilinear maps and sigma that parameterize
candidate 2-algebra structures on (Z1+V1, Z0+V0) containing a fixed
2-algebra Z; build_unified_product assembles the candidate, and
check_datum_direct is the ground-truth oracle: build, then verify every
2-algebra axiom on the result.  The transcribed condition lists live in
conds_unified.py and are cross-validated against the oracle.  The oracle
and verify_psi fill their reports from core's instance streams, so each
report holds the first `cap` violations in evaluation order, sorted.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from itertools import chain

from .core import (ConditionReport, ZinbielAlgebra, ZinbielTwoAlgebra,
                   BimodulePair, TwoMorphism, DEFAULT_VIOLATION_CAP,
                   check_crossed_module, _morphism_instances)
from .engine import (DatumCtx, HR_DOM, HL_DOM, TR_DOM, TL_DOM, OM_DOM, ST_DOM,
                     evaluate_conditions)
from .errors import DimError, FieldMismatch, PreconditionError, SubalgebraError
from .linalg import (BilMap, LinMap, TwoVectorSpace, inverse, kernel_basis, is_zero_vec,
                     rank, upper_block, vbasis)

_FAMS = (("hr", HR_DOM), ("hl", HL_DOM), ("tr", TR_DOM), ("tl", TL_DOM),
         ("om", OM_DOM), ("st", ST_DOM))


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
        for fam_name, fam_dom in _FAMS:
            maps = tuple(getattr(self, fam_name))
            if len(maps) != 4:
                raise DimError(f"{fam_name} must have 4 components")
            for j, m in enumerate(maps):
                la, lb, lc = fam_dom[j]
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

    @property
    def field(self):
        return self.z.field

    @classmethod
    def trivial(cls, z: ZinbielTwoAlgebra, v: TwoVectorSpace):
        """All maps zero (including sigma)."""
        f = z.field
        dims = {"Z0": z.z0.dim, "Z1": z.z1.dim, "V0": v.dim0, "V1": v.dim1}
        fams = []
        for _, dom in _FAMS:
            fams.append(tuple(BilMap.zero(f, dims[dom[j][0]], dims[dom[j][1]],
                                          dims[dom[j][2]]) for j in range(4)))
        return cls(z, v, *fams, LinMap.zero(f, z.z0.dim, v.dim1))

    def replace(self, **kwargs):
        """Copy with some map families replaced."""
        return dataclasses.replace(self, **kwargs)

    def __repr__(self):
        dims = (self.z.z1.dim, self.z.z0.dim, self.v.dim1, self.v.dim0)
        return f"ExtendingDatum({self.field.name}, dims Z1,Z0,V1,V0={dims})"


# Operation j of a 2-algebra (0: level-0 mult, 1: level-1 mult, 2: left
# action, 3: right action) as (level of slot a, level of slot b, result level).
_OP_LEVELS = ((0, 0, 0), (1, 1, 1), (0, 1, 1), (1, 0, 1))


def _ops(t: ZinbielTwoAlgebra):
    """The four structure tensors of t in operation order."""
    return (t.z0.mult, t.z1.mult, t.act.left, t.act.right)


def _assemble(field, nz_a, nv_a, nz_b, nv_b, nz_c, nv_c,
              zz_z, zv_z, zv_v, vz_z, vz_v, vv_z, vv_v):
    """Direct-sum bilinear map from block components.

    Blocks are named by argument origin (z/v per slot) and target component.
    Basis order is Z indices then V indices.
    """
    coeffs = {}
    for tensor, a_off, b_off, c_off in ((zz_z, 0, 0, 0), (zv_z, 0, nz_b, 0),
                                        (zv_v, 0, nz_b, nz_c), (vz_z, nz_a, 0, 0),
                                        (vz_v, nz_a, 0, nz_c), (vv_z, nz_a, nz_b, 0),
                                        (vv_v, nz_a, nz_b, nz_c)):
        for (k, i, j, val) in tensor.items:
            coeffs[(k + c_off, i + a_off, j + b_off)] = val
    return BilMap(field, nz_a + nv_a, nz_b + nv_b, nz_c + nv_c, coeffs)


def build_unified_product(datum: ExtendingDatum) -> ZinbielTwoAlgebra:
    """Assemble the candidate 2-algebra on (Z1+V1, Z0+V0); no validity check.

    Each product has up to seven structure contributions: the Z operation,
    hl/hr cross terms, omega into Z, and tr/tl/st into V.
    """
    z, v = datum.z, datum.v
    f = datum.field
    nz, nv = (z.z0.dim, z.z1.dim), (v.dim0, v.dim1)
    mult0, mult1, act_left, act_right = (
        _assemble(f, nz[la], nv[la], nz[lb], nv[lb], nz[lc], nv[lc], zz,
                  datum.hl[j], datum.tr[j], datum.hr[j], datum.tl[j],
                  datum.om[j], datum.st[j])
        for j, ((la, lb, lc), zz) in enumerate(zip(_OP_LEVELS, _ops(z))))
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
    the retraction identity, and that a given basis lies in ker(p_i), has
    the right size and spans E_i together with the image of iota_i.
    """

    e: ZinbielTwoAlgebra
    iota1: LinMap
    iota0: LinMap
    p1: LinMap
    p0: LinMap
    vbasis1: tuple = None
    vbasis0: tuple = None

    def __post_init__(self):
        e = self.e
        for (iota, p, dim_e, lvl) in ((self.iota1, self.p1, e.z1.dim, 1),
                                      (self.iota0, self.p0, e.z0.dim, 0)):
            if iota.rows != dim_e or p.cols != dim_e or iota.cols != p.rows:
                raise DimError(f"level-{lvl} split maps have inconsistent shapes")
            comp = p.compose(iota)
            if comp != LinMap.identity(e.field, iota.cols):
                raise DimError(f"p{lvl} o iota{lvl} is not the identity")
        z = e.field.zero()
        for iota, p, name, lvl in ((self.iota1, self.p1, "vbasis1", 1),
                                   (self.iota0, self.p0, "vbasis0", 0)):
            given = getattr(self, name)
            if given is None:   # a kernel basis is independent by construction
                object.__setattr__(self, name, tuple(kernel_basis(p)))
                continue
            given = tuple(tuple(v) for v in given)
            if len(given) != p.cols - p.rows:
                raise DimError(f"level-{lvl} complement basis has wrong size")
            for v in given:
                if any(x != z for x in p.apply(v)):
                    raise DimError(f"level-{lvl} complement basis not in ker(p)")
            cols = [iota.column(j) for j in range(iota.cols)] + list(given)
            if rank(LinMap.from_columns(e.field, cols, p.cols)) != p.cols:
                raise DimError(f"level-{lvl} iota image and complement basis do not span E")
            object.__setattr__(self, name, given)

    @property
    def field(self):
        return self.e.field

    def dims(self):
        return (self.iota1.cols, self.iota0.cols, len(self.vbasis1), len(self.vbasis0))


def _coordinate_maps(split):
    """Per level: (assembly matrix B = [iota | V-basis], B^-1)."""
    f = split.field
    out = []
    for iota, vecs, dim_e in ((split.iota1, split.vbasis1, split.e.z1.dim),
                              (split.iota0, split.vbasis0, split.e.z0.dim)):
        cols = [iota.column(j) for j in range(iota.cols)] + list(vecs)
        b = LinMap.from_columns(f, cols, dim_e)
        if b.rows != b.cols:
            raise DimError("split does not decompose E as Z + V")
        binv = inverse(b)
        if binv is None:
            raise DimError("iota image and complement do not span E")
        out.append((b, binv))
    return out  # [(B1, B1inv), (B0, B0inv)]


def extract_datum(split: ComplementSplit, check_e=True,
                  cap=DEFAULT_VIOLATION_CAP) -> ExtendingDatum:
    """Read an extending datum off an ambient E along the split.

    Uniform component splitting: for every ambient operation and argument
    pattern, the Z-part of the result is its Z-coordinate and the V-part is
    the complement coordinate.  Pure-Z patterns must stay inside Z (that is
    the subalgebra condition; SubalgebraError with a witness otherwise), and
    they define the induced structure on Z.
    """
    e = split.e
    f = e.field
    if check_e:
        rep = check_crossed_module(e, cap=cap)
        if not rep.ok:
            raise PreconditionError("ambient E is not a valid Zinbiel 2-algebra", rep)
    (b1, b1inv), (b0, b0inv) = _coordinate_maps(split)
    n1, n0 = split.iota1.cols, split.iota0.cols
    m1, m0 = len(split.vbasis1), len(split.vbasis0)

    def coords(level, vec):
        """(z_coords, v_coords) of an ambient level vector."""
        binv = b1inv if level == 1 else b0inv
        c = binv.apply(vec)
        nz = n1 if level == 1 else n0
        return c[:nz], c[nz:]

    z_embed = {1: [split.iota1.column(j) for j in range(n1)],
               0: [split.iota0.column(j) for j in range(n0)]}
    v_embed = {1: list(split.vbasis1), 0: list(split.vbasis0)}

    # op j -> (level of slot a, level of slot b, result level, tensor)
    ops = {j: (*levels, tensor) for j, (levels, tensor) in enumerate(zip(_OP_LEVELS, _ops(e)))}

    # Subalgebra closure of the iota images, and the induced Z structure.
    induced = {}
    for j, (la, lb, lc, tensor) in ops.items():
        za, zb = z_embed[la], z_embed[lb]
        vals = {}
        for i, ea in enumerate(za):
            for k, eb in enumerate(zb):
                zc, vc = coords(lc, tensor.eval(ea, eb))
                if not is_zero_vec(f, vc):
                    raise SubalgebraError(
                        f"iota(Z) is not closed under operation {j}",
                        witness=(j, i, k))
                vals[(i, k)] = zc
        induced[j] = vals
    # phi_E restricted to iota(Z1) must land in iota(Z0).
    phi_vals = []
    for i, ea in enumerate(z_embed[1]):
        zc, vc = coords(0, e.phi.apply(ea))
        if not is_zero_vec(f, vc):
            raise SubalgebraError("phi_E does not restrict to the Z levels",
                                  witness=("phi", i))
        phi_vals.append(zc)

    def family(j):
        la, lb, lc, tensor = ops[j]
        dz_a, dz_b, dz_c = (n1 if la == 1 else n0), (n1 if lb == 1 else n0), (n1 if lc == 1 else n0)
        dv_a, dv_b, dv_c = (m1 if la == 1 else m0), (m1 if lb == 1 else m0), (m1 if lc == 1 else m0)
        store = {"hr": {}, "hl": {}, "tr": {}, "tl": {}, "om": {}, "st": {}}

        def record(z_name, v_name, i, k, vec):
            zc, vc = coords(lc, vec)
            for kk, val in enumerate(zc):
                if val != f.zero():
                    store[z_name][(kk, i, k)] = val
            for kk, val in enumerate(vc):
                if val != f.zero():
                    store[v_name][(kk, i, k)] = val

        for i, ea in enumerate(z_embed[la]):           # Z x V pattern
            for k, eb in enumerate(v_embed[lb]):
                record("hl", "tr", i, k, tensor.eval(ea, eb))
        for i, ea in enumerate(v_embed[la]):           # V x Z pattern
            for k, eb in enumerate(z_embed[lb]):
                record("hr", "tl", i, k, tensor.eval(ea, eb))
        for i, ea in enumerate(v_embed[la]):           # V x V pattern
            for k, eb in enumerate(v_embed[lb]):
                record("om", "st", i, k, tensor.eval(ea, eb))
        return {
            "hr": BilMap(f, dv_a, dz_b, dz_c, store["hr"]),
            "hl": BilMap(f, dz_a, dv_b, dz_c, store["hl"]),
            "tr": BilMap(f, dz_a, dv_b, dv_c, store["tr"]),
            "tl": BilMap(f, dv_a, dz_b, dv_c, store["tl"]),
            "om": BilMap(f, dv_a, dv_b, dz_c, store["om"]),
            "st": BilMap(f, dv_a, dv_b, dv_c, store["st"]),
        }

    fams = {j: family(j) for j in range(4)}

    # sigma and d from phi_E on the complement.
    sig_entries = {}
    d_entries = {}
    for k, u in enumerate(v_embed[1]):
        zc, vc = coords(0, e.phi.apply(u))
        for kk, val in enumerate(zc):
            sig_entries[(kk, k)] = val
        for kk, val in enumerate(vc):
            d_entries[(kk, k)] = val
    z0_ = f.zero()
    sigma = LinMap(f, n0, m1, [[sig_entries.get((r, c), z0_) for c in range(m1)]
                               for r in range(n0)])
    d = LinMap(f, m0, m1, [[d_entries.get((r, c), z0_) for c in range(m1)]
                           for r in range(m0)])

    # Induced Z (structure transported along iota).
    mult0 = BilMap.from_basis_function(f, n0, n0, n0, lambda i, k: induced[0][(i, k)])
    mult1 = BilMap.from_basis_function(f, n1, n1, n1, lambda i, k: induced[1][(i, k)])
    act_l = BilMap.from_basis_function(f, n0, n1, n1, lambda i, k: induced[2][(i, k)])
    act_r = BilMap.from_basis_function(f, n1, n0, n1, lambda i, k: induced[3][(i, k)])
    phi = LinMap.from_columns(f, phi_vals, n0)
    z = ZinbielTwoAlgebra(ZinbielAlgebra(f, n1, mult1), ZinbielAlgebra(f, n0, mult0),
                          phi, BimodulePair(act_l, act_r))
    v = TwoVectorSpace(m1, m0, d)
    return ExtendingDatum(
        z, v,
        hr=tuple(fams[j]["hr"] for j in range(4)),
        hl=tuple(fams[j]["hl"] for j in range(4)),
        tr=tuple(fams[j]["tr"] for j in range(4)),
        tl=tuple(fams[j]["tl"] for j in range(4)),
        om=tuple(fams[j]["om"] for j in range(4)),
        st=tuple(fams[j]["st"] for j in range(4)),
        sigma=sigma)


def verify_psi(split: ComplementSplit, datum: ExtendingDatum,
               cap=DEFAULT_VIOLATION_CAP) -> ConditionReport:
    """Check psi: Z natural V -> E is an isomorphism stabilizing Z and
    co-stabilizing V.

    IDs: morphism conditions M1..M5 on psi, PSI-STAB (psi o incl_Z = iota),
    PSI-COSTAB (proj_V o psi = pr_V), evaluated in that order until the cap.
    psi is [iota | V-basis] at each level, invertible because
    ComplementSplit refuses a V-basis that does not span E with the image
    of iota.
    """
    f = split.field
    (b1, b1inv), (b0, b0inv) = _coordinate_maps(split)
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
    instances = chain(_morphism_instances(build_unified_product(datum), split.e, psi),
                      stab, costab)
    return ConditionReport(conforming_field=f.conforming).fill(instances, cap).finalize()
