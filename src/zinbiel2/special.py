"""Crossed products (Z as ideal) and bicrossed products (both factors
subalgebras), as specializations of the unified product.

Both products are the unified product of the embedded extending datum:
CrossedSystem forces tr = tl = 0, and a matched pair embeds with omega =
sigma = 0, so no separate construction is needed.  The independent check
of these specializations is the CZ/BZ catalogs against the oracle run on
the built product.  The converse directions read the datum off an ambient
E with extract_datum: check_ideal_extension requires its tr and tl to
vanish, factorize its omega and sigma.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass, field as dc_field

from .core import (_FAMS, DEFAULT_VIOLATION_CAP, ZinbielTwoAlgebra, _datum_zeros, _prefixed,
                   check_crossed_module, two_algebra, two_algebra_maps)
from .engine import DatumCtx, evaluate_conditions
from .errors import (DimError, NotAnIdeal, NotComplementary, NotSubalgebra,
                     ObstructionNonzero, PreconditionError, SubalgebraError)
from .linalg import TwoVectorSpace
from .unified import (ComplementSplit, ExtendingDatum, _require_valid_z, build_unified_product,
                      extract_datum)


def star_structure(datum: ExtendingDatum) -> ZinbielTwoAlgebra:
    """The candidate 2-algebra carried by the star family on (V1, V0, d):
    st[j] is its operation j, in the order of two_algebra_maps."""
    return two_algebra(datum.field, [*datum.st, datum.v.d])


@dataclass(frozen=True, slots=True)
class CrossedSystem:
    """An extending datum whose tr/tl families vanish identically."""

    datum: ExtendingDatum

    def __post_init__(self):
        for name in ("tr", "tl"):
            for j, m in enumerate(getattr(self.datum, name)):
                if not m.is_zero():
                    raise DimError(f"crossed system requires {name}[{j}] = 0")

    @property
    def field(self):
        return self.datum.field

    def embed(self) -> ExtendingDatum:
        return self.datum


def build_crossed_product(cs: CrossedSystem) -> ZinbielTwoAlgebra:
    """Product with V-components given by the star family alone."""
    return build_unified_product(cs.embed())


def check_crossed_system(cs: CrossedSystem, cap=DEFAULT_VIOLATION_CAP,
                         check_z=True, strict_printed=False):
    """CZ1..CZ61 plus the side condition that the star family makes
    (V1, V0, d) a valid 2-algebra (violations namespaced V.*), in that order
    until the cap: the first violations of the star's check fill the room."""
    from .conds_special import CZ_TABLE
    if check_z:
        _require_valid_z(cs.datum.z, cap)
    report = evaluate_conditions(DatumCtx(cs.datum), CZ_TABLE, cap=cap,
                                 strict_printed=strict_printed)
    if len(report.violations) < cap:
        vstar = check_crossed_module(star_structure(cs.datum), cap - len(report.violations))
        report.fill(_prefixed("V.", vstar.violations), cap)
    return report.finalize()


def check_ideal_extension(split: ComplementSplit, cap=DEFAULT_VIOLATION_CAP) -> CrossedSystem:
    """Check that the embedded Z is a two-sided ideal and extract the
    crossed system realizing E as a crossed product.

    The datum is read off with extract_datum; Z is an ideal exactly when it
    is a subalgebra and the extracted tr and tl vanish (Z x V and V x Z land
    in Z).  Witnesses are ("tr"|"tl", j) for the first nonzero family, or
    the subalgebra witness of extract_datum.
    """
    try:
        datum = extract_datum(split, cap=cap)
    except SubalgebraError as exc:
        raise NotAnIdeal(f"Z is not a subalgebra: {exc}", witness=exc.witness) from exc
    for name in ("tr", "tl"):
        for j, m in enumerate(getattr(datum, name)):
            if not m.is_zero():
                raise NotAnIdeal(f"extracted {name}[{j}] is nonzero", witness=(name, j))
    return CrossedSystem(datum)


@dataclass(frozen=True, slots=True)
class MatchedPairDatum:
    """Two full 2-algebras with the sixteen cross maps, omega and sigma zero.

    The V structure is a genuine ZinbielTwoAlgebra; embedding it into an
    extending datum turns its multiplications into star[0]/star[1], its
    action into star[2]/star[3], and its connecting map into d.
    """

    z: ZinbielTwoAlgebra
    v: ZinbielTwoAlgebra
    hr: tuple
    hl: tuple
    tr: tuple
    tl: tuple
    check_v: InitVar[bool] = True
    _datum: ExtendingDatum = dc_field(init=False, repr=False, compare=False)

    def __post_init__(self, check_v):
        if check_v:
            vrep = check_crossed_module(self.v)
            if not vrep.ok:
                raise PreconditionError("V is not a valid Zinbiel 2-algebra", vrep)
        for name in _FAMS[:4]:
            object.__setattr__(self, name, tuple(getattr(self, name)))
        f, z, v = self.field, self.z, self.v    # the embedded datum, built once
        zeros = _datum_zeros(f, (z.z1.dim, z.z0.dim, v.z1.dim, v.z0.dim))
        object.__setattr__(self, "_datum", ExtendingDatum(   # validates all map shapes
            z, TwoVectorSpace(v.z1.dim, v.z0.dim, v.phi), self.hr, self.hl, self.tr, self.tl,
            [zeros["om", j] for j in range(4)], two_algebra_maps(v)[:4], zeros["sig"]))

    @property
    def field(self):
        return self.z.field

    def embed(self) -> ExtendingDatum:
        return self._datum


def build_bicrossed_product(mp: MatchedPairDatum) -> ZinbielTwoAlgebra:
    """Product with no omega/sigma contributions; both factors embed as
    subalgebras."""
    return build_unified_product(mp.embed())


def check_matched_pair(mp: MatchedPairDatum, cap=DEFAULT_VIOLATION_CAP,
                       check_z=True, strict_printed=False):
    """BZ1..BZ106 over the embedded datum (V validity is a type invariant)."""
    from .conds_special import BZ_TABLE
    if check_z:
        _require_valid_z(mp.z, cap)
    return evaluate_conditions(DatumCtx(mp.embed()), BZ_TABLE, cap=cap,
                               strict_printed=strict_printed)


def factorize(e: ZinbielTwoAlgebra, iota_z, iota_v, check_e=True,
              cap=DEFAULT_VIOLATION_CAP) -> MatchedPairDatum:
    """Factor E through two embedded subalgebras.

    iota_z and iota_v are (level-1, level-0) inclusion pairs whose combined
    columns must span each level (NotComplementary otherwise).  The Z image
    must be closed (NotSubalgebra); a nonzero extracted omega or sigma means
    the V image is not closed and raises ObstructionNonzero with the first
    offending entry as witness.
    """
    iz1, iz0 = iota_z
    iv1, iv0 = iota_v
    for lvl, (iz, iv, dim_e) in enumerate(((iz1, iv1, e.z1.dim), (iz0, iv0, e.z0.dim))):
        if iz.rows != dim_e or iv.rows != dim_e:
            raise DimError(f"level-{1 - lvl} inclusions do not map into E")
        if iz.cols + iv.cols != dim_e:
            raise NotComplementary(f"level {1 - lvl}: {iz.cols + iv.cols} columns for dim {dim_e}")
    # The V inclusions themselves serve as the complement basis, so the
    # extracted star family is expressed in V's own coordinates; the split
    # reads p (the projection onto Z along V) off its own B^-1.
    split = ComplementSplit(e, iz1, iz0, None, None,
                            vbasis1=[iv1.column(j) for j in range(iv1.cols)],
                            vbasis0=[iv0.column(j) for j in range(iv0.cols)])
    try:
        datum = extract_datum(split, check_e=check_e, cap=cap)
    except SubalgebraError as exc:
        raise NotSubalgebra(f"Z image is not a subalgebra: {exc}",
                            witness=exc.witness) from exc
    for j, m in enumerate(datum.om):
        if not m.is_zero():
            raise ObstructionNonzero(
                f"V image is not a subalgebra: omega[{j}] has entry {m.items[0]}",
                witness=("omega", j, m.items[0]))
    if not datum.sigma.is_zero():
        raise ObstructionNonzero("V image is not closed under phi_E: sigma is nonzero",
                                 witness=("sigma",))
    v2alg = star_structure(datum)
    return MatchedPairDatum(datum.z, v2alg, datum.hr, datum.hl, datum.tr, datum.tl)
