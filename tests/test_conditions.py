"""Cross-validation of the transcribed condition catalogs against the
direct build-then-verify oracle, plus determinism and flag behavior.

The full-scale sweeps live in test_acceptance.py; these runs use smaller
counts to keep the default suite fast while still covering every catalog.
"""

import itertools
import random

import pytest

from helpers import rand_sparse_datum, scalar_bilmap, zero_two_algebra
from zinbiel2.conds_morphism import H_TABLE
from zinbiel2.conds_special import BZ_TABLE, CZ_TABLE
from zinbiel2.conds_unified import Z_TABLE, ZZ_TABLE
from zinbiel2.core import ZinbielAlgebra, ZinbielTwoAlgebra
from zinbiel2.errors import PreconditionError
from zinbiel2.fields import PrimeField
from zinbiel2.linalg import LinMap, TwoVectorSpace
from zinbiel2.unified import (ExtendingDatum, check_datum_conditions,
                              check_datum_direct, check_trivial_z1_conditions)

F5 = PrimeField(5)


def shell_z01():
    return ZinbielTwoAlgebra.shell(ZinbielAlgebra.zero(F5, 1))


def datum_0101(p, q, a, b, w, m):
    z = shell_z01()
    v = TwoVectorSpace(0, 1, LinMap.zero(F5, 1, 0))
    base = ExtendingDatum.trivial(z, v)
    return base.replace(hr=(scalar_bilmap(F5, p),) + base.hr[1:],
                        hl=(scalar_bilmap(F5, q),) + base.hl[1:],
                        tr=(scalar_bilmap(F5, a),) + base.tr[1:],
                        tl=(scalar_bilmap(F5, b),) + base.tl[1:],
                        om=(scalar_bilmap(F5, w),) + base.om[1:],
                        st=(scalar_bilmap(F5, m),) + base.st[1:])


def test_table_sizes():
    assert len(Z_TABLE.ids()) == 122   # Z1 split into a/b/c plus Z2..Z120
    assert len(ZZ_TABLE.ids()) == 42   # ZZ1 split into a/b/c plus ZZ2..ZZ40
    assert len(CZ_TABLE.ids()) == 61
    assert len(BZ_TABLE.ids()) == 108  # BZ1 split into a/b/c plus BZ2..BZ106
    assert len(H_TABLE.ids()) == 20


def test_trivial_datum_passes_everything():
    z = shell_z01()
    v = TwoVectorSpace(1, 1, LinMap.zero(F5, 1, 1))
    datum = ExtendingDatum.trivial(z, v)
    assert check_datum_direct(datum).ok
    assert check_datum_conditions(datum).ok
    assert check_trivial_z1_conditions(datum).ok


def test_exhaustive_agreement_0101_subsample():
    # full grid runs in acceptance; here a deterministic slice
    for combo in itertools.product(range(5), repeat=4):
        p, q, w, m = combo
        for (a, b) in ((0, 0), (1, 4), (2, 3)):
            d = datum_0101(p, q, a, b, w, m)
            assert (check_datum_direct(d, check_z=False, first_only=True).ok
                    == check_datum_conditions(d, check_z=False, cap=1).ok)


def test_random_agreement_1111():
    rng = random.Random(555)
    for _ in range(800):
        z = zero_two_algebra(F5, 1, 1, LinMap(F5, 1, 1, [[rng.randrange(5)]]))
        v = TwoVectorSpace(1, 1, LinMap(F5, 1, 1, [[rng.randrange(5)]]))
        d = rand_sparse_datum(z, v, rng, rng.choice([0.1, 0.3, 0.8]))
        assert (check_datum_direct(d, check_z=False, first_only=True).ok
                == check_datum_conditions(d, check_z=False, cap=1).ok)


def test_omega_only_violation_matches_spec_reasoning():
    # nonzero omega_0 with zero star and zero actions: the compatibility of
    # omega with the level-0 product forces omega(u,v).x = 0, which a dim-1
    # Z0 with zero multiplication satisfies; make Z0 act nontrivially by
    # turning on hl0 instead and the condition set must flag Z-family items.
    d = datum_0101(0, 0, 0, 0, 1, 0)
    assert check_datum_direct(d, check_z=False).ok == \
        check_datum_conditions(d, check_z=False).ok
    d2 = datum_0101(0, 3, 0, 0, 1, 0)
    conds = check_datum_conditions(d2, check_z=False)
    direct = check_datum_direct(d2, check_z=False)
    assert conds.ok == direct.ok


def test_zz_precondition():
    z = zero_two_algebra(F5, 1, 1)
    v = TwoVectorSpace(1, 1, LinMap.zero(F5, 1, 1))
    with pytest.raises(PreconditionError):
        check_trivial_z1_conditions(ExtendingDatum.trivial(z, v))


def test_zz_agreement_0111():
    rng = random.Random(77)
    z = shell_z01()
    for _ in range(600):
        v = TwoVectorSpace(1, 1, LinMap(F5, 1, 1, [[rng.randrange(5)]]))
        d = rand_sparse_datum(z, v, rng, rng.choice([0.1, 0.3, 0.6]))
        assert (check_datum_direct(d, check_z=False, first_only=True).ok
                == check_trivial_z1_conditions(d, check_z=False, cap=1).ok)


def test_zz31_break_by_scalar_choice():
    # sigma compatibility with the level-2 V-component map: choose scalars
    # breaking sigma(x0 |>2 u1) = x0.sigma(u1) + x0 <-0 d(u1)
    z = shell_z01()
    v = TwoVectorSpace(1, 1, LinMap.zero(F5, 1, 1))   # d = 0
    base = ExtendingDatum.trivial(z, v)
    d = base.replace(tr=(base.tr[0], base.tr[1], scalar_bilmap(F5, 1), base.tr[3]),
                     sigma=LinMap(F5, 1, 1, [[2]]))
    # lhs = sigma(1 * u1) = 2, rhs = x0 . sigma(u1) + x0 <-0 0 = 0
    rep = check_trivial_z1_conditions(d, check_z=False)
    assert any(v_.cond == "ZZ31" and v_.lhs == (2,) and v_.rhs == (0,)
               for v_ in rep.violations)
    assert not check_datum_direct(d, check_z=False, first_only=True).ok


def test_zz19_flagged_and_corrected_form_matches_oracle():
    # construct data where the form as printed disagrees with the corrected
    # form: need tl3 != 0 and (hl0 + hr0) != 0
    z = shell_z01()
    v = TwoVectorSpace(1, 1, LinMap.zero(F5, 1, 1))
    base = ExtendingDatum.trivial(z, v)
    found_disagreement = False
    for hl0 in range(5):
        for tl3 in range(1, 5):
            for st3 in range(5):
                d = base.replace(hl=(scalar_bilmap(F5, hl0),) + base.hl[1:],
                                 tl=(base.tl[0], base.tl[1], base.tl[2],
                                     scalar_bilmap(F5, tl3)),
                                 st=(base.st[0], base.st[1], base.st[2],
                                     scalar_bilmap(F5, st3)))
                rep = check_trivial_z1_conditions(d, check_z=False)
                direct = check_datum_direct(d, check_z=False)
                assert rep.ok == direct.ok
                for fl in rep.flags:
                    if fl.cond == "ZZ19" and fl.as_printed_disagrees:
                        found_disagreement = True
    assert found_disagreement


def test_flags_present_for_suspect_conditions():
    z = shell_z01()
    v = TwoVectorSpace(1, 1, LinMap.zero(F5, 1, 1))
    base = ExtendingDatum.trivial(z, v)
    # st[0] = e.e = e breaks the Zinbiel identity on V0, so cap=1 truncates
    failing = base.replace(st=(scalar_bilmap(F5, 1),) + base.st[1:])
    for datum, cap in ((base, 100), (failing, 1)):
        rep = check_trivial_z1_conditions(datum, cap=cap)
        assert rep.truncated == (cap == 1)
        flagged = {fl.cond for fl in rep.flags}
        assert {"ZZ12", "ZZ19"} <= flagged
    rep2 = check_datum_conditions(ExtendingDatum.trivial(z, v))
    assert rep2.flags == []   # no suspect entries in the full Z catalog


def test_condition_evaluation_deterministic():
    rng = random.Random(3)
    z = zero_two_algebra(F5, 1, 1, LinMap(F5, 1, 1, [[3]]))
    v = TwoVectorSpace(1, 1, LinMap(F5, 1, 1, [[2]]))
    d = rand_sparse_datum(z, v, rng, 0.9)
    rep1 = check_datum_conditions(d, check_z=False)
    rep2 = check_datum_conditions(d, check_z=False)
    assert [(v_.cond, v_.witness, v_.lhs, v_.rhs) for v_ in rep1.violations] == \
           [(v_.cond, v_.witness, v_.lhs, v_.rhs) for v_ in rep2.violations]


def test_violation_cap_truncates():
    rng = random.Random(4)
    z = zero_two_algebra(F5, 2, 2)
    v = TwoVectorSpace(2, 2, LinMap.zero(F5, 2, 2))
    d = rand_sparse_datum(z, v, rng, 0.9)
    rep = check_datum_conditions(d, check_z=False, cap=10)
    assert rep.truncated and len(rep.violations) == 10


def test_witness_includes_level_for_indexed_families():
    # a level-1 star violation shows up with a leading level index
    z = zero_two_algebra(F5, 1, 1)
    v = TwoVectorSpace(1, 1, LinMap.zero(F5, 1, 1))
    base = ExtendingDatum.trivial(z, v)
    d = base.replace(st=(base.st[0], scalar_bilmap(F5, 1), base.st[2], base.st[3]))
    rep = check_datum_conditions(d, check_z=False)
    z12 = [v_ for v_ in rep.violations if v_.cond == "Z12"]
    assert z12 and z12[0].witness[0] in (0, 1) and len(z12[0].witness) == 4
