"""The substituted condition evaluator against the interpreted reference.

engine.evaluate_conditions reads each table's instances off one symbolic
run per shape and substitutes a context's structure constants into them;
helpers.interpreted_report runs the lambdas on the concrete context.  Both
must give identical reports: violations, flags and truncation.
"""

import itertools
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from helpers import interpreted_report
from zinbiel2 import engine
from zinbiel2.classify import RSData, check_rs_conditions
from zinbiel2.conds_morphism import H_TABLE
from zinbiel2.conds_special import BZ_TABLE, CZ_TABLE
from zinbiel2.conds_unified import Z_TABLE, ZZ_TABLE
from zinbiel2.core import (BimodulePair, ZinbielAlgebra, ZinbielTwoAlgebra, map_items, map_values,
                           two_algebra_maps)
from zinbiel2.engine import ConditionTable, DatumCtx, MorphismCtx, evaluate_conditions
from zinbiel2.errors import DimError
from zinbiel2.fields import PrimeField, Rationals
from zinbiel2.io import load_document
from zinbiel2.linalg import BilMap, LinMap, TwoVectorSpace
from zinbiel2.unified import ExtendingDatum

TABLES = {"Z": Z_TABLE, "ZZ": ZZ_TABLE, "CZ": CZ_TABLE, "BZ": BZ_TABLE, "H": H_TABLE}

# (dim Z1, dim Z0, dim V1, dim V0): a zero level in each slot, and (2,2,1,1)
SHAPES = ((1, 1, 1, 1), (1, 1, 0, 1), (1, 0, 1, 1), (2, 2, 1, 1))
ZZ_SHAPES = ((0, 1, 1, 1), (0, 1, 1, 0), (0, 2, 1, 1))
FIELDS = (PrimeField(5), PrimeField(7), Rationals())


def _scalar(field, rng, density):
    if rng.random() >= density:
        return field.zero()
    if isinstance(field, Rationals):
        return Fraction(rng.choice([-3, -1, 1, 2, 5]), rng.choice([1, 2, 3]))
    return rng.randrange(1, field.p)


def _bil(field, a, b, c, rng, density):
    return BilMap(field, a, b, c, {(k, i, j): _scalar(field, rng, density)
                                   for k in range(c) for i in range(a) for j in range(b)})


def _lin(field, rows, cols, rng, density):
    return LinMap(field, rows, cols, [[_scalar(field, rng, density) for _ in range(cols)]
                                      for _ in range(rows)])


def _datum(field, z, v, rng, density):
    """A random datum over z and v: no axiom of Z or of the datum holds."""
    base = ExtendingDatum.trivial(z, v)
    fams = {name: tuple(_bil(field, m.dim_a, m.dim_b, m.dim_c, rng, density)
                        for m in getattr(base, name))
            for name in ("hr", "hl", "tr", "tl", "om", "st")}
    return base.replace(sigma=_lin(field, z.z0.dim, v.dim1, rng, density), **fams)


def _random_ctx(kind, field, shape, rng, density):
    n1, n0, m1, m0 = shape
    z = ZinbielTwoAlgebra(
        ZinbielAlgebra(field, n1, _bil(field, n1, n1, n1, rng, density)),
        ZinbielAlgebra(field, n0, _bil(field, n0, n0, n0, rng, density)),
        _lin(field, n0, n1, rng, density),
        BimodulePair(_bil(field, n0, n1, n1, rng, density),
                     _bil(field, n1, n0, n1, rng, density)))
    v = TwoVectorSpace(m1, m0, _lin(field, m0, m1, rng, density))
    if kind != "H":
        return DatumCtx(_datum(field, z, v, rng, density))
    rs = RSData(_lin(field, n1, m1, rng, density), _lin(field, n0, m0, rng, density),
                _lin(field, m1, m1, rng, density), _lin(field, m0, m0, rng, density))
    return MorphismCtx(_datum(field, z, v, rng, density), _datum(field, z, v, rng, density), rs)


def _view(report):
    return ([(v.cond, v.witness, v.lhs, v.rhs) for v in report.violations],
            [(f.cond, f.as_printed_disagrees) for f in report.flags],
            report.truncated, report.conforming_field)


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.name)
@pytest.mark.parametrize("kind", TABLES)
def test_substitution_matches_interpreted_loop(kind, field):
    rng = random.Random(f"{kind}-{field.name}")
    table = TABLES[kind]
    seen_clean = seen_truncated = False
    for shape in (ZZ_SHAPES if kind == "ZZ" else SHAPES):
        for density in (0.0, 0.15, 0.5, 1.0):
            ctx = _random_ctx(kind, field, shape, rng, density)
            for cap in (1, 3, 100):
                for strict in (False, True):
                    got = evaluate_conditions(ctx, table, cap=cap, strict_printed=strict)
                    want = interpreted_report(ctx, table, cap=cap, strict_printed=strict)
                    assert _view(got) == _view(want), (shape, density, cap, strict)
                    seen_clean |= got.ok
                    seen_truncated |= got.truncated
    assert seen_clean and seen_truncated


def test_printed_form_disagreement_matches_interpreted_loop():
    # ZZ19 as printed drops tl3(u1, hl0 + hr0): with hl0 = st3 and tl3
    # nonzero the corrected form holds and the printed one fails, so
    # strict_printed adds the printed instance, as the interpreted loop does
    f5 = PrimeField(5)
    z = ZinbielTwoAlgebra.shell(ZinbielAlgebra.zero(f5, 1))
    base = ExtendingDatum.trivial(z, TwoVectorSpace(1, 1, LinMap.zero(f5, 1, 1)))
    found = False
    for hl0, tl3, st3 in itertools.product(range(5), range(1, 5), range(5)):
        d = base.replace(hl=(BilMap(f5, 1, 1, 1, {(0, 0, 0): hl0}),) + base.hl[1:],
                      tl=base.tl[:3] + (BilMap(f5, 1, 1, 1, {(0, 0, 0): tl3}),),
                      st=base.st[:3] + (BilMap(f5, 1, 1, 1, {(0, 0, 0): st3}),))
        for cap in (1, 3, 100):
            got = evaluate_conditions(DatumCtx(d), ZZ_TABLE, cap=cap, strict_printed=True)
            assert _view(got) == _view(interpreted_report(DatumCtx(d), ZZ_TABLE, cap=cap,
                                                          strict_printed=True))
            found |= any(v.cond == "ZZ19.as-printed" for v in got.violations)
    assert found


def _one_condition_table(spaces, fn):
    table = ConditionTable("X")
    table.add("X1", spaces, fn)
    return table


def test_mis_spaced_lambda_raises_dim_error():
    ctx = _random_ctx("Z", PrimeField(5), (1, 1, 1, 1), random.Random(1), 0.5)
    slips = (
        # hr0 takes (V0, Z0); the arguments are swapped
        _one_condition_table("Z0 V0", lambda c, x, u: (c.hr(0, x, u), c.hl(0, x, u))),
        # the sides live in Z0 and V0
        _one_condition_table("Z0 V0", lambda c, x, u: (c.hl(0, x, u), c.tr(0, x, u))),
        # adding a Z0 and a V0 element
        _one_condition_table("Z0 V0", lambda c, x, u: (x + u, x)),
    )
    for table in slips:
        for cap in (1, 100):
            with pytest.raises(DimError):
                evaluate_conditions(ctx, table, cap=cap)


def test_wrong_map_shape_raises_dim_error():
    # r1 must be V1 -> Z1; a 2x1 r1 over dims Z1 = 1 is refused, not read
    rng = random.Random(2)
    ctx = _random_ctx("H", PrimeField(5), (1, 1, 1, 1), rng, 0.5)
    rs = RSData(_lin(PrimeField(5), 2, 1, rng, 0.5), *ctx.rs[1:])
    with pytest.raises(DimError):
        check_rs_conditions(rs, ctx.datum, ctx.datum_p)


def test_symbolic_run_once_per_shape(monkeypatch):
    runs = []
    real = engine._symbolic_run

    def counting(ctx, table):
        runs.append(ctx.shape())
        return real(ctx, table)

    monkeypatch.setattr(engine, "_symbolic_run", counting)
    table = ConditionTable("Z")
    table.conds = list(Z_TABLE.conds)
    rng = random.Random(3)
    f5, f7 = PrimeField(5), PrimeField(7)
    for field in (f5, f7, Rationals()):
        for density in (0.2, 1.0):     # a different Z each time
            evaluate_conditions(_random_ctx("Z", field, (1, 1, 1, 1), rng, density), table)
    assert len(runs) == 1
    evaluate_conditions(_random_ctx("Z", f5, (1, 1, 0, 1), rng, 0.5), table)
    evaluate_conditions(_random_ctx("Z", f5, (1, 1, 0, 1), rng, 0.5), table)
    assert len(runs) == 2
    # the morphism context is another kind at the same dims
    evaluate_conditions(_random_ctx("H", f5, (1, 1, 1, 1), rng, 0.5), table)
    assert len(runs) == 3 and len(set(runs)) == 3


def test_import_builds_nothing():
    src = str(Path(engine.__file__).resolve().parents[1])
    code = ("import zinbiel2, zinbiel2.cli\n"
            "from zinbiel2 import conds_morphism, conds_special, conds_unified\n"
            "tables = (conds_unified.Z_TABLE, conds_unified.ZZ_TABLE, conds_special.CZ_TABLE,"
            " conds_special.BZ_TABLE, conds_morphism.H_TABLE)\n"
            "assert not any(t._runs for t in tables)\n")
    env = dict(os.environ, PYTHONPATH=src)
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


def test_numeric_contexts_build_no_map_table(monkeypatch):
    # evaluate_conditions reads a numeric context's values() and its shape
    # alone: the key -> map table is built only when an accessor reads it,
    # here the interpreted reference's lambdas, and the two reports agree
    built = []
    for cls in (DatumCtx, MorphismCtx):
        monkeypatch.setattr(cls, "_maps", lambda self, real=cls._maps: built.append(self)
                            or real(self))
    rng = random.Random(27)
    for kind, table in TABLES.items():
        for field in FIELDS:
            shape = ZZ_SHAPES[0] if kind == "ZZ" else SHAPES[0]
            ctx = _random_ctx(kind, field, shape, rng, 0.5)
            got = evaluate_conditions(ctx, table, cap=3)
            assert built == [], kind
            assert _view(got) == _view(interpreted_report(ctx, table, cap=3)), kind
            assert built == [ctx] and "maps" in vars(ctx), kind
            built.clear()


def test_morphism_context_lays_out_both_data_in_full():
    # a morphism context's values are each datum's as its own context lays
    # them out, Z and d included, then the block maps r1, r0, s1, s0
    f5, rng = PrimeField(5), random.Random(30)
    z_id = load_document(Path(__file__).parents[1] / "data" / "z_z_id.json")[1]
    z_rand = _random_ctx("Z", f5, (2, 1, 1, 1), rng, 0.5).datum.z
    assert map_items(two_algebra_maps(z_rand))
    for z in (z_id, z_rand):
        n1, n0 = z.z1.dim, z.z0.dim
        for m1, m0 in ((1, 1), (1, 0), (2, 1)):
            v = TwoVectorSpace(m1, m0, _lin(f5, m0, m1, rng, 0.5))
            d1, d2 = (_datum(f5, z, v, rng, 0.5) for _ in range(2))
            rs = RSData(_lin(f5, n1, m1, rng, 0.5), _lin(f5, n0, m0, rng, 0.5),
                        _lin(f5, m1, m1, rng, 0.5), _lin(f5, m0, m0, rng, 0.5))
            want = (DatumCtx(d1).values() + DatumCtx(d2).values()
                    + map_values([rs.r1, rs.r0, rs.s1, rs.s0], 0))
            assert MorphismCtx(d1, d2, rs).values() == want, (n1, n0, m1, m0)
