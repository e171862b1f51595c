"""The frozen value classes pickle (a process pool sends them to workers)
and come back equal, with their derived state intact."""

import pickle
import random

from helpers import (rand_ambient_with_subalgebra, rand_invertible,
                     rand_valid_datum_1111, zero_two_algebra)
from zinbiel2.classify import RSData
from zinbiel2.core import TwoMorphism
from zinbiel2.fields import PrimeField
from zinbiel2.special import CrossedSystem, MatchedPairDatum
from zinbiel2.unified import build_unified_product

F5 = PrimeField(5)


def round_trip(value):
    copy = pickle.loads(pickle.dumps(value))
    assert type(copy) is type(value)
    assert copy == value and hash(copy) == hash(value)
    return copy


def test_value_classes_pickle_round_trip():
    rng = random.Random(11)
    datum = rand_valid_datum_1111(F5, rng)
    z, v = datum.z, datum.v
    for value in (z, z.z0, z.act, v, datum.sigma):
        round_trip(value)
    for bil in datum.hr + datum.hl + datum.tr + datum.tl + datum.om + datum.st:
        copy = round_trip(bil)
        assert all(copy.eval_bb(i, j) == bil.eval_bb(i, j)
                   for i in range(bil.dim_a) for j in range(bil.dim_b))
    assert build_unified_product(round_trip(datum)) == build_unified_product(datum)
    trivial = datum.replace(tr=datum.trivial(z, v).tr, tl=datum.trivial(z, v).tl)
    round_trip(CrossedSystem(trivial))
    vv = zero_two_algebra(F5, v.dim1, v.dim0, v.d)
    round_trip(MatchedPairDatum(z, vv, datum.hr, datum.hl, datum.tr, datum.tl))
    round_trip(RSData.identity(F5, datum))
    round_trip(RSData(datum.sigma, datum.sigma, rand_invertible(F5, 1, rng),
                      rand_invertible(F5, 1, rng)))
    _, split = rand_ambient_with_subalgebra(F5, rng)
    copy = round_trip(split)
    assert copy.vbasis1 == split.vbasis1 and copy.vbasis0 == split.vbasis0
    round_trip(TwoMorphism(split.iota1, split.iota0))
