import json
import random
from fractions import Fraction

import pytest

from helpers import rand_sparse_datum, zero_two_algebra
from zinbiel2.core import ZinbielAlgebra, ZinbielTwoAlgebra
from zinbiel2.errors import SchemaError
from zinbiel2.fields import PrimeField, Rationals
from zinbiel2.io import (bilmap_to_json, canonical_dumps, datum_to_json,
                         linmap_to_json, load_document, parse_bilmap, parse_datum,
                         parse_linmap, parse_two_algebra, two_algebra_to_json)
from zinbiel2.linalg import BilMap, LinMap, TwoVectorSpace

F5 = PrimeField(5)
Q = Rationals()


def test_scalar_strings():
    assert Q.fmt(Fraction(3, 4)) == "3/4"
    assert Q.fmt(Fraction(2)) == "2"
    assert F5.fmt(3) == "3"


def test_linmap_roundtrip():
    m = LinMap(Q, 2, 3, [[Fraction(1, 2), Fraction(0), Fraction(-3)],
                         [Fraction(0), Fraction(5), Fraction(0)]])
    doc = linmap_to_json(m)
    assert doc["entries"] == [[0, 0, "1/2"], [0, 2, "-3"], [1, 1, "5"]]
    assert parse_linmap(Q, doc, "$", None) == m


def test_bilmap_roundtrip_and_determinism():
    rng = random.Random(8)
    for _ in range(30):
        coeffs = {(rng.randrange(2), rng.randrange(3), rng.randrange(2)):
                  rng.randrange(1, 5) for _ in range(rng.randrange(5))}
        b = BilMap(F5, 3, 2, 2, coeffs)
        doc = bilmap_to_json(b)
        assert parse_bilmap(F5, doc, "$", None) == b
        assert canonical_dumps(doc) == canonical_dumps(bilmap_to_json(b))
        # sorted key order
        keys = [tuple(e[:3]) for e in doc["coeffs"]]
        assert keys == sorted(keys)


def test_two_algebra_roundtrip():
    alg = ZinbielAlgebra(F5, 2, BilMap(F5, 2, 2, 2, {(1, 0, 0): 1}))
    t = ZinbielTwoAlgebra.cone(alg)
    doc = two_algebra_to_json(t)
    assert doc["kind"] == "zinbiel_2_algebra" and doc["field"] == "gf5"
    assert parse_two_algebra(F5, doc, "$", None) == t


def test_datum_roundtrip():
    rng = random.Random(9)
    z = zero_two_algebra(F5, 1, 1, LinMap(F5, 1, 1, [[2]]))
    v = TwoVectorSpace(1, 1, LinMap(F5, 1, 1, [[3]]))
    d = rand_sparse_datum(z, v, rng, 0.6)
    doc = datum_to_json(d)
    assert parse_datum(F5, doc, "$", None) == d
    # identical data serialize byte-identically
    assert canonical_dumps(doc) == canonical_dumps(datum_to_json(d))


def test_equal_tensors_serialize_identically():
    b1 = BilMap(F5, 2, 2, 2, {(1, 0, 0): 2, (0, 1, 1): 3})
    b2 = BilMap(F5, 2, 2, 2, {(0, 1, 1): 3, (1, 0, 0): 2, (1, 1, 0): 0})
    assert canonical_dumps(bilmap_to_json(b1)) == canonical_dumps(bilmap_to_json(b2))


def test_schema_error_paths():
    with pytest.raises(SchemaError) as err:
        parse_linmap(F5, {"rows": 1, "cols": 1, "entries": [[0, 5, "1"]]},
                     "$.phi", "f.json")
    assert "$.phi.entries[0]" in str(err.value) and "f.json" in str(err.value)
    with pytest.raises(SchemaError) as err:
        parse_bilmap(F5, {"dimA": 1, "dimB": 1, "dimC": 1,
                          "coeffs": [[0, 0, 0, 7]]}, "$", "g.json")
    assert "coeffs[0]" in str(err.value)
    with pytest.raises(SchemaError) as err:
        parse_bilmap(Q, {"dimA": 1, "dimB": 1, "dimC": 1,
                         "coeffs": [[0, 0, 0, "x"]]}, "$", None)
    assert "coeffs[0]" in str(err.value)


def test_schema_error_missing_key():
    with pytest.raises(SchemaError) as err:
        parse_linmap(F5, {"rows": 1, "entries": []}, "$", "h.json")
    assert "cols" in str(err.value)


DIMS2 = {"dimA": 2, "dimB": 2, "dimC": 2}


@pytest.mark.parametrize("parse, obj, where", [
    (parse_linmap, {"rows": 2, "cols": 1, "entries": [[True, 0, "3"]]}, "$.m.entries[0]"),
    (parse_linmap, {"rows": 2, "cols": 1, "entries": [[1, 0, "3"], [1, 0, "2"]]},
     "$.m.entries[1]"),
    (parse_bilmap, {**DIMS2, "coeffs": [[True, False, 1, "1"]]}, "$.m.coeffs[0]"),
    (parse_bilmap, {**DIMS2, "coeffs": [[0, 1, 1, "1"], [1, 0, 0, "1"], [0, 1, 1, "2"]]},
     "$.m.coeffs[2]"),
])
def test_boolean_and_duplicate_indices_are_refused(parse, obj, where):
    with pytest.raises(SchemaError) as err:
        parse(F5, obj, "$.m", "f.json")
    assert f"f.json: {where}:" in str(err.value)


def test_boolean_index_in_a_document_is_a_schema_error(tmp_path):
    path = tmp_path / "alg.json"
    path.write_text(json.dumps({"kind": "zinbiel_algebra", "field": "gf5", "dim": 2,
                                "mult": {**DIMS2, "coeffs": [[True, False, 1, "1"]]}}))
    with pytest.raises(SchemaError) as err:
        load_document(str(path))
    assert "$.mult.coeffs[0]" in str(err.value)


def _rs_document():
    with open("data/rs_sigma_shift.json", encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("edit, where, message", [
    # a key no parser reads, at the top, inside a nested datum and inside a map
    (lambda doc: doc.update(note="x"), "$.note", "unknown key 'note'"),
    (lambda doc: doc["datum_prime"].update({"omega-0": doc["datum_prime"]["omega_0"]}),
     "$.datum_prime.omega-0", "unknown key 'omega-0'"),
    (lambda doc: doc["r1"].update(entry=[]), "$.r1.entry", "unknown key 'entry'"),
], ids=["top", "nested datum", "map"])
def test_loader_refuses_a_key_its_parser_does_not_read(tmp_path, edit, where, message):
    doc = _rs_document()
    edit(doc)
    path = tmp_path / "rs.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(SchemaError) as err:
        load_document(str(path))
    assert f"rs.json: {where}: {message}" in str(err.value)


def test_loader_refuses_a_repeated_key_before_parsing(tmp_path):
    # the first repeat in document order, named by its path, even where the
    # last value alone (a 2x1 d) would fail to parse
    text = json.dumps(_rs_document())
    text = text.replace('"dim1": 1', '"dim1": 1, "dim1": 2', 2)
    path = tmp_path / "rs.json"
    path.write_text(text)
    with pytest.raises(SchemaError) as err:
        load_document(str(path))
    assert "rs.json: $.datum.v.dim1: duplicate key 'dim1'" in str(err.value)


def test_a_field_override_reads_the_documents_field(tmp_path):
    path = tmp_path / "alg.json"
    path.write_text(json.dumps({"kind": "zinbiel_algebra", "field": "gf5", "dim": 1,
                                "mult": {"dimA": 1, "dimB": 1, "dimC": 1, "coeffs": []}}))
    _, alg, field = load_document(str(path), field_override=PrimeField(7))
    assert field == alg.field == PrimeField(7)
