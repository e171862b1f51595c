"""Canonical JSON encodings for every value kind, and schema-checked parsing.

Encoders are deterministic: tensor coefficient lists are emitted in sorted
key order and canonical_dumps uses sorted keys with fixed separators, so
equal values serialize byte-identically.  Parsers validate shape and types
and raise SchemaError carrying a JSON-path location.  load_document also
refuses a key that its object repeats, and one that the parser of its
object does not read: a misspelled optional map is not silently zero.

These encoders are the only statement of the layout.  The canonical
serializations that order a quotient's data (classify.OrbitPartition.items)
are spliced from each datum's structure constants into a skeleton that
classify._skeleton reads off datum_to_json and canonical_dumps, once per
field and shape, and they are byte-identical to what these produce.
"""

from __future__ import annotations

import json
from contextvars import ContextVar

from .core import (_FAMS, BimodulePair, ConditionReport, ZinbielAlgebra, ZinbielTwoAlgebra,
                   _datum_zeros)
from .errors import SchemaError, Zinbiel2Error
from .fields import field_from_name
from .linalg import BilMap, LinMap, TwoVectorSpace
from .unified import ComplementSplit, ExtendingDatum

_JSON_NAMES = {"hr": "harpoon_r", "hl": "harpoon_l", "tr": "tri_r",
               "tl": "tri_l", "om": "omega", "st": "star"}


def _map_keys(families):
    """(family, j, JSON key) for the four maps of each family, in order."""
    return [(fam, j, f"{_JSON_NAMES[fam]}_{j}") for fam in families for j in range(4)]


DATUM_FIELDS = tuple(key for _, _, key in _map_keys(_FAMS))


def canonical_dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def pretty_dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


# ---------------------------------------------------------------------------
# encoders
# ---------------------------------------------------------------------------

def linmap_to_json(m: LinMap):
    f = m.field
    z = f.zero()
    entries = [[r, c, f.fmt(val)]
               for r, row in enumerate(m.entries)
               for c, val in enumerate(row) if val != z]
    return {"rows": m.rows, "cols": m.cols, "entries": entries}


def bilmap_to_json(b: BilMap):
    f = b.field
    return {"dimA": b.dim_a, "dimB": b.dim_b, "dimC": b.dim_c,
            "coeffs": [[k, i, j, f.fmt(v)] for (k, i, j, v) in b.items]}


def algebra_to_json(a: ZinbielAlgebra):
    return {"dim": a.dim, "mult": bilmap_to_json(a.mult)}


def two_algebra_to_json(t: ZinbielTwoAlgebra, kind="zinbiel_2_algebra"):
    body = {"z1": algebra_to_json(t.z1), "z0": algebra_to_json(t.z0),
            "phi": linmap_to_json(t.phi),
            "act_left": bilmap_to_json(t.act.left),
            "act_right": bilmap_to_json(t.act.right)}
    if kind:
        body["kind"] = kind
        body["field"] = t.field.name
    return body


def datum_to_json(d: ExtendingDatum, kind="extending_datum"):
    body = {"z": two_algebra_to_json(d.z, kind=None),
            "v": {"dim1": d.v.dim1, "dim0": d.v.dim0, "d": linmap_to_json(d.v.d)},
            "sigma": linmap_to_json(d.sigma)}
    for fam, j, key in _map_keys(_FAMS):
        body[key] = bilmap_to_json(getattr(d, fam)[j])
    if kind:
        body["kind"] = kind
        body["field"] = d.field.name
    return body


def crossed_system_to_json(cs):
    body = datum_to_json(cs.datum, kind=None)
    for j in range(4):
        del body[f"tri_r_{j}"], body[f"tri_l_{j}"]
    body["kind"] = "crossed_system"
    body["field"] = cs.field.name
    return body


def matched_pair_to_json(mp):
    body = {"kind": "matched_pair", "field": mp.field.name,
            "z": two_algebra_to_json(mp.z, kind=None),
            "v": two_algebra_to_json(mp.v, kind=None)}
    for fam, j, key in _map_keys(_FAMS[:4]):
        body[key] = bilmap_to_json(getattr(mp, fam)[j])
    return body


def report_to_json(rep: ConditionReport):
    return {
        "ok": rep.ok,
        "conforming_field": rep.conforming_field,
        "truncated": rep.truncated,
        "violations": [{"id": v.cond, "witness": list(v.witness),
                        "lhs": list(map(str, v.lhs)), "rhs": list(map(str, v.rhs))}
                       for v in rep.violations],
        "flags": [{"id": fl.cond, "note": fl.note,
                   "as_printed_disagrees": fl.as_printed_disagrees}
                  for fl in rep.flags],
    }


# ---------------------------------------------------------------------------
# schema-checked parsing
# ---------------------------------------------------------------------------

# The keys that the parsers read (_want) while load_document parses, as (id
# of the object, key); None outside it.
_READS = ContextVar("_READS", default=None)


def _refuse_keys(value, path, filename, refused, what):
    """SchemaError at the first key, depth first in document order, of an
    object within value for which refused(object, key) holds.  A walk that
    builds every path: run it where some key is known to be refused."""
    if isinstance(value, dict):
        for key, item in value.items():
            if refused(value, key):
                raise SchemaError(f"{what} {key!r}", f"{path}.{key}", filename)
            _refuse_keys(item, f"{path}.{key}", filename, refused, what)
    elif isinstance(value, list):
        for i, item in enumerate(value):
            _refuse_keys(item, f"{path}[{i}]", filename, refused, what)


def _want(obj, key, kinds, path, filename):
    if not isinstance(obj, dict):
        raise SchemaError(f"expected an object, got {type(obj).__name__}", path, filename)
    if key not in obj:
        raise SchemaError(f"missing key {key!r}", path, filename)
    val = obj[key]
    reads = _READS.get()
    if reads is not None:
        reads.add((id(obj), key))
    if kinds is not None and not isinstance(val, kinds):
        raise SchemaError(
            f"expected {getattr(kinds, '__name__', kinds)}, got {type(val).__name__}",
            f"{path}.{key}", filename)
    return val


def _member(parse, field, obj, key, path, filename):
    """The value of the object at key, parsed by parse at its own path."""
    return parse(field, _want(obj, key, dict, path, filename), f"{path}.{key}", filename)


def _is_int(x):
    """JSON true/false load as bool, which Python counts as an int."""
    return isinstance(x, int) and not isinstance(x, bool)


def _nonneg_int(obj, key, path, filename):
    val = _want(obj, key, int, path, filename)
    if not _is_int(val) or val < 0:
        raise SchemaError("expected a non-negative integer", f"{path}.{key}", filename)
    return val


def _construct(path, filename, make, *args, **kwargs):
    """make(*args, **kwargs); a library error, which is how every constructor
    refuses bad input, becomes a SchemaError at path."""
    try:
        return make(*args, **kwargs)
    except Zinbiel2Error as exc:
        raise SchemaError(str(exc), path, filename) from None


def parse_scalar(field, s, path, filename):
    if not isinstance(s, str):
        raise SchemaError(f"scalar must be a string, got {type(s).__name__}", path, filename)
    try:
        return field.parse(s)
    except ValueError as exc:
        raise SchemaError(str(exc), path, filename) from None


def parse_linmap(field, obj, path, filename):
    rows = _nonneg_int(obj, "rows", path, filename)
    cols = _nonneg_int(obj, "cols", path, filename)
    entries = _want(obj, "entries", list, path, filename)
    z = field.zero()
    mat = [[z] * cols for _ in range(rows)]
    seen = set()
    for idx, ent in enumerate(entries):
        epath = f"{path}.entries[{idx}]"
        if not (isinstance(ent, list) and len(ent) == 3):
            raise SchemaError("entry must be [row, col, value]", epath, filename)
        r, c, val = ent
        if not (_is_int(r) and _is_int(c)):
            raise SchemaError("entry indices must be integers", epath, filename)
        if not (0 <= r < rows and 0 <= c < cols):
            raise SchemaError(f"index ({r},{c}) out of range for {rows}x{cols}",
                              epath, filename)
        if (r, c) in seen:
            raise SchemaError(f"duplicate entry ({r},{c})", epath, filename)
        seen.add((r, c))
        mat[r][c] = parse_scalar(field, val, epath, filename)
    return LinMap(field, rows, cols, mat)


def parse_bilmap(field, obj, path, filename):
    da = _nonneg_int(obj, "dimA", path, filename)
    db = _nonneg_int(obj, "dimB", path, filename)
    dc = _nonneg_int(obj, "dimC", path, filename)
    coeffs = _want(obj, "coeffs", list, path, filename)
    out = {}
    for idx, ent in enumerate(coeffs):
        epath = f"{path}.coeffs[{idx}]"
        if not (isinstance(ent, list) and len(ent) == 4):
            raise SchemaError("coefficient must be [k, i, j, value]", epath, filename)
        k, i, j, val = ent
        if not all(_is_int(x) for x in (k, i, j)):
            raise SchemaError("coefficient indices must be integers", epath, filename)
        if not (0 <= k < dc and 0 <= i < da and 0 <= j < db):
            raise SchemaError(f"index ({k},{i},{j}) out of range for "
                              f"{da}x{db}->{dc}", epath, filename)
        if (k, i, j) in out:
            raise SchemaError(f"duplicate coefficient ({k},{i},{j})", epath, filename)
        out[(k, i, j)] = parse_scalar(field, val, epath, filename)
    return BilMap(field, da, db, dc, out)


def parse_field(obj, path, filename, override=None, allow_small_char=False):
    if override is not None:
        return override
    name = _want(obj, "field", str, path, filename)
    try:
        return field_from_name(name, allow_small_char=allow_small_char)
    except ValueError as exc:
        raise SchemaError(str(exc), f"{path}.field", filename) from None


def parse_algebra(field, obj, path, filename):
    dim = _nonneg_int(obj, "dim", path, filename)
    mult = _member(parse_bilmap, field, obj, "mult", path, filename)
    return _construct(path, filename, ZinbielAlgebra, field, dim, mult)


def parse_two_algebra(field, obj, path, filename):
    z1, z0 = (_member(parse_algebra, field, obj, key, path, filename) for key in ("z1", "z0"))
    phi = _member(parse_linmap, field, obj, "phi", path, filename)
    left, right = (_member(parse_bilmap, field, obj, key, path, filename)
                   for key in ("act_left", "act_right"))
    return _construct(path, filename,
                      lambda: ZinbielTwoAlgebra(z1, z0, phi, BimodulePair(left, right)))


def parse_two_vector_space(field, obj, path, filename):
    dim1 = _nonneg_int(obj, "dim1", path, filename)
    dim0 = _nonneg_int(obj, "dim0", path, filename)
    d = _member(parse_linmap, field, obj, "d", path, filename)
    return _construct(path, filename, TwoVectorSpace, dim1, dim0, d)


def parse_datum(field, obj, path, filename, require=DATUM_FIELDS):
    z = _member(parse_two_algebra, field, obj, "z", path, filename)
    v = _member(parse_two_vector_space, field, obj, "v", path, filename)
    fams = {fam: [] for fam in _FAMS}
    zeros = _datum_zeros(field, (z.z1.dim, z.z0.dim, v.dim1, v.dim0))
    for fam, j, key in _map_keys(_FAMS):
        fams[fam].append(_member(parse_bilmap, field, obj, key, path, filename)
                         if key in require or key in obj else zeros[fam, j])
    sigma = _member(parse_linmap, field, obj, "sigma", path, filename)
    return _construct(path, filename, ExtendingDatum, z, v, **fams, sigma=sigma)


def parse_split(field, obj, path, filename):
    e = _member(parse_two_algebra, field, obj, "e", path, filename)
    maps = [_member(parse_linmap, field, obj, key, path, filename)
            for key in ("iota1", "iota0", "p1", "p0")]
    return _construct(path, filename, ComplementSplit, e, *maps)


def load_document(filename, expect_kind=None, field_override=None, allow_small_char=False):
    """Load any supported JSON kind from a file.

    Returns (kind, value, field).  SchemaError locations cite the file and
    the JSON path of the offending key, a repeated key or one that the
    parser of its object does not read included.
    """
    try:
        with open(filename, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise SchemaError(f"cannot read file: {exc}", "$", filename) from None
    objects, repeated = [], {}      # every object loaded; id -> the first key it repeats

    def plain(pairs):
        obj = dict(pairs)
        if len(obj) < len(pairs):
            keys = [key for key, _ in pairs]
            repeated[id(obj)] = next(key for i, key in enumerate(keys) if key in keys[:i])
        objects.append(obj)
        return obj

    try:
        obj = json.loads(text, object_pairs_hook=plain)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"invalid JSON: {exc.msg} (line {exc.lineno}, column {exc.colno})",
                          "$", filename) from None
    if repeated:
        _refuse_keys(obj, "$", filename, lambda o, key: key == repeated.get(id(o)),
                     "duplicate key")
    reads = set()
    token = _READS.set(reads)
    try:
        kind, val, field = _parse_document(obj, filename, expect_kind, field_override,
                                           allow_small_char)
    finally:
        _READS.reset(token)
    if "field" in obj:      # read, or superseded by an override
        reads.add((id(obj), "field"))
    if len(reads) < sum(map(len, objects)):     # each read is of a key the object has
        _refuse_keys(obj, "$", filename, lambda o, key: (id(o), key) not in reads,
                     "unknown key")
    return kind, val, field


def _parse_document(obj, filename, expect_kind, field_override, allow_small_char):
    """The (kind, value, field) of the loaded document obj."""
    kind = _want(obj, "kind", str, "$", filename)
    if expect_kind is not None and kind != expect_kind:
        raise SchemaError(f"expected kind {expect_kind!r}, got {kind!r}", "$.kind", filename)
    field = parse_field(obj, "$", filename, override=field_override,
                        allow_small_char=allow_small_char)
    if kind == "linmap":
        val = parse_linmap(field, obj, "$", filename)
    elif kind == "zinbiel_algebra":
        val = parse_algebra(field, obj, "$", filename)
    elif kind == "zinbiel_2_algebra":
        val = parse_two_algebra(field, obj, "$", filename)
    elif kind == "extending_datum":
        val = parse_datum(field, obj, "$", filename)
    elif kind == "crossed_system":
        from .special import CrossedSystem
        datum = parse_datum(field, obj, "$", filename, require=())
        val = _construct("$", filename, CrossedSystem, datum)
    elif kind == "matched_pair":
        val = _parse_matched_pair(field, obj, filename)
    elif kind == "complement_split":
        val = parse_split(field, obj, "$", filename)
    elif kind == "rs_morphism":
        val = _parse_rs_morphism(field, obj, filename)
    else:
        raise SchemaError(f"unknown kind {kind!r}", "$.kind", filename)
    return kind, val, field


def _parse_matched_pair(field, obj, filename):
    from .special import MatchedPairDatum
    z, v = (_member(parse_two_algebra, field, obj, key, "$", filename) for key in ("z", "v"))
    fams = {fam: [] for fam in _FAMS[:4]}
    for fam, _, key in _map_keys(_FAMS[:4]):
        fams[fam].append(_member(parse_bilmap, field, obj, key, "$", filename))
    return _construct("$", filename, MatchedPairDatum, z, v, **fams)


def _parse_rs_morphism(field, obj, filename):
    from .classify import RSData
    datum, datum_p = (_member(parse_datum, field, obj, key, "$", filename)
                      for key in ("datum", "datum_prime"))
    maps = [_member(parse_linmap, field, obj, key, "$", filename)
            for key in ("r1", "r0", "s1", "s0")]
    return (datum, datum_p, _construct("$", filename, RSData, *maps))
