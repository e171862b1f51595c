"""Exact vectors, linear maps, and sparse bilinear maps (structure tensors).

Vectors are plain tuples of field scalars.  LinMap is a dense matrix; BilMap
is a sparse order-3 tensor c[k][i][j] holding the structure constants of a
bilinear map A x B -> C, stored with canonical lexicographic (k, i, j) key
order so that equal tensors are identical objects under == and serialize
byte-identically.  The value classes are frozen dataclasses whose
constructors reduce every scalar to its canonical form.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass, field as dc_field

from .errors import DimError, FieldMismatch


def vzero(field, n):
    z = field.zero()
    return (z,) * n


def vbasis(field, n, i):
    z, o = field.zero(), field.one()
    return tuple(o if j == i else z for j in range(n))


def vadd(field, a, b):
    if len(a) != len(b):
        raise DimError(f"vector lengths differ: {len(a)} vs {len(b)}")
    add = field.add
    return tuple(add(x, y) for x, y in zip(a, b))


def vscale(field, c, a):
    mul = field.mul
    return tuple(mul(c, x) for x in a)


@dataclass(frozen=True, slots=True)
class LinMap:
    """Dense cod_dim x dom_dim matrix over an exact field."""

    field: object
    rows: int
    cols: int
    entries: tuple

    def __post_init__(self):
        rows, cols = self.rows, self.cols
        if rows < 0 or cols < 0:
            raise DimError("negative dimension")
        canonical = self.field.canonical
        entries = tuple([tuple(map(canonical, r)) for r in self.entries])
        if len(entries) != rows or any(len(r) != cols for r in entries):
            raise DimError(f"entries are not a {rows}x{cols} matrix")
        object.__setattr__(self, "entries", entries)

    @classmethod
    def zero(cls, field, rows, cols):
        z = field.zero()
        return cls(field, rows, cols, [[z] * cols for _ in range(rows)])

    @classmethod
    def identity(cls, field, n):
        z, o = field.zero(), field.one()
        return cls(field, n, n, [[o if i == j else z for j in range(n)] for i in range(n)])

    @classmethod
    def from_columns(cls, field, cols_list, rows):
        """Build from a list of column vectors (no columns: a rows x 0 map)."""
        cols = len(cols_list)
        for c in cols_list:
            if len(c) != rows:
                raise DimError("column length mismatch")
        return cls(field, rows, cols, [[cols_list[j][i] for j in range(cols)] for i in range(rows)])

    def column(self, j):
        return tuple(self.entries[i][j] for i in range(self.rows))

    def apply(self, v):
        if len(v) != self.cols:
            raise DimError(f"LinMap domain dim {self.cols}, got vector of length {len(v)}")
        f = self.field
        add, mul, z = f.add, f.mul, f.zero()
        out = []
        for row in self.entries:
            acc = z
            for a, x in zip(row, v):
                if a != z and x != z:
                    acc = add(acc, mul(a, x))
            out.append(acc)
        return tuple(out)

    def compose(self, other):
        """self o other (apply other first)."""
        if self.field != other.field:
            raise FieldMismatch("composing maps over different fields")
        if self.cols != other.rows:
            raise DimError(f"cannot compose {self.rows}x{self.cols} after {other.rows}x{other.cols}")
        cols = [self.apply(other.column(j)) for j in range(other.cols)]
        return LinMap.from_columns(self.field, cols, self.rows)

    def is_zero(self):
        z = self.field.zero()
        return all(a == z for row in self.entries for a in row)

    def __repr__(self):
        return f"LinMap({self.field.name}, {self.rows}x{self.cols})"


def upper_block(a: LinMap, b: LinMap, c: LinMap) -> LinMap:
    """The block matrix [[a, b], [0, c]]: (x, u) -> (a x + b u, c u)."""
    if a.rows != b.rows or b.cols != c.cols:
        raise DimError("blocks of [[a, b], [0, c]] do not fit together")
    zero_row = (a.field.zero(),) * a.cols
    rows = [ra + rb for ra, rb in zip(a.entries, b.entries)]
    rows += [zero_row + rc for rc in c.entries]
    return LinMap(a.field, a.rows + c.rows, a.cols + c.cols, rows)


@dataclass(frozen=True, slots=True)
class BilMap:
    """Sparse structure-constant tensor of a bilinear map A x B -> C.

    coeffs maps (k, i, j) -> scalar with eval(e_i, e_j)_k = coeffs[k, i, j]
    (a dict or an iterable of such pairs); it is stored as `items`, the
    nonzero (k, i, j, scalar) entries in sorted order.
    """

    field: object
    dim_a: int
    dim_b: int
    dim_c: int
    coeffs: InitVar[object]
    items: tuple = dc_field(init=False)
    _by_ij: dict = dc_field(init=False, repr=False, compare=False)

    def __post_init__(self, coeffs):
        dim_a, dim_b, dim_c = self.dim_a, self.dim_b, self.dim_c
        if dim_a < 0 or dim_b < 0 or dim_c < 0:
            raise DimError("negative dimension")
        canonical, z = self.field.canonical, self.field.zero()
        cleaned = {}
        for (k, i, j), val in (coeffs.items() if isinstance(coeffs, dict) else coeffs):
            if not (0 <= k < dim_c and 0 <= i < dim_a and 0 <= j < dim_b):
                raise DimError(f"coefficient index {(k, i, j)} out of range for "
                               f"{dim_a}x{dim_b}->{dim_c}")
            val = canonical(val)
            if val != z:
                cleaned[(k, i, j)] = val
        items = tuple([(k, i, j, v) for (k, i, j), v in sorted(cleaned.items())])
        by_ij = {}      # (i, j) -> [(k, scalar), ...], read by eval and eval_bb
        for k, i, j, v in items:
            by_ij.setdefault((i, j), []).append((k, v))
        object.__setattr__(self, "items", items)
        object.__setattr__(self, "_by_ij", by_ij)

    @classmethod
    def zero(cls, field, dim_a, dim_b, dim_c):
        return cls(field, dim_a, dim_b, dim_c, {})

    @classmethod
    def from_basis_function(cls, field, dim_a, dim_b, dim_c, fn):
        """fn(i, j) returns the image vector of (e_i, e_j)."""
        coeffs = {}
        z = field.zero()
        for i in range(dim_a):
            for j in range(dim_b):
                vec = fn(i, j)
                if len(vec) != dim_c:
                    raise DimError("basis image has wrong length")
                for k, val in enumerate(vec):
                    if val != z:
                        coeffs[(k, i, j)] = val
        return cls(field, dim_a, dim_b, dim_c, coeffs)

    def eval_bb(self, i, j):
        """Image of the basis pair (e_i, e_j)."""
        out = [self.field.zero()] * self.dim_c
        for k, v in self._by_ij.get((i, j), ()):
            out[k] = v
        return tuple(out)

    def eval(self, a, b):
        if len(a) != self.dim_a or len(b) != self.dim_b:
            raise DimError(f"BilMap expects ({self.dim_a},{self.dim_b}), got "
                           f"({len(a)},{len(b)})")
        f = self.field
        z, add, mul = f.zero(), f.add, f.mul
        out = [z] * self.dim_c
        by_ij = self._by_ij
        for i, ai in enumerate(a):
            if ai == z:
                continue
            for j, bj in enumerate(b):
                if bj == z:
                    continue
                pairs = by_ij.get((i, j))
                if not pairs:
                    continue
                s = mul(ai, bj)
                for k, v in pairs:
                    out[k] = add(out[k], mul(v, s))
        return tuple(out)

    def is_zero(self):
        return not self.items

    def __repr__(self):
        return (f"BilMap({self.field.name}, {self.dim_a}x{self.dim_b}->{self.dim_c}, "
                f"{len(self.items)} entries)")


@dataclass(frozen=True, slots=True)
class TwoVectorSpace:
    """A pair of spaces with a connecting linear map d: dim1 -> dim0."""

    dim1: int
    dim0: int
    d: LinMap

    def __post_init__(self):
        if self.d.cols != self.dim1 or self.d.rows != self.dim0:
            raise DimError(f"d must be {self.dim0}x{self.dim1}, got {self.d.rows}x{self.d.cols}")


# Gaussian elimination utilities (exact, desk scale).

def rref(field, rows):
    """Reduced row-echelon form; returns (rows, pivot column list)."""
    rows = [list(r) for r in rows]
    if not rows:
        return [], []
    ncols = len(rows[0])
    z = field.zero()
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = None
        for i in range(r, len(rows)):
            if rows[i][c] != z:
                pivot = i
                break
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = field.inv(rows[r][c])
        rows[r] = [field.mul(inv, x) for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != z:
                factor = rows[i][c]
                rows[i] = [field.sub(x, field.mul(factor, y)) for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return [tuple(row) for row in rows], pivots


def inverse(m: LinMap):
    """Exact inverse of a square LinMap; returns None if singular."""
    if m.rows != m.cols:
        return None
    n = m.rows
    f = m.field
    ident = LinMap.identity(f, n).entries
    aug = [list(m.entries[i]) + list(ident[i]) for i in range(n)]
    red, pivots = rref(f, aug)
    if pivots != list(range(n)):
        return None
    return LinMap(f, n, n, [row[n:] for row in red])


def kernel_basis(m: LinMap):
    """Basis of ker(m) as a list of domain vectors, in deterministic order."""
    f = m.field
    red, pivots = rref(f, m.entries)
    pivot_set = set(pivots)
    free = [c for c in range(m.cols) if c not in pivot_set]
    basis = []
    z, o = f.zero(), f.one()
    for fc in free:
        vec = [z] * m.cols
        vec[fc] = o
        for r, pc in enumerate(pivots):
            if r < len(red):
                vec[pc] = f.neg(red[r][fc])
        basis.append(tuple(vec))
    return basis
