"""Exact scalar arithmetic over Q and GF(p).

Rational scalars are `fractions.Fraction` (always reduced); GF(p) scalars are
plain ints in canonical residue form 0..p-1.  All operations go through a
field object so the rest of the library is field-generic.

GF(2) and GF(3) are refused unless explicitly overridden, and fields built
with the override mark every downstream report as non-conforming.

PolynomialRing is not a field: it gives the constructors and the checks the
ring operations they use, so that a check can run on structure constants
that are polynomials over GF(p) (see classify.EnumerationSpec.checks), or
over the integers (see engine: the catalogs run once over Z[x]).
"""

from __future__ import annotations

from fractions import Fraction

from .errors import DivisionByZero


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


class Rationals:
    """The field Q with Fraction scalars."""

    name = "q"
    char = 0
    conforming = True

    def zero(self):
        return Fraction(0)

    def one(self):
        return Fraction(1)

    def of_int(self, n):
        return Fraction(n)

    def canonical(self, a):
        """a as a Fraction; TypeError unless a is an int or a Fraction."""
        if type(a) is Fraction:
            return a
        if type(a) is int:
            return Fraction(a)
        raise TypeError(f"Q scalar must be an int or a Fraction, got {type(a).__name__}")

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def neg(self, a):
        return -a

    def mul(self, a, b):
        return a * b

    def inv(self, a):
        if a == 0:
            raise DivisionByZero("cannot invert 0 in Q")
        return 1 / Fraction(a)

    def parse(self, s):
        try:
            return Fraction(s)
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"not a rational scalar: {s!r}") from exc

    def fmt(self, a):
        return str(a)

    def __eq__(self, other):
        return isinstance(other, Rationals)

    def __hash__(self):
        return hash("q")

    def __repr__(self):
        return "Rationals()"


class PrimeField:
    """GF(p) with int scalars in 0..p-1."""

    def __init__(self, p: int, allow_small_char: bool = False):
        if not _is_prime(p):
            raise ValueError(f"{p} is not prime")
        if p in (2, 3) and not allow_small_char:
            raise ValueError(
                f"GF({p}) has characteristic {p}; pass allow_small_char=True to "
                "proceed (reports will be marked non-conforming-characteristic)"
            )
        self.p = p
        self.name = f"gf{p}"
        self.char = p
        self.conforming = p not in (2, 3)

    def zero(self):
        return 0

    def one(self):
        return 1

    def of_int(self, n):
        return n % self.p

    def canonical(self, a):
        """a as a residue in 0..p-1; TypeError unless a is an int."""
        if type(a) is not int:
            raise TypeError(f"GF({self.p}) scalar must be an int, got {type(a).__name__}")
        return a % self.p

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def inv(self, a):
        a %= self.p
        if a == 0:
            raise DivisionByZero(f"cannot invert 0 in GF({self.p})")
        return pow(a, self.p - 2, self.p)

    def parse(self, s):
        try:
            n = int(s)
        except ValueError as exc:
            raise ValueError(f"not a GF({self.p}) scalar: {s!r}") from exc
        return n % self.p

    def fmt(self, a):
        return str(a % self.p)

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("gf", self.p))

    def __repr__(self):
        return f"PrimeField({self.p})"


class PolynomialRing:
    """GF(p)[x0, x1, ...], or Z[x0, x1, ...] when no field is given: enough
    ring arithmetic to run the checks symbolically.

    A polynomial is a plain tuple of (monomial, coefficient) pairs sorted by
    monomial, where a monomial is the sorted tuple of its variable indices
    (x0*x2*x2 is (0, 2, 2)) and every coefficient is a nonzero residue, or a
    nonzero int over Z; the zero polynomial is ().  The form is canonical,
    so == is equality of polynomials.
    """

    def __init__(self, field: PrimeField | None = None):
        self.p = None if field is None else field.p
        self.name = "z[x]" if field is None else f"{field.name}[x]"
        self.char = 0 if field is None else field.p
        self.conforming = True if field is None else field.conforming

    def _collect(self, terms):
        acc = {}
        p = self.p
        if p is None:
            for mono, c in terms:
                acc[mono] = acc.get(mono, 0) + c
        else:
            for mono, c in terms:
                acc[mono] = (acc.get(mono, 0) + c) % p
        return tuple(sorted((m, c) for m, c in acc.items() if c))

    def zero(self):
        return ()

    def one(self):
        return (((), 1),)

    def var(self, i):
        return (((i,), 1),)

    def canonical(self, a):
        """a as a polynomial; an int becomes a constant.  TypeError otherwise."""
        if type(a) is int:
            return self._collect((((), a),))
        if type(a) is tuple:
            return self._collect(a)
        raise TypeError(f"{self.name} element must be an int or a polynomial tuple, "
                        f"got {type(a).__name__}")

    def add(self, a, b):
        if not a:
            return b
        return self._collect(a + b) if b else a

    def neg(self, a):
        if self.p is None:
            return tuple((m, -c) for m, c in a)
        return tuple((m, self.p - c) for m, c in a)

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def mul(self, a, b):
        if len(b) == 1:
            a, b = b, a
        if len(a) == 1:     # a term times b: the products stay distinct and nonzero
            (ma, ca), = a
            p = self.p
            return tuple(sorted((tuple(sorted(ma + mb)), ca * cb if p is None else ca * cb % p)
                                for mb, cb in b))
        return self._collect((tuple(sorted(ma + mb)), ca * cb)
                             for ma, ca in a for mb, cb in b)

    def __eq__(self, other):
        return isinstance(other, PolynomialRing) and other.p == self.p

    def __hash__(self):
        return hash(("gf[x]", self.p))

    def __repr__(self):
        return "PolynomialRing()" if self.p is None else f"PolynomialRing(PrimeField({self.p}))"


def field_from_name(name: str, allow_small_char: bool = False):
    """Parse "q" or "gf<p>" into a field object."""
    name = name.strip().lower()
    if name == "q":
        return Rationals()
    if name.startswith("gf"):
        try:
            p = int(name[2:])
        except ValueError as exc:
            raise ValueError(f"bad field name {name!r}; expected q or gf<p>") from exc
        return PrimeField(p, allow_small_char=allow_small_char)
    raise ValueError(f"bad field name {name!r}; expected q or gf<p>")
