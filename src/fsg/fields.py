"""Exact arithmetic in the finite fields GF(p) and GF(p^f).

A field of q = p^f elements is F_p[t] modulo a monic irreducible
polynomial of degree f.  The modulus is chosen deterministically as the
lexicographically smallest monic irreducible polynomial, coefficients
read low-to-high, so two calls to :func:`make_field` with the same
(p, f) agree in every detail.

An element is an int code, its index in :meth:`FieldSpec.elements`: the
f coefficients (low degree first) read as base-p digits, the constant one
most significant.  For f = 1 the code is the residue and arithmetic is
plain int arithmetic mod p.  For f > 1 the polynomial path decodes,
multiplies and reduces.  Enumerating marks a field for sweeping: the
first elements() call of a field with q <= 2^16 builds, for f > 1, exp,
log and Zech-logarithm tables (K. Huber, IEEE Trans. IT 36, 1990), then
interns all q elements.  From then on every extension-field operation is
a lookup and every result is one of the interned elements, so arithmetic
allocates nothing.  A field never enumerated never pays the O(q) build;
a larger field streams its elements and keeps none.

Fields and elements are immutable and can be shared between threads.
The lazy tables and the interned elements are each complete before one
attribute assignment publishes them, so a thread sees none (and takes
the polynomial path, or allocates, with the same answers) or all.
Threads that race the first elements() call build identical tables and
elements, and whichever assignment comes last stays.
A copy or pickle of a field carries only (p, f, modulus, q).
"""

from __future__ import annotations

import os
from array import array
from dataclasses import dataclass, field
from itertools import product as _cartesian
from math import isqrt
from operator import index, itemgetter, mul

from .errors import DomainMismatchError, ResourceLimitError, ValidationError

DEFAULT_MAX_FIELD_SIZE = 2 ** 20
TRIAL_DIVISION_BOUND = 10 ** 6


def smallest_divisor(n: int) -> int:
    """The smallest prime factor of n >= 2 by trial division, which stops
    at the fixed TRIAL_DIVISION_BOUND: that settles every n up to its
    square, and a larger n with no factor below it is refused."""
    for d in range(2, min(isqrt(n), TRIAL_DIVISION_BOUND) + 1):
        if n % d == 0:
            return d
    if n > TRIAL_DIVISION_BOUND ** 2:
        raise ResourceLimitError(
            f"a number above 10^12 with no factor up to the fixed trial-division "
            f"bound {TRIAL_DIVISION_BOUND} cannot be tested for primality")
    return n


def is_prime(n: int) -> bool:
    return n >= 2 and smallest_divisor(n) == n


def factorize(n: int) -> dict:
    """Prime factorization as an ordered dict prime -> exponent, by
    repeated smallest_divisor, so under its fixed bound."""
    out = {}
    while n > 1:
        d = smallest_divisor(n)
        out[d] = out.get(d, 0) + 1
        n //= d
    return out


def prime_factors(n: int) -> list[int]:
    """Distinct prime factors of n, ascending."""
    return list(factorize(n))


def prime_power(q):
    """(p, f) with q = p^f for a prime p, or None.

    Trial division stops at the smallest prime factor, so a q that is
    not a prime power costs no more than finding that factor.
    """
    if q < 2:
        return None
    p = smallest_divisor(q)
    f = 0
    while q % p == 0:
        q //= p
        f += 1
    return (p, f) if q == 1 else None


# ---------------------------------------------------------------------------
# Polynomial helpers over F_p.  A polynomial is a sequence of residues, low
# degree first.


def _poly_mod(a, b, p):
    """Remainder of a by the monic polynomial b over F_p: len(b) - 1
    residues, low degree first, when a is at least that long."""
    a = list(a)
    db = len(b) - 1
    while len(a) > db:
        coef = a.pop() % p
        if coef:
            for i in range(db):
                a[len(a) - db + i] -= coef * b[i]
    return [c % p for c in a]


def _monic_polys(degree, p):
    """All monic polynomials of the exact degree, lexicographic in the
    low-to-high coefficient reading."""
    for lower in _cartesian(range(p), repeat=degree):
        yield lower + (1,)


def _is_irreducible(poly, p):
    """Trial division against every monic polynomial of degree 1..f//2."""
    f = len(poly) - 1
    if f == 1:
        return True
    if poly[0] == 0:          # divisible by t
        return False
    for d in range(1, f // 2 + 1):
        for divisor in _monic_polys(d, p):
            if not any(_poly_mod(poly, divisor, p)):
                return False
    return True


# ---------------------------------------------------------------------------
# Arithmetic on codes.  These kernels trust their operands: FieldSpec checks
# that an element belongs to the field before its code gets here.

TABLE_MAX_SIZE = 2 ** 16


class _Codes:
    """Conversions between codes and coefficients, shared by both kernels."""

    def __init__(self, p, f):
        self.p, self.f, self.q = p, f, p ** f
        self.one = self.q // p          # the constant 1 is the top digit
        self._generator = None

    def coeffs(self, c):
        """The f coefficients of code c, low degree first."""
        out = [0] * self.f
        for i in range(self.f - 1, -1, -1):
            c, out[i] = divmod(c, self.p)
        return tuple(out)

    def encode(self, coeffs):
        c = 0
        for x in coeffs:
            c = c * self.p + x
        return c

    def generator(self):
        """The smallest code of multiplicative order q-1: g^((q-1)/r) != 1
        for every prime r | q-1.  Searched once, then kept; during the
        table build it takes the polynomial path."""
        if self._generator is None:
            n = self.q - 1
            radicals = prime_factors(n)
            self._generator = next(
                g for g in range(1, self.q)
                if all(self.pow(g, n // r) != self.one for r in radicals))
        return self._generator


class _PrimeCodes(_Codes):
    """GF(p): the code is the residue."""

    def add(self, x, y):
        return (x + y) % self.p

    def neg(self, x):
        return -x % self.p

    def mul(self, x, y):
        return x * y % self.p

    def pow(self, x, k):
        return pow(x, k, self.p)


class _ExtensionCodes(_Codes):
    """GF(p^f), f > 1: the polynomial path until elements() builds tables.

    tables is None or (exp, log, zech) for a generator g of order n = q-1:
    exp[i] = g^(i mod n) for i < 2n, then n zeros; log[g^i] = i; and
    zech[d] = log(1 + g^d), or 2n where 1 + g^d = 0, so that an exp
    lookup lands in the zero tail.
    """

    def __init__(self, p, f, modulus):
        super().__init__(p, f)
        self.modulus = modulus
        self.half = 0 if p == 2 else (self.q - 1) // 2     # log of -1
        self.tables = None

    def _poly_mul(self, x, y):
        b = self.coeffs(y)
        prod = [0] * (2 * self.f - 1)
        for i, ai in enumerate(self.coeffs(x)):
            if ai:
                for j, bj in enumerate(b):
                    prod[i + j] += ai * bj
        return self.encode(_poly_mod(prod, self.modulus, self.p))

    def _pow(self, x, k):
        out = self.one
        while k:
            if k & 1:
                out = self._poly_mul(out, x)
            x = self._poly_mul(x, x)
            k >>= 1
        return out

    def _build_tables(self):
        p, f, q, one = self.p, self.f, self.q, self.one
        n = q - 1
        # x -> x·g is F_p-linear: row i holds the coefficients of t^i·g, one
        # per w-bit slot, w wide enough for a sum of f products, so a step
        # is one sum of f rows and f digit reads, O(f) against _poly_mul's O(f^2)
        g = self.generator()
        w = (f * (p - 1) ** 2).bit_length()
        mask, shifts = (1 << w) - 1, range(0, w * f, w)
        weights = [p ** (f - 1 - i) for i in range(f)]     # the code of t^i
        rows = [sum(c << k for c, k in zip(self.coeffs(self._poly_mul(t, g)), shifts))
                for t in weights]
        powers, digits = [], [1] + [0] * (f - 1)
        for _ in range(n):
            powers.append(sum(map(mul, digits, weights)))
            s = sum(map(mul, digits, rows))
            digits = [(s >> k & mask) % p for k in shifts]
        exp = array("i", powers) * 2 + array("i", [0]) * n
        log = array("i", [0]) * q
        for i, c in enumerate(powers):
            log[c] = i
        zech = array("i", [0]) * n
        top = (p - 1) * one
        for d, c in enumerate(powers):
            c = c + one if c < top else c - top      # 1 + g^d
            zech[d] = log[c] if c else 2 * n
        self.tables = (exp, log, zech)

    def add(self, x, y):
        t = self.tables
        if t is None:
            p = self.p
            return self.encode([(u + v) % p for u, v in
                                zip(self.coeffs(x), self.coeffs(y))])
        if not x:
            return y
        if not y:
            return x
        exp, log, zech = t
        lx = log[x]
        # log[y] - lx lies in (-n, n); a negative index wraps modulo n
        return exp[lx + zech[log[y] - lx]]

    def neg(self, x):
        t = self.tables
        if t is None:
            return self.encode([-u % self.p for u in self.coeffs(x)])
        return x and t[0][t[1][x] + self.half]

    def mul(self, x, y):
        t = self.tables
        if t is None:
            return self._poly_mul(x, y)
        if not x or not y:
            return 0
        exp, log, _ = t
        return exp[log[x] + log[y]]

    def pow(self, x, k):
        t = self.tables
        if t is None:
            return self._pow(x, k)
        if not x:
            return 0 if k else self.one
        return t[0][t[1][x] * k % (self.q - 1)]


_new = tuple.__new__


@dataclass(frozen=True)
class FieldSpec:
    """The field F_{p^f} in a fixed polynomial basis.

    modulus has f+1 entries, low degree first, and is monic irreducible.
    codes (the unchecked arithmetic on codes, with the lazy tables) and _els
    (the interned elements) take no part in eq, hash, repr or pickling.
    """

    p: int
    f: int
    modulus: tuple
    q: int
    codes: _Codes = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "codes", _PrimeCodes(self.p, 1) if self.f == 1
                           else _ExtensionCodes(self.p, self.f, self.modulus))
        object.__setattr__(self, "_els", None)

    def __reduce__(self):       # a copy re-derives codes, tables and elements
        return FieldSpec, (self.p, self.f, self.modulus, self.q)

    def __repr__(self):
        return f"GF({self.q})"

    # -- element constructors ------------------------------------------------

    def _of(self, c):
        """The element of code c: the interned one once elements() made them."""
        els = self._els
        return _new(FieldElement, (self, c)) if els is None else els[c]

    def element(self, coeffs) -> "FieldElement":
        if isinstance(coeffs, int):
            coeffs = [coeffs] + [0] * (self.f - 1)
        coeffs = [index(c) % self.p for c in coeffs]     # a float is a TypeError
        if len(coeffs) != self.f:
            raise ValidationError(
                f"element of {self!r} needs {self.f} coefficients, got {len(coeffs)}")
        return self._of(self.codes.encode(coeffs))

    def zero(self) -> "FieldElement":
        return self._of(0)

    def one(self) -> "FieldElement":
        return self._of(self.codes.one)

    def elements(self):
        """All q elements, ascending in the canonical coefficient order.
        Up to TABLE_MAX_SIZE the first call builds an extension field's
        tables, then interns the elements: the only switch to lookups."""
        els = self._els
        if els is None and self.q <= TABLE_MAX_SIZE:
            if self.f > 1:
                self.codes._build_tables()
            els = tuple(map(self._of, range(self.q)))
            object.__setattr__(self, "_els", els)
        return map(self._of, range(self.q)) if els is None else iter(els)

    # -- arithmetic ----------------------------------------------------------

    def _code(self, a):
        if type(a) is not FieldElement or a[0] is not self:
            raise DomainMismatchError(f"operand {a!r} does not belong to {self!r}")
        return a[1]

    # add and mul inline _code's test and _of: they are the sweeps' kernel

    def add(self, a, b):
        if not (type(a) is type(b) is FieldElement and a[0] is self is b[0]):
            self._code(a), self._code(b)        # raises, naming the operand
        c = self.codes.add(a[1], b[1])
        els = self._els
        return _new(FieldElement, (self, c)) if els is None else els[c]

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def neg(self, a):
        return self._of(self.codes.neg(self._code(a)))

    def mul(self, a, b):
        if not (type(a) is type(b) is FieldElement and a[0] is self is b[0]):
            self._code(a), self._code(b)        # raises, naming the operand
        c = self.codes.mul(a[1], b[1])
        els = self._els
        return _new(FieldElement, (self, c)) if els is None else els[c]

    def inv(self, a):
        x = self._code(a)
        if not x:
            raise ZeroDivisionError(f"0 has no multiplicative inverse in {self!r}")
        return self._of(self.codes.pow(x, self.q - 2))

    def pow(self, a, k: int):
        if k < 0:
            return self.pow(self.inv(a), -k)
        return self._of(self.codes.pow(self._code(a), k))

    def frobenius(self, a):
        """The map x -> x^p."""
        return self._of(self.codes.pow(self._code(a), self.p))


class FieldElement(tuple):
    """An element of a field: the pair (spec, code).

    FieldElement(spec, coeffs) builds one from its coefficients.  Elements
    are immutable, and equal (with equal hashes) when their specs are
    equal and their codes are.
    """

    __slots__ = ()

    def __new__(cls, spec, coeffs):
        return spec.element(coeffs)

    def __getnewargs__(self):       # copy and pickle rebuild through __new__
        return self[0], self.coeffs

    spec = property(itemgetter(0), doc="The FieldSpec the element belongs to.")
    code = property(itemgetter(1), doc="The index in spec.elements().")

    @property
    def coeffs(self):
        """The polynomial coefficients, low degree first."""
        return self[0].codes.coeffs(self[1])

    def __hash__(self):
        return self[1]

    def is_zero(self):
        return not self[1]

    def __add__(self, other):
        return self[0].add(self, other)

    def __sub__(self, other):
        return self[0].sub(self, other)

    def __neg__(self):
        return self[0].neg(self)

    def __mul__(self, other):
        return self[0].mul(self, other)

    __rmul__ = __mul__      # not tuple repetition: 3 * a is a domain error

    def __pow__(self, k):
        return self[0].pow(self, k)

    def __repr__(self):
        terms = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                terms.append(str(c))
            else:
                t = "t" if i == 1 else f"t^{i}"
                terms.append(t if c == 1 else f"{c}{t}")
        return "+".join(terms) if terms else "0"


def make_field(p: int, f: int = 1) -> FieldSpec:
    """Construct F_{p^f} with the deterministic modulus choice.

    For f = 1 the modulus is the identity polynomial t, so elements are
    the residues 0..p-1 themselves.  q is bounded by DEFAULT_MAX_FIELD_SIZE,
    or by the FSG_MAX_FIELD_SIZE setting.
    """
    d = smallest_divisor(p) if p > 1 else None
    if d != p:
        raise ValidationError(
            f"p = {p} is not prime" + (f" (divisible by {d})" if d else ""))
    if f < 1:
        raise ValidationError(f"exponent f must be >= 1, got {f}")
    max_size = int(os.environ.get("FSG_MAX_FIELD_SIZE", DEFAULT_MAX_FIELD_SIZE))
    # 2^f > max_size already refuses, before p^f is computed
    if f >= max_size.bit_length() or p ** f > max_size:
        raise ResourceLimitError(f"field size {p}^{f} exceeds the bound {max_size} "
                                 "(setting FSG_MAX_FIELD_SIZE)")
    q = p ** f
    if f == 1:
        modulus = (0, 1)
    else:
        modulus = next(m for m in _monic_polys(f, p) if _is_irreducible(m, p))
    return FieldSpec(p=p, f=f, modulus=modulus, q=q)


def frobenius_orbit(spec: FieldSpec, a: FieldElement) -> list:
    """Orbit of a under x -> x^p; its length divides f."""
    orbit = [a]
    x = spec.frobenius(a)
    while x != a:
        orbit.append(x)
        x = spec.frobenius(x)
    return orbit


def frobenius_order(spec: FieldSpec) -> int:
    """Order of x -> x^p as a map on the whole field."""
    current = els = list(spec.elements())
    for k in range(1, spec.f + 1):
        current = [spec.frobenius(x) for x in current]
        if current == els:
            return k
    raise AssertionError("frobenius order exceeds f")  # unreachable


def multiplicative_generator(spec: FieldSpec) -> FieldElement:
    """Smallest element (canonical coefficient order) of order q-1.

    Verified by checking g^((q-1)/r) != 1 for every prime r | q-1.
    """
    return spec._of(spec.codes.generator())


def element_multiplicative_order(spec: FieldSpec, a: FieldElement) -> int:
    """q-1 with each prime r divided out while a^(order/r) = 1."""
    x = spec._code(a)
    if not x:
        raise ValidationError("0 has no multiplicative order")
    codes, order = spec.codes, spec.q - 1
    for r in prime_factors(order):
        while order % r == 0 and codes.pow(x, order // r) == codes.one:
            order //= r
    return order
