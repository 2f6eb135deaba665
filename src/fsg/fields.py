"""Exact arithmetic in the finite fields GF(p) and GF(p^f).

Elements are stored in the polynomial basis: a field of q = p^f elements
is F_p[t] modulo a monic irreducible polynomial of degree f, and an
element is the tuple of its f coefficients (low degree first), each
reduced into [0, p).  The modulus is chosen deterministically as the
lexicographically smallest monic irreducible polynomial, coefficients
read low-to-high, so two calls to :func:`make_field` with the same
(p, f) agree in every detail.

All values are immutable and all operations are pure functions, so
fields and elements can be shared freely between threads.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from itertools import product as _cartesian
from math import isqrt

from .errors import DomainMismatchError, ResourceLimitError, ValidationError

DEFAULT_MAX_FIELD_SIZE = 2 ** 20


def max_field_size():
    """The q bound; overridable with the FSG_MAX_FIELD_SIZE variable."""
    return int(os.environ.get("FSG_MAX_FIELD_SIZE", DEFAULT_MAX_FIELD_SIZE))


def smallest_divisor(n: int) -> int:
    for d in range(2, isqrt(n) + 1):
        if n % d == 0:
            return d
    return n


def is_prime(n: int) -> bool:
    return n >= 2 and smallest_divisor(n) == n


def factorize(n: int) -> dict:
    """Prime factorization as an ordered dict prime -> exponent."""
    out = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = 1
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
# Polynomial helpers over F_p.  A polynomial is a tuple of residues, low
# degree first, with no trailing zeros (() is the zero polynomial).


def _poly_trim(c):
    c = list(c)
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def _poly_mul(a, b, p):
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _poly_trim(out)


def _poly_divmod(a, b, p):
    """Quotient and remainder of a by b (b != 0), over F_p."""
    a = list(a)
    db, lb = len(b) - 1, b[-1]
    inv_lb = pow(lb, p - 2, p)
    q = [0] * max(0, len(a) - db)
    while len(a) - 1 >= db and any(a):
        da = len(a) - 1
        if a[-1] == 0:
            a.pop()
            continue
        coef = (a[-1] * inv_lb) % p
        q[da - db] = coef
        for i in range(db + 1):
            a[da - db + i] = (a[da - db + i] - coef * b[i]) % p
        a.pop()
    return _poly_trim(q), _poly_trim(a)


def _poly_mod(a, b, p):
    return _poly_divmod(a, b, p)[1]


def _poly_ext_gcd(a, b, p):
    """(g, s, t) with s*a + t*b = g over F_p."""
    r0, r1 = a, b
    s0, s1 = (1,), ()
    t0, t1 = (), (1,)
    while r1:
        q, r = _poly_divmod(r0, r1, p)
        r0, r1 = r1, r
        s0, s1 = s1, _poly_trim((si - qi) % p for si, qi in
                                _zip_pad(s0, _poly_mul(q, s1, p), p))
        t0, t1 = t1, _poly_trim((ti - qi) % p for ti, qi in
                                _zip_pad(t0, _poly_mul(q, t1, p), p))
    return r0, s0, t0


def _zip_pad(a, b, p):
    n = max(len(a), len(b))
    for i in range(n):
        yield (a[i] if i < len(a) else 0), (b[i] if i < len(b) else 0)


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
            if not _poly_mod(poly, divisor, p):
                return False
    return True


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FieldSpec:
    """The field F_{p^f} in a fixed polynomial basis.

    modulus has f+1 entries, low degree first, and is monic irreducible.
    """

    p: int
    f: int
    modulus: tuple
    q: int

    def __repr__(self):
        return f"GF({self.q})"

    # -- element constructors ------------------------------------------------

    def element(self, coeffs) -> "FieldElement":
        if isinstance(coeffs, int):
            coeffs = [coeffs] + [0] * (self.f - 1)
        coeffs = tuple(c % self.p for c in coeffs)
        if len(coeffs) != self.f:
            raise ValidationError(
                f"element of {self!r} needs {self.f} coefficients, got {len(coeffs)}")
        return FieldElement(self, coeffs)

    def zero(self) -> "FieldElement":
        return self.element(0)

    def one(self) -> "FieldElement":
        return self.element(1)

    def elements(self):
        """All q elements, ascending in the canonical coefficient order."""
        for coeffs in _cartesian(range(self.p), repeat=self.f):
            yield FieldElement(self, coeffs)

    # -- arithmetic ----------------------------------------------------------

    def _check(self, a):
        if not isinstance(a, FieldElement) or a.spec is not self:
            raise DomainMismatchError(f"operand {a!r} does not belong to {self!r}")

    def add(self, a, b):
        self._check(a); self._check(b)
        return FieldElement(self, tuple((x + y) % self.p
                                        for x, y in zip(a.coeffs, b.coeffs)))

    def sub(self, a, b):
        self._check(a); self._check(b)
        return FieldElement(self, tuple((x - y) % self.p
                                        for x, y in zip(a.coeffs, b.coeffs)))

    def neg(self, a):
        self._check(a)
        return FieldElement(self, tuple((-x) % self.p for x in a.coeffs))

    def mul(self, a, b):
        self._check(a); self._check(b)
        if self.f == 1:      # prime field: plain modular product
            return FieldElement(self, ((a.coeffs[0] * b.coeffs[0]) % self.p,))
        prod = _poly_mul(_poly_trim(a.coeffs), _poly_trim(b.coeffs), self.p)
        red = _poly_mod(prod, self.modulus, self.p)
        return FieldElement(self, red + (0,) * (self.f - len(red)))

    def inv(self, a):
        self._check(a)
        if a.is_zero():
            raise ZeroDivisionError(f"0 has no multiplicative inverse in {self!r}")
        if self.f == 1:
            return FieldElement(self, (pow(a.coeffs[0], self.p - 2, self.p),))
        g, s, _ = _poly_ext_gcd(_poly_trim(a.coeffs), self.modulus, self.p)
        # g is a nonzero constant; scale s by its inverse
        c = pow(g[0], self.p - 2, self.p)
        s = _poly_mod(_poly_mul(s, (c,), self.p), self.modulus, self.p)
        return FieldElement(self, s + (0,) * (self.f - len(s)))

    def pow(self, a, k: int):
        self._check(a)
        if k < 0:
            return self.pow(self.inv(a), -k)
        out, base = self.one(), a
        while k:
            if k & 1:
                out = self.mul(out, base)
            base = self.mul(base, base)
            k >>= 1
        return out

    def frobenius(self, a):
        """The map x -> x^p."""
        return self.pow(a, self.p)


@dataclass(frozen=True)
class FieldElement:
    spec: FieldSpec
    coeffs: tuple

    def is_zero(self):
        return all(c == 0 for c in self.coeffs)

    def __add__(self, other):
        return self.spec.add(self, other)

    def __sub__(self, other):
        return self.spec.sub(self, other)

    def __neg__(self):
        return self.spec.neg(self)

    def __mul__(self, other):
        return self.spec.mul(self, other)

    def __pow__(self, k):
        return self.spec.pow(self, k)

    def __repr__(self):
        if self.spec.f == 1:
            return str(self.coeffs[0])
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


def make_field(p: int, f: int = 1, max_size: int = None) -> FieldSpec:
    """Construct F_{p^f} with the deterministic modulus choice.

    For f = 1 the modulus is the identity polynomial t, so elements are
    the residues 0..p-1 themselves.
    """
    if max_size is None:
        max_size = max_field_size()
    if not is_prime(p):
        raise ValidationError(
            f"p = {p} is not prime (divisible by {smallest_divisor(p)})")
    if f < 1:
        raise ValidationError(f"exponent f must be >= 1, got {f}")
    q = p ** f
    if q > max_size:
        raise ResourceLimitError(
            f"field size {q} exceeds the configured bound {max_size}")
    if f == 1:
        modulus = (0, 1)
    else:
        modulus = next(m for m in _monic_polys(f, p) if _is_irreducible(m, p))
    return FieldSpec(p=p, f=f, modulus=modulus, q=q)


def field_arithmetic(spec: FieldSpec, op: str, a: FieldElement, b=None):
    """Dispatch a single named operation; the CLI front end for the field.

    op is one of add, sub, mul, neg, inv, pow; for pow, b is an integer
    exponent, for neg and inv b is omitted.
    """
    if op in ("add", "sub", "mul"):
        return getattr(spec, op)(a, b)
    if op == "neg":
        return spec.neg(a)
    if op == "inv":
        return spec.inv(a)
    if op == "pow":
        if not isinstance(b, int):
            raise ValidationError("pow needs an integer exponent")
        return spec.pow(a, b)
    raise ValidationError(f"unknown field operation {op!r}")


def frobenius_orbit(spec: FieldSpec, a: FieldElement) -> list:
    """Orbit of a under x -> x^p; its length divides f."""
    spec._check(a)
    orbit = [a]
    x = spec.frobenius(a)
    while x != a:
        orbit.append(x)
        x = spec.frobenius(x)
    return orbit


def frobenius_is_automorphism(spec: FieldSpec) -> bool:
    """Exhaustively verify that x -> x^p preserves both field operations.

    Quadratic in q; intended for the test sizes (q <= 256).
    """
    els = list(spec.elements())
    frob = {a: spec.frobenius(a) for a in els}
    for a in els:
        for b in els:
            if frob[spec.add(a, b)] != spec.add(frob[a], frob[b]):
                return False
            if frob[spec.mul(a, b)] != spec.mul(frob[a], frob[b]):
                return False
    return True


def frobenius_order(spec: FieldSpec) -> int:
    """Order of x -> x^p as a map on the whole field."""
    els = list(spec.elements())
    current = {a: a for a in els}
    for k in range(1, spec.f + 1):
        current = {a: spec.frobenius(current[a]) for a in els}
        if all(current[a] == a for a in els):
            return k
    raise AssertionError("frobenius order exceeds f")  # unreachable


def multiplicative_generator(spec: FieldSpec) -> FieldElement:
    """Smallest element (canonical coefficient order) of order q-1.

    Verified by checking g^((q-1)/r) != 1 for every prime r | q-1.
    """
    n = spec.q - 1
    if n == 1:
        return spec.one()
    radicals = prime_factors(n)
    one = spec.one()
    for g in spec.elements():
        if g.is_zero():
            continue
        if all(spec.pow(g, n // r) != one for r in radicals):
            return g
    raise AssertionError("no multiplicative generator found")  # unreachable


def element_multiplicative_order(spec: FieldSpec, a: FieldElement) -> int:
    if a.is_zero():
        raise ValidationError("0 has no multiplicative order")
    one = spec.one()
    x, k = a, 1
    while x != one:
        x = spec.mul(x, a)
        k += 1
    return k
