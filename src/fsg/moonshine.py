"""Exact integer q-series and the moonshine dimension identities.

IntegerSeries is a truncated Laurent-style series with big-integer
coefficients and a signed leading exponent.  Every operation tracks the
window of exponents on which the result is exact and never silently
extends past it.  A product takes one of two paths: unit rows, added or
subtracted, when one factor's coefficients lie in {-1, 0, 1} (the Euler
function), and otherwise one big-integer multiply over byte slots wide
enough for bits(max|a|) + bits(max|b|) + bits(n) + 1.
IntegerSeries.__pow__ is the one recurrence for rational powers, and it
certifies each by the differential identity it solves: Delta = q euler^24,
1/Delta = q^-1 euler^-24, j^(1/3) = (q j)^(1/3) and the partition numbers
1/euler come from it, and j = E4^3 / Delta is certified by remultiplying
j Delta = E4^3.  Every identity check here is a pure integer equality.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import compress
from math import isqrt
from operator import add, mul, sub

from .errors import InternalDefectError, ResourceLimitError, ValidationError
from .sporadic import sporadic_table

DELTA_TERM_BOUND = 10 ** 4
J_TERM_BOUND = 10 ** 3

MONSTER_MISSING_PRIMES = (37, 43, 53, 61, 67)
MONSTER_IRREP_DIMS = (1, 196883, 21296876, 842609326)
E8_IRREP_DIMS = (1, 248, 3875, 30380)
SQUARE_SUM_MODULI = (256, 27, 25, 7, 11, 13, 17, 19, 23)
_UNITS = frozenset((-1, 0, 1))


def _pack(coeffs, w):
    """sum coeffs[i] 2^(8wi), its positive and negative parts in w-byte slots."""
    zero = bytes(w)
    pos = b"".join(c.to_bytes(w, "little") if c > 0 else zero for c in coeffs)
    neg = b"".join((-c).to_bytes(w, "little") if c < 0 else zero for c in coeffs)
    return int.from_bytes(pos, "little") - int.from_bytes(neg, "little")


@dataclass(frozen=True)
class IntegerSeries:
    """Coefficients coeffs[i] of q^(leading+i); exact through known_through."""

    leading: int
    coeffs: tuple

    @property
    def known_through(self):
        return self.leading + len(self.coeffs) - 1

    def coeff(self, n):
        if n > self.known_through:
            raise ValidationError(
                f"coefficient of q^{n} is beyond the truncation "
                f"(known through q^{self.known_through})")
        if n < self.leading:
            return 0
        return self.coeffs[n - self.leading]

    def coeff_range(self, lo, hi):
        return [self.coeff(n) for n in range(lo, hi + 1)]

    def shift(self, k):
        return IntegerSeries(self.leading + k, self.coeffs)

    def __add__(self, other):
        if isinstance(other, int):
            other = IntegerSeries(0, (other,) + (0,) * max(0, self.known_through))
        lead = min(self.leading, other.leading)
        through = min(self.known_through, other.known_through)
        coeffs = tuple(self.coeff(n) + other.coeff(n)
                       for n in range(lead, through + 1))
        return IntegerSeries(lead, coeffs)

    def __sub__(self, other):
        return self + (-other if isinstance(other, int) else other.scale(-1))

    def scale(self, c):
        return IntegerSeries(self.leading, tuple(c * x for x in self.coeffs))

    def __mul__(self, other):
        """The product, exact through the shorter operand's length n: unit
        rows if one side's n coefficients lie in {-1, 0, 1}, else one multiply
        over w-byte slots, 8w >= bits(max|a|) + bits(max|b|) + bits(n) + 1,
        so each coefficient lies inside +-2^(8w-1) and adding 2^(8w-1) to
        every slot leaves no borrow (Kronecker substitution)."""
        if isinstance(other, int):
            return self.scale(other)
        n = min(len(self.coeffs), len(other.coeffs))
        if not n:
            raise ValidationError("product truncates to an empty window")
        a, b = self.coeffs[:n], other.coeffs[:n]
        if not _UNITS.issuperset(a):
            a, b = b, a
        if _UNITS.issuperset(a):
            out = [0] * n
            for i, ai in enumerate(a):
                if ai:
                    out[i:] = map(add if ai == 1 else sub, out[i:], b)
        else:
            bits = sum(max(map(abs, c)).bit_length() for c in (a, b)) + n.bit_length() + 1
            w = -(-bits // 8)
            half = 1 << 8 * w - 1       # the offset: half in each of the low n slots
            x = _pack(a, w) * _pack(b, w) + int.from_bytes(half.to_bytes(w, "little") * n, "little")
            raw = (x & (1 << 8 * w * n) - 1).to_bytes(w * n, "little")
            out = [int.from_bytes(raw[i:i + w], "little") - half for i in range(0, w * n, w)]
        return IntegerSeries(self.leading + other.leading, tuple(out))

    def eq_through(self, other, through):
        lo = min(self.leading, other.leading)
        return all(self.coeff(n) == other.coeff(n) for n in range(lo, through + 1))

    def derivative(self):
        """d/dq of a series that starts at q^0, exact one term below self."""
        return IntegerSeries(0, tuple(m * c for m, c in enumerate(self.coeffs) if m))

    def __pow__(self, alpha):
        """self^alpha for a rational alpha = a/b and leading term 1 at q^0.

        J. C. P. Miller's recurrence m f_m = sum_k ((alpha+1)k - m) g_k f_(m-k),
        summed over the nonzero g_k (Knuth, TAOCP vol. 2, 4.7); every
        division is asserted exact.  The result F is certified by
        b g F' = a g' F, which with F_0 = 1 only g^(a/b) satisfies.  It is
        checked as a (g F)' = (a + b) g F', two products with g as the
        outer factor; for 1/g the right side vanishes.
        """
        if self.leading != 0 or not self.coeffs or self.coeffs[0] != 1:
            raise ValidationError("a series power needs leading term 1 at q^0")
        alpha = Fraction(alpha)
        a, b = alpha.numerator, alpha.denominator
        ks = [k for k, g in enumerate(self.coeffs) if k and g]
        gs = [self.coeffs[k] for k in ks]
        kgs = [k * g for k, g in zip(ks, gs)]
        # unit coefficients, as in the Euler function, are summed by sign
        unit = set(gs) <= {1, -1}
        plus, minus = [g == 1 for g in gs], [g == -1 for g in gs]
        f = [1]
        for m in range(1, len(self.coeffs)):
            fs = [f[m - k] for k in ks[:bisect_right(ks, m)]]
            num = -b * m * (sum(compress(fs, plus)) - sum(compress(fs, minus)) if unit
                            else sum(map(mul, gs, fs)))
            if a + b:                   # the (alpha+1)k term; 0 for 1/g
                num += (a + b) * sum(map(mul, kgs, fs))
            fm, rem = divmod(num, b * m)
            if rem:
                raise InternalDefectError("series power is not an integer series")
            f.append(fm)
        power = IntegerSeries(0, tuple(f))
        if len(f) > 1:                  # a (g F)' - (a + b) g F' = a g' F - b g F'
            residue = (self * power).derivative().scale(a)
            if a + b:
                residue = residue - (self * power.derivative()).scale(a + b)
            if any(residue.coeffs):
                raise InternalDefectError("power certificate failed")
        return power


# ------------------------------------------------------------------ modular


def euler_function(num_terms) -> IntegerSeries:
    """prod_(k>=1) (1 - q^k) through q^num_terms, by Euler's pentagonal
    theorem: the sum of (-1)^k q^(k(3k-1)/2) over all integers k."""
    c = [0] * (num_terms + 1)
    c[0] = 1
    k = 1
    while (g := k * (3 * k - 1) // 2) <= num_terms:    # g and g + k: pentagonal
        c[g] = (-1) ** k
        if g + k <= num_terms:
            c[g + k] = (-1) ** k
        k += 1
    return IntegerSeries(0, tuple(c))


def _check_terms(num_terms, lowest, bound, what):
    """Refuse a term count below lowest or past the fixed bound."""
    if num_terms < lowest:
        raise ValidationError(f"the {what} needs num_terms >= {lowest}")
    if num_terms > bound:
        raise ResourceLimitError(f"{what} capped at the fixed bound of {bound} terms")


def delta_expansion(num_terms) -> IntegerSeries:
    """Delta = q * prod (1-q^n)^24, exact through q^num_terms."""
    _check_terms(num_terms, 1, DELTA_TERM_BOUND, "delta expansion")
    return (euler_function(num_terms - 1) ** 24).shift(1)


def eisenstein_e4(num_terms) -> IntegerSeries:
    """E4 = 1 + 240 sum sigma_3(n) q^n through q^num_terms."""
    sig = [0] * (num_terms + 1)
    for d in range(1, num_terms + 1):
        cube = d ** 3
        for m in range(d, num_terms + 1, d):
            sig[m] += cube
    coeffs = [1] + [240 * sig[m] for m in range(1, num_terms + 1)]
    return IntegerSeries(0, tuple(coeffs))


def j_expansion(num_terms) -> IntegerSeries:
    """j = E4^3 / Delta, exact from q^-1 through q^num_terms."""
    _check_terms(num_terms, -1, J_TERM_BOUND, "j expansion")
    n = num_terms + 1
    e4 = eisenstein_e4(n)
    e4_cubed = e4 * e4 * e4
    j = (e4_cubed * euler_function(n) ** -24).shift(-1)
    if not (j * delta_expansion(n + 1)).eq_through(e4_cubed, n):
        raise InternalDefectError("j * Delta = E4^3 certificate failed")
    return j


def j_cube_root(num_terms) -> IntegerSeries:
    """S = (q j)^(1/3) = 1 + 248q + 4124q^2 + ..., the cube root of j with
    its fractional prefactor q^(-1/3) stripped off so that S is an integer
    series; a rational power like any other."""
    _check_terms(num_terms, 0, J_TERM_BOUND, "cube root")
    return j_expansion(num_terms).shift(1) ** Fraction(1, 3)


def leech_theta_prefix(num_terms) -> IntegerSeries:
    """Coefficients N(2m) of the Leech theta series, as the q-series
    (J + 24) * Delta with J = j - 744, exact through q^num_terms."""
    _check_terms(num_terms, 0, J_TERM_BOUND, "theta prefix")
    # j through q^(n-1) and Delta through q^(n+1) fix the product through q^n
    return (j_expansion(num_terms - 1) - 720) * delta_expansion(num_terms + 1)


# ----------------------------------------------------------------- monster


def monster_order() -> int:
    """|M|, from the Monster's row of the sporadic table."""
    order = next(e.order for e in sporadic_table() if e.symbol == "M")
    if any(order % p == 0 for p in MONSTER_MISSING_PRIMES):
        raise InternalDefectError("a missing prime divides the Monster order")
    return order


def moonshine_decompositions():
    """The dimension identities tying j's coefficients to Monster (and E8)
    irreducible-representation dimensions; each as an exact equality."""
    j = j_expansion(3)
    s = j_cube_root(3)
    one, d2, d3, d4 = MONSTER_IRREP_DIMS
    e1, e248, e3875, e30380 = E8_IRREP_DIMS
    checks = [
        ("j q^1: 196884 = 1 + 196883",
         j.coeff(1), one + d2),
        ("j q^2: 21493760 = 1 + 196883 + 21296876",
         j.coeff(2), one + d2 + d3),
        ("j q^3: 864299970 = 2*1 + 2*196883 + 21296876 + 842609326",
         j.coeff(3), 2 * one + 2 * d2 + d3 + d4),
        ("cube root q^1 is the E8 adjoint dimension 248",
         s.coeff(1), e248),
        ("cube root q^2: 4124 = 1 + 248 + 3875",
         s.coeff(2), e1 + e248 + e3875),
        ("cube root q^3: 34752 = 1 + 2*248 + 3875 + 30380",
         s.coeff(3), e1 + 2 * e248 + e3875 + e30380),
    ]
    return [{"identity": name, "lhs": lhs, "rhs": rhs, "pass": lhs == rhs}
            for name, lhs, rhs in checks]


def monster_constant_checks():
    """Structural facts about the Monster order and smallest irrep."""
    order = monster_order()
    out = [
        ("monster order has 54 decimal digits", len(str(order)), 54),
        ("divisible by 71", order % 71, 0),
        ("196883 = 47 * 59 * 71", MONSTER_IRREP_DIMS[1], 47 * 59 * 71),
    ] + [(f"not divisible by {p}", 1 if order % p else 0, 1) for p in MONSTER_MISSING_PRIMES]
    return [{"identity": n, "lhs": l, "rhs": r, "pass": l == r} for n, l, r in out]


def _square_sum_survivors(bound):
    """Each n <= bound, in order, whose S(n) = 1^2 + ... + n^2 =
    n(n+1)(2n+1)/6 is a square modulo every m in SQUARE_SUM_MODULI.
    S(n + 6m) - S(n) = 6m n^2 + 6m(6m+1) n + m(6m+1)(12m+1) is 0 mod m,
    so S mod m has period 6m: one slice assignment strikes each class
    r mod 6m whose S(r) is no square mod m."""
    flags = bytearray(b"\1") * (bound + 1)
    for m in SQUARE_SUM_MODULI:
        squares = {x * x % m for x in range(m)}
        for r in range(6 * m):
            if r * (r + 1) * (2 * r + 1) // 6 % m not in squares:
                flags[r::6 * m] = bytes(len(range(r, bound + 1, 6 * m)))
    return (hit.start() for hit in re.finditer(b"\1", flags))


def sum_of_squares_check():
    """1^2 + ... + 24^2 = 70^2, by direct summation and by the closed form
    N(N+1)(2N+1)/6; also every N <= 10^6 whose square-sum is a perfect
    square.  Watson (Messenger of Math. 48, 1918) proved these are exactly
    N = 1 and N = 24.  The scan decides every N all the same: a residue sieve
    strikes all but about 3,000, and isqrt decides each survivor."""
    direct = sum(i * i for i in range(1, 25))
    closed = 24 * 25 * 49 // 6
    square_ns = [n for n in _square_sum_survivors(10 ** 6)
                 if n and isqrt(t := n * (n + 1) * (2 * n + 1) // 6) ** 2 == t]
    return {
        "direct_sum_1_to_24": direct,
        "closed_form": closed,
        "equals_70_squared": direct == closed == 70 ** 2,
        "square_total_ns": square_ns,
        "unique_nontrivial": square_ns == [1, 24],
        "note": "N = 1 is the degenerate solution 1 = 1^2",
    }
