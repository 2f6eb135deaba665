"""Exact integer q-series and the moonshine dimension identities.

IntegerSeries is a truncated Laurent-style series with big-integer
coefficients and a signed leading exponent.  Every operation tracks the
window of exponents on which the result is exact and never silently
extends past it; division and root extraction are verified by
remultiplication before returning, so a returned series is a certified
one.  All the identity checks in this module are pure integer
equalities: there is no tolerance anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt

from .errors import InternalDefectError, ResourceLimitError, ValidationError
from .sporadic import sporadic_table

DELTA_TERM_BOUND = 10 ** 4
J_TERM_BOUND = 10 ** 3

MONSTER_MISSING_PRIMES = (37, 43, 53, 61, 67)
MONSTER_IRREP_DIMS = (1, 196883, 21296876, 842609326)
E8_IRREP_DIMS = (1, 248, 3875, 30380)


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

    def truncate(self, through):
        if through > self.known_through:
            raise ValidationError("cannot truncate beyond the known window")
        return IntegerSeries(self.leading, self.coeffs[:through - self.leading + 1])

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
        if isinstance(other, int):
            return self + (-other)
        return self + other.scale(-1)

    def scale(self, c):
        return IntegerSeries(self.leading, tuple(c * x for x in self.coeffs))

    def __mul__(self, other):
        if isinstance(other, int):
            return self.scale(other)
        lead = self.leading + other.leading
        through = min(self.known_through + other.leading,
                      other.known_through + self.leading)
        n_out = through - lead + 1
        if n_out <= 0:
            raise ValidationError("product truncates to an empty window")
        a, b = self.coeffs, other.coeffs
        out = [0] * n_out
        for i, ai in enumerate(a):
            if ai:
                top = min(len(b), n_out - i)
                for j in range(top):
                    if b[j]:
                        out[i + j] += ai * b[j]
        return IntegerSeries(lead, tuple(out))

    def eq_through(self, other, through):
        lo = min(self.leading, other.leading)
        return all(self.coeff(n) == other.coeff(n) for n in range(lo, through + 1))

    def inverse(self):
        """Inverse of a series with unit +-1 leading coefficient."""
        if not self.coeffs or self.coeffs[0] not in (1, -1):
            raise ValidationError("only unit-leading series are inverted here")
        u = self.coeffs[0]
        n = len(self.coeffs)
        inv = [u] + [0] * (n - 1)
        for k in range(1, n):
            acc = 0
            for i in range(1, k + 1):
                acc += self.coeffs[i] * inv[k - i]
            inv[k] = -u * acc
        return IntegerSeries(-self.leading, tuple(inv))

    def exact_div(self, other):
        """self / other with a remultiplication certificate."""
        quotient = self * other.inverse()
        check = quotient * other
        if not check.eq_through(self, min(check.known_through, self.known_through)):
            raise InternalDefectError("division certificate failed")
        return quotient

    def cube_root(self):
        """The series S with S^3 = self, for leading term 1*q^0.

        Uses the derivative recurrence 3 S' T = S T'; integrality of every
        step is asserted and the cube is re-multiplied as a certificate.
        """
        if self.leading != 0 or not self.coeffs or self.coeffs[0] != 1:
            raise ValidationError("cube root needs leading term 1 at q^0")
        t = self.coeffs
        n = len(t)
        s = [1] + [0] * (n - 1)
        for k in range(n - 1):
            # coefficient of q^k in S T' minus the known part of 3 S' T
            rhs = 0
            for i in range(0, k + 1):
                rhs += s[i] * (k - i + 1) * t[k - i + 1] if k - i + 1 < n else 0
            lhs_known = 0
            for i in range(0, k):
                lhs_known += 3 * (i + 1) * s[i + 1] * t[k - i]
            num = rhs - lhs_known
            den = 3 * (k + 1)
            if num % den:
                raise InternalDefectError("cube root is not an integer series")
            s[k + 1] = num // den
        root = IntegerSeries(0, tuple(s))
        cube = root * root * root
        if not cube.eq_through(self, cube.known_through):
            raise InternalDefectError("cube-root certificate failed")
        return root


# ------------------------------------------------------------------ modular


def _euler_product_coeffs(n_max):
    """Coefficients of prod_(k>=1) (1 - q^k) through q^n_max, by repeated
    multiplication with the sparse binomials."""
    c = [0] * (n_max + 1)
    c[0] = 1
    for k in range(1, n_max + 1):
        for i in range(n_max, k - 1, -1):
            c[i] -= c[i - k]
    return c


def delta_expansion(num_terms) -> IntegerSeries:
    """Delta = q * prod (1-q^n)^24, exact through q^num_terms."""
    if num_terms < 1:
        raise ValidationError("the delta expansion needs num_terms >= 1")
    if num_terms > DELTA_TERM_BOUND:
        raise ResourceLimitError(
            f"delta expansion capped at the fixed bound of {DELTA_TERM_BOUND} terms")
    n = num_terms - 1
    u = IntegerSeries(0, tuple(_euler_product_coeffs(n)))
    u2 = (u * u).truncate(n)
    u4 = (u2 * u2).truncate(n)
    u8 = (u4 * u4).truncate(n)
    u16 = (u8 * u8).truncate(n)
    u24 = (u16 * u8).truncate(n)
    return u24.shift(1)


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
    if num_terms < -1:
        raise ValidationError("the j expansion needs num_terms >= -1")
    if num_terms > J_TERM_BOUND:
        raise ResourceLimitError(
            f"j expansion capped at the fixed bound of {J_TERM_BOUND} terms")
    n = num_terms + 2
    e4 = eisenstein_e4(n)
    e4_cubed = (e4 * e4 * e4).truncate(n)
    delta = delta_expansion(n + 1)
    j = e4_cubed.exact_div(delta)
    return j.truncate(num_terms)


def j_cube_root(num_terms) -> IntegerSeries:
    """The integer series S with S^3 = q*j; S = 1 + 248q + 4124q^2 + ...

    This is the cube root of j with the fractional prefactor q^(-1/3)
    stripped off, so no rational-exponent machinery is needed.
    """
    if num_terms < 0:
        raise ValidationError("the cube root needs num_terms >= 0")
    if num_terms > J_TERM_BOUND:
        raise ResourceLimitError(
            f"cube root capped at the fixed bound of {J_TERM_BOUND} terms")
    qj = j_expansion(num_terms).shift(1)
    return qj.cube_root()


def leech_theta_prefix(num_terms) -> IntegerSeries:
    """Coefficients N(2m) of the Leech theta series, as the q-series
    (J + 24) * Delta with J = j - 744, exact through q^num_terms."""
    if num_terms < 0:
        raise ValidationError("the theta prefix needs num_terms >= 0")
    if num_terms > J_TERM_BOUND:
        raise ResourceLimitError(
            f"theta prefix capped at the fixed bound of {J_TERM_BOUND} terms")
    j = j_expansion(num_terms + 1)
    delta = delta_expansion(num_terms + 2)
    theta = (j - 720) * delta
    return theta.truncate(num_terms)


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
    digits = len(str(order))
    out = [
        ("monster order has 54 decimal digits", digits, 54),
        ("divisible by 71", order % 71, 0),
        ("196883 = 47 * 59 * 71", 196883, 47 * 59 * 71),
    ]
    for p in MONSTER_MISSING_PRIMES:
        out.append((f"not divisible by {p}", 1 if order % p else 0, 1))
    return [{"identity": n, "lhs": l, "rhs": r, "pass": l == r} for n, l, r in out]


def sum_of_squares_check():
    """1^2 + ... + 24^2 = 70^2, by direct summation and by the closed form
    N(N+1)(2N+1)/6; also scans for every N <= 10^6 whose square-sum is a
    perfect square (exactly N = 1 and N = 24)."""
    direct = sum(i * i for i in range(1, 25))
    closed = 24 * 25 * 49 // 6
    square_ns = []
    total = 0
    for n in range(1, 10 ** 6 + 1):
        total += n * n
        r = isqrt(total)
        if r * r == total:
            square_ns.append(n)
    return {
        "direct_sum_1_to_24": direct,
        "closed_form": closed,
        "equals_70_squared": direct == closed == 70 ** 2,
        "square_total_ns": square_ns,
        "unique_nontrivial": square_ns == [1, 24],
        "note": "N = 1 is the degenerate solution 1 = 1^2",
    }
