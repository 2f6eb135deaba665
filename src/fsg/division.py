"""Exact quaternion and octonion arithmetic over the rationals.

Components are fractions, so norm composition, alternativity and the
conjugation anti-morphism are all tested as exact equalities.  The
octonion multiplication table is the oriented-triple (Fano plane)
convention with lines (1,2,4),(2,3,5),(3,4,6),(4,5,7),(5,6,1),(6,7,2),
(7,1,3): the orientation is a convention, fixed here once, and the
table is validated on first use (anticommutativity, unit squares -1,
alternativity on all basis triples).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cache

from .errors import InternalDefectError, ResourceLimitError, ValidationError

FANO_LINES = ((1, 2, 4), (2, 3, 5), (3, 4, 6), (4, 5, 7),
              (5, 6, 1), (6, 7, 2), (7, 1, 3))
PROBE_SAMPLE_BOUND = 1000


@dataclass(frozen=True)
class Quaternion:
    u: Fraction
    x: Fraction
    y: Fraction
    z: Fraction

    def __add__(self, o):
        return Quaternion(self.u + o.u, self.x + o.x, self.y + o.y, self.z + o.z)

    def __sub__(self, o):
        return Quaternion(self.u - o.u, self.x - o.x, self.y - o.y, self.z - o.z)

    def __mul__(self, o):
        # real part u*u' - x.x'; vector part u*x' + u'*x + x ^ x'
        a, b, c, d = self.u, self.x, self.y, self.z
        e, f, g, h = o.u, o.x, o.y, o.z
        return Quaternion(
            a * e - b * f - c * g - d * h,
            a * f + b * e + c * h - d * g,
            a * g - b * h + c * e + d * f,
            a * h + b * g - c * f + d * e,
        )

    def conjugate(self):
        return Quaternion(self.u, -self.x, -self.y, -self.z)

    def norm(self) -> Fraction:
        return self.u ** 2 + self.x ** 2 + self.y ** 2 + self.z ** 2

    def is_zero(self):
        return self.norm() == 0

    def inverse(self):
        n = self.norm()
        if n == 0:
            return None
        c = self.conjugate()
        return Quaternion(c.u / n, c.x / n, c.y / n, c.z / n)


def _build_octonion_table():
    """table[i][j] = (k, sign) with e_i e_j = sign * e_k (e_0 = 1)."""
    table = [[None] * 8 for _ in range(8)]
    for i in range(8):
        table[0][i] = (i, 1)
        table[i][0] = (i, 1)
    for i in range(1, 8):
        table[i][i] = (0, -1)
    for a, b, c in FANO_LINES:
        for x, y, z in ((a, b, c), (b, c, a), (c, a, b)):
            table[x][y] = (z, 1)
            table[y][x] = (z, -1)
    for i in range(8):
        for j in range(8):
            if table[i][j] is None:
                raise InternalDefectError("octonion table is incomplete")
    return tuple(tuple(row) for row in table)


def _mul_coords(table, u, v):
    out = [0] * 8
    for i, a in enumerate(u):
        if a:
            for j, b in enumerate(v):
                if b:
                    k, s = table[i][j]
                    out[k] += s * a * b
    return tuple(out)


@cache
def octonion_table():
    table = _build_octonion_table()
    _validate_octonion_table(table)
    return table


def _validate_octonion_table(table):
    for i in range(1, 8):
        if table[i][i] != (0, -1):
            raise InternalDefectError("basis unit square is not -1")
        for j in range(1, 8):
            if i != j:
                k, s = table[i][j]
                k2, s2 = table[j][i]
                if k != k2 or s != -s2:
                    raise InternalDefectError("table is not anticommutative")
    units = [tuple(1 if t == i else 0 for t in range(8)) for i in range(8)]
    for a in units:
        for b in units:
            aa_b = _mul_coords(table, _mul_coords(table, a, a), b)
            a_ab = _mul_coords(table, a, _mul_coords(table, a, b))
            ab_b = _mul_coords(table, _mul_coords(table, a, b), b)
            a_bb = _mul_coords(table, a, _mul_coords(table, b, b))
            if aa_b != a_ab or ab_b != a_bb:
                raise InternalDefectError("table fails alternativity")


@dataclass(frozen=True)
class Octonion:
    coords: tuple               # 8 fractions over basis (1, e1..e7)

    @staticmethod
    def unit(i):
        coords = [Fraction(0)] * 8
        coords[i] = Fraction(1)
        return Octonion(tuple(coords))

    def __add__(self, o):
        return Octonion(tuple(a + b for a, b in zip(self.coords, o.coords)))

    def __sub__(self, o):
        return Octonion(tuple(a - b for a, b in zip(self.coords, o.coords)))

    def __mul__(self, o):
        return Octonion(_mul_coords(octonion_table(), self.coords, o.coords))

    def conjugate(self):
        return Octonion((self.coords[0],) + tuple(-c for c in self.coords[1:]))

    def norm(self) -> Fraction:
        return sum(c * c for c in self.coords)

    def is_zero(self):
        return all(c == 0 for c in self.coords)

    def inverse(self):
        n = self.norm()
        if n == 0:
            return None
        return Octonion(tuple(c / n for c in self.conjugate().coords))


def _random_fraction(rng):
    return Fraction(rng.randint(-9, 9), rng.randint(1, 9))


def random_quaternion(rng):
    return Quaternion(*(_random_fraction(rng) for _ in range(4)))


def random_octonion(rng):
    return Octonion(tuple(_random_fraction(rng) for _ in range(8)))


def associativity_probe(algebra, sample_size):
    """H: full associativity on random triples; O: alternativity on random
    pairs plus an explicit non-associative basis triple.  At most
    PROBE_SAMPLE_BOUND samples, a few seconds of exact arithmetic."""
    if sample_size < 1:
        raise ValidationError("sample_size must be >= 1")
    if sample_size > PROBE_SAMPLE_BOUND:
        raise ResourceLimitError(f"{sample_size} samples exceed the fixed probe "
                                 f"bound of {PROBE_SAMPLE_BOUND}")
    rng = random.Random(0)
    if algebra == "H":
        failures = 0
        for _ in range(sample_size):
            a, b, c = (random_quaternion(rng) for _ in range(3))
            if (a * b) * c != a * (b * c):
                failures += 1
        return {"algebra": "H", "samples": sample_size,
                "associative_failures": failures, "fully_associative": failures == 0}
    if algebra == "O":
        alt_failures = 0
        for _ in range(sample_size):
            a, b = random_octonion(rng), random_octonion(rng)
            if (a * a) * b != a * (a * b) or (a * b) * b != a * (b * b):
                alt_failures += 1
        e1, e2, e3 = Octonion.unit(1), Octonion.unit(2), Octonion.unit(3)
        lhs = (e1 * e2) * e3
        rhs = e1 * (e2 * e3)
        witness = {
            "triple": "(e1, e2, e3)",
            "lhs": [str(c) for c in lhs.coords],
            "rhs": [str(c) for c in rhs.coords],
            "anti_associated": lhs == Octonion(tuple(-c for c in rhs.coords)),
            "associator_nonzero": lhs != rhs,
        }
        return {"algebra": "O", "samples": sample_size,
                "alternativity_failures": alt_failures,
                "alternative": alt_failures == 0,
                "nonassociative_witness": witness}
    raise ValidationError(f"unknown algebra {algebra!r}")
