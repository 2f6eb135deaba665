"""Exact quaternion and octonion arithmetic over the rationals.

Components are fractions, so norm composition, alternativity and the
conjugation anti-morphism are all tested as exact equalities.  The
octonion multiplication table is the oriented-triple (Fano plane)
convention with lines (1,2,4),(2,3,5),(3,4,6),(4,5,7),(5,6,1),(6,7,2),
(7,1,3): the orientation is a convention, fixed here once.  The build
writes e_x e_y = e_z = -e_y e_x into the 42 off-diagonal slots, complete
only if each is written once, so unit squares -1 and anticommutativity
hold; alternativity is checked on first use.  The quaternions are the
span of (1, e1, e2, e4), closed as (1, 2, 4) is a Fano line: i, j, k =
e1, e2, e4, and both algebras multiply through the one table.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from math import lcm

from .errors import InternalDefectError, ResourceLimitError, ValidationError

FANO_LINES = ((1, 2, 4), (2, 3, 5), (3, 4, 6), (4, 5, 7),
              (5, 6, 1), (6, 7, 2), (7, 1, 3))
PROBE_SAMPLE_BOUND = 1000


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
    """u * v over table's basis, on integer numerators over the common
    denominators of u and v; one Fraction per coordinate at the end."""
    du, dv = lcm(*(a.denominator for a in u)), lcm(*(b.denominator for b in v))
    nu = [a.numerator * (du // a.denominator) for a in u]
    nv = [b.numerator * (dv // b.denominator) for b in v]
    out = [0] * len(u)
    for i, a in enumerate(nu):
        if a:
            for j, b in enumerate(nv):
                if b:
                    k, s = table[i][j]
                    out[k] += s * a * b
    return tuple(Fraction(c, du * dv) for c in out)


@cache
def octonion_table():
    table = _build_octonion_table()
    _validate_octonion_table(table)
    return table


@cache
def _basis_table(basis):
    """octonion_table() on the span of the units in basis, which the product
    must close: entry [i][j] = (position of the product unit, sign)."""
    pos = {b: i for i, b in enumerate(basis)}
    table = octonion_table()
    return tuple(tuple((pos[table[a][b][0]], table[a][b][1]) for b in basis) for a in basis)


def _validate_octonion_table(table):
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
class _Algebra:
    """Fractions over the octonion units BASIS (1 first), a span the table
    closes; the real part is coords[0]."""
    coords: tuple

    def __add__(self, o):
        return type(self)(tuple(a + b for a, b in zip(self.coords, o.coords)))

    def __sub__(self, o):
        return type(self)(tuple(a - b for a, b in zip(self.coords, o.coords)))

    def __mul__(self, o):
        return type(self)(_mul_coords(_basis_table(self.BASIS), self.coords, o.coords))

    def conjugate(self):
        return type(self)((self.coords[0],) + tuple(-c for c in self.coords[1:]))

    def norm(self) -> Fraction:
        return sum(c * c for c in self.coords)

    def is_zero(self):
        return all(c == 0 for c in self.coords)

    def inverse(self):
        n = self.norm()
        if n == 0:
            return None
        return type(self)(tuple(c / n for c in self.conjugate().coords))


class Quaternion(_Algebra):
    BASIS = (0, 1, 2, 4)


class Octonion(_Algebra):
    BASIS = tuple(range(8))

    @staticmethod
    def unit(i):
        coords = [Fraction(0)] * 8
        coords[i] = Fraction(1)
        return Octonion(tuple(coords))


def _random_fraction(rng):
    return Fraction(rng.randint(-9, 9), rng.randint(1, 9))


def random_quaternion(rng):
    return Quaternion(tuple(_random_fraction(rng) for _ in range(4)))


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
