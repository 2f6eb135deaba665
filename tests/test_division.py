"""Quaternions and octonions: exact identities over the rationals."""

import random
from fractions import Fraction
from itertools import product

import pytest

from fsg import division
from fsg.division import (
    FANO_LINES,
    PROBE_SAMPLE_BOUND,
    Octonion,
    Quaternion,
    associativity_probe,
    octonion_table,
    random_octonion,
    random_quaternion,
)
from fsg.errors import InternalDefectError, ResourceLimitError, ValidationError


def quat(*vals):
    """The quaternion with the given leading components, the rest 0."""
    return Quaternion(tuple(Fraction(v) for v in vals + (0,) * (4 - len(vals))))


def octo(*vals):
    """The octonion with the given leading coordinates, the rest 0."""
    return Octonion(tuple(Fraction(v) for v in vals + (0,) * (8 - len(vals))))


QUAT_ONE = quat(1)
QUAT_I = quat(0, 1)
QUAT_J = quat(0, 0, 1)
QUAT_K = quat(0, 0, 0, 1)


def test_quaternion_units():
    assert QUAT_I * QUAT_J == QUAT_K
    assert QUAT_J * QUAT_I == quat(0, 0, 0, -1)
    assert QUAT_I * QUAT_I == quat(-1)
    assert (QUAT_I * QUAT_J) + (QUAT_J * QUAT_I) == quat(0)
    assert QUAT_ONE * QUAT_K == QUAT_K


def test_quaternion_conj_norm_inverse():
    assert QUAT_I.conjugate() == quat(0, -1)
    assert QUAT_I.norm() == 1
    assert QUAT_I.inverse() == quat(0, -1)
    q = quat(1, 2, 3, 4)
    assert q.norm() == 30
    assert q.conjugate() * q == quat(q.norm())
    assert q * q.inverse() == QUAT_ONE
    assert quat(0).inverse() is None


def test_quaternion_norm_composition_random():
    rng = random.Random(3)
    for _ in range(100):
        a, b = random_quaternion(rng), random_quaternion(rng)
        assert (a * b).norm() == a.norm() * b.norm()
        assert (a * b).conjugate() == b.conjugate() * a.conjugate()


def test_quaternion_fully_associative():
    rep = associativity_probe("H", 100)
    assert rep["fully_associative"]
    # and exhaustively on the imaginary basis triples
    basis = [QUAT_I, QUAT_J, QUAT_K]
    for a, b, c in product(basis, repeat=3):
        assert (a * b) * c == a * (b * c)


def test_octonion_table_structure():
    table = octonion_table()
    assert len(FANO_LINES) == 7
    for i in range(1, 8):
        assert table[i][i] == (0, -1)
        for j in range(1, 8):
            if i != j:
                k, s = table[i][j]
                assert 1 <= k <= 7
                assert table[j][i] == (k, -s)


@pytest.mark.parametrize("last", [(7, 1, 2), (7, 7, 3), (7, 1, 0)])
def test_a_wrong_fano_line_leaves_the_table_incomplete(monkeypatch, last):
    # unit squares and anticommutativity are not checked apart: 42 writes
    # fill the 42 off-diagonal slots only if each is written once, in pairs
    # e_x e_y = -e_y e_x; a line that rewrites a slot, a diagonal or row 0
    # leaves one empty
    monkeypatch.setattr(division, "FANO_LINES", FANO_LINES[:-1] + (last,))
    with pytest.raises(InternalDefectError, match="octonion table is incomplete"):
        division._build_octonion_table()


def test_octonion_anti_associative_triple():
    e1, e2, e3 = Octonion.unit(1), Octonion.unit(2), Octonion.unit(3)
    lhs = (e1 * e2) * e3
    rhs = e1 * (e2 * e3)
    assert lhs != rhs
    assert lhs == Octonion(tuple(-c for c in rhs.coords))


def test_octonion_alternativity():
    rep = associativity_probe("O", 100)
    assert rep["alternative"]
    w = rep["nonassociative_witness"]
    assert w["associator_nonzero"] and w["anti_associated"]
    units = [Octonion.unit(i) for i in range(8)]
    for a in units:
        for b in units:
            assert (a * a) * b == a * (a * b)
            assert (a * b) * b == a * (b * b)


def test_octonion_norm_composition():
    rng = random.Random(5)
    for _ in range(100):
        a, b = random_octonion(rng), random_octonion(rng)
        assert (a * b).norm() == a.norm() * b.norm()
        assert (a * b).conjugate() == b.conjugate() * a.conjugate()


def test_octonion_inverse():
    o = octo(1, 1, 0, 2, 0, 0, 0, Fraction(1, 3))
    assert o.conjugate() * o == octo(o.norm())
    assert o.norm() > 0
    assert o * o.inverse() == octo(1)
    assert octo(0).inverse() is None


def test_dispatch_errors():
    with pytest.raises(ValidationError):
        associativity_probe("S", 10)    # no sedenions
    with pytest.raises(ValidationError):
        associativity_probe("H", 0)


def test_probe_sample_bound():
    # 10**4 octonion samples took 33 s (2-core x86); the bound is refused
    # before any sample is drawn
    assert associativity_probe("H", PROBE_SAMPLE_BOUND)["fully_associative"]
    for algebra in ("H", "O"):
        with pytest.raises(ResourceLimitError, match="fixed probe bound of 1000"):
            associativity_probe(algebra, PROBE_SAMPLE_BOUND + 1)


def test_quaternion_hamilton_product_formula():
    # (uu' - x.x', ux' + u'x + x ^ x') against the component formula
    rng = random.Random(11)
    for _ in range(50):
        a, b = random_quaternion(rng), random_quaternion(rng)
        (au, ax, ay, az), (bu, bx, by, bz) = a.coords, b.coords
        real = au * bu - (ax * bx + ay * by + az * bz)
        cross = (ay * bz - az * by,
                 az * bx - ax * bz,
                 ax * by - ay * bx)
        want = Quaternion((
            real,
            au * bx + bu * ax + cross[0],
            au * by + bu * ay + cross[1],
            au * bz + bu * az + cross[2],
        ))
        assert a * b == want
