"""Leech minimal-vector census and theta-series consistency."""

from math import comb

import pytest

from fsg.errors import ValidationError
from fsg.golay import build_golay
from fsg.leech import (
    KISSING_NUMBER,
    LatticeShapeCount,
    _is_leech_vector,
    kissing_number_consistency,
    leech_minimal_vectors,
    norm6_dodecad_lower_bound,
)
from fsg.moonshine import leech_theta_prefix


@pytest.fixture(scope="module")
def counts():
    return leech_minimal_vectors()


def test_shape_counts(counts):
    by_shape = {c.shape: c.count for c in counts}
    assert by_shape["four_four"] == 4 * comb(24, 2) == 1104
    assert by_shape["two_octad"] == 759 * 2 ** 7 == 97152
    assert by_shape["three_ones"] == 2 ** 12 * 24 == 98304
    assert all(isinstance(c, LatticeShapeCount) and c.norm == 4 for c in counts)


def test_total_is_kissing_number(counts):
    assert sum(c.count for c in counts) == KISSING_NUMBER == 196560


def test_zero_vector_excluded():
    code = build_golay()
    assert _is_leech_vector([0] * 24, code.codeword_set())  # in the lattice...
    # ...but has norm 0, so no shape census can contain it
    assert all(c.count > 0 for c in leech_minimal_vectors())


def test_membership_conditions():
    code = build_golay()
    words = code.codeword_set()
    octad = code.octads()[0]
    support = [i for i in range(24) if octad >> i & 1]
    x = [0] * 24
    for i in support:
        x[i] = 2
    assert _is_leech_vector(x, words)          # even minus count (zero)
    x[support[0]] = -2
    assert not _is_leech_vector(x, words)      # odd minus count breaks mod 8
    x[support[1]] = -2
    assert _is_leech_vector(x, words)
    # a (4,4) pair is fine, a lone 4 is not (sum mod 8)
    y = [0] * 24
    y[0] = y[5] = 4
    assert _is_leech_vector(y, words)
    y[5] = 0
    assert not _is_leech_vector(y, words)


def test_kissing_matches_theta(counts):
    rep = kissing_number_consistency()
    assert rep["match"]
    assert rep["census_total"] == rep["theta_norm4_coefficient"] == 196560
    assert kissing_number_consistency(counts) == rep


def test_theta_prefix_values():
    th = leech_theta_prefix(4)
    assert th.coeff(0) == 1       # the zero vector
    assert th.coeff(1) == 0       # no norm-2 vectors
    assert th.coeff(2) == 196560
    assert th.coeff(3) == 16773120
    # nonnegative as far as tested
    assert all(th.coeff(m) >= 0 for m in range(5))
    assert leech_theta_prefix(0).coeffs == (1,)
    with pytest.raises(ValidationError):
        leech_theta_prefix(-1)


def test_norm6_dodecad_sanity():
    rep = norm6_dodecad_lower_bound()
    assert rep["dodecad_count"] == 2576
    assert rep["sign_patterns_per_dodecad"] == 2 ** 11
    assert rep["dodecad_vectors"] == 2576 * 2048
    assert rep["lower_bound_holds"]
    assert rep["theta_norm6_coefficient"] == 16773120
