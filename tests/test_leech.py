"""Leech minimal-vector census and theta-series consistency."""

import random
from collections import Counter
from dataclasses import replace
from math import comb

import pytest

import fsg.leech as leech_mod
from fsg.errors import InternalDefectError, ValidationError
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


def _literal(x, codewords):
    """The membership rule coordinate by coordinate: the reference the
    residue-mask kernel is compared against."""
    m = x[0] % 2
    marked = (m + 2) % 4
    mask = 0
    total = 0
    for i, v in enumerate(x):
        if v % 2 != m:
            return False
        if v % 4 == marked:
            mask |= 1 << i
        total += v
    return mask in codewords and total % 8 == 4 * m % 8


def _encode(x):
    """The kernel's view of a coordinate vector: residue masks and sum."""
    residues = [0, 0, 0, 0]
    for i, v in enumerate(x):
        residues[v % 4] |= 1 << i
    return tuple(residues), sum(x)


def _check(x, codewords):
    return _is_leech_vector(*_encode(x), codewords)


def _vector(entries):
    x = [0] * 24
    for i, v in entries:
        x[i] = v
    return x


def _signed(word, value):
    """Every vector with +-value on the support of word, 0 elsewhere."""
    support = [i for i in range(24) if word >> i & 1]
    for signs in range(1 << len(support)):
        yield _vector((i, -value if signs >> b & 1 else value)
                      for b, i in enumerate(support))


def _census_candidates(code):
    """The 293,712 census candidates as coordinate vectors, listed
    without the library's enumerators."""
    for i in range(24):
        for j in range(i + 1, 24):
            for si in (4, -4):
                for sj in (4, -4):
                    yield _vector([(i, si), (j, sj)])
    for octad in code.octads():
        yield from _signed(octad, 2)
    for c in code.codewords():
        base = [-1 if c >> i & 1 else 1 for i in range(24)]
        for j in range(24):
            x = base[:]
            x[j] = -3 * base[j]
            yield x


def _record_kernel(monkeypatch):
    """Route every kernel call through a recorder; returns the Counter of
    (residues, total) inputs it saw."""
    seen = Counter()
    kernel = leech_mod._is_leech_vector

    def recording(residues, total, codewords):
        seen[tuple(residues), total] += 1
        return kernel(residues, total, codewords)

    monkeypatch.setattr(leech_mod, "_is_leech_vector", recording)
    return seen


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
    assert _check([0] * 24, code.codeword_set)  # in the lattice...
    # ...but has norm 0, so no shape census can contain it
    assert all(c.count > 0 for c in leech_minimal_vectors())


def test_membership_conditions():
    code = build_golay()
    words = code.codeword_set
    octad = code.octads()[0]
    support = [i for i in range(24) if octad >> i & 1]
    x = [0] * 24
    for i in support:
        x[i] = 2
    assert _check(x, words)          # even minus count (zero)
    x[support[0]] = -2
    assert not _check(x, words)      # odd minus count breaks mod 8
    x[support[1]] = -2
    assert _check(x, words)
    # a (4,4) pair is fine, a lone 4 is not (sum mod 8)
    y = [0] * 24
    y[0] = y[5] = 4
    assert _check(y, words)
    y[5] = 0
    assert not _check(y, words)


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


def test_kernel_matches_literal_rule_on_every_candidate(monkeypatch):
    code = build_golay()
    words = code.codeword_set
    seen = _record_kernel(monkeypatch)
    leech_minimal_vectors()
    norm6_dodecad_lower_bound()
    dodecad = next(w for w in code.codewords() if w.bit_count() == 12)
    fed = Counter()
    accepted = 0
    for x in [*_census_candidates(code), *_signed(dodecad, 2)]:
        encoded = _encode(x)
        verdict = _literal(x, words)
        assert _is_leech_vector(*encoded, words) == verdict, x
        fed[encoded] += 1
        accepted += verdict
    assert accepted == KISSING_NUMBER + 2 ** 11
    assert seen == fed       # the census fed the kernel exactly these vectors


def _residue_vector(rng, m, marked):
    """Random entries in -4..4: x_i = m + 2 mod 4 on marked, m elsewhere."""
    choices = {0: (-4, 0, 4), 1: (-3, 1), 2: (-2, 2), 3: (-1, 3)}
    return [rng.choice(choices[(m + 2 * (marked >> i & 1)) % 4]) for i in range(24)]


def _shift_sum(rng, x):
    """Move one coordinate by 4 inside -4..4: residues kept, sum off by 4."""
    i = rng.randrange(24)
    x[i] += -4 if x[i] > 0 else 4


def test_kernel_matches_literal_rule_on_seeded_vectors():
    code = build_golay()
    words = code.codeword_set
    codewords = code.codewords()
    rng = random.Random(20261018)
    verdicts = Counter()
    for kind in ("member", "parity", "code", "sum") * 1000:
        m = rng.randrange(2)
        marked = rng.choice(codewords)
        if kind == "code":          # even size, distance 2 from a codeword
            marked ^= (1 << rng.randrange(12)) | (1 << rng.randrange(12, 24))
        x = _residue_vector(rng, m, marked)
        if sum(x) % 8 != 4 * m:
            _shift_sum(rng, x)
        if kind == "sum":
            _shift_sum(rng, x)
        elif kind == "parity":      # two coordinates moved by -+1, sum kept
            i = rng.choice([k for k in range(24) if x[k] > -4])
            j = rng.choice([k for k in range(24) if k != i and x[k] < 4])
            x[i] -= 1
            x[j] += 1
        assert all(-4 <= v <= 4 for v in x)
        verdict = _literal(x, words)
        assert _check(x, words) == verdict, (kind, x)
        verdicts[kind, verdict] += 1
    assert verdicts == {("member", True): 1000, ("parity", False): 1000,
                        ("code", False): 1000, ("sum", False): 1000}


def test_every_candidate_is_checked(monkeypatch):
    seen = _record_kernel(monkeypatch)
    leech_minimal_vectors()
    assert sum(seen.values()) == 293712
    seen.clear()
    norm6_dodecad_lower_bound()
    assert sum(seen.values()) == 4096


def test_enumeration_decides_the_counts(monkeypatch):
    code = build_golay()
    dropped = replace(code)
    dropped.__dict__["codeword_set"] = code.codeword_set - {code.octads()[0]}
    monkeypatch.setattr(leech_mod, "build_golay", lambda: dropped)
    with pytest.raises(InternalDefectError, match="shape counts disagree"):
        leech_minimal_vectors()
