"""Leech-lattice minimal vectors counted from the Golay code.

Normalization: lattice vectors are integer coordinate vectors x
satisfying the code congruences below, and the minimal ("norm 4")
vectors are those with raw squared length x.x = 32 (so the normalized
squared length is x.x/8).  Membership conditions, with C the Golay code
on coordinates 0..23:

  * all coordinates share a parity m (0 or 1);
  * the set of coordinates with x_i = m + 2 (mod 4) supports a codeword;
  * sum(x_i) = 4m (mod 8).

Each minimal-vector shape is counted twice: by closed-form
combinatorics and by constrained enumeration over its support/sign
choices with the membership conditions checked literally; the two
counts must agree.  Past build_golay's certificate the closed forms are
constants, totalling the kissing number 196560; the independent oracle
for it is the q^2 coefficient of the theta series (J + 24) * Delta.

The check sees a candidate as four residue masks (bit i of mask k set
iff x_i = k mod 4), built by bit operations from its coordinates, and
its sum.  The conditions read nothing else of x, so the check is still
literal, in a few integer operations: the odd mask (masks 1 and 3) is
empty or full, mask m + 2 is a codeword, and the sum is 4m mod 8.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from .errors import InternalDefectError
from .golay import LENGTH, build_golay
from .moonshine import leech_theta_prefix

_ALL = (1 << LENGTH) - 1


@dataclass(frozen=True)
class LatticeShapeCount:
    shape: str          # four_four | two_octad | three_ones
    count: int
    norm: int = 4

    def as_dict(self):
        return {"shape": self.shape, "count": self.count, "norm": self.norm}


def _is_leech_vector(residues, total, codewords):
    """The three congruence conditions on a vector given by its residue
    masks and its coordinate sum."""
    odd = residues[1] | residues[3]
    if odd not in (0, _ALL):
        return False                    # mixed parity
    m = 1 if odd else 0
    return residues[m + 2] in codewords and total % 8 == 4 * m


def _enumerate_four_four(codewords):
    """Vectors (+-4, +-4, 0^22): all sign choices on all coordinate pairs."""
    count = 0
    for i in range(LENGTH):
        for j in range(i + 1, LENGTH):
            for si in (4, -4):
                for sj in (4, -4):
                    residues = [_ALL ^ (1 << i | 1 << j), 0, 0, 0]
                    residues[si % 4] |= 1 << i
                    residues[sj % 4] |= 1 << j
                    if _is_leech_vector(residues, si + sj, codewords):
                        count += 1
    return count


def _signed_twos(word, codewords):
    """Vectors (+-2 on the support of word, 0 elsewhere): all sign choices,
    minus running over every subset of the support that carries -2."""
    count = 0
    minus = word
    while True:
        plus = word ^ minus             # 2 and -2 are both 2 mod 4
        residues = (_ALL ^ word, 0, plus | minus, 0)
        if _is_leech_vector(residues, 2 * plus.bit_count() - 2 * minus.bit_count(), codewords):
            count += 1
        if not minus:
            return count
        minus = (minus - 1) & word


def _enumerate_three_ones(code, codewords):
    """Vectors (-+3, +-1^23): -1 on a codeword and +1 elsewhere, one
    coordinate shifted by +-4; squared length 32 forces the shift
    direction, so the shifted coordinate becomes -3 times its sign."""
    count = 0
    for c in code.codewords():
        total = LENGTH - 2 * c.bit_count()
        for j in range(LENGTH):
            bit = 1 << j
            old = -1 if c & bit else 1
            new = -3 * old
            residues = [0, _ALL ^ c, 0, c]
            residues[old % 4] ^= bit
            residues[new % 4] |= bit
            if _is_leech_vector(residues, total - old + new, codewords):
                count += 1
    return count


def leech_minimal_vectors():
    """Census of the norm-4 vectors by coordinate shape.

    Closed forms: 4*C(24,2) for (+-4^2), 759*2^7 for (+-2^8 on octads),
    2^12*24 for (-+3, +-1^23); each verified against its enumeration.
    """
    code = build_golay()
    codewords = code.codeword_set
    closed = {
        "four_four": 4 * comb(LENGTH, 2),
        "two_octad": len(code.octads()) * 2 ** 7,
        "three_ones": 2 ** code.dimension * LENGTH,
    }
    enumerated = {
        "four_four": _enumerate_four_four(codewords),
        "two_octad": sum(_signed_twos(w, codewords) for w in code.octads()),
        "three_ones": _enumerate_three_ones(code, codewords),
    }
    if closed != enumerated:
        raise InternalDefectError(
            f"shape counts disagree: closed {closed} vs enumerated {enumerated}")
    return [LatticeShapeCount(shape, closed[shape])
            for shape in ("four_four", "two_octad", "three_ones")]


def kissing_number_consistency(counts=None):
    """The shape-census total against the theta-series q^2 coefficient;
    counts is a leech_minimal_vectors() result, taken fresh when omitted."""
    if counts is None:
        counts = leech_minimal_vectors()
    total = sum(c.count for c in counts)
    theta = leech_theta_prefix(3)
    return {
        "census_total": total,
        "theta_norm4_coefficient": theta.coeff(2),
        "match": total == theta.coeff(2),
    }


def norm6_dodecad_lower_bound():
    """Norm-6 sanity term: vectors (+-2^12, 0^12) on dodecad supports.

    The allowed sign patterns per dodecad are counted by enumerating one
    dodecad exhaustively (4096 sign choices) and multiplying by the
    dodecad count; the result must not exceed the theta N(6) coefficient.
    """
    code = build_golay()
    dodecads = [w for w in code.codewords() if w.bit_count() == 12]
    per_dodecad = _signed_twos(dodecads[0], code.codeword_set)
    theta = leech_theta_prefix(4)
    n6 = theta.coeff(3)
    bound = len(dodecads) * per_dodecad
    return {
        "dodecad_count": len(dodecads),
        "sign_patterns_per_dodecad": per_dodecad,
        "dodecad_vectors": bound,
        "theta_norm6_coefficient": n6,
        "lower_bound_holds": 0 < bound <= n6,
    }
