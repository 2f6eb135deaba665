"""The binary [24,12,8] Golay code, its Steiner octad system, and the
Mathieu group M24 as the code's automorphism group.

Construction: coordinates 0..22 are the residues mod 23 and coordinate
23 is the projective point at infinity.  The code is the parity
extension of the length-23 cyclic code spanned by the shifts of the
quadratic-residue indicator vector; the build verifies dimension 12 and
the weight distribution {0:1, 8:759, 12:2576, 16:759, 24:1}, which force
self-duality (|a & b| = (wt a + wt b - wt(a ^ b))/2 is even), rather than
trusting any tabulated matrix.  With this labeling M24 = <x -> x+1,
x -> -1/x, delta>, the first two by matgroups.point_action; delta fixes 0
and infinity and sends a nonzero square x to 9x^3 and a non-square x to
x^3/9 (Conway, SPLAG ch. 10).  Each generator is verified exhaustively
to be a code automorphism, and the chain orders of M24 and its one- and
two-point stabilizers are checked against the M24, M23 and M22 rows of
the sporadic table.

Codewords are 24-bit integers throughout (bit i = coordinate i).  The
code and M24 are built once per process (functools.cache); threads that
race on the first call may each build, and every build is the same.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property
from itertools import combinations
from math import comb

from .errors import InternalDefectError
from .fields import FieldSpec
from .matgroups import point_action
from .perms import PermGroup, Permutation, transitivity_degree
from .sporadic import sporadic_table

LENGTH = 24
INFINITY = 23


@dataclass(frozen=True)
class BinaryCode:
    """A binary linear code given by generator bit-rows."""

    length: int
    dimension: int
    generators: tuple

    def codewords(self):
        words = [0]
        for g in self.generators:
            words += [w ^ g for w in words]
        return words

    @cached_property
    def codeword_set(self):
        return frozenset(self.codewords())

    def weight_distribution(self):
        dist = {}
        for w in self.codewords():
            k = w.bit_count()
            dist[k] = dist.get(k, 0) + 1
        return dist

    def octads(self):
        return sorted(w for w in self.codewords() if w.bit_count() == 8)

    def is_self_dual(self):
        if 2 * self.dimension != self.length:
            return False
        return all((a & b).bit_count() % 2 == 0
                   for a in self.generators for b in self.generators)


GOLAY_WEIGHT_DISTRIBUTION = {0: 1, 8: 759, 12: 2576, 16: 759, 24: 1}


def _quadratic_residues(p):
    return sorted({x * x % p for x in range(1, p)})


def _gf2_row_reduce(rows):
    basis = []
    for r in rows:
        cur = r
        for b in basis:
            cur = min(cur, cur ^ b)
        if cur:
            basis.append(cur)
    basis.sort(reverse=True)
    return basis


@cache
def build_golay() -> BinaryCode:
    """Deterministic construction, fully verified before returning."""
    qr = _quadratic_residues(23)
    chi = sum(1 << r for r in qr)
    shifts = []
    for s in range(23):
        m = 0
        for i in range(23):
            if chi >> i & 1:
                m |= 1 << ((i + s) % 23)
        shifts.append(m)
    extended = [m | (m.bit_count() % 2) << INFINITY for m in shifts]
    basis = _gf2_row_reduce(extended)
    if len(basis) != 12:
        raise InternalDefectError(f"Golay basis has rank {len(basis)}, not 12")
    code = BinaryCode(LENGTH, 12, tuple(basis))
    if code.weight_distribution() != GOLAY_WEIGHT_DISTRIBUTION:
        raise InternalDefectError("Golay weight distribution is wrong")
    return code


# ------------------------------------------------------------------- octads


def octad_steiner_check(code: BinaryCode, exhaustive=True):
    """Verify that the 759 octads form a Steiner system S(5, 8, 24).

    The counting identity 759 * C(8,5) = C(24,5) plus distinctness of all
    covered 5-subsets gives exact-coverage; with exhaustive=True every
    5-subset is actually enumerated and checked to appear exactly once.
    """
    octads = code.octads()
    report = {
        "octad_count": len(octads),
        "counting_identity": len(octads) * comb(8, 5) == comb(24, 5),
        "octads_through_point": None,
        "octads_through_pair": None,
        "every_5_subset_once": None,
    }
    through0 = sum(1 for o in octads if o & 1)
    through01 = sum(1 for o in octads if (o & 3) == 3)
    report["octads_through_point"] = through0
    report["octads_through_pair"] = through01
    if exhaustive:
        seen = set()
        for o in octads:
            support = [i for i in range(LENGTH) if o >> i & 1]
            for five in combinations(support, 5):
                if five in seen:
                    report["every_5_subset_once"] = False
                    return report
                seen.add(five)
        report["every_5_subset_once"] = len(seen) == comb(24, 5)
    return report


# ---------------------------------------------------------------- mathieu


def is_code_automorphism(code: BinaryCode, perm: Permutation) -> bool:
    """Exhaustive check: perm maps each of the 4096 codewords into the code.

    A word's image is t0[w & 255] | t1[w >> 8 & 255] | t2[w >> 16], from
    three 256-entry tables, one per byte, built bit by bit from perm's
    images.  Every codeword is still moved and looked up: the
    linear-algebra shortcut is intentionally avoided; this is the verifier.
    """
    t0, t1, t2 = tables = [0], [0], [0]
    for k, table in enumerate(tables):
        for low in range(8):
            bit = 1 << perm(8 * k + low)
            table += [t | bit for t in table]
    words = code.codeword_set
    return all(t0[w & 255] | t1[w >> 8 & 255] | t2[w >> 16] in words for w in words)


def psl2_23_generators():
    """x -> x+1 and x -> -1/x on the projective line over F_23: the matrices
    [[1, 0], [1, 1]] and [[0, 1], [-1, 0]] on the points (1, x), x = 0..22,
    and (0, 1), the point at infinity."""
    K = FieldSpec(23, 1, (0, 1), 23).codes      # not bound by FSG_MAX_FIELD_SIZE
    points = [(1, x) for x in range(23)] + [(0, 1)]
    return point_action(K, [[[1, 0], [1, 1]], [[0, 1], [K.neg(1), 0]]], points)


def conway_delta():
    """Conway's delta: fixes 0 and infinity, x -> 9x^3 for a nonzero
    square x and x -> x^3/9 for a non-square x, mod 23."""
    squares = set(_quadratic_residues(23))
    images = list(range(LENGTH))
    for x in range(1, 23):
        images[x] = 9 * x ** 3 % 23 if x in squares else x ** 3 * pow(9, -1, 23) % 23
    return Permutation(images)


@dataclass(frozen=True)
class MathieuChain:
    group: PermGroup
    order: int
    point_stabilizer_order: int
    two_point_stabilizer_order: int
    transitivity: tuple

    def as_dict(self):
        return {
            "order": str(self.order),
            "point_stabilizer_order": str(self.point_stabilizer_order),
            "two_point_stabilizer_order": str(self.two_point_stabilizer_order),
            "transitivity": {"k": self.transitivity[0],
                             "sharp": self.transitivity[1]},
        }


@cache
def mathieu_m24() -> MathieuChain:
    """M24 as verified Golay-code automorphisms, with the stabilizer orders
    |M23| and |M22| read off the first two chain levels (M24 is
    2-transitive, so any two base points give them); the same chain gives
    the transitivity degree."""
    code = build_golay()
    gens = psl2_23_generators() + [conway_delta()]
    for g in gens:
        if not is_code_automorphism(code, g):
            raise InternalDefectError(f"generator {g.cycle_string()} is not a code automorphism")
    group = PermGroup(LENGTH, gens)
    order = group.order()
    sizes = group.basic_orbit_sizes()
    stab1 = order // sizes[0]
    stab2 = stab1 // sizes[1]
    rows = {e.symbol: e.order for e in sporadic_table()}
    want = (rows["M24"], rows["M23"], rows["M22"])
    if (order, stab1, stab2) != want:
        raise InternalDefectError(
            f"chain orders {(order, stab1, stab2)} are not |M24|, |M23|, |M22| = {want}")
    return MathieuChain(
        group=group,
        order=order,
        point_stabilizer_order=stab1,
        two_point_stabilizer_order=stab2,
        transitivity=transitivity_degree(group),
    )
