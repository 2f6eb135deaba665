"""Cross-checks against sympy, which shares no code with this package.

Agreeing orders/centers over randomized generator sets is strong evidence
the stabilizer-chain machinery is right, and sympy's GF(p)[x] routines
check the deterministic modulus and generator choice of every small
extension field.  Skipped cleanly if sympy is absent.
"""

import random
from itertools import product

import pytest

sympy_comb = pytest.importorskip("sympy.combinatorics")

from sympy.combinatorics import Permutation as SymPerm
from sympy.combinatorics import PermutationGroup as SymGroup

from sympy import factorint
from sympy.polys.domains import ZZ
from sympy.polys.galoistools import gf_irreducible_p, gf_pow_mod, gf_strip

from fsg.fields import make_field, multiplicative_generator, prime_power
from fsg.golay import mathieu_m24
from fsg.perms import PermGroup, Permutation, center_order, conjugacy_classes
from fsg.zoo import PARTITION_BOUND, partition_count


def random_perm(rng, degree):
    images = list(range(degree))
    rng.shuffle(images)
    return images


@pytest.mark.parametrize("seed", range(12))
def test_orders_match_sympy_on_random_generators(seed):
    rng = random.Random(seed)
    degree = rng.randint(5, 11)
    k = rng.randint(1, 3)
    gens = [random_perm(rng, degree) for _ in range(k)]
    ours = PermGroup(degree, [Permutation(g) for g in gens])
    theirs = SymGroup([SymPerm(g) for g in gens])
    assert ours.order() == theirs.order()
    assert ours.orbits() == sorted(sorted(orb) for orb in theirs.orbits())
    # every chain level: what remains below level i is the pointwise
    # stabilizer of the base points b_0..b_i
    remaining = ours.order()
    bases = []
    for lev, size in zip(ours.levels, ours.basic_orbit_sizes()):
        bases.append(lev.base)
        remaining //= size
        assert remaining == theirs.pointwise_stabilizer(bases).order()
    for orb in ours.orbits():
        # orbit-stabilizer at the orbit's first point
        assert ours.order() // len(orb) == theirs.stabilizer(orb[0]).order()


@pytest.mark.parametrize("seed", range(6))
def test_membership_matches_sympy(seed):
    rng = random.Random(100 + seed)
    degree = 8
    gens = [random_perm(rng, degree) for _ in range(2)]
    ours = PermGroup(degree, [Permutation(g) for g in gens])
    theirs = SymGroup([SymPerm(g) for g in gens])
    for _ in range(20):
        candidate = random_perm(rng, degree)
        assert (Permutation(candidate) in ours) == \
            theirs.contains(SymPerm(candidate))


@pytest.mark.parametrize("seed", range(4))
def test_class_counts_match_sympy(seed):
    rng = random.Random(500 + seed)
    degree = rng.randint(5, 8)
    gens = [random_perm(rng, degree) for _ in range(2)]
    ours = PermGroup(degree, [Permutation(g) for g in gens])
    if ours.order() > 5000:
        pytest.skip("keep the brute-force comparison quick")
    theirs = SymGroup([SymPerm(g) for g in gens])
    data = conjugacy_classes(ours)
    assert data.num_classes == len(theirs.conjugacy_classes())
    assert center_order(ours) == theirs.center().order()


# Every GF(p^f) with f >= 2 and q <= 2^12.  Above that the sweep over the
# smaller candidates grows fast: to 2^16 it takes 29 s, 14 s for 2^16 alone.
EXTENSION_FIELDS = [pf for pf in map(prime_power, range(4, 2 ** 12 + 1))
                    if pf and pf[1] >= 2]


def test_modulus_and_generator_match_sympy():
    assert len(EXTENSION_FIELDS) == 40
    for p, f in EXTENSION_FIELDS:
        F = make_field(p, f)
        # sympy reads coefficients high degree first; ours are low first
        modulus = list(reversed(F.modulus))
        assert gf_irreducible_p(modulus, p, ZZ), (p, f)
        # every monic candidate before it, low-to-high lexicographic, is reducible
        for lower in product(range(p), repeat=f):
            candidate = [1] + list(reversed(lower))
            if candidate == modulus:
                break
            assert not gf_irreducible_p(candidate, p, ZZ), (p, f, lower)
        g = gf_strip(list(reversed(multiplicative_generator(F).coeffs)))
        n = F.q - 1
        assert gf_pow_mod(g, n, modulus, p, ZZ) == [1]
        for r in factorint(n):
            assert gf_pow_mod(g, n // r, modulus, p, ZZ) != [1], (p, f, r)


def test_partition_count_matches_sympy():
    from sympy.functions.combinatorial.numbers import partition
    rng = random.Random(0)
    ns = list(range(300)) + rng.sample(range(300, PARTITION_BOUND), 8)
    for n in ns + [PARTITION_BOUND]:
        assert partition_count(n) == partition(n), n


def test_m24_orders_match_sympy():
    G = SymGroup([SymPerm(list(g.images)) for g in mathieu_m24().group.generators])
    assert G.order() == 244823040
    M23 = G.stabilizer(0)
    assert M23.order() == 10200960
    assert M23.stabilizer(1).order() == 443520
