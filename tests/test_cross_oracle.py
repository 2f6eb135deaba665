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
from fsg.matgroups import FamilyOrderQuery, order_formula, projective_action
from fsg.perms import (PermGroup, Permutation, center_order, conjugacy_classes,
                        structure_report, transitivity_degree)
from fsg.zoo import PARTITION_BOUND, partition_count


def random_perm(rng, degree):
    images = list(range(degree))
    rng.shuffle(images)
    return images


def chain_matches_sympy(degree, gens):
    """Build the chain on gens and compare it with sympy's group; returns
    the built group."""
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
    return ours


@pytest.mark.parametrize("seed", range(12))
def test_orders_match_sympy_on_random_generators(seed):
    rng = random.Random(seed)
    degree = rng.randint(5, 11)
    k = rng.randint(1, 3)
    chain_matches_sympy(degree, [random_perm(rng, degree) for _ in range(k)])


def relabelled(rng, gens):
    """The generators conjugated by one random relabelling of the points."""
    sigma = random_perm(rng, len(gens[0]))
    out = []
    for g in gens:
        h = [0] * len(g)
        for x, y in enumerate(g):
            h[sigma[x]] = sigma[y]
        out.append(h)
    return out


@pytest.mark.parametrize("seed", range(8))
def test_chains_below_the_orbit_bound_match_sympy(seed):
    # random sets are almost all S_n or A_n on each orbit, where the chain
    # stops at the orbit bound; these groups lie far below it, so every
    # Schreier pair is sifted: random elements of S_3 wr S_3 that keep the
    # blocks {0,1,2}, {3,4,5}, {6,7,8}, and PSL_2(p) on p + 1 points, each
    # under a random relabelling
    rng = random.Random(700 + seed)
    if seed % 2 == 0:
        def wreath_element():
            blocks, inner = random_perm(rng, 3), [random_perm(rng, 3) for _ in range(3)]
            return [3 * blocks[b] + inner[b][x] for b in range(3) for x in range(3)]
        gens = [wreath_element() for _ in range(rng.randint(2, 3))]
    else:
        p = (5, 7, 11, 13)[seed // 2]
        gens = [list(g.images) for g in projective_action("PSL", 2, make_field(p)).generators]
    G = chain_matches_sympy(len(gens[0]), relabelled(rng, gens))
    assert G.order() < G._order_bound(None)


@pytest.mark.parametrize("seed", range(12))
def test_transitivity_and_derived_order_match_sympy(seed):
    # the generator sets of test_orders_match_sympy_on_random_generators; their
    # chains stop at the orbit bound, and the derived subgroup's chain, built
    # by normal_closure, at |G|
    rng = random.Random(seed)
    degree = rng.randint(5, 11)
    gens = [random_perm(rng, degree) for _ in range(rng.randint(1, 3))]
    ours = PermGroup(degree, [Permutation(g) for g in gens])
    support = ours.support()
    relabel = {p: i for i, p in enumerate(support)}
    on_support = SymGroup([SymPerm([relabel[g[p]] for p in support]) for g in gens])
    k, sharp = transitivity_degree(ours)
    assert k == on_support.transitivity_degree
    if k:
        assert sharp == (on_support.pointwise_stabilizer(list(range(k))).order() == 1)
    if ours.order() <= 40320:       # structure_report runs the class census first
        theirs = SymGroup([SymPerm(g) for g in gens])
        assert structure_report(ours)[1] == theirs.derived_subgroup().order()


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


PROJECTIVE_CASES = [(variant, 2, q) for q in range(2, 50) if prime_power(q)
                    for variant in ("PSL", "PGL")]
PROJECTIVE_CASES += [(variant, 3, q) for q in range(2, 6) for variant in ("PSL", "PGL")]


def test_projective_orders_match_the_formula_and_sympy():
    # the chain order, the closed form (|PGL_n(q)| = |SL_n(q)|) and sympy's
    # order of the same generators, for every q < 50 at n = 2 and q <= 5 at n = 3
    assert len(PROJECTIVE_CASES) == 54
    for variant, n, q in PROJECTIVE_CASES:
        G = projective_action(variant, n, make_field(*prime_power(q)))
        family = "SL" if variant == "PGL" else "PSL"
        closed = order_formula(FamilyOrderQuery(family, q, n)).order
        theirs = SymGroup([SymPerm(list(g.images)) for g in G.generators]).order()
        assert G.order() == closed == theirs, (variant, n, q)
