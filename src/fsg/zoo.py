"""Constructors for the named finite-group families, direct products, the
nonabelian groups of order pq, automorphism groups, the order-<16 catalog,
and abelian-group counting.

Families are realized as faithful permutation groups: cyclic and
dihedral groups act on the polygon vertices, symmetric and alternating
groups naturally, and the families without a coded small action
(dicyclic, Clifford, order pq) fall back to their left-regular
representation.  Every constructor certifies the expected order and raises
InternalDefectError on mismatch, so a returned group is a verified one.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from math import factorial, prod

from .cayley import CayleyStructure
from .errors import InternalDefectError, ResourceLimitError, ValidationError
from .fields import factorize, is_prime, make_field, prime_power
from .matgroups import projective_action
from .moonshine import euler_function
from .perms import (PARSE_DEGREE_BOUND, Permutation, center_order,
                    check_chain_images, group_from_generators)


def _certify(G, expected_order, what):
    if G.order() != expected_order:
        raise InternalDefectError(
            f"{what}: built order {G.order()}, expected {expected_order}")
    return G


def _regular_from_table(elements, mult, gens, expected_order, what):
    """Left-regular realization of an abstract group given by a multiplication
    rule on hashable labels; its one-level chain is bounded up front."""
    check_chain_images((len(elements) - 1) * len(elements), len(elements))
    index = {e: i for i, e in enumerate(elements)}
    perms = [Permutation(index[mult(g, x)] for x in elements) for g in gens]
    G = group_from_generators(len(elements), perms)
    return _certify(G, expected_order, what)


# --------------------------------------------------------------------- named


def cyclic(n):
    if n < 1:
        raise ValidationError("cyclic groups need n >= 1")
    if n == 1:
        return group_from_generators(1, [])
    check_chain_images((n - 1) * n, n)      # regular: one level, every point
    return _certify(group_from_generators(
        n, [Permutation.from_cycles(n, [tuple(range(n))])]), n, f"cyclic({n})")


def dihedral(n):
    if n < 3:
        raise ValidationError(
            "dihedral groups start at n = 3: the n = 2 candidate degenerates "
            "to the direct product Z2 x Z2 (use vierergruppe) because Z2 has "
            "no nontrivial automorphism to twist with, and n = 1 gives "
            "cyclic(2)")
    rot = Permutation.from_cycles(n, [tuple(range(n))])
    flip = Permutation([(n - i) % n for i in range(n)])
    return _certify(group_from_generators(n, [rot, flip]), 2 * n, f"dihedral({n})")


def dicyclic(n):
    """Q_n of order 4n (n >= 2): a^{2n} = e, b^2 = a^n, b a b^-1 = a^-1.

    The n = 1 member degenerates to the Klein four-group and is not part
    of the family here; Q_2 is the quaternion group.
    """
    if n < 2:
        raise ValidationError(
            "dicyclic groups start at n = 2 (Q_1 degenerates to the "
            "vierergruppe); Q_2 is the quaternion group")
    elements = [(i, j) for j in (0, 1) for i in range(2 * n)]

    def mult(x, y):
        i, j = x
        k, l = y
        if j == 0:
            return ((i + k) % (2 * n), l)
        if l == 0:
            return ((i - k) % (2 * n), 1)
        return ((i - k + n) % (2 * n), 0)

    return _regular_from_table(elements, mult, [(1, 0), (0, 1)],
                               4 * n, f"dicyclic({n})")


def quaternion():
    return dicyclic(2)


def vierergruppe():
    gens = [Permutation.from_cycles(4, [(0, 1), (2, 3)]),
            Permutation.from_cycles(4, [(0, 2), (1, 3)])]
    return _certify(group_from_generators(4, gens), 4, "vierergruppe")


def symmetric(n):
    if n < 1:
        raise ValidationError("symmetric groups need n >= 1")
    if n == 1:
        return group_from_generators(1, [])
    gens = [Permutation.from_cycles(n, [(0, 1)])]
    if n > 2:
        gens.append(Permutation.from_cycles(n, [tuple(range(n))]))
    return _certify(group_from_generators(n, gens), factorial(n), f"symmetric({n})")


def alternating(n):
    if n < 1:
        raise ValidationError("alternating groups need n >= 1")
    if n <= 2:
        return group_from_generators(max(n, 1), [])
    if n == 3:
        gens = [Permutation.from_cycles(3, [(0, 1, 2)])]
    elif n % 2:
        gens = [Permutation.from_cycles(n, [(0, 1, 2)]),
                Permutation.from_cycles(n, [tuple(range(n))])]
    else:
        gens = [Permutation.from_cycles(n, [(0, 1, 2)]),
                Permutation.from_cycles(n, [tuple(range(1, n))])]
    return _certify(group_from_generators(n, gens), factorial(n) // 2,
                    f"alternating({n})")


def clifford(n, even_only=False):
    """The finite Clifford group on n anticommuting square-root-of-minus-one
    generators: order 2^(n+1), or 2^n for the even (restricted) subgroup."""
    if n < 1:
        raise ValidationError("clifford groups need n >= 1")
    subsets = []
    for mask in range(1 << n):
        s = tuple(i + 1 for i in range(n) if mask >> i & 1)
        if not even_only or len(s) % 2 == 0:
            subsets.append(s)
    elements = [(sign, s) for s in subsets for sign in (1, -1)]

    def mult(x, y):
        s1, a = x
        s2, b = y
        inv = sum(1 for p in a for q in b if p > q)
        common = len(set(a) & set(b))
        sign = s1 * s2 * (-1) ** (inv + common)
        merged = tuple(sorted(set(a) ^ set(b)))
        return (sign, merged)

    if even_only:
        gens = [(1, (i, i + 1)) for i in range(1, n)]
        expected = 2 ** n
        what = f"clifford_even({n})"
    else:
        gens = [(1, (i,)) for i in range(1, n + 1)]
        expected = 2 ** (n + 1)
        what = f"clifford({n})"
    if not gens:       # even subgroup of clifford(1) is {+1, -1}
        gens = [(-1, ())]
    return _regular_from_table(elements, mult, gens, expected, what)


def frobenius21():
    """The nonabelian group of order 21 = Z_7 x| Z_3, acting on 7 points."""
    a = Permutation.from_cycles(7, [tuple(range(7))])
    b = Permutation([(2 * i) % 7 for i in range(7)])
    return _certify(group_from_generators(7, [a, b]), 21, "frobenius21")


def elementary_abelian(p, m):
    if not is_prime(p) or m < 1:
        raise ValidationError("elementary abelian groups need prime p and m >= 1")
    gens = [Permutation.from_cycles(p * m, [tuple(range(k * p, (k + 1) * p))])
            for k in range(m)]
    return _certify(group_from_generators(p * m, gens), p ** m,
                    f"elementary_abelian({p},{m})")


def _projective(variant, n, q):
    """PSL_n(q) or PGL_n(q) acting on projective space, for a prime power q."""
    pp = prime_power(q)
    if pp is None:
        raise ValidationError(f"q = {q} is not a prime power")
    return projective_action(variant, n, make_field(*pp))


# tag -> (constructor, degree of the action it builds as a function of its
# integer parameter n >= 1, at least n; None for a member without one).
_FAMILIES = {
    "cyclic": (cyclic, lambda n: n),
    "dihedral": (dihedral, lambda n: n),
    "dicyclic": (dicyclic, lambda n: 4 * n),
    "clifford": (clifford, lambda n: 2 ** (n + 1)),
    "clifford_even": (lambda n: clifford(n, even_only=True), lambda n: 2 ** n),
    "symmetric": (symmetric, lambda n: n),
    "alternating": (alternating, lambda n: n),
    "vierergruppe": (vierergruppe, None),
    "quaternion": (quaternion, None),
    "frobenius21": (frobenius21, None),
    "psl2": (lambda q: _projective("PSL", 2, q), lambda q: q + 1),
    "pgl2": (lambda q: _projective("PGL", 2, q), lambda q: q + 1),
    "psl3": (lambda q: _projective("PSL", 3, q), lambda q: q * q + q + 1),
    "pgl3": (lambda q: _projective("PGL", 3, q), lambda q: q * q + q + 1),
}

# Short names accepted in place of the family tags.
_ALIASES = {
    "sym": "symmetric", "s": "symmetric",
    "alt": "alternating", "a": "alternating",
    "z": "cyclic", "d": "dihedral", "qn": "dicyclic",
    "v": "vierergruppe", "q": "quaternion",
}


def construct_named(name, parameter=None):
    """Build a named family member; see _FAMILIES for the accepted tags
    and _ALIASES for their short names.

    A member whose degree passes PARSE_DEGREE_BOUND is refused before any
    permutation is built.  A parameter past the bound is refused before
    its degree is formed, so no 2^(n+1) or q^2 of a huge n or q is."""
    name = _ALIASES.get(name, name)
    if name not in _FAMILIES:
        raise ValidationError(
            f"unknown group family {name!r}; choose from {sorted(_FAMILIES)} "
            f"or an alias in {sorted(_ALIASES)}")
    fn, degree = _FAMILIES[name]
    if degree is None:
        return fn()
    if parameter is None:
        raise ValidationError(f"{name} needs an integer parameter")
    n = int(parameter)
    if n >= 1 and (n > PARSE_DEGREE_BOUND or degree(n) > PARSE_DEGREE_BOUND):
        raise ResourceLimitError(
            f"{name} with parameter {parameter} acts on more points than the "
            f"fixed permutation degree bound {PARSE_DEGREE_BOUND}")
    return fn(n)


# ----------------------------------------------------------------- products


def direct_product(A, B):
    """A x B on the disjoint union of the point sets: A's generators move
    points 0..A.degree-1 and B's the B.degree points past them."""
    m, n = A.degree, B.degree
    gens = [Permutation(a.images + tuple(range(m, m + n))) for a in A.generators]
    gens += [Permutation(tuple(range(m)) + tuple(m + x for x in b.images))
             for b in B.generators]
    return _certify(group_from_generators(m + n, gens), A.order() * B.order(),
                    "direct_product")


# ------------------------------------------------------------- automorphisms

AUTOMORPHISM_BOUND = 64
AUTOMORPHISM_CANDIDATE_BOUND = 2 * 10 ** 6


def automorphism_perms(G):
    """All automorphisms of G as permutations of its element list.

    Tries every tuple of generator images, each of its generator's element
    order, at most AUTOMORPHISM_CANDIDATE_BOUND tuples, each extended along
    the generators' spanning tree; every bijective candidate map is verified
    against the full multiplication table, so the order pruning cannot
    produce false positives.
    """
    n = G.order()
    if n > AUTOMORPHISM_BOUND:
        raise ResourceLimitError(f"the automorphism search is limited to the fixed "
                                 f"bound of order {AUTOMORPHISM_BOUND}; group has {n}")
    cs = CayleyStructure(G)
    gens = cs.minimal_generating_indices()
    by_order = {}
    for i in range(cs.n):
        by_order.setdefault(cs.orders[i], []).append(i)
    candidates = [by_order[cs.orders[g]] for g in gens]
    if (tries := prod(map(len, candidates))) > AUTOMORPHISM_CANDIDATE_BOUND:
        raise ResourceLimitError(f"the automorphism search is limited to the fixed "
                                 f"bound of {AUTOMORPHISM_CANDIDATE_BOUND} candidate "
                                 f"generator images; group has {tries}")

    table, e = cs.table, cs.identity_index
    edges = [(y, x, j) for y, (x, j) in list(cs.closure(gens).items())[1:]]
    found = []
    for images in product(*candidates):
        phi = [e] * n
        for y, x, j in edges:
            phi[y] = table[phi[x]][images[j]]
        if len(set(phi)) == n and cs.is_automorphism(phi):
            found.append(tuple(phi))
    return cs, found


def automorphism_group(G):
    """(Aut(G) acting on G's elements, aut_order, inn_order, out_order)."""
    cs, autos = automorphism_perms(G)
    n = G.order()
    aut = group_from_generators(n, [Permutation(phi) for phi in autos])
    aut_order = aut.order()
    if aut_order != len(autos):
        raise InternalDefectError("automorphism set is not closed")
    inn_order = n // center_order(G)
    if aut_order % inn_order:
        raise InternalDefectError("inner automorphisms do not divide Aut")
    return aut, aut_order, inn_order, aut_order // inn_order


def holomorph(A):
    """A x| Aut(A) for abelian A, acting faithfully on A's elements."""
    if not A.is_abelian():
        raise ValidationError(
            "holomorph is provided for abelian groups only")
    cs, autos = automorphism_perms(A)
    translations = [Permutation(cs.table[g]) for g in cs.generator_indices()]
    maps = [Permutation(phi) for phi in autos]
    H = group_from_generators(cs.n, translations + maps)
    return _certify(H, A.order() * len(autos), "holomorph")


def nonabelian_pq_group(p, q):
    """The nonabelian group of order p*q (p < q primes), when it exists.

    Exists exactly when p divides q-1.  Realized as Z_q x| Z_p, regular on
    the pairs (a, b) with (a, b)(c, d) = (a + k^b c mod q, b + d mod p),
    for the smallest k of multiplicative order p mod q.
    """
    if not (is_prime(p) and is_prime(q) and p < q):
        raise ValidationError("need primes p < q")
    if (q - 1) % p:
        raise ValidationError(
            f"no nonabelian group of order {p * q}: {p} does not divide {q - 1}")
    k = next(k for k in range(2, q) if pow(k, p, q) == 1)   # order p: p is prime
    twist = [pow(k, b, q) for b in range(p)]
    elements = [(a, b) for a in range(q) for b in range(p)]

    def mult(x, y):
        return ((x[0] + twist[x[1]] * y[0]) % q, (x[1] + y[1]) % p)

    return _regular_from_table(elements, mult, [(1, 0), (0, 1)], p * q,
                               f"nonabelian_pq_group({p},{q})")


# ------------------------------------------------------------------ counting


PARTITION_BOUND = 5000


def partition_count(n):
    """Part(n), the coefficient of q^n in 1 / prod_(k>=1) (1 - q^k) (exact);
    n above the fixed PARTITION_BOUND is refused."""
    if n < 0:
        return 0
    if n > PARTITION_BOUND:
        raise ResourceLimitError(
            f"partition counts stop at the fixed bound n = {PARTITION_BOUND}")
    return (euler_function(n) ** -1).coeff(n)


def count_abelian_groups(n):
    """Number of abelian groups of order n: the product of Part(e_i) over
    the prime-power exponents of n."""
    if n < 1:
        raise ValidationError("order must be positive")
    total = 1
    for e in factorize(n).values():
        total *= partition_count(e)
    return total


# ------------------------------------------------------------------- catalog


@dataclass(frozen=True)
class CatalogEntry:
    order: int
    name: str
    is_abelian: bool
    class_sizes: tuple
    class_rep_orders: tuple
    irrep_degrees: tuple
    aut_order: int
    notes: str = ""

    def as_dict(self):
        return {
            "order": self.order,
            "name": self.name,
            "is_abelian": self.is_abelian,
            "class_sizes": list(self.class_sizes),
            "class_rep_orders": list(self.class_rep_orders),
            "irrep_degrees": list(self.irrep_degrees),
            "aut_order": self.aut_order,
            "notes": self.notes,
        }


def _catalog_builders():
    """(name, constructor, abelian?, notes) for every group of order < 16."""
    z = cyclic
    return [
        ("I", lambda: z(1), True, "trivial group"),
        ("Z2", lambda: z(2), True, ""),
        ("Z3", lambda: z(3), True, ""),
        ("Z4", lambda: z(4), True, ""),
        ("V", vierergruppe, True, "Klein four-group, Z2 x Z2"),
        ("Z5", lambda: z(5), True, ""),
        ("Z6", lambda: z(6), True, "Z2 x Z3"),
        ("S3", lambda: symmetric(3), False, "smallest nonabelian; = D3 = Hol(Z3)"),
        ("Z7", lambda: z(7), True, ""),
        ("Z8", lambda: z(8), True, ""),
        ("Z2xZ4", lambda: direct_product(z(2), z(4)), True, ""),
        ("Z2^3", lambda: elementary_abelian(2, 3), True, ""),
        ("D4", lambda: dihedral(4), False, "octic group"),
        ("Q", quaternion, False, "quaternion group, dicyclic Q_2"),
        ("Z9", lambda: z(9), True, ""),
        ("Z3^2", lambda: elementary_abelian(3, 2), True, ""),
        ("Z10", lambda: z(10), True, "Z2 x Z5"),
        ("D5", lambda: dihedral(5), False, ""),
        ("Z11", lambda: z(11), True, ""),
        ("Z12", lambda: z(12), True, "Z4 x Z3"),
        ("Z2xZ6", lambda: direct_product(z(2), z(6)), True, "V x Z3"),
        ("D6", lambda: dihedral(6), False, "Z2 x S3"),
        ("A4", lambda: alternating(4), False, "V x| Z3"),
        ("Q3", lambda: dicyclic(3), False, "dicyclic of order 12, Z3 x| Z4"),
        ("Z13", lambda: z(13), True, ""),
        ("Z14", lambda: z(14), True, "Z2 x Z7"),
        ("D7", lambda: dihedral(7), False, ""),
        ("Z15", lambda: z(15), True, "cyclic: 3 and 5 are incompatible primes"),
    ]


def small_group_catalog():
    """All 28 groups of order < 16 (20 abelian, 8 nonabelian), each entry
    verified by building the group and recomputing its invariants.
    character_table certifies the Burnside relation and, by column
    orthogonality, one irreducible character per class."""
    from .characters import character_table
    from .perms import conjugacy_classes

    entries = []
    for name, build, abelian, notes in _catalog_builders():
        G = build()
        if G.is_abelian() != abelian:
            raise InternalDefectError(f"{name}: abelianness mismatch")
        data = conjugacy_classes(G)
        _, aut_order, _, _ = automorphism_group(G)
        entries.append(CatalogEntry(
            order=G.order(),
            name=name,
            is_abelian=abelian,
            class_sizes=data.class_sizes,
            class_rep_orders=data.class_rep_orders,
            irrep_degrees=tuple(sorted(character_table(G).degrees)),
            aut_order=aut_order,
            notes=notes,
        ))
    entries.sort(key=lambda e: (e.order, e.name))
    return entries
