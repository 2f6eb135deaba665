"""Matrix groups over finite fields: the complete order-formula calculator
for the sixteen Lie-type families, explicit projective actions for n = 2, 3,
and the census of nonabelian simple groups below a bound.

Orders are exact big integers.  Explicit projective groups are built from
transvection generators and certified by comparing the stabilizer-chain
order with the closed-form order; a mismatch is an internal defect, never
a silent wrong answer.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, reduce
from itertools import chain, count, cycle, product, repeat, takewhile
from math import factorial, gcd, isqrt, log10

from .errors import InternalDefectError, ResourceLimitError, ValidationError
from .fields import FieldSpec, multiplicative_generator, prime_power
from .perms import PermGroup, Permutation, group_from_generators

PROJECTIVE_POINT_BOUND = 5000
ORDER_DIGIT_BOUND = 4300        # Python's default limit for int-to-str
_ORDER_LIMIT = 10 ** ORDER_DIGIT_BOUND

# One row per Lie-type family: (N, factors, centre).  With base b = q (sqrt(q)
# for PSU), |G| = b^N prod(b^d - e) / gcd(k, b^c - s) over the factors (d, e)
# and the centre (k, c, s); a factor with d < 0 instead divides the product
# before it, exactly, by b^-d - e.  The order has degree N + sum(d) in b
# (Carter, Simple Groups of Lie Type, Wiley 1972).  A ranked family maps the
# rank n to its row, the factors lazy, so N meets the bound before they do.
_RANKED = {
    "GL": lambda n: (n * (n - 1) // 2, zip(range(1, n + 1), repeat(1)), (1, 1, 1)),
    "SL": lambda n: (n * (n - 1) // 2, zip(range(2, n + 1), repeat(1)), (1, 1, 1)),
    "PSL": lambda n: (n * (n - 1) // 2, zip(range(2, n + 1), repeat(1)), (n, 1, 1)),
    # |PSp_2n(q)| = |Omega_2n+1(q)| (Artin 1955), so POmega_odd shares this row
    "PSp": lambda n: (n * n, zip(range(2, 2 * n + 1, 2), repeat(1)), (2, 1, 1)),
    "POmega_even_plus": lambda n: (n * (n - 1), chain(
        zip(range(2, 2 * n - 1, 2), repeat(1)), ((n, 1),)), (4, n, 1)),
    "POmega_even_minus": lambda n: (n * (n - 1), chain(
        zip(range(2, 2 * n - 1, 2), repeat(1)), ((n, -1),)), (4, n, -1)),
    "PSU": lambda n: (n * (n - 1) // 2,
                      zip(range(2, n + 1), cycle((1, -1))), (n, 1, -1)),
}
_RANKED["POmega_odd"] = _RANKED["PSp"]
_RANKLESS = {
    "G2": (6, ((6, 1), (2, 1)), (1, 1, 1)),
    "F4": (24, ((12, 1), (8, 1), (6, 1), (2, 1)), (1, 1, 1)),
    "E6": (36, ((12, 1), (9, 1), (8, 1), (6, 1), (5, 1), (2, 1)), (3, 1, 1)),
    "E7": (63, ((18, 1), (14, 1), (12, 1), (10, 1), (8, 1), (6, 1), (2, 1)),
           (2, 1, 1)),
    "E8": (120, ((30, 1), (24, 1), (20, 1), (18, 1), (14, 1), (12, 1), (8, 1),
                 (2, 1)), (1, 1, 1)),
    # q^8 + q^4 + 1 = (q^12 - 1) / (q^4 - 1)
    "3D4": (12, ((12, 1), (-4, 1), (6, 1), (2, 1)), (1, 1, 1)),
    "2E6": (36, ((12, 1), (9, -1), (8, 1), (6, 1), (5, -1), (2, 1)), (3, 1, -1)),
    "2B2": (2, ((2, -1), (1, 1)), (1, 1, 1)),
    "2G2": (3, ((3, -1), (1, 1)), (1, 1, 1)),
    "2F4": (12, ((6, -1), (4, 1), (3, -1), (1, 1)), (1, 1, 1)),
}

# Twisted tags that name an untwisted family: tag -> (family, rank shift).
# 2A_n(q) is PSU_{n+1}(q) and 2D_n(q) is the minus-type Omega_2n(q).
TWISTED_ALIASES = {"2An": ("PSU", 1), "2Dn": ("POmega_even_minus", 0)}
FAMILY_TAGS = (*_RANKED, *_RANKLESS, *TWISTED_ALIASES)


def _resolve(family, n):
    """The (family, rank) whose formula answers a query for (family, n)."""
    target, shift = TWISTED_ALIASES.get(family, (family, 0))
    return target, n + shift


def _exact_sqrt(q):
    r = isqrt(q)
    return r if r * r == q else None


@dataclass(frozen=True)
class FamilyOrderQuery:
    family: str
    q: int
    n: int = 0          # rank parameter; unused for the rankless families

    def __post_init__(self):
        if self.family not in FAMILY_TAGS:
            raise ValidationError(
                f"unknown family {self.family!r}; choose from {FAMILY_TAGS}")
        pp = prime_power(self.q)
        if pp is None:
            raise ValidationError(f"q = {self.q} is not a prime power")
        p, f = pp
        family, _ = _resolve(self.family, self.n)
        odd_power_of = {"2B2": 2, "2F4": 2, "2G2": 3}.get(family)
        if odd_power_of and (p != odd_power_of or f % 2 == 0):
            raise ValidationError(f"{family} requires q = {odd_power_of}^(2m+1)")
        if family == "PSU" and _exact_sqrt(self.q) is None:
            raise ValidationError(
                f"{self.family} takes the full (square) field size; "
                f"q = {self.q} is not a square")
        if family == "POmega_odd" and p == 2:
            raise ValidationError(
                "POmega_odd is not supported in characteristic 2: "
                "Omega_2n+1(2^k) is isomorphic to Sp_2n(2^k), so ask for PSp")
        if self.family not in _RANKLESS and self.n < 1:
            raise ValidationError(f"{self.family} needs a rank parameter n >= 1")


@dataclass(frozen=True)
class OrderResult:
    family: str
    q: int
    n: int
    order: int
    exceptions: tuple = ()

    def as_dict(self):
        d = {"family": self.family, "q": self.q, "order": str(self.order),
             "exceptions": list(self.exceptions)}
        if self.family not in _RANKLESS:
            d["n"] = self.n
        return d


def _non_simple_notes(family, n, q):
    notes = []
    if family == "PSL" and n == 2 and q in (2, 3):
        notes.append(f"PSL_2({q}) is not simple (solvable small case)")
    if family in ("PSp", "POmega_odd") and n == 1 and q in (2, 3):
        name = "PSp_1" if family == "PSp" else "POmega_3"    # Omega_3(q) = PSL_2(q)
        notes.append(f"{name}({q}) = PSL_2({q}) is not simple")
    if family == "PSp" and n == 2 and q == 2:
        notes.append("Sp_2(2) is isomorphic to Sym_6 and is not simple")
    if family == "PSU" and (n, q) in ((2, 4), (2, 9), (3, 4)):
        notes.append(f"PSU_{n}({q}) is not simple")
    if family == "G2" and q == 2:
        notes.append("G_2(2) is not simple: it has a normal subgroup of index 2")
    if family == "2B2" and q == 2:
        notes.append("2B2(2) is not simple")
    if family == "2G2" and q == 3:
        notes.append("2G2(3) is not simple")
    if family == "2F4" and q == 2:
        notes.append("2F4(2) is not simple (its derived subgroup has index 2)")
    return tuple(notes)


@lru_cache(maxsize=None)   # order_formula asks only where N is in bounds: n <= 170
def _degree(fam, n):
    """The degree of the order as a polynomial in q (in sqrt(q) for PSU)."""
    N, factors, _ = _RANKLESS.get(fam) or _RANKED[fam](n)
    return N + sum(d for d, _ in factors)


def order_formula(query: FamilyOrderQuery) -> OrderResult:
    """Exact order of the requested family member, with non-simplicity notes.

    An order of more than the fixed ORDER_DIGIT_BOUND decimal digits is
    refused.  It lies within a factor 10^10 of base^degree, so a degree past
    the bound refuses it before any power of q is formed, and an N past it
    before any factor is made."""
    fam, n = _resolve(query.family, query.n)
    q = query.q
    b = _exact_sqrt(q) if fam == "PSU" else q
    limit = (ORDER_DIGIT_BOUND + 10) / log10(b)
    N, factors, (k, c, s) = _RANKLESS.get(fam) or _RANKED[fam](n)
    if N > limit or _degree(fam, n) > limit:
        order = _ORDER_LIMIT            # refused below, no power formed
    else:
        order = b ** N
        for d, e in factors:
            order = order * (b ** d - e) if d > 0 else order // (b ** -d - e)
        order //= gcd(k, b ** c - s)
    if order >= _ORDER_LIMIT:
        raise ResourceLimitError(
            f"the order of {query.family} has more than the fixed bound of "
            f"{ORDER_DIGIT_BOUND} decimal digits")
    return OrderResult(query.family, q, query.n, order,
                       _non_simple_notes(fam, n, q))


# ---------------------------------------------------------------- projective
# Vectors hold element codes, the arithmetic is FieldSpec.codes.


def projective_points(spec: FieldSpec, n):
    """Points of PG(n-1, q) as code vectors scaled so the first nonzero
    coordinate is 1, sorted lexicographically.  Reading the coordinates off
    spec.elements() enumerates the field, so the action's products are lookups."""
    one, coords = spec.codes.one, [a.code for a in spec.elements()]
    return sorted((0,) * k + (one,) + rest for k in range(n)
                  for rest in product(coords, repeat=n - k - 1))


def _normalize_point(K, v):
    lead = next(c for c in v if c)
    if lead == K.one:
        return tuple(v)
    s = K.pow(lead, K.q - 2)        # 1 / lead
    return tuple(K.mul(s, c) for c in v)


def point_action(K, matrices, points):
    """The permutation of points by v -> M v for each matrix M, its rows
    codes of K: a point is a code vector whose first nonzero coordinate is
    1, and each image is scaled to one.  Points not permuted are a defect."""
    index = {v: i for i, v in enumerate(points)}
    try:
        return [Permutation([index[_normalize_point(K, [reduce(K.add, map(K.mul, row, v))
                                                       for row in M])] for v in points])
                for M in matrices]
    except (KeyError, ValidationError) as exc:
        raise InternalDefectError(f"the matrices do not permute the points: {exc!r}") from exc


def projective_action(variant, n, spec: FieldSpec) -> PermGroup:
    """PGL_n(q) or PSL_n(q) as a permutation group on projective space.

    The permutation action of matrices on projective points quotients
    out scalars automatically; the result is certified by matching the
    chain order against the closed-form order.

    The generators are the transvections x_ij(1) and x_ij(g), I + lambda
    E_ij, for a multiplicative generator g of F_q, plus diag(g, 1, ...) for
    PGL.  They generate SL_n(q): for n = 3 the commutators [x_ij(a), x_jk(b)]
    = x_ik(ab) give every x_ik(lambda) with lambda in F_p[g] = F_q, and for
    n = 2 Dickson's generation theorem covers every q != 9, where the
    order check passes as well.  A miss raises InternalDefectError.
    """
    if variant not in ("PGL", "PSL"):
        raise ValidationError("variant must be PGL or PSL")
    if n not in (2, 3):
        raise ValidationError("explicit projective actions are coded for n = 2, 3")
    q = spec.q
    num_points = (q ** n - 1) // (q - 1)
    if num_points > PROJECTIVE_POINT_BOUND:
        raise ResourceLimitError(f"projective space has {num_points} points, over "
                                 f"the fixed bound {PROJECTIVE_POINT_BOUND}")
    K = spec.codes
    points = projective_points(spec, n)

    # |PGL_n(q)| = |SL_n(q)|
    family = "SL" if variant == "PGL" else "PSL"
    expected = order_formula(FamilyOrderQuery(family, q, n)).order

    gen = multiplicative_generator(spec).code
    maps = [(i, j, lam) for i in range(n) for j in range(n) if i != j
            for lam in sorted({K.one, gen})]
    if variant == "PGL" and q > 2:
        maps.append((0, 0, gen))            # diag(g, 1, ...)
    matrices = [[[lam if (r, c) == (i, j) else K.one * (r == c) for c in range(n)]
                 for r in range(n)] for i, j, lam in maps]
    G = group_from_generators(len(points), point_action(K, matrices, points))
    if G.order() != expected:
        raise InternalDefectError(
            f"{variant}_{n}({q}): generated order {G.order()}, expected {expected}")
    return G


# -------------------------------------------------------------------- census


@dataclass(frozen=True)
class CensusEntry:
    order: int
    names: tuple
    is_sporadic: bool = False

    def as_dict(self):
        return {"order": str(self.order), "names": list(self.names),
                "is_sporadic": self.is_sporadic}


# Known coincidences across families (same abstract group, equal order).
# Each frozenset of instance labels is merged into one census entry.
KNOWN_ISOMORPHISMS = (
    frozenset({"Alt_5", "PSL_2(4)", "PSL_2(5)"}),
    frozenset({"PSL_2(7)", "PSL_3(2)"}),
    frozenset({"Alt_6", "PSL_2(9)"}),
    frozenset({"Alt_8", "PSL_4(2)"}),
    frozenset({"PSp_2(3)", "PSU_4(4)"}),
)


# The Lie-type rows of the census: (family tag, first rank, label format),
# rank None for the rankless families.  Lower ranks repeat other rows:
# PSp_1 = PSU_2 = PSL_2, POmega_5 = PSp_2, POmega+-_6 = PSL_4 and PSU_4.
CENSUS_FAMILIES = (
    ("PSL", 2, "PSL_{n}({q})"),
    ("PSp", 2, "PSp_{n}({q})"),
    ("PSU", 3, "PSU_{n}({q})"),
    ("POmega_odd", 3, "POmega_{odd}({q})"),
    ("POmega_even_plus", 4, "POmega+_{even}({q})"),
    ("POmega_even_minus", 4, "POmega-_{even}({q})"),
) + tuple((tag, None, tag + "({q})") for tag in _RANKLESS)


def _family_members(family, n):
    """Order results of the family at rank n, for every q it accepts, in
    increasing q."""
    for q in filter(prime_power, count(2)):
        try:
            query = FamilyOrderQuery(family, q, n)
        except ValidationError:
            continue
        yield order_formula(query)


def simple_census(bound):
    """Nonabelian simple groups of order <= bound, one entry per isomorphism
    class, sorted by order.  bound <= 10^7."""
    if bound > 10 ** 7:
        raise ResourceLimitError("the census bound is limited to the fixed bound 10^7")
    found = {}      # label -> order

    n = 5
    while factorial(n) // 2 <= bound:
        found[f"Alt_{n}"] = factorial(n) // 2
        n += 1

    for family, first_rank, label in CENSUS_FAMILIES:
        for n in count(first_rank) if first_rank else (0,):
            # An order is a product growing with q and n, divided by the
            # centre, of order at most max(n, 4); so it is not monotone in q
            # (|PSU_3(8)| < |PSU_3(7)|), but past bound * max(n, 4) no larger
            # q or rank comes back under the bound.
            stop = bound * max(n, 4)
            members = list(takewhile(lambda r: r.order <= stop,
                                     _family_members(family, n)))
            if not members:
                break
            for r in members:
                if r.order <= bound and not r.exceptions:
                    found[label.format(n=n, q=r.q, odd=2 * n + 1,
                                       even=2 * n)] = r.order

    # one entry per (order, identification class); a label outside the
    # table is its own class, so equal orders alone never merge
    classes = {}
    for label, order in found.items():
        iso = next((iso for iso in KNOWN_ISOMORPHISMS if label in iso), label)
        classes.setdefault((order, iso), []).append(label)
    entries = [CensusEntry(order, tuple(sorted(labels)))
               for (order, _), labels in classes.items()]

    from .sporadic import sporadic_table
    for entry in sporadic_table():
        if entry.order <= bound:
            entries.append(CensusEntry(entry.order, (entry.symbol,), True))

    entries.sort(key=lambda e: (e.order, e.names))
    return entries


def census_table(bound):
    """The bounded census with the abelian prime cyclic groups below 10
    and within the bound prepended (the printed-table convention)."""
    abelian = [CensusEntry(p, (f"Z_{p}",)) for p in (2, 3, 5, 7) if p <= bound]
    return sorted(abelian + list(simple_census(bound)),
                  key=lambda e: (e.order, e.names))
