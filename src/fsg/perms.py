"""Permutations and permutation groups with an exact stabilizer chain.

A group is entered by generators; a base and strong generating set are
built at construction by Schreier-Sims with explicit transversals.  Each
level keeps one inverse transversal, orbit point p -> image tuple of
u_p^-1, the form the sift reads; its tuples share one identity tuple's
ints.  Each level also lists every strong generator that fixes the
earlier base points.

Orders are exact big integers: the order is the product of the
fundamental orbit lengths along the chain.

The chain is a deterministic function of the generators: one Schreier
pass, which stops as soon as the basic orbits multiply to a proven bound
on the order, since that proves the chain complete.  Seeded draws, from
one fixed-seed stream, enter in one place and cannot change a result:
the class census may conjugate by a seeded pair that provably generates
G (below).

A permutation is validated where it enters: `Permutation(...)`,
`Permutation.parse`, `Permutation.from_cycles` and the generators of a
`PermGroup` each check that the images form a bijection.  A composite of
validated permutations of one degree is a bijection by construction, so
products, inverses, powers, sift residues, chain elements and
class-census representatives are wrapped unchecked by the private
`Permutation._trusted`; `__mul__` still refuses a degree mismatch.  The
closure oracle `closure_order` alone re-validates every product it
forms, so that it stays independent of this reasoning.

Structural queries that need every element (conjugacy classes, center,
element-order histograms) are guarded by the enumeration bound and raise
ResourceLimitError beyond it.  The class census seeds its conjugation
orbits from the chain's own element iterator and stops once the classes
cover |G|.  Any generating set of G closes each seed's whole class, so
the classes, their seed order, representatives and sizes do not depend on
the set it conjugates by.  It keeps one map, key -> class index, where a
key is a member's images as bytes up to 256 points and as a tuple above,
and per class its smallest member and its size; the members themselves
are never wrapped.

Groups are immutable once built.  The class census is filled on first
use and kept on the group; threads that race on the first use each
compute the same value and one is kept, so distinct threads may share a
group freely.
"""

from __future__ import annotations

import os
from collections import Counter
from dataclasses import dataclass
from itertools import filterfalse, repeat
from math import factorial, lcm, prod
from operator import itemgetter, methodcaller

from .errors import DomainMismatchError, ResourceLimitError, ValidationError

ENUMERATION_BOUND = 10 ** 6
# The order up to which `verify` runs its exhaustive per-group checks, and
# the bench's cut for groups whose class census it times.
EXHAUSTIVE_CLASS_BOUND = 10 ** 5
PARSE_DEGREE_BOUND = 10 ** 5
# Transversal images a chain may store, degree x non-base orbit points: ~80 MB.
CHAIN_IMAGE_BOUND = 10 ** 7
# Seeded pairs the class census tries as its two conjugating generators.
_PAIRS = 3


def _check_enumerable(n):
    """Refuse to enumerate a group of order n above the element-enumeration
    bound: ENUMERATION_BOUND, or the FSG_ENUMERATION_BOUND setting."""
    bound = int(os.environ.get("FSG_ENUMERATION_BOUND", ENUMERATION_BOUND))
    if n > bound:
        raise ResourceLimitError(f"group order {n} exceeds the element-enumeration "
                                 f"bound {bound} (setting FSG_ENUMERATION_BOUND)")


def check_chain_images(images, degree):
    """Refuse a chain on degree points storing more than CHAIN_IMAGE_BOUND images."""
    if images > CHAIN_IMAGE_BOUND:
        raise ResourceLimitError(f"a stabilizer chain on {degree} points would store more "
                                 f"than the fixed bound of {CHAIN_IMAGE_BOUND} transversal images")


def _draws():
    """The one fixed-seed stream behind every seeded draw: the high bits of a
    64-bit linear congruential generator (Knuth's MMIX constants)."""
    seed = 1
    while True:
        seed = (seed * 6364136223846793005 + 1442695040888963407) % 2 ** 64
        yield seed >> 20


def _invert(images):
    """Image tuple of the inverse of the permutation with these images."""
    inv = [0] * len(images)
    for i, x in enumerate(images):
        inv[x] = i
    return tuple(inv)


class Permutation:
    """A permutation of {0, ..., n-1}, stored as its image tuple."""

    __slots__ = ("images",)

    def __init__(self, images):
        images = tuple(images)
        seen = [False] * len(images)
        for x in images:
            if not (0 <= x < len(images)) or seen[x]:
                raise ValidationError(
                    f"images do not form a bijection: value {x} repeats or is out of range")
            seen[x] = True
        object.__setattr__(self, "images", images)

    # construction helpers -------------------------------------------------

    @staticmethod
    def _trusted(images):
        """Wrap an image tuple that is already known to be a bijection, such
        as a composite of validated permutations of one degree; no check."""
        p = object.__new__(Permutation)
        p.images = images
        return p

    @staticmethod
    def identity(degree):
        return Permutation._trusted(tuple(range(degree)))

    @staticmethod
    def from_cycles(degree, cycles):
        images = list(range(degree))
        for cycle in cycles:
            for a, b in zip(cycle, cycle[1:]):
                images[a] = b
            if cycle:
                images[cycle[-1]] = cycle[0]
        return Permutation(images)

    @staticmethod
    def parse(text, degree=0):
        """Parse cycle notation like "(0 1 2)(3 4)" or a JSON-ish image list;
        either form is padded with fixed points up to degree.

        A degree or point above PARSE_DEGREE_BOUND is refused before any
        image list is allocated.
        """
        text = text.strip()

        def bounded(n):
            if n > PARSE_DEGREE_BOUND:
                raise ResourceLimitError(
                    f"permutation degree {n} exceeds the fixed bound {PARSE_DEGREE_BOUND}")
            return n

        def points(body):
            tokens = body.replace(",", " ").split()
            if not all(t.isdecimal() for t in tokens):
                raise ValidationError(f"cannot parse permutation {text!r}")
            try:
                return [int(t) for t in tokens]
            except ValueError:      # more digits than int() reads, so far above the bound
                raise ResourceLimitError(
                    f"a permutation point exceeds the fixed degree bound {PARSE_DEGREE_BOUND}"
                ) from None

        bounded(degree)
        if text.startswith("["):
            images = points(text.strip("[]"))
            bounded(len(images))
            return Permutation(images + list(range(len(images), degree)))
        cycles, i = [], 0
        while i < len(text):
            j = text.find(")", i)
            if text[i] == "(" and j > i:
                cycles.append(points(text[i + 1:j]))
                i = j + 1
            elif text[i].isspace():
                i += 1
            else:
                raise ValidationError(f"cannot parse permutation {text!r}")
        n = bounded(max([degree] + [c + 1 for cyc in cycles for c in cyc]))
        return Permutation.from_cycles(n, cycles)

    # basic operations ------------------------------------------------------

    @property
    def degree(self):
        return len(self.images)

    def __call__(self, point):
        return self.images[point]

    def __mul__(self, other):
        """Composition: (p * q)(x) = p(q(x))."""
        a, b = self.images, other.images
        if len(a) != len(b):
            raise DomainMismatchError("degree mismatch in permutation product")
        return Permutation._trusted(tuple(map(a.__getitem__, b)))

    def inverse(self):
        return Permutation._trusted(_invert(self.images))

    def __pow__(self, k):
        if k < 0:
            return self.inverse() ** (-k)
        out = Permutation.identity(self.degree)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def is_identity(self):
        return self.images == tuple(range(len(self.images)))

    def moved_points(self):
        return [i for i, x in enumerate(self.images) if i != x]

    def cycles(self):
        """Nontrivial cycles, each starting at its smallest point."""
        seen, out = set(), []
        for i in range(self.degree):
            if i in seen or self.images[i] == i:
                continue
            cyc, j = [i], self.images[i]
            while j != i:
                seen.add(j)
                cyc.append(j)
                j = self.images[j]
            out.append(tuple(cyc))
        return out

    def order(self):
        """Smallest m with p^m = identity: the lcm of the cycle lengths."""
        return lcm(*map(len, self.cycles()))

    def cycle_string(self):
        return "".join("(" + " ".join(map(str, c)) + ")" for c in self.cycles()) or "()"

    def __eq__(self, other):
        return isinstance(other, Permutation) and self.images == other.images

    def __hash__(self):
        return hash(self.images)

    def __repr__(self):
        return f"Permutation{self.cycle_string()}"


class _Level:
    """One chain level: base point; gens, every strong generator fixing the
    earlier base points, as (images, inverse images); inv: orbit point p ->
    images of u_p^-1, in discovery order; and sifted, per generator s in
    gens, the orbit points p whose Schreier pair (p, s) has sifted to the
    identity."""

    __slots__ = ("base", "gens", "inv", "sifted")

    def __init__(self, base, identity):
        self.base = base
        self.gens = []
        self.inv = {base: identity}
        self.sifted = []


class PermGroup:
    """A permutation group with a deterministic base and strong generating set."""

    def __init__(self, degree, generators, _within=None):
        """_within, for perms' own subgroups only: a built group expected to
        hold every generator; its order then bounds the chain's."""
        self.degree = int(degree)
        gens = []
        for g in generators:
            if not isinstance(g, Permutation):
                g = Permutation(g)
            if g.degree != self.degree:
                raise DomainMismatchError(
                    f"generator degree {g.degree} != group degree {self.degree}")
            if not g.is_identity():
                gens.append(g)
        self.generators = tuple(gens)
        self.levels = []
        self._identity = tuple(range(self.degree))
        self._census = None
        self._images = 0          # transversal images stored, against CHAIN_IMAGE_BOUND
        self._build_chain(_within)
        self._order = prod(self.basic_orbit_sizes())

    # ------------------------------------------------------------------ chain

    def _register(self, h):
        """Add a non-identity strong generator (images h) to levels 0..j, j
        that of the first base point it moves, ahead of level j + 1's gens,
        so each level lists gens by the level they were registered at; extend
        those orbits.  An h fixing every base point opens a level at its
        least moved point."""
        for j, lev in enumerate(self.levels):
            if h[lev.base] != lev.base:
                break
        else:
            j = len(self.levels)
            self.levels.append(_Level(min(i for i, x in enumerate(h) if i != x),
                                      self._identity))
        pair = (h, _invert(h))
        deeper = len(self.levels[j + 1].gens) if j + 1 < len(self.levels) else 0
        for i, lev in enumerate(self.levels[:j + 1]):
            k = len(lev.gens) - deeper
            lev.gens.insert(k, pair)
            lev.sifted.insert(k, set())
            # h fixes the i earlier base points, so it maps an orbit of all
            # the other degree - i points to itself
            if len(lev.inv) < self.degree - i:
                self._extend_orbit(lev, pair)

    def _extend_orbit(self, lev, pair):
        """Grow lev's orbit, already closed under its other gens, by the new
        pair (s, s^-1) in lev.gens: s on the old points it takes out of the
        orbit, found in one pass, then every generator on each new point.
        Existing entries persist.  A new point y = s(p) gets u_y^-1 =
        u_p^-1 s^-1, counted against the bound first."""
        inv = lev.inv
        s, s_inv = pair
        queue = [s_inv[y] for y in filterfalse(inv.__contains__, map(s.__getitem__, inv))]
        old = len(queue)
        for k, p in enumerate(queue):
            up_inv = inv[p].__getitem__
            for s, s_inv in ([pair] if k < old else lev.gens):
                y = s[p]
                if y not in inv:
                    self._images += self.degree
                    check_chain_images(self._images, self.degree)
                    inv[y] = tuple(map(up_inv, s_inv))
                    queue.append(y)

    def _sift(self, h, start=0):
        """Sift the image tuple h through levels >= start; returns the
        residue's image tuple."""
        for lev in self.levels[start:]:
            x = h[lev.base]
            if x == lev.base:
                continue
            u = lev.inv.get(x)
            if u is None:
                break
            h = tuple(map(u.__getitem__, h))
        return h

    def _order_bound(self, within):
        """An upper bound on |<S>|: the product of |O|! over the orbits O,
        halved when every generator is even (<S> then lies in the even part
        of that product of symmetric groups).  Commuting generators give an
        abelian <S>, regular on each orbit, so at most prod |O|, and at most
        the product of the generators' orders.  At most |within| when within,
        a built group, holds every generator, checked by sifting each."""
        sizes = [len(orbit) for orbit in self.orbits()]
        cycles = [g.cycles() for g in self.generators]
        bound = prod(map(factorial, sizes))
        if bound > 1 and all(sum(len(c) - 1 for c in cs) % 2 == 0 for cs in cycles):
            bound //= 2
        abelian = min(prod(sizes), prod(lcm(*map(len, cs)) for cs in cycles))
        if abelian < bound and self.is_abelian():
            bound = abelian
        if within is not None and all(within._sift(g.images) == within._identity
                                      for g in self.generators):
            bound = min(bound, within.order())
        return bound

    def _build_chain(self, within):
        """Schreier-Sims from the top level down, restarting at level 0 after
        each registration.  Every registered residue lies in <S>, so a
        partial chain has prod |orbit| <= |<S>| <= _order_bound(within), and
        reaching the bound proves each basic orbit complete (Seress,
        Permutation Group Algorithms, 4.3): the pass stops there.  Below the
        bound it ends once every Schreier pair at every level sifts to the
        identity through the levels after it.  A level takes its orbit points
        latest-discovered first, whose coset representatives are the longest
        words in the generators; on S_n and A_n that order registers one
        residue per level."""
        for g in self.generators:
            self._register(g.images)
        bound = self._order_bound(within)
        i = 0
        while i < len(self.levels) and prod(self.basic_orbit_sizes()) < bound:
            lev = self.levels[i]
            i += 1                      # the next level, unless a registration restarts
            for p in reversed(lev.inv):
                up = None               # u_p, inverted only for an unsifted pair
                for (s, _), done in zip(lev.gens, lev.sifted):
                    if p in done:
                        continue
                    if up is None:
                        up = _invert(lev.inv[p])
                    schreier = tuple(map(lev.inv[s[p]].__getitem__,
                                         map(s.__getitem__, up)))
                    residue = self._sift(schreier, i)
                    if residue != self._identity:
                        self._register(residue)     # both loops end before
                        i = 0                       # they see the change
                        break
                    done.add(p)
                if i == 0:
                    break

    # ---------------------------------------------------------------- queries

    def order(self):
        return self._order

    def basic_orbit_sizes(self):
        return [len(lev.inv) for lev in self.levels]

    def sift(self, g):
        if g.degree != self.degree:
            raise DomainMismatchError(
                f"permutation degree {g.degree} != group degree {self.degree}")
        return Permutation._trusted(self._sift(g.images))

    def __contains__(self, g):
        return self.sift(g).is_identity()

    def orbit(self, point):
        """Orbit of a point under the whole group, discovery order."""
        gens = [g.images for g in self.generators]
        seen, queue = {point}, [point]
        for p in queue:
            for s in gens:
                y = s[p]
                if y not in seen:
                    seen.add(y)
                    queue.append(y)
        return queue

    def orbits(self):
        """Disjoint orbits covering all points, each sorted, in point order."""
        seen, out = set(), []
        for p in range(self.degree):
            if p not in seen:
                out.append(sorted(self.orbit(p)))
                seen.update(out[-1])
        return out

    def support(self):
        return sorted(set().union(*(g.moved_points() for g in self.generators)))

    def _random_elements(self):
        """Uniform elements of G as image tuples, from the seeded stream.  G
        writes each element uniquely as u_1 ... u_k, one transversal element
        per level, so one uniform u_i^-1 per level, composed as
        u_k^-1 ... u_1^-1, gives a uniform inverse of a uniform element."""
        rows = [list(lev.inv.values()) for lev in self.levels]
        draws = _draws()
        while True:
            h = self._identity
            for row in rows:
                h = tuple(map(row[next(draws) % len(row)].__getitem__, h))
            yield h

    def iter_elements(self):
        """All elements, as products down the chain (deterministic order)."""
        rows = [list(map(_invert, lev.inv.values())) for lev in self.levels]
        last = len(rows) - 1

        def rec(i, prefix):
            get = prefix.__getitem__
            if i == last:
                for u in rows[i]:
                    yield Permutation._trusted(tuple(map(get, u)))
            else:
                for u in rows[i]:
                    yield from rec(i + 1, tuple(map(get, u)))
        if not rows:
            yield Permutation.identity(self.degree)
            return
        yield from rec(0, self._identity)

    def element_list(self):
        """Sorted element list; refuses above the enumeration bound."""
        _check_enumerable(self._order)
        return sorted(self.iter_elements(), key=lambda g: g.images)

    def is_abelian(self):
        """True iff the generators commute pairwise.  A pair is compared on
        the points either one moves; both fix every other point."""
        moved = [(g.images, g.moved_points()) for g in self.generators]
        return all(a[b[x]] == b[a[x]]
                   for i, (a, a_moved) in enumerate(moved)
                   for b, b_moved in moved[i + 1:]
                   for x in a_moved + b_moved)


# ---------------------------------------------------------------------------
# Module-level operations


def group_from_generators(degree, gens):
    """Group from generator permutations; empty input gives the trivial group."""
    return PermGroup(degree, gens)


def transitivity_degree(G: PermGroup):
    """Largest k with G transitive on ordered k-tuples of support points.

    Returns (k, sharp); (0, False) when G is not transitive on its support
    S, and sharp means the stabilizer of k points is trivial.

    Read off G's own chain, whatever its base: G is k-transitive on S iff,
    for any distinct b_1..b_k in S, each G_{b_1..b_i} (i < k) is transitive
    on the |S| - i points left (induction on i).  The base points are
    distinct points of S, and level i's orbit is the orbit of b_{i+1} under
    G_{b_1..b_i}, so that stabilizer is transitive on what is left exactly
    when the orbit has |S| - i points.  Past the last level the stabilizer
    is trivial: an orbit of size 1, transitive only when one point is left.
    """
    remaining = len(G.support())
    stab_order = G.order()
    k = 0
    for size in G.basic_orbit_sizes() + [1]:
        if size != remaining:
            break
        k += 1
        stab_order //= size
        remaining -= 1
    if k == 0:
        return 0, False
    return k, stab_order == 1


@dataclass(frozen=True)
class ClassData:
    """Conjugacy-class partition of a finite group.

    Classes are sorted by (element order, moved-point count, size,
    smallest member), so equal-order classes of small support come
    first; class_sizes always sums to the group order.
    """

    class_sizes: tuple
    class_rep_orders: tuple
    center_size: int
    num_classes: int
    reps: tuple

    def as_dict(self):
        return {
            "class_sizes": list(self.class_sizes),
            "class_rep_orders": list(self.class_rep_orders),
            "center_size": self.center_size,
            "num_classes": self.num_classes,
        }


def class_census(G: PermGroup):
    """G's class census, run once and kept on G: (class_of, reps, sizes),
    key -> class index in seed order (identity first), and per class its
    smallest member, the only one wrapped, and its size.  A key is an image
    sequence encoded by census_key(G.degree).  Each class is closed by
    frontier: each conjugator maps the whole frontier in C, and the images
    new to the class are the next frontier."""
    if G._census is not None:
        return G._census
    _check_enumerable(G.order())
    key = census_key(G.degree)
    conjugations = [_conjugation(s, key) for s in _conjugators(G)]
    class_of, reps, sizes = {}, [], []
    for g in G.iter_elements():
        if len(class_of) == G.order():
            break
        x = key(g.images)
        if x in class_of:
            continue
        members, frontier = {x}, [x]
        while frontier:
            frontier = set().union(*[c(frontier) for c in conjugations]) - members
            members |= frontier
        class_of.update(dict.fromkeys(members, len(reps)))
        reps.append(Permutation._trusted(tuple(min(members))))
        sizes.append(len(members))
    if len(class_of) != G.order():
        raise AssertionError("class sizes do not sum to the group order")
    G._census = class_of, reps, sizes
    return G._census


def census_key(degree):
    """The census key type: bytes up to 256 points (ordered as tuples are), else tuple."""
    return bytes if degree <= 256 else tuple


def gather(idx):
    """x -> the tuple of x[i], i in idx, in C.  itemgetter alone gives a bare
    item, not a 1-tuple, for one index, and raises for none."""
    return itemgetter(*idx) if len(idx) > 1 else lambda x: tuple(map(x.__getitem__, idx))


def _conjugation(s, key):
    """Keys x of a frontier -> the keys of s x s^-1, composed in C: gather x
    at s^-1, then send each image through s (a 256-byte table for bytes)."""
    pick = gather(_invert(s))
    if key is bytes:
        send = methodcaller("translate", bytes(s) + bytes(range(len(s), 256)))
        return lambda xs: map(send, map(bytes, map(pick, xs)))
    return lambda xs: map(tuple, map(map, repeat(s.__getitem__), map(pick, xs)))


def _conjugators(G: PermGroup):
    """Image tuples that generate G, to conjugate by in the census.  When G
    has more than two generators: the first of _PAIRS pairs of seeded
    uniform draws from G that generates G, proved by the pair's chain,
    bounded by |G|, reaching |G|; else G's generators.  The classes do not
    depend on which generating set conjugates."""
    gens = [g.images for g in G.generators]
    if len(gens) > 2:
        draws = G._random_elements()
        for _ in range(_PAIRS):
            pair = [next(draws), next(draws)]
            if PermGroup(G.degree, map(Permutation._trusted, pair),
                         _within=G).order() == G.order():
                return pair
    return gens


def conjugacy_classes(G: PermGroup) -> ClassData:
    _, reps, sizes = class_census(G)
    reps, sizes = zip(*sorted(zip(reps, sizes), key=lambda c: (
        c[0].order(), len(c[0].moved_points()), c[1], c[0].images)))
    return ClassData(
        class_sizes=sizes,
        class_rep_orders=tuple(rep.order() for rep in reps),
        center_size=sum(1 for s in sizes if s == 1),
        num_classes=len(sizes),
        reps=reps,
    )


def center_order(G: PermGroup) -> int:
    """|Z(G)|: the number of classes of size 1."""
    return conjugacy_classes(G).center_size


def normal_closure(G: PermGroup, seeds) -> PermGroup:
    """Smallest normal subgroup of G containing the seed permutations."""
    gens = [s for s in seeds if not s.is_identity()]
    K = PermGroup(G.degree, gens, _within=G)
    while K.order() != G.order():
        new = [c for k in gens for g in G.generators if (c := g * k * g.inverse()) not in K]
        if not new:
            break
        gens.extend(new)
        K = PermGroup(G.degree, gens, _within=G)
    return K


def structure_report(G: PermGroup):
    """(center_order, derived_order, abelianization_order, is_perfect)."""
    center = center_order(G)        # refuses above the enumeration bound first
    commutators = [a * b * a.inverse() * b.inverse()
                   for i, a in enumerate(G.generators) for b in G.generators[i + 1:]]
    derived = normal_closure(G, commutators).order() if commutators else 1
    ab = G.order() // derived
    return center, derived, ab, ab == 1


def is_simple(G: PermGroup) -> bool:
    """True iff G has no proper normal subgroup (trivial group excluded).
    An abelian G is decided by its order; any other G takes the class
    census, under the enumeration bound."""
    n = G.order()
    if n == 1:
        return False
    if G.is_abelian():
        from .fields import is_prime
        return is_prime(n)
    reps = conjugacy_classes(G).reps[1:]       # reps[0] is the identity
    return all(normal_closure(G, [rep]).order() == n for rep in reps)


def element_order_histogram(G: PermGroup):
    """Map element order -> count over all of G; counts sum to |G|.

    Read off the class census when G has one cached (conjugates share an
    order); otherwise stream G's elements, which takes about twice a census
    but holds none of them: A_9 0.59 s at a 0.01 MiB peak, census 0.30 s, 24 MiB."""
    hist = Counter()
    if G._census is not None:
        _, reps, sizes = G._census
        for rep, size in zip(reps, sizes):
            hist[rep.order()] += size
        return dict(hist)
    _check_enumerable(G.order())
    return dict(Counter(g.order() for g in G.iter_elements()))


def closure_order(degree, gens) -> int:
    """Order by plain breadth-first closure; the stabilizer-chain oracle.

    Deliberately ignores the chain machinery and the unchecked product, so
    the two order computations stay independent: every product it forms
    is validated again as a new Permutation.
    """
    gens = [g if isinstance(g, Permutation) else Permutation(g) for g in gens]
    for g in gens:
        if g.degree != degree:
            raise DomainMismatchError(
                f"generator degree {g.degree} != group degree {degree}")
    ident = Permutation(range(degree))
    seen, queue = {ident.images}, [ident]
    for x in queue:
        for s in gens:
            y = Permutation(map(s.images.__getitem__, x.images))
            if y.images not in seen:
                seen.add(y.images)
                queue.append(y)
    return len(seen)
