"""Permutations and permutation groups with a deterministic stabilizer chain.

A group is entered by generators; a base and strong generating set are
built at construction with a deterministic Schreier-Sims procedure
(explicit transversals, no randomization), so order, membership and the
structural queries below are reproducible run to run.  Each level keeps
one inverse transversal, orbit point p -> image tuple of u_p^-1, the form
the sift reads; its tuples share one identity tuple's ints.

Orders are exact big integers: the order is the product of the
fundamental orbit lengths along the chain.

A permutation is validated where it enters: `Permutation(...)`,
`Permutation.parse`, `Permutation.from_cycles` and the generators of a
`PermGroup` each check that the images form a bijection.  A composite of
validated permutations of one degree is a bijection by construction, so
products, inverses, powers, sift residues, chain elements and
class-census members are wrapped unchecked by the private
`Permutation._trusted`; `__mul__` still refuses a degree mismatch.  The
closure oracle `closure_order` alone re-validates every product it
forms, so that it stays independent of this reasoning.

Structural queries that need the element list (conjugacy classes,
center, element-order histograms) are guarded by explicit enumeration
bounds and raise ResourceLimitError beyond them.

Groups are immutable once built.  The element list and the class
partition are filled on first use and kept on the group; threads that
race on the first use each compute the same value and one is kept, so
distinct threads may share a group freely.
"""

from __future__ import annotations

import os
import random
from collections import Counter
from dataclasses import dataclass
from math import gcd, prod

from .errors import DomainMismatchError, ResourceLimitError, ValidationError

ENUMERATION_BOUND = 10 ** 6
EXHAUSTIVE_CLASS_BOUND = 10 ** 5
PARSE_DEGREE_BOUND = 10 ** 5


def _check_enumerable(n):
    """Refuse to enumerate a group of order n above the element-enumeration
    bound: ENUMERATION_BOUND, or the FSG_ENUMERATION_BOUND setting."""
    bound = int(os.environ.get("FSG_ENUMERATION_BOUND", ENUMERATION_BOUND))
    if n > bound:
        raise ResourceLimitError(f"group order {n} exceeds the element-enumeration "
                                 f"bound {bound} (setting FSG_ENUMERATION_BOUND)")


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
        m = 1
        for cyc in self.cycles():
            m = m * len(cyc) // gcd(m, len(cyc))
        return m

    def cycle_string(self):
        cycs = self.cycles()
        if not cycs:
            return "()"
        return "".join("(" + " ".join(map(str, c)) + ")" for c in cycs)

    def __eq__(self, other):
        return isinstance(other, Permutation) and self.images == other.images

    def __hash__(self):
        return hash(self.images)

    def __repr__(self):
        return f"Permutation{self.cycle_string()}"


class _Level:
    """One chain level: base point, own strong generators as (images,
    inverse images), and inv: orbit point p -> images of u_p^-1, in
    discovery order."""

    __slots__ = ("base", "gens", "inv", "checked")

    def __init__(self, base, identity):
        self.base = base
        self.gens = []
        self.inv = {base: identity}
        self.checked = set()      # Schreier pairs already sifted to identity


class PermGroup:
    """A permutation group with a deterministic base and strong generating set."""

    def __init__(self, degree, generators):
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
        self._element_list = None
        self._classes = None
        self._build_chain()
        self._order = prod(self.basic_orbit_sizes())

    # ------------------------------------------------------------------ chain

    def _gens_at(self, i):
        out = []
        for lev in self.levels[i:]:
            out.extend(lev.gens)
        return out

    def _register(self, h):
        """Place a non-identity strong generator (images h) at its level;
        extend orbits.  An h fixing every base point opens a level at its
        least moved point."""
        for j, lev in enumerate(self.levels):
            if h[lev.base] != lev.base:
                break
        else:
            j = len(self.levels)
            lev = _Level(min(i for i, x in enumerate(h) if i != x), self._identity)
            self.levels.append(lev)
        lev.gens.append((h, _invert(h)))
        for l in range(j + 1):
            self._extend_orbit(l)
        return j

    def _extend_orbit(self, i):
        """Grow level i's orbit in place; existing entries persist.  A new
        point y = s(p) gets u_y^-1 = u_p^-1 s^-1."""
        inv = self.levels[i].inv
        gens = self._gens_at(i)
        queue = list(inv)
        for p in queue:
            up_inv = inv[p].__getitem__
            for s, s_inv in gens:
                y = s[p]
                if y not in inv:
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

    def _build_chain(self):
        for g in self.generators:
            self._register(g.images)
        i = len(self.levels) - 1
        while i >= 0:
            lev = self.levels[i]
            restart = False
            for p in list(lev.inv):
                up = None               # u_p, inverted only for an unchecked pair
                for s, _ in self._gens_at(i):
                    key = (p, s)
                    if key in lev.checked:
                        continue
                    if up is None:
                        up = _invert(lev.inv[p])
                    schreier = tuple(map(lev.inv[s[p]].__getitem__,
                                         map(s.__getitem__, up)))
                    residue = self._sift(schreier, i + 1)
                    if residue == self._identity:
                        lev.checked.add(key)
                    else:
                        i = self._register(residue)
                        restart = True
                        break
                if restart:
                    break
            if not restart:
                i -= 1

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
        seen = {point}
        queue = [point]
        qi = 0
        while qi < len(queue):
            p = queue[qi]
            qi += 1
            for s in self.generators:
                y = s(p)
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
        moved = set()
        for g in self.generators:
            moved.update(g.moved_points())
        return sorted(moved)

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
        """Sorted element list (cached); refuses above the enumeration bound."""
        if self._element_list is None:
            _check_enumerable(self._order)
            self._element_list = sorted(self.iter_elements(), key=lambda g: g.images)
        return self._element_list

    def random_element(self, rng: random.Random):
        """Uniformly random element u_0 u_1 ... via uniform transversal
        choices: composes g^-1 = ... u_1^-1 u_0^-1, then inverts once."""
        h = self._identity
        for lev in self.levels:
            h = tuple(map(rng.choice(list(lev.inv.values())).__getitem__, h))
        return Permutation._trusted(_invert(h))

    def is_abelian(self):
        return all((a * b).images == (b * a).images
                   for i, a in enumerate(self.generators)
                   for b in self.generators[i + 1:])


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


def _conjugation_orbits(G, seeds):
    """The class census: conjugation orbits of the seeds, in seed order,
    complete exactly when the class sizes sum to |G|.  Conjugates are
    composed as image tuples, s x s^-1 in one pass, and each block member
    is wrapped as a Permutation once, at the end."""
    known = set()
    classes = []
    total = 0
    order = G.order()
    gen_pairs = [(g.images.__getitem__, g.inverse().images) for g in G.generators]
    for g in seeds:
        if total == order:
            break
        if g.images in known:
            continue
        block = [g.images]
        known.add(g.images)
        for x in block:
            for s, s_inv in gen_pairs:
                y = tuple(map(s, map(x.__getitem__, s_inv)))
                if y not in known:
                    known.add(y)
                    block.append(y)
        classes.append([Permutation._trusted(x) for x in block])
        total += len(block)
    return classes


def _random_elements(G, seed=0):
    rng = random.Random(seed)
    while True:
        yield G.random_element(rng)


def full_conjugacy_classes(G: PermGroup):
    """All classes as element lists, canonically sorted (see ClassData).

    The census runs once per group; the sorted tuple of blocks is kept on
    G, and callers that want another order sort a copy."""
    if G._classes is not None:
        return G._classes
    n = G.order()
    if n <= EXHAUSTIVE_CLASS_BOUND:
        seeds = G.element_list()
    else:
        _check_enumerable(n)
        seeds = _random_elements(G)
    classes = _conjugation_orbits(G, seeds)
    if sum(len(c) for c in classes) != n:
        raise AssertionError("class sizes do not sum to the group order")
    def key(block):
        rep = min(block, key=lambda g: g.images)
        return (rep.order(), len(rep.moved_points()), len(block), rep.images)
    G._classes = tuple(sorted(classes, key=key))
    return G._classes


def conjugacy_classes(G: PermGroup) -> ClassData:
    classes = full_conjugacy_classes(G)
    reps = tuple(min(block, key=lambda g: g.images) for block in classes)
    sizes = tuple(len(block) for block in classes)
    orders = tuple(rep.order() for rep in reps)
    return ClassData(
        class_sizes=sizes,
        class_rep_orders=orders,
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
    K = PermGroup(G.degree, gens)
    while True:
        new = []
        for k in gens:
            for g in G.generators:
                c = g * k * g.inverse()
                if c not in K:
                    new.append(c)
        if not new:
            return K
        gens.extend(new)
        K = PermGroup(G.degree, gens)


def structure_report(G: PermGroup):
    """(center_order, derived_order, abelianization_order, is_perfect)."""
    center = center_order(G)        # refuses above the enumeration bound first
    commutators = []
    for i, a in enumerate(G.generators):
        for b in G.generators[i + 1:]:
            commutators.append(a * b * a.inverse() * b.inverse())
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
    order); otherwise enumerate G, which costs about half a census."""
    hist = Counter()
    if G._classes is not None:
        for block in G._classes:
            hist[block[0].order()] += len(block)
        return dict(hist)
    _check_enumerable(G.order())
    for g in G.iter_elements():
        hist[g.order()] += 1
    return dict(hist)


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
    seen = {ident.images}
    queue = [ident]
    qi = 0
    while qi < len(queue):
        x = queue[qi]
        qi += 1
        for s in gens:
            y = Permutation(map(s.images.__getitem__, x.images))
            if y.images not in seen:
                seen.add(y.images)
                queue.append(y)
    return len(seen)
