"""Dense Cayley-table view of a small permutation group.

Several consumers (automorphism search, semidirect validation) want the
group as indexed elements with an integer multiplication table; this is
only sensible for small orders, so the builder enforces a bound.
"""

from __future__ import annotations

from .errors import ResourceLimitError

CAYLEY_BOUND = 2048


class CayleyStructure:
    """Elements of a PermGroup indexed 0..n-1 with full product table."""

    def __init__(self, group):
        n = group.order()
        if n > CAYLEY_BOUND:
            raise ResourceLimitError(
                f"group order {n} exceeds the fixed Cayley-table bound {CAYLEY_BOUND}")
        self.group = group
        self.elements = group.element_list()
        self.index = {g.images: i for i, g in enumerate(self.elements)}
        self.n = n
        images = [g.images for g in self.elements]
        lookup = self.index.__getitem__
        self.table = [
            list(map(lookup, [tuple(map(a.__getitem__, b)) for b in images]))
            for a in images
        ]
        self.identity_index = self.index[tuple(range(group.degree))]
        self.orders = [g.order() for g in self.elements]

    def generator_indices(self):
        return [self.index[g.images] for g in self.group.generators]

    def minimal_generating_indices(self):
        """Greedy generating sequence: scan elements, keep those that enlarge
        the generated subgroup.  Deterministic."""
        chosen = []
        closure = {self.identity_index}
        for i in range(self.n):
            if i in closure:
                continue
            chosen.append(i)
            closure = self.closure(chosen)
            if len(closure) == self.n:
                return chosen
        return chosen  # trivial group: []

    def closure(self, gens):
        """Indices of the subgroup generated by the element indices gens."""
        seen = {self.identity_index}
        queue = [self.identity_index]
        qi = 0
        while qi < len(queue):
            x = queue[qi]
            qi += 1
            for g in gens:
                y = self.table[x][g]
                if y not in seen:
                    seen.add(y)
                    queue.append(y)
        return seen
