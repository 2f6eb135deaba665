"""The 26 sporadic simple groups: orders and family metadata.

Orders are stored in factored form (the ground truth; printed decimal
renderings of the largest orders are derived from it, never transcribed)
and multiplied out on demand.  The four generation tags partition the
list 5 + 7 + 8 + 6: the Mathieu chain, the Leech-lattice stabilizers,
the Monster family, and the pariahs.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InternalDefectError


@dataclass(frozen=True)
class SporadicEntry:
    symbol: str
    name: str
    generation: str            # mathieu | leech | monster | pariah
    factorization: tuple       # ((prime, exponent), ...)
    discoverer: str
    year: int

    @property
    def order(self) -> int:
        out = 1
        for p, e in self.factorization:
            out *= p ** e
        return out

    def as_dict(self):
        return {
            "symbol": self.symbol,
            "name": self.name,
            "generation": self.generation,
            "order": str(self.order),
            "factorization": [[p, e] for p, e in self.factorization],
            "discoverer": self.discoverer,
            "year": self.year,
        }


_RAW = [
    ("M11", "Mathieu", "mathieu",
     ((2, 4), (3, 2), (5, 1), (11, 1)), "Mathieu", 1861),
    ("M12", "Mathieu", "mathieu",
     ((2, 6), (3, 3), (5, 1), (11, 1)), "Mathieu", 1861),
    ("J1", "Janko", "pariah",
     ((2, 3), (3, 1), (5, 1), (7, 1), (11, 1), (19, 1)), "Janko", 1965),
    ("M22", "Mathieu", "mathieu",
     ((2, 7), (3, 2), (5, 1), (7, 1), (11, 1)), "Mathieu", 1873),
    ("J2", "Hall-Janko", "leech",
     ((2, 7), (3, 3), (5, 2), (7, 1)), "Hall, Janko", 1968),
    ("M23", "Mathieu", "mathieu",
     ((2, 7), (3, 2), (5, 1), (7, 1), (11, 1), (23, 1)), "Mathieu", 1873),
    ("HS", "Higman-Sims", "leech",
     ((2, 9), (3, 2), (5, 3), (7, 1), (11, 1)), "Higman, Sims", 1968),
    ("J3", "Janko", "pariah",
     ((2, 7), (3, 5), (5, 1), (17, 1), (19, 1)), "Janko", 1968),
    ("M24", "Mathieu", "mathieu",
     ((2, 10), (3, 3), (5, 1), (7, 1), (11, 1), (23, 1)), "Mathieu", 1873),
    ("McL", "McLaughlin", "leech",
     ((2, 7), (3, 6), (5, 3), (7, 1), (11, 1)), "McLaughlin", 1969),
    ("He", "Held", "monster",
     ((2, 10), (3, 3), (5, 2), (7, 3), (17, 1)), "Held", 1969),
    ("Ru", "Rudvalis", "pariah",
     ((2, 14), (3, 3), (5, 3), (7, 1), (13, 1), (29, 1)), "Rudvalis", 1972),
    ("Suz", "Suzuki", "leech",
     ((2, 13), (3, 7), (5, 2), (7, 1), (11, 1), (13, 1)), "Suzuki", 1969),
    ("ON", "O'Nan", "pariah",
     ((2, 9), (3, 4), (5, 1), (7, 3), (11, 1), (19, 1), (31, 1)), "O'Nan", 1973),
    ("Co3", "Conway", "leech",
     ((2, 10), (3, 7), (5, 3), (7, 1), (11, 1), (23, 1)), "Conway", 1968),
    ("Co2", "Conway", "leech",
     ((2, 18), (3, 6), (5, 3), (7, 1), (11, 1), (23, 1)), "Conway", 1968),
    ("Fi22", "Fischer", "monster",
     ((2, 17), (3, 9), (5, 2), (7, 1), (11, 1), (13, 1)), "Fischer", 1971),
    ("HN", "Harada-Norton", "monster",
     ((2, 14), (3, 6), (5, 6), (7, 1), (11, 1), (19, 1)), "Harada, Norton", 1973),
    ("Ly", "Lyons", "pariah",
     ((2, 8), (3, 7), (5, 6), (7, 1), (11, 1), (31, 1), (37, 1), (67, 1)),
     "Lyons", 1969),
    ("Th", "Thompson", "monster",
     ((2, 15), (3, 10), (5, 3), (7, 2), (13, 1), (19, 1), (31, 1)),
     "Thompson", 1973),
    ("Fi23", "Fischer", "monster",
     ((2, 18), (3, 13), (5, 2), (7, 1), (11, 1), (13, 1), (17, 1), (23, 1)),
     "Fischer", 1971),
    ("Co1", "Conway", "leech",
     ((2, 21), (3, 9), (5, 4), (7, 2), (11, 1), (13, 1), (23, 1)),
     "Conway, Leech", 1968),
    ("J4", "Janko", "pariah",
     ((2, 21), (3, 3), (5, 1), (7, 1), (11, 3), (23, 1), (29, 1), (31, 1),
      (37, 1), (43, 1)), "Janko", 1975),
    ("Fi24'", "Fischer", "monster",
     ((2, 21), (3, 16), (5, 2), (7, 3), (11, 1), (13, 1), (17, 1), (23, 1),
      (29, 1)), "Fischer", 1971),
    ("B", "Baby Monster", "monster",
     ((2, 41), (3, 13), (5, 6), (7, 2), (11, 1), (13, 1), (17, 1), (19, 1),
      (23, 1), (31, 1), (47, 1)), "Fischer, Leon, Sims", 1973),
    ("M", "Monster", "monster",
     ((2, 46), (3, 20), (5, 9), (7, 6), (11, 2), (13, 3), (17, 1), (19, 1),
      (23, 1), (29, 1), (31, 1), (41, 1), (47, 1), (59, 1), (71, 1)),
     "Fischer, Griess", 1973),
]

# Decimal orders for the entries whose sources print them unambiguously;
# used purely as a cross-check of the factored forms.
_DECIMAL_CHECKS = {
    "M11": 7920,
    "M12": 95040,
    "J1": 175560,
    "M22": 443520,
    "J2": 604800,
    "M23": 10200960,
    "HS": 44352000,
    "J3": 50232960,
    "M24": 244823040,
    "McL": 898128000,
    "He": 4030387200,
    "Ru": 145926144000,
    "Suz": 448345497600,
    "ON": 460815505920,
    "Co3": 495766656000,
    "Co2": 42305421312000,
    "Fi22": 64561751654400,
    "HN": 273030912000000,
    "Ly": 51765179004000000,
    "Th": 90745943887872000,
    "Fi23": 4089470473293004800,
    "Co1": 4157776806543360000,
    "J4": 86775571046077562880,
    "Fi24'": 1255205709190661721292800,
}

GENERATION_SIZES = {"mathieu": 5, "leech": 7, "monster": 8, "pariah": 6}


def sporadic_table():
    """All 26 entries, ascending by order, with the stored invariants
    re-verified on every call (cheap integer work)."""
    entries = [SporadicEntry(*row) for row in _RAW]
    entries.sort(key=lambda e: e.order)
    if len(entries) != 26:
        raise InternalDefectError("sporadic table must have exactly 26 entries")
    counts = {}
    for e in entries:
        counts[e.generation] = counts.get(e.generation, 0) + 1
        if e.order % 2:
            raise InternalDefectError(f"{e.symbol}: sporadic order must be even")
        want = _DECIMAL_CHECKS.get(e.symbol)
        if want is not None and e.order != want:
            raise InternalDefectError(
                f"{e.symbol}: factored order {e.order} != decimal {want}")
    if counts != GENERATION_SIZES:
        raise InternalDefectError(f"generation counts {counts} are off")
    return entries

