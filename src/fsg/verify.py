"""The acceptance suite: every headline numeric fact, machine-checked.

Each check returns (name, passed, detail); `fsg verify-all` prints them
as one JSON object, or one line per check under `--format text`, and
fails the process if any fails.  The checks are pure recomputation: no
tolerance appears anywhere, every comparison is exact integer or exact
structural equality.
"""

from __future__ import annotations

import time
from itertools import repeat
from operator import itemgetter

from .errors import ValidationError
from .fields import (element_multiplicative_order, frobenius_order, is_prime,
                     make_field, multiplicative_generator, prime_factors,
                     prime_power)

EXPECTED_NONABELIAN_CENSUS_10000 = {
    60: ("Alt_5", "PSL_2(4)", "PSL_2(5)"),
    168: ("PSL_2(7)", "PSL_3(2)"),
    360: ("Alt_6", "PSL_2(9)"),
    504: ("PSL_2(8)",),
    660: ("PSL_2(11)",),
    1092: ("PSL_2(13)",),
    2448: ("PSL_2(17)",),
    2520: ("Alt_7",),
    3420: ("PSL_2(19)",),
    4080: ("PSL_2(16)",),
    5616: ("PSL_3(3)",),
    6048: ("PSU_3(9)",),
    6072: ("PSL_2(23)",),
    7800: ("PSL_2(25)",),
    7920: ("M11",),
    9828: ("PSL_2(27)",),
}

PRIME_POWERS_256 = [q for q in range(2, 257) if prime_power(q)]


def _check_order_formulas():
    from .matgroups import FamilyOrderQuery, order_formula
    table = [
        (("GL", 2, 3), 168),
        (("GL", 2, 4), 20160),
        (("PSL", 4, 3), 20160),
        (("GL", 3, 4), 24261120),
        (("SL", 3, 4), 12130560),
        (("PSL", 3, 4), 6065280),
        (("SL", 3, 3), 5616),
        (("G2", 2, 0), 12096),
        (("PSL", 9, 2), 360),
        (("SL", 8, 2), 504),
        (("PSL", 11, 2), 660),
    ]
    bad = []
    for (fam, q, n), want in table:
        got = order_formula(FamilyOrderQuery(fam, q, n)).order
        if got != want:
            bad.append(f"{fam}({q},n={n}): {got} != {want}")
    return not bad, "; ".join(bad) or f"{len(table)} orders exact"


def _check_census():
    from .matgroups import census_table, simple_census
    entries = simple_census(10000)
    got = {e.order: e.names for e in entries}
    ok = got == EXPECTED_NONABELIAN_CENSUS_10000
    full = census_table(10000)
    ok = ok and len(full) == 20
    ok = ok and [e.order for e in full[:4]] == [2, 3, 5, 7]
    m11 = next(e for e in entries if e.order == 7920)
    ok = ok and m11.is_sporadic
    return ok, (f"{len(entries)} nonabelian entries, 20 with abelian primes, "
                "M11 at 7920 flagged sporadic")


def _check_mathieu():
    from .golay import mathieu_m24
    chain = mathieu_m24()       # raises unless the orders are the sporadic rows
    return chain.transitivity == (5, False), (
        f"|M24|={chain.order}, |M23|={chain.point_stabilizer_order}, "
        f"|M22|={chain.two_point_stabilizer_order}, transitivity {chain.transitivity}")


def _check_golay():
    from .golay import build_golay, octad_steiner_check
    code = build_golay()        # raises unless the weights are the Golay ones
    wd = sorted(code.weight_distribution().items())
    return octad_steiner_check(code)["every_5_subset_once"], f"weights {wd}, Steiner exact"


def _check_leech():
    from .leech import kissing_number_consistency, leech_minimal_vectors
    census = leech_minimal_vectors()    # raises unless enumeration = closed forms
    counts = {c.shape: c.count for c in census}
    total = sum(counts.values())
    return (kissing_number_consistency(census)["match"],
            f"shapes {counts}, total {total} = theta q^2 coefficient")


def _check_moonshine():
    from .moonshine import j_expansion, moonshine_decompositions
    checks = moonshine_decompositions()
    ok = j_expansion(3).coeff_range(-1, 0) == [1, 744] and all(c["pass"] for c in checks)
    return ok, f"j and j^(1/3) coefficients exact, {len(checks)} identities pass"


def _check_monster():
    from .moonshine import monster_constant_checks
    checks = monster_constant_checks()
    return all(c["pass"] for c in checks), f"{len(checks)} constant checks"


def _check_catalog():
    from .zoo import small_group_catalog
    entries = small_group_catalog()
    ok = len(entries) == 28
    abelian = [e for e in entries if e.is_abelian]
    ok = ok and len(abelian) == 20 and len(entries) - len(abelian) == 8
    by_name = {e.name: e for e in entries}
    ok = ok and sorted(by_name["D4"].class_sizes) == [1, 1, 2, 2, 2]
    q = by_name["Q"]
    ok = ok and sorted(q.class_sizes) == [1, 1, 2, 2, 2]
    ok = ok and sorted(q.class_rep_orders) == [1, 2, 4, 4, 4]
    ok = ok and sorted(by_name["D5"].irrep_degrees) == [1, 1, 2, 2]
    ok = ok and by_name["S3"].irrep_degrees == (1, 1, 2)
    ok = ok and by_name["A4"].irrep_degrees == (1, 1, 1, 3)
    return ok, "28 entries (20 abelian + 8 nonabelian), quoted partitions verified"


def _check_character_tables():
    from .characters import character_table
    from .zoo import symmetric
    s3 = character_table(symmetric(3))
    s4 = character_table(symmetric(4))
    ok = s3.as_integer_matrix() == [[1, 1, 1], [1, -1, 1], [2, 0, -1]]
    ok = ok and s4.as_integer_matrix() == [
        [1, 1, 1, 1, 1],
        [1, 1, -1, 1, -1],
        [2, 2, 0, -1, 0],
        [3, -1, 1, 0, -1],
        [3, -1, -1, 0, 1],
    ]
    return ok, "S3 and S4 tables match entry-for-entry; orthogonality exact"


def _check_20160():
    from .perms import element_order_histogram
    from .zoo import alternating, construct_named
    # alternating and projective_action certify the order 20160 of each
    ok = element_order_histogram(alternating(8)).get(15, 0) == 2688
    ok = ok and 15 not in element_order_histogram(construct_named("psl3", 4))
    return ok, ("orders agree at 20160; Alt_8 has 2688 order-15 elements, "
                "PSL_3(4) has none")


def _suite_groups():
    """The named groups the structural property checks run over."""
    from .zoo import (alternating, clifford, construct_named, cyclic, dicyclic,
                      dihedral, frobenius21, quaternion, symmetric, vierergruppe)
    groups = {
        "Z2": cyclic(2), "Z3": cyclic(3), "Z5": cyclic(5), "Z7": cyclic(7),
        "Z11": cyclic(11), "Z12": cyclic(12), "V": vierergruppe(),
        "S3": symmetric(3), "S4": symmetric(4), "S5": symmetric(5),
        "S6": symmetric(6),
        "A4": alternating(4), "Alt_5": alternating(5), "Alt_6": alternating(6),
        "D4": dihedral(4), "D6": dihedral(6), "D7": dihedral(7),
        "Q": quaternion(), "Q3": dicyclic(3), "Gamma_3": clifford(3),
        "Gamma_4": clifford(4), "G21": frobenius21(),
        "PSL_2(7)": construct_named("psl2", 7),
        "SL_2(8)": construct_named("psl2", 8),
        "PSL_2(11)": construct_named("psl2", 11),
        "PGL_2(9)": construct_named("pgl2", 9),
    }
    return groups


def _check_group_properties():
    from .perms import (EXHAUSTIVE_CLASS_BOUND, center_order, closure_order,
                        conjugacy_classes, element_order_histogram, is_simple)
    problems = []
    groups = _suite_groups()
    simple_expected = {"Z2", "Z3", "Z5", "Z7", "Z11", "Alt_5", "Alt_6",
                       "PSL_2(7)", "SL_2(8)", "PSL_2(11)"}
    for name, G in groups.items():
        n = G.order()
        # BSGS order vs brute-force closure for everything small
        if n <= 5040 and closure_order(G.degree, G.generators) != n:
            problems.append(f"{name}: closure oracle disagrees with chain order")
        if n <= EXHAUSTIVE_CLASS_BOUND:
            # class sizes divide the order; the census also serves the histogram
            for s in conjugacy_classes(G).class_sizes:
                if n % s:
                    problems.append(f"{name}: class size {s} fails divisibility")
            # involution parity (Cauchy)
            hist = element_order_histogram(G)
            if n % 2 == 0 and (hist.get(2, 0) < 1 or hist[2] % 2 == 0):
                problems.append(f"{name}: involution parity violated")
            if n % 2 == 1 and 2 in hist:
                problems.append(f"{name}: odd group with involutions")
        # p-group centers
        fac = prime_factors(n)
        if len(fac) == 1 and center_order(G) < fac[0]:
            problems.append(f"{name}: p-group with too-small center")
        # simplicity census over the suite, orders <= 1000
        if n <= 1000:
            expect = name in simple_expected or (G.is_abelian() and is_prime(n))
            if is_simple(G) != expect:
                problems.append(f"{name}: is_simple != {expect}")
    return not problems, "; ".join(problems) or \
        f"Lagrange/Cauchy/center/simplicity/oracle checks over {len(groups)} groups"


def _check_one_field(q):
    p, f = prime_power(q)
    F = make_field(p, f)
    els = list(F.elements())
    g = multiplicative_generator(F)
    if element_multiplicative_order(F, g) != F.q - 1:
        return f"q={q}: generator order wrong"
    if frobenius_order(F) != f:
        return f"q={q}: frobenius order != f"
    add, mul = F.add, F.mul
    # one call per table entry; a's code (item 1) is its index in els, so pick moves a to a^p
    frob, code = list(map(F.frobenius, els)), itemgetter(1)
    pick = itemgetter(*map(code, frob))
    for T in [[tuple(map(op, repeat(a), els)) for a in els] for op in (add, mul)]:
        for law, X, Y in (("commutativity fails", T, list(zip(*T))),
                          ("frobenius is not a field morphism", list(map(pick, pick(T))),
                           [tuple(map(frob.__getitem__, map(code, row))) for row in T])):
            for a, b in ((a, b) for a, x, y in zip(els, X, Y) if x != y
                         for b, u, v in zip(els, x, y) if u != v):
                return f"q={q}: {law} at {a}, {b}"
    probes = [F.one(), g, mul(g, g)]
    for a in els:
        for b in (g, probes[2]):
            ab = mul(a, b)
            a_plus_b = add(a, b)
            for c in probes:
                if mul(ab, c) != mul(a, mul(b, c)):
                    return f"q={q}: associativity fails"
                if mul(c, a_plus_b) != add(mul(c, a), mul(c, b)):
                    return f"q={q}: distributivity fails"
    acc = F.zero()
    for _ in range(p - 1):
        acc = add(acc, F.one())
        if acc.is_zero():
            return f"q={q}: characteristic below p"
    if not add(acc, F.one()).is_zero():
        return f"q={q}: characteristic above p"
    return None


def _check_field_axioms():
    for q in PRIME_POWERS_256:
        problem = _check_one_field(q)
        if problem:
            return False, problem
    return True, (f"axioms and frobenius morphism exhaustive over pairs "
                  f"for all {len(PRIME_POWERS_256)} fields q <= 256")


def _check_division_algebras():
    import random
    from .division import (associativity_probe, random_octonion,
                           random_quaternion)
    h = associativity_probe("H", 100)
    o = associativity_probe("O", 100)
    ok = h["fully_associative"] and o["alternative"]
    w = o["nonassociative_witness"]
    ok = ok and w["associator_nonzero"] and w["anti_associated"]
    rng = random.Random(7)
    for _ in range(100):
        a, b = random_quaternion(rng), random_quaternion(rng)
        ok = ok and (a * b).norm() == a.norm() * b.norm()
    for _ in range(100):
        a, b = random_octonion(rng), random_octonion(rng)
        ok = ok and (a * b).norm() == a.norm() * b.norm()
    return ok, "associativity/alternativity and norm composition exact"


def _check_zoo_laws():
    from .characters import character_table
    from .perms import conjugacy_classes
    from .zoo import (cyclic, direct_product, holomorph, nonabelian_pq_group,
                      symmetric, vierergruppe)
    problems = []
    # holomorph orders
    if holomorph(vierergruppe()).order() != 24:
        problems.append("Hol(V) != 24")
    if holomorph(cyclic(5)).order() != 20:
        problems.append("Hol(Z5) != 20")
    hol_v_classes = conjugacy_classes(holomorph(vierergruppe())).class_sizes
    if tuple(sorted(hol_v_classes)) != tuple(sorted(
            conjugacy_classes(symmetric(4)).class_sizes)):
        problems.append("Hol(V) classes differ from S4")
    # character degrees of a direct product; _certify checks its order
    degs = sorted(character_table(direct_product(cyclic(2), symmetric(3))).degrees)
    if degs != [1, 1, 1, 1, 2, 2]:
        problems.append(f"Z2 x S3 character degrees {degs}")
    # pq compatibility law over all pq < 200
    primes = [p for p in range(2, 100) if is_prime(p)]
    for i, p in enumerate(primes):
        for q in primes[i + 1:]:
            if p * q >= 200:
                break
            try:
                if nonabelian_pq_group(p, q).is_abelian():
                    problems.append(f"pq group {p}*{q} malformed")
                built = True
            except ValidationError:
                built = False
            if built != ((q - 1) % p == 0):
                problems.append(f"pq compatibility wrong at {p},{q}")
    return not problems, "; ".join(problems) or \
        "holomorph/product order laws, pq compatibility over pq < 200"


ACCEPTANCE = [
    ("order-formula table (168 ... 6065280 ... 12096)", _check_order_formulas),
    ("simple-group census to 10000", _check_census),
    ("mathieu chain |M24|, |M23|, |M22|, 5-transitivity", _check_mathieu),
    ("golay weights and Steiner S(5,8,24)", _check_golay),
    ("leech kissing number 196560 = theta q^2", _check_leech),
    ("moonshine j, j^(1/3) and dimension identities", _check_moonshine),
    ("monster order constants", _check_monster),
    ("small-group catalog below order 16", _check_catalog),
    ("S3/S4 character tables, exact orthogonality", _check_character_tables),
    ("order 20160: Alt_8 vs PSL_3(4) separated", _check_20160),
    ("group property suite (Lagrange/Cauchy/center/simplicity)",
     _check_group_properties),
    ("field axioms through q = 256", _check_field_axioms),
    ("quaternion/octonion exact identities", _check_division_algebras),
    ("zoo order laws and pq compatibility", _check_zoo_laws),
]


def acceptance_checks():
    results = []
    for name, fn in ACCEPTANCE:
        start = time.perf_counter()
        try:
            passed, detail = fn()
        except Exception as exc:  # noqa: BLE001 - report, do not hide
            passed, detail = False, f"raised {exc!r}"
        results.append({
            "name": name,
            "passed": bool(passed),
            "detail": detail,
            "seconds": time.perf_counter() - start,
        })
    return results
