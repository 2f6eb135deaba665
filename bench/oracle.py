"""Checks of the program's answers, independent of fsg.

Nothing here imports fsg.  The sources are closed forms computed here
(n!, n!/2, q(q^2-1)/gcd(2, q-1), |M24| = 244823040, 196560, the q-series
by other algorithms than fsg's), sympy 1.14 (group orders and membership
for large groups, irreducibility and powers over GF(p), partition
numbers), brute force over the elements of small groups, and the field
and character identities themselves.  Every checker returns a list of
problems; an empty list means the answer is right.
"""

from __future__ import annotations

import cmath
import hashlib
import json
from collections import Counter
from functools import lru_cache
from itertools import product
from math import comb, factorial, gcd, isqrt

from sympy import factorint, isprime, totient
from sympy.combinatorics import Permutation as SymPerm
from sympy.combinatorics import PermutationGroup as SymGroup
from sympy.functions.combinatorial.numbers import partition as sym_partition
from sympy.polys.domains import ZZ
from sympy.polys.galoistools import (gf_add, gf_irreducible_p, gf_mul, gf_neg,
                                     gf_pow_mod, gf_rem, gf_strip, gf_sub)


def digest(values):
    return hashlib.sha256(",".join(map(str, values)).encode()).hexdigest()


def _expect(problems, what, got, want):
    if got != want:
        problems.append(f"{what}: got {got!r}, expected {want!r}")


# ------------------------------------------------------------------ fields


def _gf(coeffs):
    """Low-to-high coefficients as a sympy dense polynomial (high-to-low)."""
    return gf_strip([ZZ(c) for c in reversed(coeffs)])


def _from_gf(poly, f):
    low = [int(c) for c in reversed(poly)]
    return low + [0] * (f - len(low))


@lru_cache(maxsize=None)
def field_modulus(p, f):
    """The lexicographically smallest monic irreducible of degree f, read
    low to high, constant term slowest; t itself for f = 1."""
    if f == 1:
        return (0, 1)
    for lower in product(range(1, p), *[range(p)] * (f - 1)):  # t | m when m(0) = 0
        m = lower + (1,)
        if gf_irreducible_p(_gf(m), p, ZZ):
            return m
    raise AssertionError("no irreducible polynomial")  # pragma: no cover


def _primitive(coeffs, p, f, modulus):
    n = p ** f - 1
    a = _gf(coeffs)
    return all(gf_pow_mod(a, n // r, _gf(modulus), p, ZZ) != [ZZ(1)]
               for r in factorint(n))


@lru_cache(maxsize=None)
def field_generator(p, f):
    """The first element, in canonical order, of multiplicative order q-1."""
    if p ** f == 2:
        return (1,)
    modulus = field_modulus(p, f)
    for coeffs in product(range(p), repeat=f):
        if any(coeffs) and _primitive(coeffs, p, f, modulus):
            return coeffs
    raise AssertionError("no generator")  # pragma: no cover


def field_op(p, f, op, a, b):
    mod = _gf(field_modulus(p, f))
    x = _gf(a)
    if op == "neg":
        r = gf_neg(x, p, ZZ)
    elif op == "inv":
        r = gf_pow_mod(x, p ** f - 2, mod, p, ZZ)
    elif op == "pow":
        r = gf_pow_mod(x, b, mod, p, ZZ)
    else:
        fn = {"add": gf_add, "sub": gf_sub, "mul": gf_mul}[op]
        r = fn(x, _gf(b), p, ZZ)
    return _from_gf(gf_rem(r, mod, p, ZZ), f)


def check_field(req, ans):
    p, f = req["p"], req["f"]
    probs = []
    _expect(probs, "modulus", tuple(ans["modulus"]), field_modulus(p, f))
    _expect(probs, "generator", tuple(ans["generator"]), field_generator(p, f))
    _expect(probs, "generator order", ans["gen_order"], p ** f - 1)
    _expect(probs, "frobenius order", ans["frob_order"], f)
    _expect(probs, "identity violations", ans["violations"], 0)
    for a, inv in ans["inverses"]:
        _expect(probs, f"a * a^-1 for a = {a}", field_op(p, f, "mul", a, inv),
                [1] + [0] * (f - 1))
    return probs


# ------------------------------------------------------------ permutations


def compose(a, b):
    """(a * b)(x) = a(b(x)), the product order fsg documents."""
    return tuple(a[x] for x in b)


def inverse(a):
    inv = [0] * len(a)
    for i, x in enumerate(a):
        inv[x] = i
    return tuple(inv)


def cycle_lengths(a):
    seen, out = set(), []
    for i in range(len(a)):
        if i not in seen:
            n, j = 0, i
            while j not in seen:
                seen.add(j)
                j = a[j]
                n += 1
            out.append(n)
    return out


def perm_order(a):
    m = 1
    for n in cycle_lengths(a):
        m = m * n // gcd(m, n)
    return m


def closure(gens, degree):
    ident = tuple(range(degree))
    seen, queue = {ident}, [ident]
    for x in queue:
        for s in gens:
            y = compose(s, x)
            if y not in seen:
                seen.add(y)
                queue.append(y)
    return seen


def orbits(gens, degree):
    left, out = set(range(degree)), []
    while left:
        start = min(left)
        orb, queue = {start}, [start]
        for x in queue:
            for s in gens:
                if s[x] not in orb:
                    orb.add(s[x])
                    queue.append(s[x])
        out.append(sorted(orb))
        left -= orb
    return out


def class_census(elements, gens):
    """Sorted [class size, element order] pairs, by conjugation orbits."""
    pairs = [(s, inverse(s)) for s in gens]
    seen, out = set(), []
    for g in elements:
        if g in seen:
            continue
        block, queue = {g}, [g]
        for x in queue:
            for s, si in pairs:
                y = compose(compose(s, x), si)
                if y not in block:
                    block.add(y)
                    queue.append(y)
        seen |= block
        out.append([len(block), perm_order(g)])
    return sorted(out)


def word(gens, w):
    g = gens[w[0] % len(gens)]
    for x in w[1:]:
        g = compose(g, gens[x % len(gens)])
    return g


def transitivity(elements, gens, degree):
    """(k, sharp) on the support, from the orbit of one k-tuple."""
    supp = sorted({i for s in gens for i in range(degree) if s[i] != i})
    m = len(supp)
    if not supp or not any(o == supp for o in orbits(gens, degree)):
        return [0, False]
    k = 0
    while k < m:
        tup = supp[:k + 1]
        images = {tuple(g[x] for x in tup) for g in elements}
        if len(images) != factorial(m) // factorial(m - k - 1):
            break
        k += 1
    return [k, len(elements) == factorial(m) // factorial(m - k)]


class BigGroup:
    """Order, membership and transitivity of a group too large to list.

    sympy gives the order and membership.  The transitivity degree of
    the symmetric and alternating groups, which the random generators
    almost always give, follows from the order; any other group falls
    back to sympy's stabilizer computation.
    """

    def __init__(self, gens, degree):
        self.degree = degree
        self.sym = SymGroup([SymPerm(list(g)) for g in gens])
        self.order = int(self.sym.order())
        self.gens = gens

    def contains(self, perm):
        return bool(self.sym.contains(SymPerm(list(perm))))

    def transitivity(self):
        supp = sorted({i for s in self.gens for i in range(self.degree) if s[i] != i})
        m = len(supp)
        if not supp or not any(o == supp for o in orbits(self.gens, self.degree)):
            return [0, False]
        if self.order == factorial(m):
            return [m, True]
        if self.order * 2 == factorial(m) and m >= 3:
            return [m - 2, True]
        relabel = {x: i for i, x in enumerate(supp)}
        sym = SymGroup([SymPerm([relabel[s[x]] for x in supp]) for s in self.gens])
        k = int(sym.transitivity_degree)
        return [k, self.order == factorial(m) // factorial(m - k)]


# ------------------------------------------------------------------ groups


def named_order(kind, n=None, pf=None, variant=None, dim=None):
    if kind == "symmetric":
        return factorial(n)
    if kind == "alternating":
        return max(factorial(n) // 2, 1)
    if kind == "dihedral":
        return 2 * n
    if kind == "cyclic":
        return n
    if kind == "dicyclic":
        return 4 * n
    if kind == "clifford":
        return 2 ** (n + 1)
    if kind == "holomorph":
        return n * int(totient(n))
    if kind == "projective":
        p, f = pf
        q = p ** f
        pgl = q ** (dim * (dim - 1) // 2)
        for i in range(2, dim + 1):
            pgl *= q ** i - 1
        return pgl if variant == "PGL" else pgl // gcd(dim, q - 1)
    raise ValueError(kind)


def named_simple(kind, n=None, pf=None, variant=None, dim=None):
    """Simplicity by the classification of the families involved."""
    if kind == "symmetric":
        return n == 2
    if kind == "alternating":
        return n == 3 or n >= 5
    if kind == "cyclic":
        return bool(isprime(n))
    if kind == "projective":
        q = pf[0] ** pf[1]
        if dim == 3:
            return True
        return q >= 4 and (variant == "PSL" or q % 2 == 0)
    return False   # dihedral, dicyclic, clifford, semidirect, holomorph


def _row_orthogonality(table, order):
    m = table["exponent"]
    roots = [cmath.exp(2j * cmath.pi * t / m) for t in range(m)]
    chars = [[sum(c * r for c, r in zip(v, roots)) for v in row] for row in table["values"]]
    sizes = table["class_sizes"]
    for i, a in enumerate(chars):
        for j, b in enumerate(chars):
            s = sum(k * x * y.conjugate() for k, x, y in zip(sizes, a, b))
            if abs(s - (order if i == j else 0)) > 1e-6 * order:
                return False
    return True


def check_character_table(table, order, classes):
    probs = []
    degrees = table["degrees"]
    _expect(probs, "sum of squared degrees", sum(d * d for d in degrees), order)
    _expect(probs, "irreducible count", len(degrees), len(classes))
    _expect(probs, "class sizes", sorted(table["class_sizes"]), sorted(s for s, _ in classes))
    if any(order % d for d in degrees):
        probs.append("a degree does not divide the order")
    if [row[0][0] for row in table["values"]] != degrees:
        probs.append("identity column is not the degrees")
    if not _row_orthogonality(table, order):
        probs.append("rows are not orthogonal")
    return probs


def _named(spec):
    return {k: spec[k] for k in ("n", "pf", "variant", "dim") if k in spec}


def check_group(spec, ans):
    probs = []
    kind, degree = spec["kind"], spec["degree"]
    gens = [tuple(g) for g in ans["gens"]]
    order = int(ans["order"])
    big = BigGroup(gens, degree) if kind == "random" else None
    if big is not None:
        want = big.order
    elif kind == "semidirect":
        want = spec["pq"][0] * spec["pq"][1]
    else:
        want = named_order(kind, **_named(spec))
    _expect(probs, "degree", ans["degree"], degree)
    _expect(probs, "order", order, want)
    tests = ([word(gens, w) for w in spec["words"]] if gens else []) + \
        [tuple(x) for x in spec["nonmembers"]]
    _expect(probs, "orbits", ans["orbits"], orbits(gens, degree))
    if want > 10 ** 5:
        big = big or BigGroup(gens, degree)
        _expect(probs, "order of the reported generators", big.order, want)
        _expect(probs, "membership", ans["contains"], [big.contains(t) for t in tests])
        _expect(probs, "transitivity", ans["transitivity"], big.transitivity())
        return probs
    elements = closure(gens, degree)
    _expect(probs, "order of the reported generators", len(elements), want)
    _expect(probs, "membership", ans["contains"], [t in elements for t in tests])
    _expect(probs, "transitivity", ans["transitivity"], transitivity(elements, gens, degree))
    classes = class_census(elements, gens)
    _expect(probs, "classes", ans["classes"], classes)
    _expect(probs, "order histogram", ans["histogram"],
            {str(k): v for k, v in sorted(Counter(perm_order(g) for g in elements).items())})
    _expect(probs, "center order", ans["center_order"],
            sum(1 for z in elements if all(compose(z, s) == compose(s, z) for s in gens)))
    derived = SymGroup([SymPerm(list(g)) for g in gens]).derived_subgroup().order() if gens else 1
    _expect(probs, "derived order", ans["derived_order"], int(derived))
    _expect(probs, "simple", ans["simple"], named_simple(kind, **_named(spec)))
    if want <= 200:
        probs += check_character_table(ans["character_table"], order, classes)
        els = sorted(elements)
        index = {g: i for i, g in enumerate(els)}
        _expect(probs, "cayley table", ans["cayley_digest"],
                digest(index[compose(a, b)] for a in els for b in els))
    return probs


# ----------------------------------------------------------------- lattice

M24_ORDER = 244823040
KISSING = 196560
LEECH_SHAPES = [
    {"shape": "four_four", "count": 4 * comb(24, 2), "norm": 4},
    {"shape": "two_octad", "count": 759 * 2 ** 7, "norm": 4},
    {"shape": "three_ones", "count": 2 ** 12 * 24, "norm": 4},
]


@lru_cache(maxsize=None)
def golay_words():
    """The [24,12,8] code: parity extension of the cyclic code spanned by
    the shifts of the quadratic-residue indicator mod 23."""
    qr = {x * x % 23 for x in range(1, 23)}
    rows = []
    for s in range(23):
        m = sum(1 << ((r + s) % 23) for r in qr)
        rows.append(m | (bin(m).count("1") % 2) << 23)
    words = {0}
    for r in rows:
        if r not in words:
            words |= {w ^ r for w in words}
    return frozenset(words)


def _preserves_code(perm):
    words = golay_words()
    def image(w):
        return sum(1 << perm[i] for i in range(24) if w >> i & 1)
    return all(image(w) in words for w in words)


@lru_cache(maxsize=None)
def m24(gens):
    return BigGroup([tuple(g) for g in gens], 24)


def _euler(n):
    """prod (1 - q^k) through q^n, by the pentagonal number theorem."""
    c = [0] * (n + 1)
    k = 0
    while k * (3 * k - 1) // 2 <= n:
        for g in {k * (3 * k - 1) // 2, k * (3 * k + 1) // 2}:
            if g <= n:
                c[g] += -1 if k % 2 else 1
        k += 1
    return c


def _power(f, num, den, n):
    """f^(num/den) through q^n for f[0] = 1, by the J.C.P. Miller recurrence."""
    nz = [(k, c) for k, c in enumerate(f[:n + 1]) if c and k]
    g = [1] + [0] * n
    for m in range(1, n + 1):
        acc = sum(((num + den) * k - den * m) * c * g[m - k] for k, c in nz if k <= m)
        g[m] = acc // (den * m)
    return g


def _mul(a, b, n):
    out = [0] * (n + 1)
    for i, x in enumerate(a[:n + 1]):
        if x:
            for j, y in enumerate(b[:n + 1 - i]):
                out[i + j] += x * y
    return out


@lru_cache(maxsize=None)
def _delta_d(n):
    """D with Delta = q * D, through q^n: prod (1 - q^k)^24."""
    return tuple(_power(_euler(n), 24, 1, n))


@lru_cache(maxsize=None)
def _e4(n):
    sig = [0] * (n + 1)
    for d in range(1, n + 1):
        for m in range(d, n + 1, d):
            sig[m] += d ** 3
    return tuple([1] + [240 * s for s in sig[1:]])


@lru_cache(maxsize=None)
def _e4_cubed(n):
    e = list(_e4(n))
    return tuple(_mul(_mul(e, e, n), e, n))


@lru_cache(maxsize=None)
def _qj(n):
    """q * j = E4^3 / D through q^n, by long division."""
    e, d = _e4_cubed(n), _delta_d(n)
    h = []
    for m in range(n + 1):
        h.append(e[m] - sum(d[k] * h[m - k] for k in range(1, m + 1)))
    return tuple(h)


def series(op, n):
    """Coefficients of each q-series from its documented first power through q^n."""
    if op == "delta_expansion":
        return list(_delta_d(n - 1))                       # q^1 .. q^n
    if op == "eisenstein_e4":
        return list(_e4(n))
    if op == "j_expansion":
        return list(_qj(n + 1))                            # q^-1 .. q^n
    if op == "j_cube_root":
        return _power(list(_qj(n)), 1, 3, n)
    if op == "leech_theta_prefix":
        e, d = _e4_cubed(n), _delta_d(n)
        return [e[m] - (720 * d[m - 1] if m else 0) for m in range(n + 1)]
    raise ValueError(op)


def check_lattice(req, ans, m24_gens):
    op = req["op"]
    probs = []
    if op == "build_golay":
        _expect(probs, "golay", ans, {"dimension": 12, "self_dual": True, "weights": {
            "0": 1, "8": 759, "12": 2576, "16": 759, "24": 1}})
    elif op == "octad_steiner_check":
        _expect(probs, "steiner", ans, {
            "octad_count": 759, "counting_identity": 759 * comb(8, 5) == comb(24, 5),
            "octads_through_point": 253, "octads_through_pair": 77,
            "every_5_subset_once": True})
    elif op == "mathieu_m24":
        gens = ans.pop("gens")
        _expect(probs, "m24", ans, {"order": str(M24_ORDER), "point_stabilizer_order": "10200960",
                                    "two_point_stabilizer_order": "443520",
                                    "transitivity": {"k": 5, "sharp": False}})
        _expect(probs, "order of the M24 generators", m24(tuple(map(tuple, gens))).order, M24_ORDER)
        if not all(_preserves_code(g) for g in gens):
            probs.append("an M24 generator does not preserve the Golay code")
    elif op == "m24_sifts":
        G = m24(m24_gens)
        tests = [word(G.gens, w) for w in req["words"]] + [tuple(x) for x in req["nonmembers"]]
        _expect(probs, "M24 membership", ans["contains"], [G.contains(t) for t in tests])
    elif op == "leech_minimal_vectors":
        _expect(probs, "shapes", ans, LEECH_SHAPES)
        _expect(probs, "kissing number", sum(s["count"] for s in LEECH_SHAPES), KISSING)
    elif op == "kissing_number_consistency":
        _expect(probs, "kissing", ans, {"census_total": KISSING,
                                        "theta_norm4_coefficient": series("leech_theta_prefix", 2)[2],
                                        "match": True})
    elif op == "norm6_dodecad_lower_bound":
        n6 = series("leech_theta_prefix", 3)[3]
        _expect(probs, "norm6", ans, {"dodecad_count": 2576, "sign_patterns_per_dodecad": 2 ** 11,
                                      "dodecad_vectors": 2576 * 2 ** 11,
                                      "theta_norm6_coefficient": n6,
                                      "lower_bound_holds": 2576 * 2 ** 11 <= n6})
    else:
        want = series(op, req["n"])
        _expect(probs, f"{op}({req['n']}) digest", ans["digest"], digest(want))
        _expect(probs, f"{op} first terms", ans["head"], [str(c) for c in want[:4]])
    return probs


# --------------------------------------------------------------------- cli

SPORADIC_ORDERS = sorted([
    7920, 95040, 175560, 443520, 604800, 10200960, 44352000, 50232960,
    244823040, 898128000, 4030387200, 145926144000, 448345497600,
    460815505920, 495766656000, 42305421312000, 64561751654400,
    273030912000000, 51765179004000000, 90745943887872000,
    4089470473293004800, 4157776806543360000, 86775571046077562880,
    1255205709190661721292800, 4154781481226426191177580544000000,
    808017424794512875886459904961710757005754368000000000,
])
J_HEAD = [1, 744, 196884, 21493760]


def lie_order(family, n, q):
    """Orders of the finite groups of Lie type the cli workload asks for."""
    if family in ("GL", "SL", "PSL"):
        o = 1
        for i in range(n):
            o *= q ** n - q ** i
        if family == "GL":
            return o
        return o // (q - 1) if family == "SL" else o // (q - 1) // gcd(n, q - 1)
    if family == "PSp":       # PSp_{2n}(q)
        o = q ** (n * n)
        for i in range(1, n + 1):
            o *= q ** (2 * i) - 1
        return o // gcd(2, q - 1)
    if family == "PSU":       # PSU_n(r) with q = r^2
        r = isqrt(q)
        o = r ** (n * (n - 1) // 2)
        for i in range(2, n + 1):
            o *= r ** i - (-1) ** i
        return o // gcd(n, r + 1)
    if family == "G2":
        return q ** 6 * (q ** 6 - 1) * (q ** 2 - 1)
    if family == "2B2":
        return q ** 2 * (q ** 2 + 1) * (q - 1)
    raise ValueError(family)


def _arg(argv, flag, default=None):
    return argv[argv.index(flag) + 1] if flag in argv else default


def _census_label_order(label):
    import re
    m = re.fullmatch(r"Alt_(\d+)", label)
    if m:
        return factorial(int(m[1])) // 2
    m = re.fullmatch(r"(PSL|PSp|PSU)_(\d+)\((\d+)\)", label)
    if m:
        fam, n, q = m[1], int(m[2]), int(m[3])
        return lie_order(fam, n, q)
    m = re.fullmatch(r"Z_(\d+)", label)
    if m:
        return int(m[1])
    return None


def _cli_named(name, n):
    kinds = {"sym": "symmetric", "alt": "alternating", "dihedral": "dihedral",
             "cyclic": "cyclic", "dicyclic": "dicyclic"}
    if name in ("psl2", "pgl2"):
        p, f = next(iter(factorint(n).items()))
        return {"kind": "projective", "variant": name[:3].upper(), "dim": 2, "pf": (p, f)}
    return {"kind": kinds[name], "n": n}


def _parse_cycles(text, degree):
    images = list(range(degree))
    if text.strip() == "()":
        return tuple(images)
    for body in text.strip().strip("()").split(")("):
        pts = [int(t) for t in body.replace(",", " ").split()]
        for a, b in zip(pts, pts[1:] + pts[:1]):
            images[a] = b
    return tuple(images)


def _parse_perm(text, degree):
    text = text.strip()
    if text.startswith("["):
        imgs = [int(t) for t in text.strip("[]").split()]
        return tuple(imgs + list(range(len(imgs), degree)))
    return _parse_cycles(text, degree)


def _check_cli_group(argv, out, probs):
    degree = out["degree"]
    gens = [_parse_cycles(g, degree) for g in out["generators"]]
    elements = closure(gens, degree)
    spec = None
    if "--gens" in argv:
        given = [_parse_perm(t, degree) for t in _arg(argv, "--gens").split(";")]
        _expect(probs, "reported generators span the given group",
                closure(given, degree) == elements, True)
    else:
        spec = _cli_named(_arg(argv, "--name"), int(_arg(argv, "--n")))
        _expect(probs, "named order", len(elements), named_order(spec["kind"], **_named(spec)))
    _expect(probs, "order", int(out["order"]), len(elements))
    if "--contains" in argv:
        _expect(probs, "contains", out["contains"],
                _parse_perm(_arg(argv, "--contains"), degree) in elements)
    if "--histogram" in argv:
        _expect(probs, "histogram", out["element_order_histogram"],
                {str(k): v for k, v in sorted(Counter(perm_order(g) for g in elements).items())})
    if "--report" in argv:
        cd = out["classes"]
        _expect(probs, "classes", sorted(map(list, zip(cd["class_sizes"], cd["class_rep_orders"]))),
                class_census(elements, gens))
        _expect(probs, "center", out["center_order"],
                sum(1 for z in elements if all(compose(z, s) == compose(s, z) for s in gens)))
        derived = int(SymGroup([SymPerm(list(g)) for g in gens]).derived_subgroup().order()) \
            if gens else 1
        _expect(probs, "derived", out["derived_order"], derived)
        _expect(probs, "abelianization", out["abelianization_order"], len(elements) // derived)
        _expect(probs, "orbits", out["orbits"], orbits(gens, degree))
        _expect(probs, "transitivity", [out["transitivity"]["k"], out["transitivity"]["sharp"]],
                transitivity(elements, gens, degree))
        if spec is not None:
            _expect(probs, "simple", out["simple"], named_simple(spec["kind"], **_named(spec)))


def _check_cli_zoo(argv, out, probs):
    if "--partitions" in argv:
        n = int(_arg(argv, "--partitions"))
        _expect(probs, "partitions", out["partition_count"], str(sym_partition(n)))
        ab = 1
        for e in factorint(n).values():
            ab *= int(sym_partition(e))
        _expect(probs, "abelian groups", out["abelian_groups_of_order_n"], str(ab))
    elif "--catalog" in argv:
        entries = out["entries"]
        _expect(probs, "orders", Counter(e["order"] for e in entries),
                Counter({1: 1, 2: 1, 3: 1, 4: 2, 5: 1, 6: 2, 7: 1, 8: 5, 9: 2, 10: 2,
                         11: 1, 12: 5, 13: 1, 14: 2, 15: 1}))
        _expect(probs, "abelian entries", sum(e["is_abelian"] for e in entries), 20)
        for e in entries:
            if (sum(e["class_sizes"]) != e["order"] or len(e["class_sizes"]) != len(e["irrep_degrees"])
                    or sum(d * d for d in e["irrep_degrees"]) != e["order"]):
                probs.append(f"catalog entry {e['name']} breaks a counting law")
    elif "--aut" in argv:
        name, n = _arg(argv, "--aut"), int(_arg(argv, "--n"))
        phi = int(totient(n))
        aut, inn = {"cyclic": (phi, 1),
                    "dihedral": (n * phi, 2 * n // (1 if n % 2 else 2))}[name]
        _expect(probs, "inn", out["inn_order"], inn)
        _expect(probs, "aut", out["aut_order"], aut)
        _expect(probs, "out", out["out_order"] * out["inn_order"], out["aut_order"])
    else:
        n = int(_arg(argv, "--n"))
        _expect(probs, "holomorph", out["holomorph_order"], str(n * int(totient(n))))


def _check_cli_chartab(argv, out, probs):
    spec = _cli_named(_arg(argv, "--name"), int(_arg(argv, "--n")))
    order = named_order(spec["kind"], n=spec["n"])
    n = spec["n"]
    count = {"symmetric": int(sym_partition(n)),
             "alternating": {4: 4, 5: 5}.get(n), "dihedral": (n + 3) // 2 if n % 2 else n // 2 + 3,
             "cyclic": n, "dicyclic": n + 3}[spec["kind"]]
    _expect(probs, "group order", int(out["group_order"]), order)
    _expect(probs, "class count", len(out["class_sizes"]), count)
    table = {"degrees": out["degrees"], "class_sizes": out["class_sizes"],
             "exponent": out["exponent"], "values": out["values"]}
    probs += check_character_table(table, order, [[s, 0] for s in out["class_sizes"]])
    _expect(probs, "column orthogonality", out["column_orthogonality"], True)


def _check_cli_census(argv, out, probs):
    bound = int(_arg(argv, "--bound"))
    entries = out["entries"]
    _expect(probs, "count", out["count"], len(entries))
    orders = [int(e["order"]) for e in entries]
    if orders != sorted(orders) or any(o > bound for o in orders):
        probs.append("entries are unsorted or beyond the bound")
    labels = {n: int(e["order"]) for e in entries for n in e["names"]}
    for label, order in labels.items():
        want = _census_label_order(label)
        if want is not None and want != order:
            probs.append(f"{label}: order {order}, expected {want}")
    for q in range(4, bound):
        pf = factorint(q)
        if len(pf) == 1:
            o = q * (q * q - 1) // gcd(2, q - 1)
            if o <= bound and labels.get(f"PSL_2({q})") != o:
                probs.append(f"PSL_2({q}) missing")
    n = 5
    while factorial(n) // 2 <= bound:
        if f"Alt_{n}" not in labels:
            probs.append(f"Alt_{n} missing")
        n += 1
    _expect(probs, "sporadic orders", sorted(int(e["order"]) for e in entries if e["is_sporadic"]),
            [o for o in SPORADIC_ORDERS if o <= bound])
    if "--with-primes" in argv:
        _expect(probs, "abelian primes", [e["names"] for e in entries[:4]],
                [["Z_2"], ["Z_3"], ["Z_5"], ["Z_7"]])


def _check_cli_golay(argv, out, probs):
    _expect(probs, "golay", [out["length"], out["dimension"], out["self_dual"],
                             out["weight_distribution"]],
            [24, 12, True, {"0": 1, "12": 2576, "16": 759, "24": 1, "8": 759}])
    if "--generators" in argv:
        span = {0}
        for h in out["generators_hex"]:
            g = int(h, 16)
            span |= {w ^ g for w in span}
        _expect(probs, "generator span", frozenset(span), golay_words())
    if "--steiner" in argv:
        _expect(probs, "steiner", out["steiner"], {
            "octad_count": 759, "counting_identity": True, "octads_through_point": 253,
            "octads_through_pair": 77, "every_5_subset_once": None if "--fast" in argv else True})
    if "--mathieu" in argv:
        _expect(probs, "mathieu", out["mathieu"], {
            "order": str(M24_ORDER), "point_stabilizer_order": "10200960",
            "two_point_stabilizer_order": "443520", "transitivity": {"k": 5, "sharp": False}})


def _check_cli_moonshine(argv, out, probs):
    for flag, op, key in (("--j", "j_expansion", "j_coefficients_from_q^-1"),
                          ("--delta", "delta_expansion", "delta_coefficients_from_q^1"),
                          ("--cube-root", "j_cube_root", "j_cube_root_coefficients_from_q^0")):
        if flag in argv:
            n = int(_arg(argv, flag))
            want = [str(c) for c in series(op, n)]
            _expect(probs, op, out[key], want)
            if op == "j_expansion":
                _expect(probs, "j head", [int(c) for c in out[key][:4]], J_HEAD[:len(out[key])])
            return
    if "--identities" in argv:
        _expect(probs, "identities", [out["all_pass"], len(out["identities"]),
                                      all(i["pass"] for i in out["identities"])], [True, 14, True])
    elif "--monster" in argv:
        _expect(probs, "monster", out, {"monster_order": str(SPORADIC_ORDERS[-1]), "digits": 54})
    else:
        _expect(probs, "sum of squares", {k: out[k] for k in (
            "direct_sum_1_to_24", "closed_form", "equals_70_squared", "square_total_ns",
            "unique_nontrivial")}, {"direct_sum_1_to_24": 4900, "closed_form": 4900,
                                    "equals_70_squared": True, "square_total_ns": [1, 24],
                                    "unique_nontrivial": True})


def _check_cli_algebra(argv, out, probs):
    samples = int(_arg(argv, "--samples"))
    if _arg(argv, "--probe") == "H":
        _expect(probs, "H", out, {"algebra": "H", "samples": samples,
                                  "associative_failures": 0, "fully_associative": True})
        return
    w = out["nonassociative_witness"]
    _expect(probs, "O", [out["alternativity_failures"], out["alternative"],
                         w["anti_associated"], w["associator_nonzero"]], [0, True, True, True])
    from fractions import Fraction
    _expect(probs, "anti-associated witness", [-Fraction(c) for c in w["rhs"]],
            [Fraction(c) for c in w["lhs"]])


def check_cli(req, ans):
    """Problems with one cli request: its exit code against the documented
    contract (0 ok, 2 bad input, 3 refused bound), and its answer."""
    argv, want_exit = req["argv"], req["expect"]
    probs = []
    if ans["traceback"]:
        probs.append("traceback on stderr")
    if ans["exit"] not in want_exit:
        probs.append(f"exit {ans['exit']}, expected one of {want_exit}")
        return probs
    if ans["exit"] != 0:
        return probs
    if req.get("text"):
        if not any(tok in ans["stdout"] for tok in ("7920", "order: 168")):
            probs.append("text rendering lacks the answer")
        return probs
    try:
        out = json.loads(ans["stdout"])
    except ValueError:
        return probs + ["stdout is not one JSON document"]
    sub = argv[0]
    try:
        if sub == "field":
            p, f = int(_arg(argv, "--p")), int(_arg(argv, "--f", "1"))
            _expect(probs, "field", [out["p"], out["f"], out["q"]], [p, f, p ** f])
            _expect(probs, "modulus", tuple(out["modulus_low_to_high"]), field_modulus(p, f))
            _expect(probs, "generator", tuple(out["multiplicative_generator"]), field_generator(p, f))
            op = _arg(argv, "--op")
            a = [int(t) for t in _arg(argv, "--a").split()]
            b = _arg(argv, "--b")
            b = int(b) if op == "pow" else ([int(t) for t in b.split()] if b else None)
            _expect(probs, f"{op} result", out["op"]["result"], field_op(p, f, op, a, b))
        elif sub == "group":
            _check_cli_group(argv, out, probs)
        elif sub == "zoo":
            _check_cli_zoo(argv, out, probs)
        elif sub == "chartab":
            _check_cli_chartab(argv, out, probs)
        elif sub == "orders":
            fam, q = _arg(argv, "--family"), int(_arg(argv, "--q"))
            n = int(_arg(argv, "--n", "0"))
            _expect(probs, "order", out["order"], str(lie_order(fam, n, q)))
        elif sub == "census":
            _check_cli_census(argv, out, probs)
        elif sub == "golay":
            _check_cli_golay(argv, out, probs)
        elif sub == "leech":
            n = int(_arg(argv, "--theta-terms"))
            want = series("leech_theta_prefix", n)
            _expect(probs, "theta", out.get("theta_coefficients_by_norm"),
                    {str(2 * m): str(c) for m, c in enumerate(want)})
        elif sub == "moonshine":
            _check_cli_moonshine(argv, out, probs)
        elif sub == "algebra":
            _check_cli_algebra(argv, out, probs)
        elif sub == "sporadic":
            _expect(probs, "sporadic", [out["count"], [int(e["order"]) for e in out["entries"]]],
                    [26, SPORADIC_ORDERS])
    except (KeyError, TypeError, ValueError) as exc:
        probs.append(f"answer is malformed: {exc!r}")
    return probs
