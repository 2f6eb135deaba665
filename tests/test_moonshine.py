"""Integer q-series arithmetic and the moonshine identities."""

import random
import tracemalloc
from fractions import Fraction
from math import gcd, isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fsg import moonshine
from fsg.errors import InternalDefectError, ResourceLimitError, ValidationError
from fsg.moonshine import (
    SQUARE_SUM_MODULI,
    IntegerSeries,
    _square_sum_survivors,
    delta_expansion,
    eisenstein_e4,
    euler_function,
    j_cube_root,
    j_expansion,
    leech_theta_prefix,
    monster_constant_checks,
    monster_order,
    moonshine_decompositions,
    sum_of_squares_check,
)


def test_series_basics():
    s = IntegerSeries(-1, (1, 744, 196884))
    assert s.coeff(-1) == 1 and s.coeff(0) == 744 and s.coeff(1) == 196884
    assert s.coeff(-5) == 0
    with pytest.raises(ValidationError):
        s.coeff(2)


def test_series_ring_laws_on_fixed_triples():
    a = IntegerSeries(0, (1, 2, 3, 4, 5))
    b = IntegerSeries(1, (1, -1, 2, -2))
    c = IntegerSeries(0, (2, 0, 1, 7, -3))
    lhs = (a * b) * c
    rhs = a * (b * c)
    assert lhs.eq_through(rhs, min(lhs.known_through, rhs.known_through))
    s1 = (a + c) * b
    s2 = a * b + c * b
    assert s1.eq_through(s2, min(s1.known_through, s2.known_through))


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(-9, 9), min_size=3, max_size=8),
       st.lists(st.integers(-9, 9), min_size=3, max_size=8),
       st.lists(st.integers(-9, 9), min_size=3, max_size=8))
def test_series_associativity_random(xs, ys, zs):
    a, b, c = (IntegerSeries(0, tuple(v)) for v in (xs, ys, zs))
    lhs = (a * b) * c
    rhs = a * (b * c)
    assert lhs.eq_through(rhs, min(lhs.known_through, rhs.known_through))


def _schoolbook(a, b):
    """The reference product: each coefficient summed term by term."""
    n = min(len(a.coeffs), len(b.coeffs))
    return IntegerSeries(a.leading + b.leading, tuple(
        sum(a.coeffs[i] * b.coeffs[k - i] for i in range(k + 1)) for k in range(n)))


def test_product_at_the_slot_width_bound():
    # all-equal series of +-m, m = 2^k - 1: coefficient i of the product is
    # +-m^2 (i + 1), the largest an (i + 1)-term sum of such factors reaches
    for k in range(1, 97):
        m = 2 ** k - 1
        for length in (1, 2, 3, 5, 17, 64, 255, 256, 257):
            for sa, sb in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
                prod = (IntegerSeries(0, (sa * m,) * length)
                        * IntegerSeries(0, (sb * m,) * length))
                want = tuple(sa * sb * m * m * (i + 1) for i in range(length))
                assert prod.coeffs == want, (k, length, sa, sb)


def _random_coeffs(rng, kind, length):
    def wide():
        return rng.choice((-1, 1)) * rng.getrandbits(300)
    draw = {"unit": lambda: rng.choice((-1, 0, 1)),
            "small": lambda: rng.randint(-9, 9),
            "wide": wide,
            "mixed": lambda: rng.choice((0, 0, 1, -1, rng.randint(-99, 99), wide()))}[kind]
    return tuple(draw() for _ in range(length))


@pytest.mark.parametrize("kinds", [
    ("unit", "unit"), ("unit", "small"), ("small", "unit"), ("wide", "unit"),
    ("unit", "mixed"), ("small", "small"), ("small", "wide"), ("wide", "mixed"),
    ("mixed", "mixed"), ("mixed", "wide")], ids="-".join)
def test_product_against_the_schoolbook_sum(kinds):
    # both paths and the unit operand on either side; `tail` adds three wide
    # coefficients, which the product cuts off when the other side is shorter
    rng = random.Random("-".join(kinds))
    for _ in range(60):
        la, lb = rng.randint(1, 40), rng.randint(1, 40)
        a = IntegerSeries(rng.randint(-2, 2), _random_coeffs(rng, kinds[0], la))
        b = IntegerSeries(rng.randint(-2, 2), _random_coeffs(rng, kinds[1], lb))
        tail = IntegerSeries(a.leading, a.coeffs + _random_coeffs(rng, "wide", 3))
        for x, y in ((a, b), (b, a), (tail, b), (b, tail)):
            got, want = x * y, _schoolbook(x, y)
            assert (got.leading, got.coeffs) == (want.leading, want.coeffs)


def test_inverse_and_exact_div():
    u = IntegerSeries(0, (1, -24, 252, -1472, 4830))
    inv = u ** -1
    prod = u * inv
    assert prod.coeff(0) == 1
    assert all(prod.coeff(k) == 0 for k in range(1, prod.known_through + 1))
    q = (u * u) * inv
    assert q.eq_through(u, q.known_through)


def test_power_guards():
    for bad in (IntegerSeries(0, (2, 1)), IntegerSeries(0, (-1, 1)),
                IntegerSeries(1, (1, 1)), IntegerSeries(0, ())):
        with pytest.raises(ValidationError, match="leading term 1"):
            bad ** 2
    with pytest.raises(InternalDefectError, match="not an integer series"):
        IntegerSeries(0, (1, 1, 0)) ** Fraction(1, 2)
    assert (IntegerSeries(0, (1, 2, 1)) ** Fraction(1, 2)).coeffs == (1, 1, 0)
    # one term: the certificate has no derivative to compare
    for alpha in (24, -1, Fraction(1, 3)):
        assert (IntegerSeries(0, (1,)) ** alpha).coeffs == (1,)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(-9, 9), min_size=0, max_size=7), st.integers(-3, 4))
def test_power_against_repeated_products(tail, k):
    # integer powers against repeated multiplication, and the square root of
    # a square against the series squared
    g = IntegerSeries(0, (1, *tail))
    one = IntegerSeries(0, (1,) + (0,) * len(tail))
    product = one
    for _ in range(abs(k)):
        product = product * g
    if k >= 0:
        assert (g ** k).coeffs == product.coeffs
    else:
        assert (product * g ** k).coeffs == one.coeffs
    assert ((g * g) ** Fraction(1, 2)).coeffs == g.coeffs


def test_euler_function_against_the_product():
    n = 60
    prod = IntegerSeries(0, (1,) + (0,) * n)
    for k in range(1, n + 1):
        prod = prod * IntegerSeries(0, (1,) + (0,) * (k - 1) + (-1,) + (0,) * (n - k))
    assert euler_function(n).coeffs == prod.coeffs


def test_delta_against_hand_expansion():
    # oracle: expand (1-q)^24 (1-q^2)^24 (1-q^3)^24 to order 3 directly
    def poly_mul(a, b, n):
        out = [0] * (n + 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                if i + j <= n:
                    out[i + j] += x * y
        return out

    def binom_pow(k, n):
        # (1 - q^k)^24 truncated at q^n
        from math import comb
        out = [0] * (n + 1)
        for t in range(0, n // k + 1):
            out[k * t] = (-1) ** t * comb(24, t)
        return out

    n = 3
    prod = [1] + [0] * n
    for k in (1, 2, 3):
        prod = poly_mul(prod, binom_pow(k, n), n)
    delta = delta_expansion(4)
    # delta = q * prod(...): compare shifted coefficients
    assert [delta.coeff(m) for m in (1, 2, 3, 4)] == [prod[0], prod[1], prod[2], prod[3]]
    assert delta.coeff(2) == -24
    assert delta.coeff(3) == 252


def test_delta_against_pentagonal_eta_oracle():
    # Euler: prod(1-q^n) = sum (-1)^k q^(k(3k+-1)/2); delta = q * (that)^24,
    # multiplied out 24 times
    n = 150
    eta = [0] * (n + 1)
    eta[0] = 1
    k = 1
    while k * (3 * k - 1) // 2 <= n:
        for g in (k * (3 * k - 1) // 2, k * (3 * k + 1) // 2):
            if g <= n:
                eta[g] = (-1) ** k
        k += 1
    cur = [1] + [0] * n
    for _ in range(24):
        nxt = [0] * (n + 1)
        for i, x in enumerate(cur):
            if x:
                for j, y in enumerate(eta):
                    if y and i + j <= n:
                        nxt[i + j] += x * y
        cur = nxt
    delta = delta_expansion(n + 1)
    assert [delta.coeff(m + 1) for m in range(n + 1)] == cur


def test_ramanujan_tau_hecke_relations():
    # tau(n), the coefficients of Delta, is multiplicative, obeys
    # tau(p^(k+1)) = tau(p) tau(p^k) - p^11 tau(p^(k-1)), and is congruent
    # to sigma_11(n) mod 691
    n = 2000
    delta = delta_expansion(n)
    tau = [0] + [delta.coeff(m) for m in range(1, n + 1)]
    assert tau[1:6] == [1, -24, 252, -1472, 4830]
    for a in range(2, n + 1):
        for b in range(a + 1, n // a + 1):
            if gcd(a, b) == 1:
                assert tau[a * b] == tau[a] * tau[b], (a, b)
    for p in (m for m in range(2, n + 1) if all(m % d for d in range(2, isqrt(m) + 1))):
        pk = p
        while pk * p <= n:
            assert tau[pk * p] == tau[p] * tau[pk] - p ** 11 * tau[pk // p], (p, pk)
            pk *= p
    for m in range(1, n + 1):
        sigma11 = sum(d ** 11 for d in range(1, m + 1) if m % d == 0)
        assert (tau[m] - sigma11) % 691 == 0, m


def test_eisenstein_values():
    e4 = eisenstein_e4(4)
    assert e4.coeff(0) == 1
    assert e4.coeff(1) == 240
    assert e4.coeff(2) == 240 * 9      # sigma_3(2) = 9
    assert e4.coeff(3) == 240 * 28     # sigma_3(3) = 28


def test_j_expansion_known_values():
    j = j_expansion(3)
    assert j.leading == -1
    assert j.coeff(-1) == 1
    assert j.coeff(0) == 744
    assert j.coeff(1) == 196884
    assert j.coeff(2) == 21493760
    assert j.coeff(3) == 864299970


def test_division_certificate_j_times_delta():
    n = 10
    j = j_expansion(n)
    delta = delta_expansion(n + 2)
    e4 = eisenstein_e4(n + 1)
    e4_cubed = e4 * e4 * e4
    back = j * delta
    assert back.eq_through(e4_cubed, back.known_through)


def test_cube_root_values_and_certificate():
    s = j_cube_root(5)
    assert s.coeff(0) == 1
    assert s.coeff(1) == 248
    assert s.coeff(2) == 4124
    assert s.coeff(3) == 34752
    cube = s * s * s
    qj = j_expansion(5).shift(1)
    assert cube.eq_through(qj, cube.known_through)


def test_theta_prefix():
    th = leech_theta_prefix(3)
    assert [th.coeff(m) for m in range(4)] == [1, 0, 196560, 16773120]


def test_moonshine_decompositions():
    checks = moonshine_decompositions()
    assert len(checks) == 6
    assert all(c["pass"] for c in checks)
    assert checks[0]["lhs"] == 196884


def test_monster_constants():
    order = monster_order()
    assert len(str(order)) == 54
    assert order % 71 == 0
    for p in (37, 43, 53, 61, 67):
        assert order % p != 0
    assert 196883 == 47 * 59 * 71
    assert all(c["pass"] for c in monster_constant_checks())
    # magnitude close to 8 * 10^53
    assert 8 * 10 ** 53 < order < 8.1 * 10 ** 53


def test_the_196883_row_reads_the_irrep_dimension(monkeypatch):
    # the row compares the dimension moonshine_decompositions reads, so a
    # wrong MONSTER_IRREP_DIMS fails it
    dims = moonshine.MONSTER_IRREP_DIMS
    monkeypatch.setattr(moonshine, "MONSTER_IRREP_DIMS", (1, 196884) + dims[2:])
    row = next(c for c in monster_constant_checks() if c["identity"].startswith("196883"))
    assert row["lhs"] == 196884 and not row["pass"]


def test_sum_of_squares():
    rep = sum_of_squares_check()
    assert rep["direct_sum_1_to_24"] == 4900 == 70 ** 2
    assert rep["closed_form"] == 4900
    assert rep["equals_70_squared"]
    assert rep["square_total_ns"] == [1, 24]


def _s(n):
    return n * (n + 1) * (2 * n + 1) // 6


def test_square_sum_has_period_6m_modulo_each_sieve_modulus():
    for m in SQUARE_SUM_MODULI:
        assert all(_s(r + 6 * m) % m == _s(r) % m for r in range(6 * m))


def test_square_sum_sieve_against_the_plain_loop():
    """Up to 2*10^5 the survivors are exactly the N whose running square
    sum is a square modulo every sieve modulus; every square sum is among
    them; and isqrt on the survivors gives the loop's verdicts."""
    bound = 2 * 10 ** 5
    squares = [(m, {x * x % m for x in range(m)}) for m in SQUARE_SUM_MODULI]
    rule, loop_ns, total = [], [], 0
    for n in range(bound + 1):
        total += n * n
        if all(total % m in sq for m, sq in squares):
            rule.append(n)
        if isqrt(total) ** 2 == total:
            loop_ns.append(n)
    survivors = list(_square_sum_survivors(bound))
    assert survivors == rule
    assert loop_ns == [0, 1, 24] and set(loop_ns) <= set(survivors)
    assert [n for n in survivors if isqrt(_s(n)) ** 2 == _s(n)] == loop_ns
    assert len(survivors) < bound // 100


def test_sum_of_squares_peaks_under_two_mib():
    """One flag byte per N <= 10^6 and no per-N list."""
    tracemalloc.start()
    try:
        sum_of_squares_check()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2 * 2 ** 20


def test_bounds():
    with pytest.raises(ResourceLimitError):
        delta_expansion(10 ** 5)
    with pytest.raises(ResourceLimitError):
        j_expansion(10 ** 4)
