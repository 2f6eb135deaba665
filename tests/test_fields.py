"""Finite-field arithmetic against independent small oracles."""

import copy
import pickle
import random
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fsg import fields
from fsg.errors import DomainMismatchError, ResourceLimitError, ValidationError
from fsg.fields import (
    element_multiplicative_order,
    frobenius_orbit,
    frobenius_order,
    make_field,
    multiplicative_generator,
    prime_factors,
    prime_power,
)

SMALL_Q = [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2),
           (11, 1), (13, 1), (2, 4), (5, 2), (3, 3)]


def test_f2_addition_table():
    F = make_field(2)
    zero, one = F.zero(), F.one()
    assert F.add(zero, zero) == zero
    assert F.add(zero, one) == one
    assert F.add(one, one) == zero


def test_f4_additive_group_is_vierergruppe():
    F = make_field(2, 2)
    els = list(F.elements())
    assert len(els) == 4
    # every element is its own additive inverse and sums are closed
    for a in els:
        assert F.add(a, a) == F.zero()


def test_f9_multiplicative_group_cyclic_of_order_8():
    F = make_field(3, 2)
    g = multiplicative_generator(F)
    powers = set()
    x = F.one()
    for _ in range(8):
        x = F.mul(x, g)
        powers.add(x.coeffs)
    assert len(powers) == 8


def test_f5_inverse_of_two_by_exhaustion():
    F = make_field(5)
    two = F.element(2)
    # oracle: the unique y with 2*y = 1 mod 5
    matches = [y for y in F.elements() if F.mul(two, y) == F.one()]
    assert matches == [F.element(3)]
    assert F.inv(two) == F.element(3)


def test_f4_product_against_polynomial_reduction_oracle():
    F = make_field(2, 2)
    assert F.modulus == (1, 1, 1)  # t^2 + t + 1

    def oracle_mul(a, b):
        # schoolbook product of (a0 + a1 t)(b0 + b1 t) reduced by t^2 = t + 1
        a0, a1 = a.coeffs
        b0, b1 = b.coeffs
        c0 = a0 * b0
        c1 = a0 * b1 + a1 * b0
        c2 = a1 * b1
        return ((c0 + c2) % 2, (c1 + c2) % 2)

    for a in F.elements():
        for b in F.elements():
            assert F.mul(a, b).coeffs == oracle_mul(a, b)
    t = F.element([0, 1])
    assert F.mul(t, t) == F.element([1, 1])


def test_identity_of_multiplication():
    F = make_field(7)
    for a in F.elements():
        assert F.mul(a, F.one()) == a


@pytest.mark.parametrize("p,f", SMALL_Q)
def test_field_axioms_exhaustive_pairs(p, f):
    F = make_field(p, f)
    els = list(F.elements())
    assert len(els) == F.q
    g = multiplicative_generator(F)
    probes = [F.one(), g, F.mul(g, g)]
    for a in els:
        for b in els:
            assert F.add(a, b) == F.add(b, a)
            assert F.mul(a, b) == F.mul(b, a)
            for c in probes:
                assert F.mul(F.mul(a, b), c) == F.mul(a, F.mul(b, c))
                assert F.mul(c, F.add(a, b)) == F.add(F.mul(c, a), F.mul(c, b))


@pytest.mark.parametrize("p,f", SMALL_Q)
def test_multiplicative_group_cyclic(p, f):
    F = make_field(p, f)
    g = multiplicative_generator(F)
    assert element_multiplicative_order(F, g) == F.q - 1


@pytest.mark.parametrize("p,f", SMALL_Q)
def test_frobenius_morphism_and_order(p, f):
    F = make_field(p, f)
    assert frobenius_order(F) == f


def test_frobenius_orbits():
    F4 = make_field(2, 2)
    t = F4.element([0, 1])
    orb = frobenius_orbit(F4, t)
    assert len(orb) == 2 and set(o.coeffs for o in orb) == {(0, 1), (1, 1)}
    F7 = make_field(7)
    for a in F7.elements():
        assert len(frobenius_orbit(F7, a)) == 1
    F9 = make_field(3, 2)
    assert frobenius_order(F9) == 2


def test_characteristic():
    for p, f in [(2, 3), (3, 2), (5, 1), (7, 1)]:
        F = make_field(p, f)
        acc = F.zero()
        for k in range(1, p):
            acc = F.add(acc, F.one())
            assert not acc.is_zero()
        assert F.add(acc, F.one()).is_zero()


def test_known_generators():
    assert multiplicative_generator(make_field(2)) == make_field(2).one()
    F5 = make_field(5)
    g = multiplicative_generator(F5)
    assert g == F5.element(2)
    powers = [F5.pow(g, k).coeffs[0] for k in (1, 2, 3, 4)]
    assert powers == [2, 4, 3, 1]
    # 2 has order 3 in F_7, so the generator search must skip it
    F7 = make_field(7)
    assert element_multiplicative_order(F7, F7.element(2)) == 3
    assert multiplicative_generator(F7) == F7.element(3)


def test_make_field_rejections():
    with pytest.raises(ValidationError, match="divisible by 3"):
        make_field(9)
    with pytest.raises(ValidationError):
        make_field(5, 0)
    with pytest.raises(ResourceLimitError):
        make_field(2, 25)


def test_division_by_zero_and_domain_mismatch():
    F5, F7 = make_field(5), make_field(7)
    with pytest.raises(ZeroDivisionError):
        F5.inv(F5.zero())
    with pytest.raises(DomainMismatchError):
        F5.add(F5.one(), F7.one())


def test_element_order_matches_the_step_walk():
    for q in range(2, 257):
        if prime_power(q) is None:
            continue
        F = make_field(*prime_power(q))
        codes = F.codes
        for a in list(F.elements())[1:]:
            x, k = a.code, 1
            while x != codes.one:
                x, k = codes.mul(x, a.code), k + 1
            assert element_multiplicative_order(F, a) == k, (q, a)


def test_prime_factors():
    assert prime_factors(1) == []
    assert prime_factors(8) == [2]
    assert prime_factors(360) == [2, 3, 5]


def test_trial_division_bound():
    assert fields.is_prime(999999999989)            # the largest prime below 10^12
    assert prime_power(2 ** 61) == (2, 61)
    assert prime_power(3 * (10 ** 18 + 3)) is None  # a factor below the bound
    for n in (10 ** 12 + 39, 10 ** 18 + 3):         # primes above 10^12
        with pytest.raises(ResourceLimitError, match="fixed trial-division bound"):
            prime_power(n)


def test_factorize_shares_the_trial_division_bound():
    from fsg.fields import factorize
    from fsg.zoo import count_abelian_groups
    assert factorize(2 ** 40 * 999983) == {2: 40, 999983: 1}
    assert factorize(999979 * 999983) == {999979: 1, 999983: 1}
    for n in (10 ** 12 + 39, 100000000000031):      # primes above 10^12
        with pytest.raises(ResourceLimitError, match="fixed trial-division bound"):
            factorize(n)
    with pytest.raises(ResourceLimitError, match="fixed trial-division bound"):
        count_abelian_groups(100000000000031)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 8), st.integers(0, 8), st.integers(0, 8))
def test_f9_ring_laws_random(i, j, k):
    F = make_field(3, 2)
    els = list(F.elements())
    a, b, c = els[i], els[j], els[k]
    assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))
    assert F.mul(F.mul(a, b), c) == F.mul(a, F.mul(b, c))


# every extension field with q <= 128, then the two largest below 256
EXTENSION_Q = [q for q in range(4, 129)
               if (pf := prime_power(q)) and pf[1] > 1] + [243, 256]


def _table_and_polynomial(q, monkeypatch):
    """Two specs of GF(q): one switched to tables, one that never switches."""
    table = make_field(*prime_power(q))
    list(table.elements())
    assert table.codes.tables is not None
    monkeypatch.setattr(fields, "TABLE_MAX_SIZE", 0)
    return table, make_field(*prime_power(q))


@pytest.mark.parametrize("q", EXTENSION_Q)
def test_tables_match_polynomial_path(q, monkeypatch):
    T, P = _table_and_polynomial(q, monkeypatch)
    t_els, p_els = list(T.elements()), list(P.elements())
    for a, x in zip(t_els, p_els):
        assert T.neg(a) == P.neg(x)
        assert T.frobenius(a) == P.frobenius(x)
        for k in (0, 2, 3 * q + 5):
            assert T.pow(a, k) == P.pow(x, k)
        if not a.is_zero():
            assert T.inv(a) == P.inv(x)
            assert T.pow(a, -3) == P.pow(x, -3)
    if q <= 128:
        pairs = [(i, j) for i in range(q) for j in range(q)]
    else:
        rng = random.Random(q)
        pairs = [(rng.randrange(q), rng.randrange(q)) for _ in range(2000)]
    for i, j in pairs:
        a, b, x, y = t_els[i], t_els[j], p_els[i], p_els[j]
        assert T.add(a, b) == P.add(x, y)
        assert T.sub(a, b) == P.sub(x, y)
        assert T.mul(a, b) == P.mul(x, y)
    assert P.codes.tables is None


@pytest.mark.parametrize("q", [16, 81, 121])
def test_same_answers_across_the_table_switch(q):
    # the polynomial path before elements() builds the tables, lookups after
    F = make_field(*prime_power(q))
    rng = random.Random(q)
    pairs = [(rng.randrange(q), rng.randrange(q)) for _ in range(q)]

    def answers():
        els = [F.element(F.codes.coeffs(c)) for c in range(q)]
        return [(F.add(els[i], els[j]).code, F.mul(els[i], els[j]).code) for i, j in pairs]

    before = answers()
    assert F.codes.tables is None
    list(F.elements())
    assert F.codes.tables is not None
    assert answers() == before


def test_products_never_switch_a_field_that_is_not_enumerated():
    F = make_field(3, 4)
    a, b = F.element([1, 2, 0, 1]), F.element([2, 0, 1, 1])
    for _ in range(10 * F.q):
        a = F.add(F.mul(a, b), F.one())
    F.pow(a, 10 * F.q), multiplicative_generator(F)
    assert F.codes.tables is None and F._els is None


def test_table_build_reuses_the_generator(monkeypatch):
    # the generator search runs once per field: the table build takes the
    # generator that multiplicative_generator found instead of searching again
    F = make_field(11, 2)
    searches = []
    monkeypatch.setattr(fields, "prime_factors",
                        lambda n: searches.append(n) or prime_factors(n))
    g = multiplicative_generator(F)
    list(F.elements())
    assert searches == [120]
    assert F.codes.tables[0][1] == g.code
    assert multiplicative_generator(F) == g and searches == [120]


def test_elements_are_immutable_values():
    F = make_field(3, 2)
    a = F.element([1, 2])
    for name in ("spec", "code", "coeffs", "other"):
        with pytest.raises(AttributeError):
            setattr(a, name, 0)
    assert a.coeffs == (1, 2) and a.code == 5
    assert a == make_field(3, 2).element([1, 2])
    assert hash(a) == hash(make_field(3, 2).element([1, 2]))
    assert fields.FieldElement(F, (1, 2)) == a


def test_element_needs_integer_coefficients():
    with pytest.raises(TypeError):
        make_field(7).element([1.5])
    with pytest.raises(TypeError):
        make_field(3, 2).element([1.5, 0])


def _sweep(F):
    els = list(F.elements())
    return [(F.add(a, b).code, F.mul(a, b).code) for a in els for b in els]


def test_threads_share_a_field_across_the_table_switch():
    # each thread's sweep starts with elements(), so the threads also race
    # the first call, which interns the elements
    expected = {q: _sweep(make_field(*prime_power(q))) for q in (81, 103, 121)}
    shared = {q: make_field(*prime_power(q)) for q in (81, 103, 121)}
    barrier = threading.Barrier(4)
    results = [None] * 4

    def work(k):
        barrier.wait(timeout=10)
        results[k] = {q: _sweep(F) for q, F in shared.items()}

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert all(r == expected for r in results)
    assert all(F.codes.tables is not None for F in shared.values() if F.f > 1)
    for F in shared.values():
        els = F._els        # whichever thread published last
        assert len(els) == F.q
        assert all(a.spec is F and a.code == c for c, a in enumerate(els))
        r = F.mul(els[2], els[3])
        assert r is els[r.code]


@pytest.mark.parametrize("pf", [(7, 1), (3, 2)])
def test_every_operand_is_domain_checked(pf):
    F, twin, other = make_field(*pf), make_field(*pf), make_field(5)
    for enumerated in (False, True):
        if enumerated:
            list(F.elements()), list(twin.elements())
        a = F.one()
        # another field's element, an equal but distinct spec's, a plain tuple, an int
        for bad in (other.one(), twin.one(), (F, 1), 1):
            for op in (F.add, F.sub, F.mul):
                with pytest.raises(DomainMismatchError):
                    op(a, bad)
                with pytest.raises(DomainMismatchError):
                    op(bad, a)
        with pytest.raises(DomainMismatchError):
            3 * a
    assert F._els is not None and twin._els is not None


def _every_operation(F, xs):
    out = []
    for a in xs:
        out += [F.neg(a), F.frobenius(a), F.pow(a, 5)]
        if not a.is_zero():
            out.append(F.inv(a))
        for b in xs:
            out += [F.add(a, b), F.sub(a, b), F.mul(a, b)]
    return out


@pytest.mark.parametrize("q", [103, 81, 121])
def test_interned_elements_answer_as_fresh_ones(q):
    # fresh never enumerates, so it allocates every result; F and its equal
    # twin each intern their own elements and return nothing else
    fresh, F, twin = (make_field(*prime_power(q)) for _ in range(3))
    expected = [r.code for r in _every_operation(
        fresh, [fresh.element(fresh.codes.coeffs(c)) for c in range(q)])]
    assert fresh._els is None
    for G in (F, twin):
        els = list(G.elements())
        got = _every_operation(G, els)
        assert [r.code for r in got] == expected
        assert all(r is els[r.code] for r in got)
        assert G.zero() is els[0] and G.one() is els[G.codes.one]
        assert multiplicative_generator(G) is els[G.codes.generator()]


@pytest.mark.parametrize("q", [7, 16, 81, 243, 2 ** 16, 2 ** 16 + 1, 2 ** 17 - 1])
def test_elements_are_kept_only_up_to_the_table_bound(q):
    # enumerating is what builds an extension field's tables, up to the bound
    F = make_field(*prime_power(q))
    assert getattr(F.codes, "tables", None) is None
    assert sum(1 for _ in F.elements()) == q
    kept = F._els is not None
    assert kept == (q <= fields.TABLE_MAX_SIZE)
    assert (getattr(F.codes, "tables", None) is not None) == (kept and F.f > 1)
    one = F.one()
    assert (F.add(one, one) is F.add(one, one)) == kept


@pytest.mark.parametrize("q", [7, 81])
def test_pickle_and_deepcopy_after_a_sweep(q):
    F = make_field(*prime_power(q))
    swept = _sweep(F)
    assert F._els is not None and (F.f == 1 or F.codes.tables is not None)
    a = list(F.elements())[q - 2]
    for clone in (lambda x: pickle.loads(pickle.dumps(x)), copy.deepcopy):
        G = clone(F)
        assert G is not F and G == F and hash(G) == hash(F)
        assert G._els is None and getattr(G.codes, "tables", None) is None
        assert _sweep(G) == swept
        b = clone(a)
        assert b == a and hash(b) == hash(a) and b.spec is not F
        B = b.spec
        assert B.mul(b, B.inv(b)) == B.one() and B.mul(b, b).code == F.mul(a, a).code
        with pytest.raises(DomainMismatchError):
            F.add(a, b)
