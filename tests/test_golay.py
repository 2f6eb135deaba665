"""Golay code: weight enumeration, Steiner system, Mathieu chain."""

import random
import sys
import threading
from math import comb, prod
from types import SimpleNamespace

import pytest

import fsg.golay as golay_mod
from fsg.division import octonion_table
from fsg.errors import InternalDefectError, ResourceLimitError
from fsg.fields import make_field
from fsg.golay import (
    GOLAY_WEIGHT_DISTRIBUTION,
    INFINITY,
    LENGTH,
    build_golay,
    conway_delta,
    is_code_automorphism,
    mathieu_m24,
    octad_steiner_check,
    psl2_23_generators,
)
from fsg.perms import PermGroup, Permutation


def apply_permutation_to_word(perm, word):
    """The per-bit reference: move each set bit i of word to perm(i)."""
    out = 0
    for i in range(LENGTH):
        if word >> i & 1:
            out |= 1 << perm(i)
    return out


class RecordingWords:
    """A codeword set that records each image looked up in it."""

    def __init__(self, words, accept_all=False):
        self.words, self.members = list(words), set(words)
        self.accept_all, self.lookups = accept_all, []

    def __iter__(self):
        return iter(self.words)

    def __contains__(self, image):
        self.lookups.append(image)
        return self.accept_all or image in self.members


@pytest.fixture(scope="module")
def code():
    return build_golay()


@pytest.fixture(scope="module")
def chain(code):
    return mathieu_m24()


def test_dimensions_and_weights(code):
    assert code.length == 24 and code.dimension == 12
    assert len(code.generators) == 12
    words = code.codewords()
    assert len(words) == 4096 == len(set(words))
    assert code.weight_distribution() == GOLAY_WEIGHT_DISTRIBUTION


def test_zero_and_all_ones(code):
    assert 0 in code.codeword_set
    assert (1 << 24) - 1 in code.codeword_set
    assert code.codeword_set is code.codeword_set     # built once per code


def test_self_duality_and_weight_divisibility(code):
    assert code.is_self_dual()
    for w in code.codewords():
        assert w.bit_count() % 4 == 0
    # even pairwise intersections across all generator pairs
    for a in code.generators:
        for b in code.generators:
            assert (a & b).bit_count() % 2 == 0


def test_steiner_counting_and_exhaustive(code):
    rep = octad_steiner_check(code, exhaustive=True)
    assert rep["octad_count"] == 759
    assert rep["counting_identity"]
    assert 759 * comb(8, 5) == comb(24, 5)
    assert rep["every_5_subset_once"]
    assert rep["octads_through_point"] == 253
    assert rep["octads_through_pair"] == 77


def test_psl_generators_are_automorphisms(code):
    shift, inv = psl2_23_generators()
    assert shift.order() == 23
    assert is_code_automorphism(code, shift)
    assert is_code_automorphism(code, inv)
    assert PermGroup(24, [shift, inv]).order() == 6072  # PSL_2(23)


def test_psl_generators_match_mod_23_arithmetic():
    # the reference: x -> x + 1 and x -> -1/x on the residues, with
    # infinity = 23 fixed by the first and swapped with 0 by the second
    shift = [(x + 1) % 23 for x in range(23)] + [INFINITY]
    inverse = [INFINITY] + [-pow(x, -1, 23) % 23 for x in range(1, 23)] + [0]
    assert [list(g.images) for g in psl2_23_generators()] == [shift, inverse]


def test_m24_builds_under_a_small_field_bound(monkeypatch):
    # F_23 is built directly, as a lifting prime is: the field-size setting
    # bounds make_field only
    monkeypatch.setenv("FSG_MAX_FIELD_SIZE", "16")
    with pytest.raises(ResourceLimitError):
        make_field(23)
    mathieu_m24.cache_clear()
    try:
        assert mathieu_m24().order == 244823040
    finally:
        mathieu_m24.cache_clear()


def test_a_flipped_bit_fails_the_weight_distribution(monkeypatch):
    # self-duality is not checked apart: rank 12 and weights 0 mod 4 force it,
    # and a word with one bit flipped fails the weights
    row_reduce = golay_mod._gf2_row_reduce
    monkeypatch.setattr(golay_mod, "_gf2_row_reduce",
                        lambda rows: [w ^ (k == 0) for k, w in enumerate(row_reduce(rows))])
    with pytest.raises(InternalDefectError, match="weight distribution is wrong"):
        build_golay.__wrapped__()


def test_conway_delta_is_an_automorphism_outside_psl(code):
    delta = conway_delta()
    assert delta(0) == 0 and delta(INFINITY) == INFINITY
    assert delta(1) == 9 and delta(5) == 5 ** 3 * 18 % 23    # 1 a square, 5 not
    assert is_code_automorphism(code, delta)
    assert delta not in PermGroup(24, psl2_23_generators())


def test_m24_refuses_a_generator_inside_psl(monkeypatch):
    shift, inv = psl2_23_generators()
    monkeypatch.setattr(golay_mod, "conway_delta", lambda: shift * inv)
    mathieu_m24.cache_clear()
    try:
        with pytest.raises(InternalDefectError, match=r"\(6072, 253, 11\)"):
            mathieu_m24()
    finally:
        mathieu_m24.cache_clear()


def test_non_automorphism_detected(code):
    transposition = Permutation.from_cycles(24, [(0, 1)])
    assert not is_code_automorphism(code, transposition)


def _table_test_perms():
    rng = random.Random(2026)
    named = dict(zip(("shift", "inverse"), psl2_23_generators()),
                 delta=conway_delta(), transposition=Permutation.from_cycles(24, [(0, 1)]))
    return named | {f"random{i}": Permutation(rng.sample(range(24), 24)) for i in range(5)}


@pytest.mark.parametrize("name", _table_test_perms())
def test_byte_tables_move_words_as_the_per_bit_reference(code, name):
    # every image the check looks up, on all codewords and on random 24-bit
    # words, is the one the per-bit loop gives
    perm = _table_test_perms()[name]
    rng = random.Random(name)
    for words in (code.codewords(), [rng.getrandbits(24) for _ in range(4096)]):
        record = RecordingWords(words, accept_all=True)
        assert is_code_automorphism(SimpleNamespace(codeword_set=record), perm)
        assert record.lookups == [apply_permutation_to_word(perm, w) for w in words]


def test_automorphism_check_looks_up_every_codeword(code):
    for g in psl2_23_generators() + [conway_delta()]:
        record = RecordingWords(code.codeword_set)
        assert is_code_automorphism(SimpleNamespace(codeword_set=record), g)
        assert len(record.lookups) == 4096 == len(set(record.lookups))


def test_m24_order_and_stabilizers(chain):
    from fsg.zoo import factorize
    assert chain.order == 244823040
    assert factorize(chain.order) == {2: 10, 3: 3, 5: 1, 7: 1, 11: 1, 23: 1}
    assert chain.point_stabilizer_order == 10200960
    assert chain.two_point_stabilizer_order == 443520
    assert chain.order == 24 * chain.point_stabilizer_order
    assert chain.point_stabilizer_order == 23 * chain.two_point_stabilizer_order


def test_m24_transitivity(chain):
    assert chain.transitivity == (5, False)
    bases = [lev.base for lev in chain.group.levels]
    assert len(set(bases)) == len(bases)
    sizes = chain.group.basic_orbit_sizes()
    assert sizes[:5] == [24, 23, 22, 21, 20]
    assert prod(sizes) == chain.order == 244823040


def test_cold_m24_builds_one_chain(monkeypatch):
    builds = []
    init = PermGroup.__init__

    def counting_init(self, *args, **kwargs):
        builds.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(PermGroup, "__init__", counting_init)
    mathieu_m24.cache_clear()
    try:
        chain = mathieu_m24()
    finally:
        mathieu_m24.cache_clear()
    assert len(builds) == 1
    assert chain.transitivity == (5, False)


def test_m24_generators_preserve_codeword_set(code, chain):
    words = code.codeword_set
    for g in chain.group.generators:
        assert all(apply_permutation_to_word(g, w) in words for w in words)


def test_m24_contains_psl_but_is_larger(code, chain):
    for g in psl2_23_generators():
        assert g in chain.group
    assert chain.order > 6072
    assert INFINITY == 23


def _builds():
    chain = mathieu_m24()
    return (build_golay(), chain.order, chain.point_stabilizer_order,
            chain.two_point_stabilizer_order, chain.transitivity,
            [g.images for g in chain.group.generators], octonion_table())


def _clear_caches():
    for builder in (build_golay, mathieu_m24, octonion_table):
        builder.cache_clear()


def test_construction_is_deterministic(code):
    before = _builds()
    _clear_caches()         # rebuild everything from scratch
    assert _builds() == before
    assert build_golay().generators == code.generators


def test_threads_build_the_same_objects():
    _clear_caches()
    expected = _builds()
    _clear_caches()
    barrier = threading.Barrier(4)
    results = [None] * 4

    def work(k):
        barrier.wait(timeout=10)
        results[k] = _builds()

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
