"""Character tables: printed-table matches, Burnside counts, orthogonality."""

import pytest

from fsg import characters
from fsg.characters import (
    _split_space,
    character_table,
    cyclotomic_polynomial,
    reduce_root_vector,
)
from fsg.errors import InternalDefectError, ResourceLimitError
from fsg.perms import structure_report
from fsg.zoo import (
    alternating,
    cyclic,
    dicyclic,
    dihedral,
    direct_product,
    elementary_abelian,
    quaternion,
    symmetric,
    vierergruppe,
)


def test_cyclotomic_polynomials():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(3) == (1, 1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)


def test_reduce_root_vector():
    # 1 + zeta_3 + zeta_3^2 = 0
    assert reduce_root_vector((1, 1, 1), 3) == (0, 0)
    # zeta_4^2 = -1
    assert reduce_root_vector((0, 0, 1, 0), 4) == (-1, 0)
    assert reduce_root_vector((5, 0, 0, 0), 4) == (5, 0)


def test_s3_table_matches_printed_form():
    t = character_table(symmetric(3))
    assert t.degrees == (1, 1, 2)
    assert t.class_sizes == (1, 3, 2)
    assert t.as_integer_matrix() == [[1, 1, 1], [1, -1, 1], [2, 0, -1]]
    assert t.check_column_orthogonality()


def test_s4_table_matches_printed_form():
    t = character_table(symmetric(4))
    assert t.degrees == (1, 1, 2, 3, 3)
    # columns: identity, double transpositions (3), transpositions (6),
    # 3-cycles (8), 4-cycles (6)
    assert t.class_sizes == (1, 3, 6, 8, 6)
    assert t.as_integer_matrix() == [
        [1, 1, 1, 1, 1],
        [1, 1, -1, 1, -1],
        [2, 2, 0, -1, 0],
        [3, -1, 1, 0, -1],
        [3, -1, -1, 0, 1],
    ]
    assert t.check_column_orthogonality()


def test_a4_and_quaternion_degrees():
    assert character_table(alternating(4)).degrees == (1, 1, 1, 3)
    assert character_table(quaternion()).degrees == (1, 1, 1, 1, 2)
    assert character_table(dihedral(4)).degrees == (1, 1, 1, 1, 2)


def test_abelian_tables_all_degree_one():
    for G in [cyclic(6), cyclic(8), vierergruppe(), elementary_abelian(3, 2),
              direct_product(cyclic(2), cyclic(4))]:
        t = character_table(G)
        assert set(t.degrees) == {1}
        assert len(t.degrees) == G.order()
        assert t.check_column_orthogonality()


ABELIAN = ([pytest.param(cyclic(n), id=f"Z{n}") for n in range(1, 31)] + [
    pytest.param(vierergruppe(), id="V"),
    pytest.param(elementary_abelian(2, 3), id="E2^3"),
    pytest.param(elementary_abelian(3, 2), id="E3^2"),
    pytest.param(direct_product(cyclic(2), cyclic(4)), id="Z2xZ4"),
    pytest.param(direct_product(cyclic(2), cyclic(6)), id="Z2xZ6"),
])


@pytest.mark.parametrize("G", ABELIAN)
def test_abelian_rows_are_the_dual_group(G):
    # independent of the class algebra: read each row as one root index per
    # element and check it against the group's own multiplication
    t = character_table(G)
    m, n = t.exponent, G.order()
    # every class is one element; columns go by (element order, smallest images)
    elements = sorted(G.element_list(), key=lambda g: (g.order(), g.images))
    column = {g.images: i for i, g in enumerate(elements)}
    assert len(column) == len(t.class_sizes) == n
    rows = set()
    for row in t.values:
        roots = []
        for vec in row:
            assert sorted(vec) == [0] * (m - 1) + [1]
            roots.append(vec.index(1))
        for g, rg in zip(elements, roots):
            for h, rh in zip(elements, roots):
                assert roots[column[(g * h).images]] == (rg + rh) % m
        rows.add(tuple(roots))
    assert len(rows) == len(t.values) == n


def test_vierergruppe_table():
    t = character_table(vierergruppe())
    assert t.as_integer_matrix() == [
        [1, 1, 1, 1],
        [1, 1, -1, -1],
        [1, -1, 1, -1],
        [1, -1, -1, 1],
    ]


def test_burnside_relation_and_degree_divisibility():
    for G in [symmetric(3), symmetric(4), alternating(4), quaternion(),
              dihedral(5), dihedral(6), dicyclic(3), cyclic(12)]:
        t = character_table(G)
        n = G.order()
        assert sum(d * d for d in t.degrees) == n
        assert all(n % d == 0 for d in t.degrees)
        assert len(t.degrees) == len(t.class_sizes)
        assert list(t.degrees) == [
            reduce_root_vector(row[0], t.exponent)[0] for row in t.values]


def test_degree_one_count_equals_abelianization():
    for G in [symmetric(3), symmetric(4), alternating(4), quaternion(),
              dihedral(6)]:
        t = character_table(G)
        _, _, ab, _ = structure_report(G)
        assert sum(1 for d in t.degrees if d == 1) == ab


def test_direct_product_degrees_are_pairwise_products():
    t = character_table(direct_product(cyclic(2), symmetric(3)))
    assert sorted(t.degrees) == [1, 1, 1, 1, 2, 2]


def test_s5_with_irrational_free_table():
    # r = 7 classes; exercises the Dixon path on a larger group
    t = character_table(symmetric(5))
    assert sorted(t.degrees) == [1, 1, 4, 4, 5, 5, 6]
    assert t.check_column_orthogonality()


def test_dicyclic_table_with_irrational_values():
    # Q_4 of order 16 has characters involving sqrt(2); the integer view
    # must mark them, and orthogonality must still be exact
    t = character_table(dicyclic(4))
    assert sum(d * d for d in t.degrees) == 16
    ints = t.as_integer_matrix()
    assert any(v is None for row in ints for v in row)
    assert t.check_column_orthogonality()


def test_split_refuses_a_matrix_that_leaves_the_space():
    # the class matrix sends e_0 to e_1, outside the span of e_0
    with pytest.raises(InternalDefectError, match="does not preserve"):
        _split_space(([[1, 0]], [0]), [{1: 1}, {}], 7)


def test_split_spaces_are_in_reduced_echelon_form(monkeypatch):
    spaces = []

    def recording(space, mat, ell):
        out = _split_space(space, mat, ell)
        spaces.extend(out)
        return out

    monkeypatch.setattr(characters, "_split_space", recording)
    for G in (symmetric(4), quaternion(), cyclic(12)):
        character_table(G)
    assert spaces
    for basis, pivots in spaces:
        assert pivots == sorted(pivots) and len(pivots) == len(basis)
        assert [[row[p] for p in pivots] for row in basis] == \
            [[int(j == k) for k in range(len(basis))] for j in range(len(basis))]
        assert all(not any(row[:p]) for row, p in zip(basis, pivots))


def test_a_raised_degree_fails_the_first_column(monkeypatch):
    # the degree squares are not summed apart: the first column is the
    # degrees, and its orthogonality entry is sum d^2 = |G|
    row_sort = characters._row_sort

    def raised(degrees, rows, m):
        degrees, rows = row_sort(degrees, rows, m)
        return degrees[:-1] + (degrees[-1] + 1,), rows

    monkeypatch.setattr(characters, "_row_sort", raised)
    with pytest.raises(InternalDefectError, match="first column does not equal the degrees"):
        character_table(symmetric(3))


def test_character_bound():
    with pytest.raises(ResourceLimitError, match="fixed bound"):
        character_table(symmetric(6))


def test_enumeration_setting_caps_character_and_cayley_tables(monkeypatch):
    from fsg.cayley import CayleyStructure
    monkeypatch.setenv("FSG_ENUMERATION_BOUND", "100")
    for build in (character_table, CayleyStructure):
        with pytest.raises(ResourceLimitError, match="FSG_ENUMERATION_BOUND"):
            build(symmetric(5))
    assert character_table(symmetric(4)).group_order == 24


def test_frobenius21_table():
    # order 21 with exponent 21: the lifting prime jumps to 43; five
    # classes, degrees 21 = 3*1^2 + 2*3^2, cube roots of unity appear
    from fsg.zoo import frobenius21
    t = character_table(frobenius21())
    assert sorted(t.degrees) == [1, 1, 1, 3, 3]
    # columns sorted by element order: e, two order-3 classes of size 7,
    # two order-7 classes of size 3
    assert t.class_sizes == (1, 7, 7, 3, 3)
    assert t.class_rep_orders == (1, 3, 3, 7, 7)
    assert t.check_column_orthogonality()
    ints = t.as_integer_matrix()
    assert any(v is None for row in ints for v in row)


def test_clifford3_table():
    # order 16 extra-special-flavored group: 16 = 8*1^2 + 2*2^2
    from fsg.zoo import clifford
    t = character_table(clifford(3))
    assert sorted(t.degrees) == [1, 1, 1, 1, 1, 1, 1, 1, 2, 2]
    assert t.check_column_orthogonality()


def test_large_cyclic_abelian_path():
    t = character_table(cyclic(24))
    assert len(t.degrees) == 24 and set(t.degrees) == {1}
    assert t.exponent == 24
    assert t.check_column_orthogonality()
