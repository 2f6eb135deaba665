"""Exact character tables of small finite groups.

Values are exact cyclotomic integers, stored as integer multiplicity
vectors over the roots of unity e^(2 pi i k/m), k = 0..m-1, where m is
the group exponent; equality and orthogonality reduce to integer
polynomial identities modulo the m-th cyclotomic polynomial, so no
floating point appears anywhere.

Every group goes through the class-sum matrix algebra (Dixon,
Numer. Math. 10, 1967; Schneider, J. Symb. Comput. 9, 1990): the class
multiplication coefficient matrices, stored as sparse columns, are
simultaneously diagonalized over a prime field F_l with l = 1 (mod m)
and l > 2*sqrt(|G|) (the standard sufficiency bound for unique
lifting), and eigenvalues are lifted back to root-of-unity
multiplicities.  One row reduction over F_l, `_rref`, serves the whole
split: each unsplit space is kept in reduced row echelon form, so a
vector's coordinates in it are its entries at the pivot columns, and a
kernel is read off the free columns.  A value on a class whose elements
have order o is a sum of o-th roots of unity, so its multiplicities come
from a length-o discrete Fourier sum over the powers g^t, t < o, and sit
at the indices k*m/o.

Table layout: columns (classes) are sorted by (element order, class
size, smallest member); rows by (degree, then value vectors in
descending lexicographic order), which puts the identical character
first.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import accumulate, repeat
from math import isqrt, lcm
from operator import mul

from .errors import InternalDefectError, ResourceLimitError, ValidationError
from .fields import FieldSpec, is_prime
from .perms import PermGroup, census_key, class_census, gather

CHARACTER_BOUND = 200
LIFTING_PRIME_CAP = 10 ** 6


# ---------------------------------------------------------------- cyclotomic


@cache
def cyclotomic_polynomial(m):
    """Coefficients of Phi_m, low degree first, by recursive exact division."""
    if m == 1:
        return (-1, 1)
    num = [-1] + [0] * (m - 1) + [1]          # x^m - 1
    for d in range(1, m):
        if m % d == 0:
            num = _poly_div_exact(num, cyclotomic_polynomial(d))
    return tuple(num)


def _poly_div_exact(num, den):
    num = list(num)
    out = [0] * (len(num) - len(den) + 1)
    for k in range(len(out) - 1, -1, -1):
        c = num[k + len(den) - 1]
        if c % den[-1]:
            raise InternalDefectError("inexact cyclotomic division")
        q = c // den[-1]
        out[k] = q
        for i, d in enumerate(den):
            num[k + i] -= q * d
    if any(num):
        raise InternalDefectError("nonzero remainder in cyclotomic division")
    return out


def reduce_root_vector(vec, m):
    """Canonical form of sum_k vec[k] * zeta_m^k: the remainder modulo
    Phi_m, a tuple of euler_phi(m) integers in the power basis."""
    phi = cyclotomic_polynomial(m)
    rem = list(vec)
    deg = len(phi) - 1
    terms = [(i - deg, p) for i, p in enumerate(phi) if p]
    for k in range(len(rem) - 1, deg - 1, -1):
        c = rem[k]
        if c:
            for i, p in terms:
                rem[k + i] -= c * p
    return tuple(rem[:deg])


# --------------------------------------------------------------------- table


@dataclass(frozen=True)
class CharacterTable:
    degrees: tuple
    values: tuple              # r x r of length-m root multiplicity vectors
    class_sizes: tuple
    class_rep_orders: tuple
    exponent: int
    group_order: int

    def as_integer_matrix(self):
        """The table as plain integers; None where a value is irrational."""
        reduced = [[reduce_root_vector(vec, self.exponent) for vec in row]
                   for row in self.values]
        return [[None if any(red[1:]) else red[0] for red in row] for row in reduced]

    def check_column_orthogonality(self):
        """Exact Eq-style column relations: conjugate-weighted inner product
        of columns i and j equals |G|/|C_i| when i = j and 0 otherwise."""
        m, r = self.exponent, len(self.degrees)
        support = [[[(k, c) for k, c in enumerate(vec) if c] for vec in row]
                   for row in self.values]
        for i in range(r):
            for j in range(r):
                acc = [0] * m
                for row in support:
                    for a, ca in row[i]:
                        for b, cb in row[j]:
                            acc[(a - b) % m] += ca * cb
                red = reduce_root_vector(acc, m)
                want = self.group_order // self.class_sizes[i] if i == j else 0
                if red[0] != want or any(c != 0 for c in red[1:]):
                    return False
        return True

    def to_jsonable(self):
        return {
            "group_order": str(self.group_order),
            "exponent": self.exponent,
            "root_of_unity_basis": f"e^(2*pi*i*k/{self.exponent}), k = 0..{self.exponent - 1}",
            "class_sizes": list(self.class_sizes),
            "class_rep_orders": list(self.class_rep_orders),
            "degrees": list(self.degrees),
            "values": [[list(v) for v in row] for row in self.values],
        }


def _row_sort(degrees, rows, m):
    def key(pair):
        d, row = pair
        return d, tuple(tuple(-c for c in reduce_root_vector(v, m)) for v in row)
    return tuple(zip(*sorted(zip(degrees, rows), key=key)))


def character_table(G: PermGroup) -> CharacterTable:
    n = G.order()
    if n > CHARACTER_BOUND:
        raise ResourceLimitError(f"character tables are limited to the fixed bound "
                                 f"of order {CHARACTER_BOUND}; group has {n}")
    class_of, census_reps, census_sizes = class_census(G)
    cols = sorted(range(len(census_reps)), key=lambda c: (
        census_reps[c].order(), census_sizes[c], census_reps[c].images))
    reps = [census_reps[c] for c in cols]
    sizes = tuple(census_sizes[c] for c in cols)
    rep_orders = tuple(r.order() for r in reps)
    m = lcm(*rep_orders)
    column = {c: k for k, c in enumerate(cols)}
    degrees, rows = _dixon_characters(G, class_of, column, reps, sizes, rep_orders, m)
    degrees, rows = _row_sort(degrees, rows, m)
    table = CharacterTable(
        degrees=degrees,
        values=rows,
        class_sizes=sizes,
        class_rep_orders=rep_orders,
        exponent=m,
        group_order=n,
    )
    _verify_table(table)
    return table


def _verify_table(t: CharacterTable):
    n = t.group_order
    if sum(d * d for d in t.degrees) != n:
        raise InternalDefectError("degree squares do not sum to the order")
    ints = t.as_integer_matrix()
    if any(v != 1 for v in ints[0]):
        raise InternalDefectError("first row is not the identical character")
    first_col = [row[0] for row in t.values]
    for d, vec in zip(t.degrees, first_col):
        red = reduce_root_vector(vec, t.exponent)
        if red[0] != d or any(red[1:]):
            raise InternalDefectError("first column does not equal the degrees")
    if any(n % d for d in t.degrees):
        raise InternalDefectError("an irrep degree fails to divide the order")
    if not t.check_column_orthogonality():
        raise InternalDefectError("column orthogonality fails")


# ------------------------------------------------------------------- dixon


def _dixon_characters(G, class_of, column, reps, sizes, orders, m):
    """The irreducible characters; class_of is the census map, keyed by
    census_key(G.degree), and column[class_of[x]] the column of key x."""
    n = G.order()
    r = len(reps)
    ell = _lifting_prime(m, n)
    key = census_key(G.degree)
    inv_class = [column[class_of[key(rep.inverse().images)]] for rep in reps]
    power_class = [[column[class_of[key(p.images)]]
                    for p in accumulate(repeat(rep, o - 1), mul, initial=rep ** 0)]
                   for rep, o in zip(reps, orders)]
    rep_gathers = [gather(rep.images) for rep in reps]

    def class_matrix(i):
        """Class multiplication coefficients a_ijk, with fixed target rep z_k,
        as sparse columns: entry k is {j: a_ijk} over the nonzero a_ijk.
        As x runs over class i, y = x^-1 runs over class inv_class[i]."""
        cols = [{} for _ in range(r)]
        for y, c in class_of.items():
            if column[c] != inv_class[i]:
                continue
            for col, yz in zip(cols, rep_gathers):
                j = column[class_of[key(yz(y))]]
                col[j] = col.get(j, 0) + 1
        return cols

    # each space is (basis, pivots) in RREF, as the identity basis already is
    spaces = [([[int(j == k) for k in range(r)] for j in range(r)], list(range(r)))]
    for i in range(1, r):
        if all(len(b) == 1 for b, _ in spaces):
            break
        mat = class_matrix(i)
        new_spaces = []
        for space in spaces:
            if len(space[0]) == 1:
                new_spaces.append(space)
                continue
            new_spaces.extend(_split_space(space, mat, ell))
        spaces = new_spaces
    if any(len(b) != 1 for b, _ in spaces):
        raise InternalDefectError("class matrices failed to split the algebra")

    degrees, rows = [], []
    if (ell - 1) % m:
        raise InternalDefectError("prime does not support the required root")
    # F_l is built directly: a lifting prime is not bound by FSG_MAX_FIELD_SIZE
    zeta = pow(FieldSpec(ell, 1, (0, 1), ell).codes.generator(), (ell - 1) // m, ell)
    zeta_pows = [pow(zeta, k, ell) for k in range(m)]
    size_inv = [pow(s % ell, ell - 2, ell) for s in sizes]
    order_inv = {o: pow(o, ell - 2, ell) for o in set(orders)}
    # dft[o][k][t] = zeta_o^(-k*t), the Fourier matrix of each class order
    dft = {o: [[zeta_pows[-k * t * (m // o) % m] for t in range(o)]
               for k in range(o)] for o in set(orders)}
    for basis, _ in spaces:
        # Row 0 of every class matrix is the unit vector e_i (x^-1 z_k is the
        # identity only for x = z_k), so the eigenvalue of class i on v is
        # v_i / v_0; v_0 = 0 would make every eigenvalue 0 and fail below.
        v = basis[0]
        v0_inv = pow(v[0], ell - 2, ell)
        omega = [x * v0_inv % ell for x in v]
        s = sum(omega[i] * omega[inv_class[i]] % ell * size_inv[i]
                for i in range(r)) % ell
        d2 = n % ell * pow(s, ell - 2, ell) % ell
        d = next((x for x in range(1, isqrt(n) + 1) if x * x % ell == d2), None)
        if d is None:
            raise InternalDefectError("degree recovery failed")
        chi = [d * omega[i] % ell * size_inv[i] % ell for i in range(r)]
        row = []
        for powers, o in zip(power_class, orders):
            # multiplicity of zeta_o^k = zeta_m^(k*m/o) in chi(g), g of order o
            step = m // o
            values = [chi[c] for c in powers]
            vec = [0] * m
            for k, zs in enumerate(dft[o]):
                c = sum(map(mul, values, zs)) % ell * order_inv[o] % ell
                if c > d:
                    raise InternalDefectError("root multiplicity exceeds degree")
                vec[k * step] = c
            row.append(tuple(vec))
        degrees.append(d)
        rows.append(tuple(row))
    return tuple(degrees), tuple(rows)


def _lifting_prime(m, n):
    """Smallest prime = 1 (mod m) exceeding 2*sqrt(n)."""
    floor = 2 * isqrt(n) + 1
    ell = m + 1
    while True:
        if ell >= floor and is_prime(ell):
            return ell
        ell += m
        if ell > LIFTING_PRIME_CAP:
            raise ValidationError(
                f"no lifting prime = 1 mod {m} below {LIFTING_PRIME_CAP}")


# --------------------------------------------------- linear algebra over F_l


def _mat_vec(cols, v, ell):
    """The product of a sparse-column matrix (cols[k] = {j: a_jk}) and v."""
    out = [0] * len(v)
    for col, vk in zip(cols, v):
        if vk:
            for j, a in col.items():
                out[j] += a * vk
    return [x % ell for x in out]


def _split_space(space, mat, ell):
    """Split a subspace invariant under mat into eigenspace intersections.
    A space is (basis, pivots) in reduced row echelon form, so a vector w in
    its span is the sum of w[p_j] * b_j: its coordinates sit at the pivots."""
    basis, pivots = space
    d = len(basis)
    images = [_mat_vec(mat, b, ell) for b in basis]
    if any(_combine([w[p] for p in pivots], basis, ell) != w for w in images):
        raise InternalDefectError("class matrix does not preserve the subspace")
    # restricted action: restricted[j][k] = coordinate j of the image of b_k
    restricted = [[w[p] for w in images] for p in pivots]
    poly = _charpoly(restricted, ell)
    out = []
    for lam in range(ell):
        if _poly_eval(poly, lam, ell):
            continue
        shifted = [[(restricted[j][k] - (lam if j == k else 0)) % ell
                    for k in range(d)] for j in range(d)]
        kernel = _nullspace(shifted, ell)
        if kernel:
            out.append(_rref([_combine(c, basis, ell) for c in kernel], ell))
    if sum(len(v) for v, _ in out) != d:
        raise InternalDefectError("eigenspace dimensions do not add up")
    return out


def _combine(coeffs, basis, ell):
    """sum_j coeffs[j] * basis[j] over F_ell, skipping zero coefficients."""
    vec = [0] * len(basis[0])
    for c, b in zip(coeffs, basis):
        if c:
            vec = [x + c * y for x, y in zip(vec, b)]
    return [x % ell for x in vec]


def _rref(rows, ell):
    """Reduced row echelon form over F_ell: (the nonzero rows, their pivot
    columns).  Entries must already be residues in [0, ell)."""
    rows = [list(row) for row in rows]
    pivots = []
    for col in range(len(rows[0])):
        rank = len(pivots)
        piv = next((rw for rw in range(rank, len(rows)) if rows[rw][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = pow(rows[rank][col], ell - 2, ell)
        top = rows[rank] = [x * inv % ell for x in rows[rank]]
        for rw, row in enumerate(rows):
            if rw != rank and (f := row[col]):
                rows[rw] = [(a - f * b) % ell for a, b in zip(row, top)]
        pivots.append(col)
    return rows[:len(pivots)], pivots


def _charpoly(mat, ell):
    """Characteristic polynomial over F_ell via Hessenberg reduction."""
    d = len(mat)
    h = [row[:] for row in mat]
    for col in range(d - 2):
        piv = next((rw for rw in range(col + 1, d) if h[rw][col] % ell), None)
        if piv is None:
            continue
        if piv != col + 1:
            h[piv], h[col + 1] = h[col + 1], h[piv]
            for rw in range(d):
                h[rw][piv], h[rw][col + 1] = h[rw][col + 1], h[rw][piv]
        inv = pow(h[col + 1][col], ell - 2, ell)
        for rw in range(col + 2, d):
            f = h[rw][col] * inv % ell
            if f:
                for c in range(d):
                    h[rw][c] = (h[rw][c] - f * h[col + 1][c]) % ell
                for r2 in range(d):
                    h[r2][col + 1] = (h[r2][col + 1] + f * h[r2][rw]) % ell
    # p_k = charpoly of leading k x k Hessenberg block (as coefficient lists)
    polys = [[1]]
    for k in range(1, d + 1):
        term = [(-h[k - 1][k - 1]) % ell * c % ell for c in polys[k - 1]]
        poly = [0] + polys[k - 1][:]             # x * p_{k-1}
        poly = [(a + b) % ell for a, b in
                zip(poly, term + [0] * (len(poly) - len(term)))]
        run = 1
        for i in range(k - 1, 0, -1):
            run = run * h[i][i - 1] % ell
            coef = (-1) % ell * run % ell * h[i - 1][k - 1] % ell
            contrib = [coef * c % ell for c in polys[i - 1]]
            poly = [(a + (contrib[t] if t < len(contrib) else 0)) % ell
                    for t, a in enumerate(poly)]
        polys.append(poly)
    return polys[d]


def _poly_eval(poly, x, ell):
    out = 0
    for c in reversed(poly):
        out = (out * x + c) % ell
    return out


def _nullspace(mat, ell):
    """Basis of the kernel of mat over F_ell, one vector per free column of
    its reduced row echelon form."""
    rows, pivots = _rref(mat, ell)
    out = []
    for fc in sorted(set(range(len(mat))) - set(pivots)):
        v = [0] * len(mat)
        v[fc] = 1
        for row, col in zip(rows, pivots):
            v[col] = -row[fc] % ell
        out.append(v)
    return out
