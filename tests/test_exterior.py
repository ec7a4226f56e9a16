import math
import random
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
import sympy
from modint import ModInt
from rowmatrix import conj_transpose, mat_mul

from pelwedge import exterior, serretate
from pelwedge.cli import main
from pelwedge.cyclofield import CycloMatrix, cyclo_field
from pelwedge.domains import BallPoint, satake_matrix
from pelwedge.hodge import HermitianModule, binom
from pelwedge.exterior import (
    NotASimilitude,
    SubsetIndex,
    colex_subsets,
    compound,
    compounds,
    det,
    g_k,
    multiplier,
    removal_matrix,
    wedge_gram,
)
from pelwedge.serretate import assemble_block, generators
from pelwedge.instances import (
    rand_element,
    rand_similitude_pair,
    rand_skew_hermitian,
)


def test_subset_index_split():
    for n in range(1, 8):
        for k in range(n + 1):
            index = SubsetIndex.build(n, k)
            assert len(index) == math.comb(n, k)
            first = index.order[: binom(n - 1, k - 1)]
            rest = index.order[binom(n - 1, k - 1):]
            assert all(1 in s for s in first)
            assert all(1 not in s for s in rest)


def test_subset_index_tail_alignment():
    # the first half of SubsetIndex is {1} + I with I running through
    # the colex (k-1)-subsets of {2..n} in the same order
    for n in range(2, 7):
        for k in range(1, n + 1):
            index = SubsetIndex.build(n, k)
            tails = colex_subsets(range(2, n + 1), k - 1)
            first = index.order[: math.comb(n - 1, k - 1)]
            assert first == tuple((1,) + t for t in tails)


def test_det_oracle_against_fraction_matrices():
    rng = random.Random(2)
    for _ in range(30):
        n = rng.randint(1, 5)
        mat = [[Fraction(rng.randint(-4, 4)) for _ in range(n)] for _ in range(n)]
        # oracle: permutation expansion
        from itertools import permutations

        expected = Fraction(0)
        for perm in permutations(range(n)):
            sign = 1
            seen = list(perm)
            for i in range(n):
                for j in range(i + 1, n):
                    if seen[i] > seen[j]:
                        sign = -sign
            term = Fraction(1)
            for i, j in enumerate(perm):
                term *= mat[i][j]
            expected += sign * term
        assert det(mat) == expected


def test_compound_trivial_cases():
    mat = [[Fraction(a * 3 + b + 1) for b in range(3)] for a in range(3)]
    assert compound(mat, 1) == tuple(tuple(r) for r in mat)
    assert compound(mat, 0) == ((1,),)
    assert compound(mat, 3) == ((det(mat),),)


def test_compound_diagonal():
    d = [Fraction(2), Fraction(3), Fraction(5), Fraction(7)]
    mat = [[d[a] if a == b else Fraction(0) for b in range(4)] for a in range(4)]
    for k in range(5):
        index = SubsetIndex.build(4, k)
        comp = compound(mat, k)
        for pos, subset in enumerate(index.order):
            expected = math.prod(d[i - 1] for i in subset)
            assert comp[pos][pos] == expected
            assert all(comp[pos][q] == 0 for q in range(len(index)) if q != pos)


def test_compound_functoriality():
    rng = random.Random(8)
    for _ in range(25):
        n = 5
        A = [[Fraction(rng.randint(-3, 3)) for _ in range(n)] for _ in range(n)]
        B = [[Fraction(rng.randint(-3, 3)) for _ in range(n)] for _ in range(n)]
        AB = mat_mul(A, B)
        for k in range(n + 1):
            assert compound(AB, k) == mat_mul(compound(A, k), compound(B, k))


def test_wedge_gram_trivial(F4):
    i = F4.zeta
    psi1 = rand_skew_hermitian(F4, 3, random.Random(4))
    assert wedge_gram(i, psi1, 1) == tuple(tuple(r) for r in psi1)
    assert wedge_gram(i, psi1, 0) == ((i,),)
    with pytest.raises(ValueError):
        wedge_gram(F4.zero, psi1, 1)


def test_wedge_gram_diagonal_example(F4):
    i = F4.zeta
    psi1 = [[i if a == b else F4.zero for b in range(3)] for a in range(3)]
    wg = wedge_gram(i, psi1, 2)
    for a in range(3):
        for b in range(3):
            assert wg[a][b] == (i if a == b else F4.zero)


def test_skew_sign_recorded(F4, F5):
    # the wedge gram stays genuinely skew-Hermitian for every k:
    # HermitianModule refuses any other gram
    rng = random.Random(12)
    for F in (F4, F5):
        for _ in range(10):
            n = rng.randint(1, 4)
            psi1 = rand_skew_hermitian(F, n, rng)
            x = rand_element(F, rng)
            psi0 = x - x.conj()
            if not psi0:
                continue
            for k in range(n + 1):
                HermitianModule(F, wedge_gram(psi0, psi1, k))


def test_g_k_trivial(F4):
    i = F4.zeta
    gamma1 = [[i, F4.one, F4.zero],
              [F4.zero, i, F4.one],
              [F4.zero, F4.zero, i]]
    assert g_k(i, gamma1, 1) == tuple(tuple(r) for r in gamma1)
    assert g_k(i, gamma1, 0) == ((i,),)
    with pytest.raises(ValueError):
        g_k(F4.zero, gamma1, 1)


def test_g_k_scalar(F4):
    c = F4.from_rational(3)
    gamma0 = F4.from_rational(2)
    n = 4
    gamma1 = [[c if a == b else F4.zero for b in range(n)] for a in range(n)]
    for k in range(n + 1):
        gk = g_k(gamma0, gamma1, k)
        expected = gamma0 ** (1 - k) * c ** k
        size = math.comb(n, k)
        for a in range(size):
            for b in range(size):
                assert gk[a][b] == (expected if a == b else F4.zero)


def test_g_k_homomorphism():
    rng = random.Random(19)
    F = cyclo_field(4)
    for _ in range(20):
        n = rng.randint(1, 4)
        g0a, g1a, _, _, _ = rand_similitude_pair(n, rng)
        g0b, g1b, _, _, _ = rand_similitude_pair(n, rng)
        prod0 = g0a * g0b
        prod1 = g1a @ g1b
        assert prod1 == mat_mul(g1a, g1b)
        for k in range(n + 1):
            assert g_k(prod0, prod1, k) == mat_mul(
                g_k(g0a, g1a, k), g_k(g0b, g1b, k)
            )


def test_multiplier_identity_and_scalar(F4):
    i = F4.zeta
    n = 3
    psi = CycloMatrix.of(F4, [[i if a == b else 0 for b in range(n)] for a in range(n)])
    ident = CycloMatrix.of(F4, [[int(a == b) for b in range(n)] for a in range(n)])
    assert multiplier(ident, psi) == F4.one
    scaled = CycloMatrix.of(F4, [[3 * (a == b) for b in range(n)] for a in range(n)])
    assert multiplier(scaled, psi) == F4.from_rational(9)


def test_multiplier_negative_control(F4):
    i = F4.zeta
    psi = CycloMatrix.of(F4, [[i, 0], [0, i]])
    gamma = CycloMatrix.of(F4, [[1, 1], [0, 2]])
    with pytest.raises(NotASimilitude, match=r"mismatch at \(0, 1\)"):
        multiplier(gamma, psi)
    with pytest.raises(ValueError, match="zero form"):
        multiplier(gamma, CycloMatrix.of(F4, [[0, 0], [0, 0]]))
    with pytest.raises(ValueError, match="dimension mismatch"):
        multiplier(CycloMatrix.of(F4, [[1]]), psi)


def test_multiplier_transport():
    rng = random.Random(31)
    for _ in range(20):
        n = rng.randint(1, 4)
        gamma0, gamma1, psi0, psi1, mu = rand_similitude_pair(n, rng)
        assert multiplier(CycloMatrix.of(gamma0.field, [[gamma0]]), psi0) == mu
        assert multiplier(gamma1, psi1) == mu
        for k in range(n + 1):
            assert multiplier(
                g_k(gamma0, gamma1, k), wedge_gram(psi0[0][0], psi1, k)
            ) == mu


def test_conj_transpose(F4):
    i = F4.zeta
    ct = CycloMatrix.of(F4, [[i, F4.one], [F4.zero, -i]]).conj_transpose()
    assert ct[0][0] == -i
    assert ct[1][0] == F4.one
    assert ct[0][1] == F4.zero


# Reference oracles: a cofactor determinant per minor, and the removal
# entry tested pair by pair.  The fast paths must agree with them exactly.


def reference_det(matrix):
    rows = [list(row) for row in matrix]
    n = len(rows)
    if n == 0:
        return 1
    if n == 1:
        return rows[0][0]

    def expand(row_ids, col_ids):
        if len(row_ids) == 1:
            return rows[row_ids[0]][col_ids[0]]
        best = min(row_ids, key=lambda r: sum(1 for c in col_ids if rows[r][c]))
        rest_rows = tuple(r for r in row_ids if r != best)
        sign_base = row_ids.index(best)
        total = None
        for pos, c in enumerate(col_ids):
            entry = rows[best][c]
            if not entry:
                continue
            term = entry * expand(rest_rows, col_ids[:pos] + col_ids[pos + 1 :])
            if (sign_base + pos) % 2:
                term = -term
            total = term if total is None else total + term
        if total is None:
            return rows[0][0] - rows[0][0]
        return total

    return expand(tuple(range(n)), tuple(range(n)))


def reference_compound(matrix, k):
    rows = [list(row) for row in matrix]
    order = SubsetIndex.build(len(rows), k).order
    return tuple(
        tuple(reference_det([[rows[i - 1][j - 1] for j in J] for i in I]) for J in order)
        for I in order
    )


def reference_removal_entry(I, J, values, offset):
    if not set(I) <= set(J):
        return 0
    removed = set(J) - set(I)
    if len(removed) != 1:
        return 0
    (i_nu,) = removed
    nu = sorted(J).index(i_nu) + 1
    entry = values[i_nu - offset]
    return entry if nu % 2 == 1 else -entry


def reference_removal_matrix(values, ground, k):
    ground = tuple(ground)
    key = lambda s: tuple(sorted(s, reverse=True))
    rows = sorted(combinations(ground, k - 1), key=key)
    cols = sorted(combinations(ground, k), key=key)
    return tuple(
        tuple(reference_removal_entry(I, J, values, ground[0] if ground else 0) for J in cols)
        for I in rows
    )


def reference_removal_entries(size, k):
    """(row, col, t, sign) of each nonzero entry, read off
    reference_removal_matrix on the values 1 .. size."""
    rows = reference_removal_matrix(range(1, size + 1), range(size), k)
    for r, row in enumerate(rows):
        for c, x in enumerate(row):
            if x:
                yield r, c, abs(x) - 1, 1 if x > 0 else -1


def reference_satake(x, n, k):
    key = lambda s: tuple(sorted(s, reverse=True))
    rows = sorted(combinations(range(1, n), k - 1), key=key)
    cols = sorted(combinations(range(1, n), k), key=key)
    out = np.zeros((len(rows), len(cols)), dtype=complex)
    for i, I in enumerate(rows):
        set_i = set(I)
        for j, J in enumerate(cols):
            removed = set(J) - set_i
            if set_i <= set(J) and len(removed) == 1:
                (i_nu,) = removed
                nu = J.index(i_nu) + 1
                out[i, j] = (-1) ** (nu - 1) * x[i_nu - 1]
    return out


def _sparse(rng, n, draw, density=0.6):
    return [[draw() if rng.random() < density else 0 * draw() for _ in range(n)] for _ in range(n)]


def _ring_matrices():
    rng = random.Random(2024)
    F5, F8 = cyclo_field(5), cyclo_field(8)
    cyclo = lambda F: lambda: F.element([rng.randint(-2, 2) for _ in range(F.degree)])
    draws = {
        "int": lambda: rng.randint(-4, 4),
        "fraction": lambda: Fraction(rng.randint(-4, 4), rng.randint(1, 3)),
        "mod9": lambda: ModInt(rng.randint(0, 8), 9),
        "cyclo5": cyclo(F5),
        "cyclo8": cyclo(F8),
    }
    for name, draw in draws.items():
        sizes = range(1, 7) if name.startswith("cyclo") else [1, 2, 3, 4, 5, 6, 6, 5]
        for n in sizes:
            yield name, _sparse(rng, n, draw, rng.choice([0.4, 0.7, 1.0]))


def test_compound_and_det_match_the_cofactor_oracle():
    checked = set()
    for name, matrix in _ring_matrices():
        n = len(matrix)
        # CycloElement rows take the generic path, and their CycloMatrix the array path
        forms = [matrix]
        if name.startswith("cyclo"):
            forms.append(CycloMatrix.of(matrix[0][0].field, matrix))
        for form in forms:
            for k in range(n + 1):
                assert compound(form, k) == reference_compound(matrix, k), (name, n, k)
            assert det(form) == reference_det(matrix), (name, n)
        checked.add(name)
    assert checked == {"int", "fraction", "mod9", "cyclo5", "cyclo8"}


def test_compound_computes_each_minor_once():
    calls = []
    negated = []

    class Counted(int):
        def __mul__(self, other):
            calls.append(other)
            return int(self) * other

        def __neg__(self):
            negated.append(self)
            return Counted(-int(self))

    # a Vandermonde matrix with increasing positive nodes has every minor
    # nonzero; each j-row minor is built from the (j-1)-row minors of one
    # row prefix with one multiply per (minor, remaining column)
    vandermonde = [[Counted((i + 1) ** j) for j in range(7)] for i in range(7)]
    compound(vandermonde, 3)
    assert len(calls) == 15 * 7 * 6 + 35 * 21 * 5
    assert len(negated) == 7 * 7  # each entry once, never a product
    calls.clear()
    det([row[:6] for row in vandermonde[:6]])
    assert len(calls) == sum(j * math.comb(6, j) for j in range(2, 7))
    # the first row's entries are not multiplied by the empty minor, and a
    # zero minor is not expanded: both 2x2 minors of rows 1-2 vanish
    calls.clear()
    assert det([[Counted(1), Counted(2), Counted(3)],
                [Counted(2), Counted(4), Counted(6)],
                [Counted(1), Counted(1), Counted(1)]]) == 0
    assert len(calls) == 3 * 2


def _level_walk_inputs():
    """(name, matrix) over ints, Fractions, Polynomials and ModInts: dense
    matrices, and deformation blocks [[c1*E_a, C], [0, E_b]] with a
    sparse C."""
    rng = random.Random(41)
    gens = generators("y1", "y2", "y3")
    draws = {
        "int": lambda: rng.randint(-4, 4),
        "fraction": lambda: Fraction(rng.randint(-4, 4), rng.randint(1, 3)),
        "polynomial": lambda: rng.randint(-2, 2) * rng.choice(gens) + rng.randint(-1, 1),
        "mod9": lambda: ModInt(rng.randint(0, 8), 9),
    }
    for name, draw in draws.items():
        for n in range(1, 7):
            yield name, [[draw() for _ in range(n)] for _ in range(n)]
            a = rng.randint(1, n)
            C = [[draw() if rng.random() < 0.5 else 0 for _ in range(n - a)] for _ in range(a)]
            yield name, assemble_block(draw(), C, a, n - a)


def test_compounds_by_levels_match_the_cofactor_oracle():
    checked = set()
    for name, matrix in _level_walk_inputs():
        n = len(matrix)
        # one walk for every k from 0 to n, asked for out of order and twice
        walk = list(compounds(matrix, [n, *range(n + 1), 0]))
        assert [k for k, _ in walk] == list(range(n + 1)), (name, n)
        for k, got in walk:
            assert got == reference_compound(matrix, k), (name, n, k)
            assert got == compound(matrix, k)
        assert walk[0][1] == ((1,),) and walk[-1][1] == ((reference_det(matrix),),)
        checked.add(name)
    assert checked == {"int", "fraction", "polynomial", "mod9"}
    assert list(compounds([[2]], [])) == []
    with pytest.raises(ValueError):
        list(compounds([[1, 2], [3, 4]], [1, 3]))
    with pytest.raises(ValueError):
        list(compounds([[1, 2]], [1]))


def test_det_walks_one_prefix_per_level(monkeypatch):
    # pruned to k = n, level j holds the one prefix of rows 0..j-1: n
    # expansions, where a walk kept to every k would make 2^n - 1
    calls = []
    laplace = exterior._laplace
    monkeypatch.setattr(exterior, "_laplace", lambda *args: calls.append(1) or laplace(*args))
    rng = random.Random(8)
    for n in range(1, 9):
        matrix = [[rng.randint(1, 9) for _ in range(n)] for _ in range(n)]
        calls.clear()
        assert det(matrix) == reference_det(matrix)
        assert len(calls) == n
        calls.clear()
        list(compounds(matrix, range(n + 1)))
        assert len(calls) == 2**n - 1


def _same_expression(x, y):
    return sympy.expand(x - y) == 0


def test_compound_matches_the_oracle_on_sparse_sympy_blocks():
    rng = random.Random(5)
    for n in range(1, 7):
        c = sympy.symbols(f"c1:{n + 1}")
        for a in range(n):
            b = n - a
            C = [[c[rng.randrange(n)] if rng.random() < 0.6 else 0 for _ in range(b)]
                 for _ in range(a)]
            block = assemble_block(c[0], C, a, b)
            for k in range(n + 1):
                got, want = compound(block, k), reference_compound(block, k)
                assert all(
                    _same_expression(x, y)
                    for row_got, row_want in zip(got, want)
                    for x, y in zip(row_got, row_want)
                ), (n, a, k)
            assert _same_expression(det(block), reference_det(block))


def test_sylvester_franke():
    # det of the k-th compound is det(A)^C(n-1, k-1)
    rng = random.Random(13)
    F5 = cyclo_field(5)
    for _ in range(12):
        n = rng.randint(1, 5)
        A = [[Fraction(rng.randint(-3, 3)) for _ in range(n)] for _ in range(n)]
        for k in range(1, n + 1):
            assert det(compound(A, k)) == det(A) ** math.comb(n - 1, k - 1)
    for n in range(1, 4):
        A = CycloMatrix.of(F5, [[F5.element([rng.randint(-2, 2) for _ in range(4)])
                                 for _ in range(n)] for _ in range(n)])
        for k in range(1, n + 1):
            assert det(compound(A, k)) == det(A) ** math.comb(n - 1, k - 1)


def test_colex_subsets():
    assert colex_subsets(range(1, 5), 2) == (
        (1, 2), (1, 3), (2, 3), (1, 4), (2, 4), (3, 4)
    )
    assert colex_subsets(range(2, 4), 0) == ((),)
    assert colex_subsets(range(2, 4), 3) == ()


def test_removal_matrix_matches_the_entrywise_oracle():
    rng = random.Random(17)
    for size in range(0, 7):
        for start in (1, 2):
            ground = range(start, start + size)
            exact = [rng.randint(-5, 5) for _ in range(size)]
            symbolic = sympy.symbols(f"p1:{size + 1}") if size else ()
            mod9 = [ModInt(rng.randint(0, 8), 9) for _ in range(size)]
            for values in (exact, symbolic, mod9):
                for k in range(1, size + 2):
                    assert removal_matrix(values, k) == reference_removal_matrix(
                        values, ground, k
                    ), (size, start, k)


def _bits(z):
    return (z.real, z.imag, math.copysign(1, z.real), math.copysign(1, z.imag))


def test_satake_matrix_keeps_the_signed_zeros():
    points = [
        (0 - 0.5j, 0.5j, -0.0 - 0.5j),
        (complex(-0.0, -0.0), 0.1, complex(0.3, -0.0), complex(-0.0, 0.1), -0.2j),
    ]
    rng = np.random.default_rng(3)
    points += [tuple(rng.standard_normal(4) * 0.3 + 1j * rng.standard_normal(4) * 0.3)]
    for x in points:
        n = len(x) + 1
        for k in range(1, n):
            got = satake_matrix(BallPoint.of(x, require_in_ball=False), n, k)
            want = reference_satake(x, n, k)
            assert got.shape == want.shape
            assert [_bits(z) for z in got.flat] == [_bits(z) for z in want.flat]


@pytest.mark.parametrize("suite", ["vdrei", "vzehn"])
def test_cli_bytes_match_the_reference_oracles(suite, capsys, monkeypatch):
    argv = ["verify", suite, "--n", "7"]
    code = main(argv)
    fast = capsys.readouterr().out
    calls = []

    def removal_entries(size, k):
        calls.append(k)
        return reference_removal_entries(size, k)

    def reference_compounds(matrix, ks):
        return ((k, reference_compound(matrix, k)) for k in sorted(ks))

    # the swapped names are the ones serretate builds its blocks with: a
    # stale name raises, and the oracle must be called
    monkeypatch.setattr(serretate, "compounds", reference_compounds)
    monkeypatch.setattr(serretate, "removal_entries", removal_entries)
    assert main(argv) == code == 0
    assert capsys.readouterr().out == fast
    assert calls
