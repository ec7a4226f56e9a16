import math
import pathlib
import random
from fractions import Fraction

import pytest

from pelwedge import instances, pairings
from pelwedge.cli import main
from pelwedge.cyclofield import RamifiedPrimeError, cyclo_field, trace_LQ
from pelwedge.exterior import conj_transpose, det, mat_mul
from pelwedge.hodge import HermitianModule
from pelwedge.instances import (
    rand_element,
    rand_perfect_pair,
    rand_skew_hermitian,
    rand_unimodular,
)
from pelwedge.pairings import (
    DegenerateForm,
    TraceGram,
    _bareiss,
    _integer_matrix,
    _unit_det_mod,
    perfectness_valuation,
    trace_gram,
    verify_prinz,
)

ALLPASS = str(pathlib.Path(__file__).parent / "fixtures" / "allpass.pel")


def test_trace_gram_rank1_example(F4):
    module = HermitianModule(F4, [[F4.zeta]])
    tg = trace_gram(module)
    # basis (e, i*e): psi(e, e) = tr(i) = 0, psi(e, i*e) = tr(i*i) = -2
    assert tg.matrix == (
        (Fraction(0), Fraction(-2)),
        (Fraction(2), Fraction(0)),
    )


def test_trace_gram_block_diagonal(F4):
    i = F4.zeta
    module = HermitianModule(F4, [[i, F4.zero], [F4.zero, i]])
    tg = trace_gram(module)
    # the two copies of e_1, e_2 do not pair with each other
    for a in range(4):
        for b in range(4):
            if (a - b) % 2 == 1:
                assert tg.matrix[a][b] == 0


def test_trace_gram_antisymmetric_random():
    rng = random.Random(7)
    for m in (4, 5, 8):
        F = cyclo_field(m)
        for _ in range(5):
            n = rng.randint(1, 3)
            module = HermitianModule(F, rand_skew_hermitian(F, n, rng))
            tg = trace_gram(module)  # __post_init__ checks antisymmetry
            assert len(tg.matrix) == F.degree * n


def test_bareiss_examples():
    assert _bareiss([[0, -2], [2, 0]]) == 4
    assert _bareiss([[-7]]) == -7
    assert _bareiss([[1, 2], [2, 4]]) == 0


def test_perfectness_valuation_examples(F4):
    tg = trace_gram(HermitianModule(F4, [[F4.zeta]]))
    assert perfectness_valuation(tg, 5) == 0  # det = 4
    assert perfectness_valuation(tg, 3) == 0
    with pytest.raises(RamifiedPrimeError):
        perfectness_valuation(tg, 2)
    # p < 2 has no valuation; refusing it keeps the exact path from looping
    for p in (1, 0, -1, -3):
        with pytest.raises(ValueError):
            perfectness_valuation(tg, p)


def test_perfectness_degenerate(F8):
    d = F8.zeta - F8.zeta.conj()
    module = HermitianModule(F8, [[d, F8.zero], [F8.zero, F8.zero]])
    tg = trace_gram(module)
    with pytest.raises(DegenerateForm):
        perfectness_valuation(tg, 3)


def test_trace_gram_base_change_det():
    # a GL_n(O)-base change multiplies the trace form determinant by a
    # unit norm; for our unimodular generators the valuation is unchanged
    rng = random.Random(41)
    for m, p in ((4, 5), (5, 3)):
        F = cyclo_field(m)
        for _ in range(5):
            n = rng.randint(1, 3)
            try:
                _, module1 = rand_perfect_pair(F, n, p, rng)
            except RuntimeError:
                continue
            B, _ = rand_unimodular(F, n, rng)
            changed = mat_mul(mat_mul(conj_transpose(B), module1.gram), B)
            module = HermitianModule(F, changed)
            assert perfectness_valuation(trace_gram(module), p) == 0


def test_verify_prinz_k1_matches_input(F4):
    rng = random.Random(13)
    module0, module1 = rand_perfect_pair(F4, 3, 5, rng)
    rep = verify_prinz(module0, module1, 1, 5)
    assert rep.hypotheses_met
    assert rep.input_valuations == (0, 0)
    assert rep.output_valuation == 0
    assert rep.implication_holds


def test_verify_prinz_vacuous(F4):
    i = F4.zeta
    five_i = F4.from_rational(5) * i
    module0 = HermitianModule(F4, [[i]])
    scaled = HermitianModule(F4, [[five_i, F4.zero], [F4.zero, five_i]])
    rep = verify_prinz(module0, scaled, 1, 5)
    assert not rep.hypotheses_met
    assert rep.implication_holds  # vacuously


def test_verify_prinz_validation(F4):
    i = F4.zeta
    module0 = HermitianModule(F4, [[i]])
    module1 = HermitianModule(F4, [[i, F4.zero], [F4.zero, i]])
    with pytest.raises(ValueError):
        verify_prinz(module1, module1, 1, 5)
    with pytest.raises(ValueError):
        verify_prinz(module0, module1, 3, 5)


def test_verify_prinz_random_sweep():
    rng = random.Random(99)
    for m, p in ((4, 7), (5, 3)):
        F = cyclo_field(m)
        for _ in range(5):
            n = rng.randint(1, 3)
            module0, module1 = rand_perfect_pair(F, n, p, rng)
            for k in range(n + 1):
                rep = verify_prinz(module0, module1, k, p)
                assert rep.hypotheses_met
                assert rep.output_valuation == 0


# -- reference oracles: the formulas the fast paths replaced ----------------


def reference_trace_gram(module):
    """psi(zeta^a e_i, zeta^b e_j) as the triple product, traced entry by entry."""
    field = module.field
    n, d = module.rank, field.degree
    rows = []
    for a in range(d):
        za_bar = field.zeta_power(a).conj()
        for i in range(n):
            rows.append(tuple(
                trace_LQ(za_bar * module.gram[i][j] * field.zeta_power(b))
                for b in range(d)
                for j in range(n)
            ))
    return TraceGram(field, n, tuple(rows))


def reference_valuation(gram, p):
    """v_p of the exact determinant, with no residue shortcut."""
    if math.gcd(p, gram.field.m) != 1:
        raise RamifiedPrimeError(f"p={p} divides m={gram.field.m}")
    value = reference_rational_det(gram.matrix)
    if value == 0:
        raise DegenerateForm("trace gram is degenerate over Q")
    return valuation(value.numerator, p) - valuation(value.denominator, p)


def valuation(value, p):
    v = 0
    while value % p == 0:
        value //= p
        v += 1
    return v


def rand_fraction_element(field, rng, dens):
    return field.element(
        [Fraction(rng.randint(-3, 3), rng.choice(dens)) for _ in range(field.degree)]
    )


def rand_fraction_skew(field, n, rng, dens):
    """Skew-Hermitian gram whose coordinates have denominators drawn from dens."""
    gram = [[field.zero] * n for _ in range(n)]
    for a in range(n):
        x = rand_fraction_element(field, rng, dens)
        gram[a][a] = x - x.conj()
        for b in range(a + 1, n):
            y = rand_fraction_element(field, rng, dens)
            gram[a][b] = y
            gram[b][a] = -y.conj()
    return gram


def scaled(field, gram, c):
    factor = field.from_rational(c)
    return [[factor * x for x in row] for row in gram]


def rank_one_skew(field, n, rng):
    """delta * u u^dagger with conj(delta) = -delta: skew-Hermitian of rank 1."""
    while True:
        x = rand_element(field, rng)
        delta = x - x.conj()
        if delta:
            break
    u = [rand_element(field, rng) for _ in range(n)]
    return [[delta * u[i] * u[j].conj() for j in range(n)] for i in range(n)]


UNRAMIFIED = {3: (5, 7, 11), 4: (3, 5, 7), 5: (3, 11, 2), 8: (3, 5, 7), 12: (5, 7, 11), 16: (3, 5, 7)}


def differential_cases(m, rng):
    """(label, gram) pairs covering integral, non-integral, p-scaled,
    p-in-denominator and degenerate grams over Q(zeta_m)."""
    F = cyclo_field(m)
    p = UNRAMIFIED[m][0]
    ranks = (1, 2) if F.degree >= 8 else (1, 2, 3)
    for n in ranks:
        yield "integral", rand_skew_hermitian(F, n, rng)
        yield "fraction", rand_fraction_skew(F, n, rng, (1, 2, 3, 5, 7, 9))
        yield "p | det", scaled(F, rand_skew_hermitian(F, n, rng), p)
        yield "p in a denominator", scaled(F, rand_fraction_skew(F, n, rng, (1, 2)), Fraction(1, p))
    yield "degenerate", rank_one_skew(F, 2, rng)
    yield "degenerate", [[F.zeta - F.zeta.conj(), F.zero], [F.zero, F.zero]]


@pytest.mark.parametrize("m", [3, 4, 5, 8, 12, 16])
def test_fast_paths_match_reference_oracles(m):
    rng = random.Random(1000 + m)
    F = cyclo_field(m)
    seen = set()
    for label, gram in differential_cases(m, rng):
        module = HermitianModule(F, gram)
        tg = trace_gram(module)
        assert tg.matrix == reference_trace_gram(module).matrix, label
        for p in UNRAMIFIED[m] + ((9,) if m % 3 else ()):
            try:
                expected = reference_valuation(tg, p)
            except DegenerateForm:
                with pytest.raises(DegenerateForm):
                    perfectness_valuation(tg, p)
                seen.add("degenerate")
                continue
            assert perfectness_valuation(tg, p) == expected, (label, p)
            seen.add("v_p > 0" if expected > 0 else "v_p < 0" if expected < 0 else "v_p = 0")
        if any(x.denominator > 1 for row in tg.matrix for x in row):
            seen.add("non-integral")
    assert seen == {"v_p = 0", "v_p > 0", "v_p < 0", "degenerate", "non-integral"}


def test_residue_zero_mod_p_falls_back_to_the_exact_valuation(F4):
    # det = 4 * 9: zero mod 3 with valuation 2, a unit mod 5
    tg = trace_gram(HermitianModule(F4, [[F4.from_rational(3) * F4.zeta]]))
    assert perfectness_valuation(tg, 3) == 2
    assert perfectness_valuation(tg, 5) == 0
    # composite p: the residue shortcut needs unit pivots, else the exact path
    assert perfectness_valuation(tg, 9) == 1
    assert perfectness_valuation(tg, 7 * 11) == 0


def norm(x):
    """N_{L/Q}(x) as the determinant of multiplication by x in the power basis."""
    F = x.field
    columns = [(x * F.zeta_power(j)).coords for j in range(F.degree)]
    return det([[columns[j][i] for j in range(F.degree)] for i in range(F.degree)])


@pytest.mark.parametrize("m", [3, 4, 5, 8, 12])
def test_valuation_matches_the_norm_of_det_psi(m):
    # for unramified p, v_p(det tr Psi) = v_p(N_{L/Q}(det Psi))
    rng = random.Random(2000 + m)
    F = cyclo_field(m)
    checked = set()
    for n in (1, 2, 3):
        for p in UNRAMIFIED[m]:
            for gram in (
                rand_skew_hermitian(F, n, rng),
                rand_fraction_skew(F, n, rng, (1, 2, 3, p)),
                scaled(F, rand_skew_hermitian(F, n, rng), p),
            ):
                det_psi = det(gram)
                if not det_psi:
                    continue
                N = norm(det_psi)
                expected = valuation(N.numerator, p) - valuation(N.denominator, p)
                module = HermitianModule(F, gram)
                assert perfectness_valuation(trace_gram(module), p) == expected
                checked.add(expected == 0)
    assert checked == {True, False}


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "prinz", "--trials", "40", "--seed", "11"),
        ("verify", "prinz", "--input", ALLPASS),
        ("spadesuit", "--input", ALLPASS),
    ],
)
def test_cli_bytes_match_the_reference_oracles(argv, capsys, monkeypatch):
    code = main(list(argv))
    fast = capsys.readouterr().out
    for owner in (pairings, instances):
        monkeypatch.setattr(owner, "trace_gram", reference_trace_gram)
        monkeypatch.setattr(owner, "perfectness_valuation", reference_valuation)
    assert main(list(argv)) == code
    assert capsys.readouterr().out == fast


# -- reference oracles: the Fraction determinant and the pure-Python certificate


def reference_rational_det(matrix):
    """Exact determinant by Gaussian elimination over Fractions."""
    rows = [[Fraction(x) for x in row] for row in matrix]
    n = len(rows)
    sign = 1
    result = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if rows[r][col]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            rows[col], rows[pivot] = rows[pivot], rows[col]
            sign = -sign
        p = rows[col][col]
        result *= p
        for r in range(col + 1, n):
            factor = rows[r][col] / p
            if factor:
                for c in range(col, n):
                    rows[r][c] -= factor * rows[col][c]
    return sign * result


def reference_unit_det_mod(matrix, p):
    """Elimination over Z/p in Python ints with unit pivots, entry by entry."""
    rows = []
    for row in matrix:
        reduced = []
        for x in map(Fraction, row):
            if math.gcd(x.denominator, p) != 1:
                return False
            reduced.append(x.numerator * pow(x.denominator, -1, p) % p)
        rows.append(reduced)
    while rows:
        pivot = next((r for r, row in enumerate(rows) if row[0] and math.gcd(row[0], p) == 1), None)
        if pivot is None:
            return False
        head = rows.pop(pivot)
        inv = pow(head[0], -1, p)
        tail = [y * inv % p for y in head[1:]]
        rows = [[(x - row[0] * y) % p for x, y in zip(row[1:], tail)] for row in rows]
    return True


def rand_matrix(rng, size, dens=(1,), bound=4):
    return [
        [Fraction(rng.randint(-bound, bound) if rng.random() > 0.3 else 0, rng.choice(dens))
         for _ in range(size)]
        for _ in range(size)
    ]


def determinant_cases(rng):
    """(label, matrix): empty, 1 x 1, integer, rational, large, singular and
    zero-leading-pivot matrices."""
    yield "0 x 0", []
    yield "1 x 1", [[Fraction(-7, 3)]]
    yield "1 x 1 zero", [[0]]
    yield "swap", [[0, 1, 2], [3, 4, 5], [6, 7, 9]]
    yield "swap twice", [[0, 0, 1], [0, 2, 0], [3, 0, 0]]
    for size in range(2, 8):
        yield "integer", rand_matrix(rng, size)
        yield "rational", rand_matrix(rng, size, (1, 2, 3, 9, 10))
        yield "large", rand_matrix(rng, size, (1, 7), bound=10**12)
        singular = rand_matrix(rng, size, (1, 3))
        singular[-1] = [2 * x - y for x, y in zip(singular[0], singular[1])]
        yield "singular", singular
        leading_zero = rand_matrix(rng, size, (1, 5))
        leading_zero[0][0] = 0
        yield "zero leading pivot", leading_zero
        zero_column = rand_matrix(rng, size)
        for row in zero_column:
            row[size // 2] = 0
        yield "zero column", zero_column


def test_bareiss_matches_the_gaussian_reference():
    rng = random.Random(5100)
    seen = set()
    for label, matrix in determinant_cases(rng):
        value = reference_rational_det(matrix)
        nums, den = _integer_matrix(matrix)
        assert _bareiss(nums) == value * den ** len(nums), label
        seen.add("zero" if value == 0 else "integer" if value.denominator == 1 else "fraction")
    assert seen == {"zero", "integer", "fraction"}
    assert _bareiss([]) == 1


@pytest.mark.parametrize("p", [2, 3, 5, 7, 9, 25, 2**31 - 1])
def test_certificate_matches_the_pure_python_reference(p):
    # p = 9 and 25 are local rings, where unit pivots decide the unit determinant
    rng = random.Random(5200 + p)
    outcomes = set()
    cases = list(determinant_cases(rng))
    for size in (12, 24):
        # det = 0 mod p but not 0: the last row is a combination of the two
        # rows above it plus p times a random row, so the residues must stay
        # exact through every elimination step
        matrix = rand_matrix(rng, size, bound=10**6)
        matrix[-1] = [2 * x - y + p * rng.randint(-9, 9) for x, y in zip(matrix[-3], matrix[-2])]
        cases += [("p | det", matrix), ("large", rand_matrix(rng, size, (1, 11), bound=10**6))]
    for label, matrix in cases:
        nums, den = _integer_matrix(matrix)
        certified = _unit_det_mod(nums, den, p)
        assert certified == reference_unit_det_mod(matrix, p), (label, p)
        value = reference_rational_det(matrix)
        if certified:
            assert math.gcd(value.numerator * value.denominator, p) == 1, (label, p)
        elif math.gcd(den, p) == 1 and value:
            # a p-unit determinant over a p-unit denominator is always certified
            assert math.gcd(value.numerator, p) != 1, (label, p)
        outcomes.add(certified)
    assert outcomes == {True, False}


def test_composite_p_never_pivots_on_a_non_unit():
    # mod 9: 3 and 6 are nonzero non-units and must be passed over
    assert _unit_det_mod(((3, 1), (1, 3)), 1, 9)  # det 8
    assert _unit_det_mod(((6, 1, 0), (3, 0, 1), (1, 0, 0)), 1, 9)  # det 1
    assert not _unit_det_mod(((3, 1), (6, 1)), 1, 9)  # det -3: no unit in column 0
    assert not _unit_det_mod(((3, 0), (0, 3)), 1, 9)
    tg = TraceGram(cyclo_field(4), 1, [[0, 3], [-3, 0]])  # det 9
    assert perfectness_valuation(tg, 9) == 1
    tg = TraceGram(cyclo_field(4), 1, [[0, 6], [-6, 0]])  # det 36
    assert perfectness_valuation(tg, 9) == 1


def count_exact_paths(monkeypatch):
    calls = []
    exact = pairings._bareiss
    monkeypatch.setattr(pairings, "_bareiss", lambda nums: calls.append(len(nums)) or exact(nums))
    return calls


def test_p_from_2_to_the_31_takes_the_exact_path(monkeypatch):
    F = cyclo_field(5)
    tg = trace_gram(HermitianModule(F, rand_skew_hermitian(F, 2, random.Random(5300))))
    expected = {p: reference_valuation(tg, p) for p in (2**31 - 1, 2**31 + 11, 2**61 - 1)}
    assert set(expected.values()) == {0}
    calls = count_exact_paths(monkeypatch)
    assert perfectness_valuation(tg, 2**31 - 1) == 0  # prime: certified in int64
    assert calls == []
    for p in (2**31 + 11, 2**61 - 1):  # primes with no int64 certificate
        assert not _unit_det_mod(tg.nums, tg.den, p)
        assert perfectness_valuation(tg, p) == 0
    assert calls == [8, 8]


def test_p_dividing_the_denominator_takes_the_exact_path(monkeypatch):
    F = cyclo_field(8)
    gram = scaled(F, rand_skew_hermitian(F, 2, random.Random(5400)), Fraction(1, 3))
    tg = trace_gram(HermitianModule(F, gram))
    assert tg.den % 3 == 0
    expected = reference_valuation(tg, 3)
    assert expected < 0
    calls = count_exact_paths(monkeypatch)
    assert not _unit_det_mod(tg.nums, tg.den, 3)
    assert perfectness_valuation(tg, 3) == expected
    assert calls == [8]
    assert _unit_det_mod(tg.nums, tg.den, 5) == reference_unit_det_mod(tg.matrix, 5)


def test_trace_gram_integers_and_rational_view():
    rng = random.Random(5500)
    F = cyclo_field(12)
    gram = rand_fraction_skew(F, 2, rng, (1, 2, 3, 5))
    tg = trace_gram(HermitianModule(F, gram))
    rows = tuple(tuple(row) for row in tg.matrix)
    # one least common denominator, in lowest terms
    assert tg.den == math.lcm(*(x.denominator for row in rows for x in row)) > 1
    assert math.gcd(tg.den, *(x for row in tg.nums for x in row)) == 1
    assert rows == tuple(tuple(Fraction(x, tg.den) for x in row) for row in tg.nums)
    assert tg.matrix == rows and rows == tg.matrix and tg.matrix == list(rows)
    assert tg.matrix != rows[:-1]
    assert tg.matrix[1:3] == rows[1:3] and tg.matrix[-1] == rows[-1]
    assert len(tg.matrix) == F.degree * 2
    rebuilt = TraceGram(F, 2, rows)
    assert (rebuilt.nums, rebuilt.den) == (tg.nums, tg.den)
    # (zeta - zeta^2) / 3 over Q(zeta_3) has an integral trace form
    F3 = cyclo_field(3)
    x = (F3.zeta - F3.zeta_power(2)) / 3
    tg = trace_gram(HermitianModule(F3, [[x]]))
    assert (tg.nums, tg.den) == (((0, -1), (1, 0)), 1)
    assert (TraceGram(F3, 1, tg.matrix).nums, TraceGram(F3, 1, tg.matrix).den) == (tg.nums, 1)
    with pytest.raises(ValueError, match="antisymmetric"):
        TraceGram(cyclo_field(4), 1, [[0, 1], [1, 0]])
    with pytest.raises(ValueError, match="antisymmetric"):
        TraceGram(cyclo_field(4), 1, [[1, 1], [-1, 0]])
    with pytest.raises(ValueError, match="wrong size"):
        TraceGram(cyclo_field(4), 2, [[0, 1], [-1, 0]])
