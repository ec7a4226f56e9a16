import json
import math
import pathlib
import random
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from levelwalk import block_compounds

from pelwedge import cli, cyclofield, instances, pairings
from pelwedge.cli import main
from pelwedge.cyclofield import (
    CycloMatrix,
    RamifiedPrimeError,
    _ramanujan_sum,
    cyclo_field,
    trace_LQ,
)
from pelwedge.exterior import compound, det, wedge_gram
from pelwedge.hodge import HermitianModule, binom
from pelwedge.instances import (
    rand_element,
    rand_perfect_pair,
    rand_skew_hermitian,
    rand_unimodular,
)
from pelwedge.pairings import (
    DegenerateForm,
    TraceGram,
    _block_inverse,
    _det_valuation,
    _det_valuation_mod,
    _elimination_plan,
    perfectness_valuation,
    trace_gram,
    verify_prinz,
)

FIXTURES = pathlib.Path(__file__).parent / "fixtures"
ALLPASS = str(FIXTURES / "allpass.pel")
# m=5, n=2, p=3 with Psi1 scaled by 3: input valuations (0, 8)
NONPERFECT = str(FIXTURES / "nonperfect.pel")


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


def test_perfectness_valuation_examples(F4):
    tg = trace_gram(HermitianModule(F4, [[F4.zeta]]))
    assert perfectness_valuation(tg, 5) == 0  # det = 4
    assert perfectness_valuation(tg, 3) == 0
    with pytest.raises(RamifiedPrimeError):
        perfectness_valuation(tg, 2)
    # p < 2 has no valuation
    for p in (1, 0, -1, -3):
        with pytest.raises(ValueError):
            perfectness_valuation(tg, p)


def test_composite_p_is_refused(F4):
    # elimination over Z/p^e needs a local ring with residue field Z/p
    tg = trace_gram(HermitianModule(F4, [[F4.zeta]]))
    # past 2^64 primality is not decided, so no p there is accepted
    for p in (9, 7 * 11, 2**64 + 13):
        with pytest.raises(ValueError, match="requires a prime p"):
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
            changed = B.conj_transpose() @ module1.gram @ B
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


def integer_matrix(matrix):
    """(nums, den) with matrix = nums / den and den the least common
    denominator of the entries."""
    rows = [[Fraction(x) for x in row] for row in matrix]
    den = math.lcm(*(x.denominator for row in rows for x in row))
    return tuple(tuple(x.numerator * (den // x.denominator) for x in row) for row in rows), den


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
    return TraceGram(field, n, *integer_matrix(rows))


def elementwise_wedge(psi0, psi1, k):
    """psi0^(1-k) times each minor, with the compound over CycloElements
    (`_laplace`) and one element product per entry."""
    factor = psi0 ** (1 - k)
    ((_, minors),) = block_compounds(psi1, [k])
    return tuple(tuple(factor * x for x in row) for row in minors)


def wedge_route_prinz(module0, module1, k, p, valuations=None):
    """`verify_prinz` through the wedge gram psi0^(1-k) Lambda^k Psi1 over
    CycloElements, which inverts psi0, with the inputs valued again."""
    field = module0.field
    v0, v1 = (pairings.perfectness_valuation(pairings.trace_gram(m), p) for m in (module0, module1))
    wedge = HermitianModule(field, elementwise_wedge(module0.gram[0][0], module1.gram, k))
    vk = pairings.perfectness_valuation(pairings.trace_gram(wedge), p)
    return pairings.PrinzReport(p, k, (v0, v1), vk, v0 == 0 and v1 == 0)


def elementwise_trace_gram(module):
    """The trace form from the CycloElement view, entry by entry: den *
    tr(zeta^s * Psi_ij) for every shift s from the Ramanujan sums, each
    Psi_ij over the least common denominator of the entries."""
    field = module.field
    n, d, m = module.rank, field.degree, field.m
    shift_rows = [[_ramanujan_sum(m, (t + s) % m) for s in range(1 - d, d)] for t in range(d)]
    den = math.lcm(*(x.den for row in module.gram for x in row))

    def shifted_traces(x):
        scale = den // x.den
        out = [0] * (2 * d - 1)
        for c, row in zip(x.num, shift_rows):
            out = [acc + c * scale * tr for acc, tr in zip(out, row)]
        return out

    shifted = [[shifted_traces(x) for x in row] for row in module.gram]
    rows = [
        tuple(shifted[i][j][b - a + d - 1] for b in range(d) for j in range(n))
        for a in range(d)
        for i in range(n)
    ]
    return TraceGram(field, n, tuple(rows), den)


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


def rational_valuation(x, p):
    x = Fraction(x)
    return valuation(x.numerator, p) - valuation(x.denominator, p)


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
        for p in UNRAMIFIED[m]:
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


def test_residue_zero_mod_p_is_decided_at_a_higher_precision(F4):
    # det = 4 * 9: zero mod 3 with valuation 2, a unit mod 5
    tg = trace_gram(HermitianModule(F4, [[F4.from_rational(3) * F4.zeta]]))
    assert perfectness_valuation(tg, 3) == 2
    assert perfectness_valuation(tg, 5) == 0


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
                expected = rational_valuation(norm(det_psi), p)
                module = HermitianModule(F, gram)
                assert perfectness_valuation(trace_gram(module), p) == expected
                checked.add(expected == 0)
    assert checked == {True, False}


def closed_form_valuation(psi0, psi1, k, p):
    """v_p of det tr(psi0^(1-k) Lambda^k Psi1) at p not dividing m, from
    det tr Psi = |d_L|^n N(det Psi) and det Lambda^k Psi1 =
    det(Psi1)^C(n-1, k-1), with no trace form: |d_L| is a p-unit, so
    v_k = (1-k) C(n, k) v_p(N(psi0)) + C(n-1, k-1) v_p(N(det Psi1))."""
    n = len(psi1)
    v0 = rational_valuation(norm(psi0), p)
    v1 = rational_valuation(norm(det(psi1)), p)
    return (1 - k) * binom(n, k) * v0 + binom(n - 1, k - 1) * v1


def closed_form_cases():
    """(label, psi0, Psi1, p): p-perfect pairs with Psi1 scaled by p or
    p^2/2 and psi0 by 1/p, over m = 5, 8, 12 and n <= 4."""
    rng = random.Random(2300)
    for m in (5, 8, 12):
        F = cyclo_field(m)
        p = UNRAMIFIED[m][0]
        for n in range(1, 5):
            module0, module1 = rand_perfect_pair(F, n, p, rng)
            psi0 = module0.gram[0][0]
            for c0, c1 in ((1, p), (Fraction(1, p), Fraction(p * p, 2)), (Fraction(1, p), 1)):
                label = f"m={m} n={n} psi0*{c0} Psi1*{c1}"
                yield label, F.from_rational(c0) * psi0, scaled(F, module1.gram, c1), p


def prinz_report(psi0, psi1, k, p):
    F = psi0.field
    return verify_prinz(HermitianModule(F, [[psi0]]), HermitianModule(F, psi1), k, p)


def test_output_valuation_matches_the_closed_form():
    seen = set()
    for label, psi0, psi1, p in closed_form_cases():
        for k in range(len(psi1) + 1):
            expected = closed_form_valuation(psi0, psi1, k, p)
            rep = prinz_report(psi0, psi1, k, p)
            assert rep.output_valuation == expected, (label, k)
            assert rep.input_valuations == (
                closed_form_valuation(psi0, psi1, 0, p),
                closed_form_valuation(psi0, psi1, 1, p),
            ), label
            seen.add("v_k > 0" if expected > 0 else "v_k < 0" if expected < 0 else "v_k = 0")
    assert seen == {"v_k > 0", "v_k < 0", "v_k = 0"}


def test_output_valuation_matches_the_closed_form_at_140_rows():
    F = cyclo_field(8)
    module0, module1 = rand_perfect_pair(F, 7, 3, random.Random(2400))
    psi0 = F.from_rational(Fraction(1, 3)) * module0.gram[0][0]
    psi1 = scaled(F, module1.gram, 3)
    rep = prinz_report(psi0, psi1, 3, 3)
    # v_0 = -phi(8) = -4 and v_1 = 7 * 4 = 28
    assert rep.output_valuation == closed_form_valuation(psi0, psi1, 3, 3) == 2 * 35 * 4 + 15 * 28


def test_a_280_row_non_perfect_input_is_valued_in_seconds(tmp_path, capsys, F8):
    # Psi1 scaled by 3 at m=8, n=8, k=4: a 280 x 280 wedge trace form, on
    # which an exact determinant over Z takes minutes
    module0, module1 = rand_perfect_pair(F8, 8, 3, random.Random(160))
    psi0, psi1 = module0.gram[0][0], scaled(F8, module1.gram, 3)

    def coeffs(x):
        return [str(c) for c in x.coords]

    path = tmp_path / "nonperfect-280.pel"
    path.write_text(json.dumps({
        "m": 8, "n": 8, "phi0": [1, 3], "phin": [1, 5], "p": 3, "l": 3,
        "gram0": [[coeffs(psi0)]],
        "gram1": [[coeffs(x) for x in row] for row in psi1],
    }))
    start = time.perf_counter()
    code = main(["verify", "prinz", "--input", str(path), "--k", "4"])
    elapsed = time.perf_counter() - start
    records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    (record,) = [r["record"] for r in records if "record" in r]
    assert code == 2
    assert record["status"] == "vacuous"
    assert record["input_valuations"] == [0, 32]
    assert record["output_valuation"] == closed_form_valuation(psi0, psi1, 4, 3) == 35 * 32
    assert elapsed < 20, elapsed


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "prinz", "--trials", "40", "--seed", "11"),
        ("verify", "prinz", "--input", ALLPASS),
        ("verify", "prinz", "--input", NONPERFECT),
        ("spadesuit", "--input", ALLPASS),
    ],
)
def test_cli_bytes_match_the_reference_oracles(argv, capsys, monkeypatch):
    code = main(list(argv))
    fast = capsys.readouterr().out
    monkeypatch.setattr(cli, "verify_prinz", wedge_route_prinz)
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


def rand_alternating(rng, size, dens=(1,), bound=4):
    """B - B^T for a random B."""
    b = rand_matrix(rng, size, dens, bound)
    return [[x - y for x, y in zip(row, column)] for row, column in zip(b, zip(*b))]


def with_last_column(a, s):
    """S^T a S for an alternating a, with S the identity but for its last
    column s: a with a s as its last column and -(a s)^T as its last row."""
    column = [sum(x * y for x, y in zip(row, s)) for row in a]
    out = [list(row) for row in a]
    for i, x in enumerate(column):
        out[i][-1], out[-1][i] = x, -x
    out[-1][-1] = 0
    return out


def scaled_rows(a, rows, c):
    """D a D with D = diag(c at `rows`, 1 elsewhere)."""
    scale = [c if i in rows else 1 for i in range(len(a))]
    return [[scale[i] * x * scale[j] for j, x in enumerate(row)] for i, row in enumerate(a)]


def determinant_cases(rng, p):
    """(label, matrix): alternating matrices, empty, 1 x 1 and 2 x 2, and
    of every size from 2 to 7 (an odd size is singular) integer, rational,
    large, singular, with no unit in their first row or first two rows mod
    p, with a zero leading pivot and with a zero column."""
    yield "0 x 0", []
    yield "1 x 1", [[0]]
    yield "2 x 2", [[0, Fraction(-7, 3)], [Fraction(7, 3), 0]]
    for size in range(2, 8):
        yield "integer", rand_alternating(rng, size)
        yield "rational", rand_alternating(rng, size, (1, 2, 3, 9, 10))
        yield "large", rand_alternating(rng, size, (1, 7), bound=10**12)
        # the last basis vector becomes 2 e_0: the last row and column are
        # twice the first
        singular = rand_alternating(rng, size, (1, 3))
        yield "singular", with_last_column(singular, [2] + [0] * (size - 1))
        # row 0 is 0 mod p, so the pivot is the first unit further down,
        # swapped in by rows and columns
        yield "row without a unit", scaled_rows(rand_alternating(rng, size, (1, 5)), {0}, p)
        yield "two rows without a unit", scaled_rows(rand_alternating(rng, size), {0, 1}, p)
        leading_zero = rand_alternating(rng, size, (1, 5))
        leading_zero[0][1] = leading_zero[1][0] = 0
        yield "zero leading pivot", leading_zero
        zero_column = rand_alternating(rng, size)
        for row in zero_column:
            row[size // 2] = 0
        zero_column[size // 2] = [0] * size
        yield "zero column", zero_column


@pytest.mark.parametrize("p", [2, 3, 5, 7, 2**31 - 1])
def test_det_valuation_matches_the_gaussian_reference(p):
    rng = random.Random(5200 + p)
    outcomes = set()
    cases = list(determinant_cases(rng, p))
    for size in (12, 24):
        # det = 0 mod p but not 0: the last row and column are combinations
        # of the two before them plus p times a random combination, so the
        # residues must stay exact through every elimination step
        matrix = rand_alternating(rng, size, bound=10**6)
        s = [p * rng.randint(-9, 9) for _ in range(size - 1)] + [p * rng.choice((-2, -1, 1, 2))]
        s[-3] += 2
        s[-2] -= 1
        cases += [
            ("p | det", with_last_column(matrix, s)),
            ("large", rand_alternating(rng, size, (1, 11), bound=10**6)),
        ]
    for label, matrix in cases:
        nums, den = integer_matrix(matrix)
        value = reference_rational_det(matrix)
        if value == 0:
            with pytest.raises(DegenerateForm):
                _det_valuation(nums, p)
            outcomes.add("degenerate")
            continue
        got = _det_valuation(nums, p) - len(nums) * valuation(den, p)
        assert got == rational_valuation(value, p), (label, p)
        if math.gcd(den, p) == 1:
            # over a p-unit denominator, valuation 0 is a unit residue mod p
            assert (got == 0) == reference_unit_det_mod(matrix, p), (label, p)
        outcomes.add("v_p > 0" if got > 0 else "v_p < 0" if got < 0 else "v_p = 0")
    assert {"degenerate", "v_p = 0", "v_p > 0"} <= outcomes


@pytest.mark.parametrize("matrix", [
    [[-7]],
    [[0, 1, 2], [3, 4, 5], [6, 7, 9]],
    [[0, 1], [1, 0]],
    [[1, 1], [-1, 0]],
    [[0, 1, 0], [-1, 0, 2], [0, 2, 0]],
])
def test_a_matrix_that_is_not_alternating_is_refused(matrix):
    with pytest.raises(ValueError, match="alternating"):
        _det_valuation(matrix, 3)


def recorded_precisions(monkeypatch):
    """The exponents e of every elimination over Z/p^e, in call order."""
    calls = []
    eliminate = pairings._det_valuation_mod
    monkeypatch.setattr(
        pairings, "_det_valuation_mod",
        lambda nums, p, e: calls.append(e) or eliminate(nums, p, e),
    )
    return calls


def test_the_elimination_swaps_divides_restarts_and_gives_up(monkeypatch):
    calls = recorded_precisions(monkeypatch)
    assert _det_valuation(((0, 1), (-1, 0)), 3) == 0
    assert calls == [1]
    # det 81: mod 3 and mod 9 the precision runs out; mod 81 it divides twice
    calls.clear()
    assert _det_valuation(((0, 9), (-9, 0)), 3) == 4
    assert calls == [1, 2, 4]
    # pfaffian 3: row 0 has no unit, so the unit at (1, 2) is swapped in
    calls.clear()
    swap = ((0, 3, 0, 0), (-3, 0, 1, 0), (0, -1, 0, 1), (0, 0, -1, 0))
    assert _det_valuation(swap, 3) == 2
    assert calls == [1, 2]
    # pfaffian 1*2 - 1*2 + 0*5 = 0, Hadamard bound 2*30*30*8 = 14400 < 3^10:
    # the last step runs at e_H = 5, not at the doubled e = 8
    calls.clear()
    singular = ((0, 1, 1, 0), (-1, 0, 5, 2), (-1, -5, 0, 2), (0, -2, -2, 0))
    with pytest.raises(DegenerateForm):
        _det_valuation(singular, 3)
    assert calls == [1, 2, 4, 5]
    # a zero row bounds det by 0: no restart
    calls.clear()
    with pytest.raises(DegenerateForm):
        _det_valuation(((0, 0), (0, 0)), 5)
    assert calls == [1]


def hadamard_exponent(nums, p):
    """The least e with p^(2e) above the product of the squared row norms."""
    bound = math.prod(sum(x * x for x in row) for row in nums)
    e = 0
    while p ** (2 * e) <= bound:
        e += 1
    return e


def test_the_precision_stops_at_the_hadamard_exponent(monkeypatch, capsys):
    seen = []
    eliminate = pairings._det_valuation_mod
    monkeypatch.setattr(
        pairings, "_det_valuation_mod",
        lambda nums, p, e: seen.append((nums.tolist(), p, e)) or eliminate(nums, p, e),
    )
    # S^T a S with a antisymmetric of size 14 and S of size 14 x 16: a
    # degenerate 16-row form with entries of about 23 bits
    rng = random.Random(5700)
    a = [[0] * 14 for _ in range(14)]
    for i in range(14):
        for j in range(i + 1, 14):
            a[i][j] = rng.randint(-2**12, 2**12)
            a[j][i] = -a[i][j]
    s = [[rng.randint(-3, 3) for _ in range(16)] for _ in range(14)]
    form = [[sum(s[r][i] * a[r][c] * s[c][j] for r in range(14) for c in range(14))
             for j in range(16)] for i in range(16)]
    e_h = hadamard_exponent(form, 3)
    with pytest.raises(DegenerateForm):
        _det_valuation(form, 3)
    precisions = [e for *_, e in seen]
    # doubling up to e_H, and the last step at e_H where doubling overshoots
    assert precisions == [2**i for i in range(len(precisions) - 1)] + [e_h]
    assert precisions[-2] < e_h < 2 * precisions[-2]
    # a form with p | det restarts, never past its own e_H, and the verdicts
    # on the fixture stay those it has always had
    seen.clear()
    assert main(["verify", "prinz", "--input", NONPERFECT]) == 2
    records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert [
        (r["k"], r["input_valuations"], r["output_valuation"], r["status"])
        for r in (line["record"] for line in records if "record" in line)
    ] == [(0, [0, 8], 0, "vacuous"), (1, [0, 8], 8, "vacuous"), (2, [0, 8], 8, "vacuous")]
    assert max(e for *_, e in seen) > 1
    assert all(e <= hadamard_exponent(nums, p) for nums, p, e in seen)


PROPERTY_PRIMES = (2, 3, 5, 2**31 - 1, 2**61 - 1)


@st.composite
def scaled_antisymmetric(draw):
    """(p, nums, den): an antisymmetric integer matrix of even size <= 10,
    made singular by a congruence when drawn so, then scaled by
    D = diag(p^a_i) on both sides, over a denominator 1 or p."""
    p = draw(st.sampled_from(PROPERTY_PRIMES))
    size = 2 * draw(st.integers(1, 5))
    upper = iter(draw(st.lists(st.integers(-3, 3), min_size=size * size, max_size=size * size)))
    a = [[0] * size for _ in range(size)]
    for i in range(size):
        for j in range(i + 1, size):
            a[i][j] = next(upper)
            a[j][i] = -a[i][j]
    if draw(st.booleans()):
        # S^T a S with column k of S a combination of the other unit vectors
        k = draw(st.integers(0, size - 1))
        s = [[int(i == j) for j in range(size)] for i in range(size)]
        for i in range(size):
            s[i][k] = 0 if i == k else next(upper)
        a = [[sum(s[r][i] * a[r][c] * s[c][j] for r in range(size) for c in range(size))
              for j in range(size)] for i in range(size)]
    scale = [p ** draw(st.integers(0, 3)) for _ in range(size)]
    nums = tuple(tuple(scale[i] * x * scale[j] for j, x in enumerate(row)) for i, row in enumerate(a))
    return p, nums, draw(st.sampled_from((1, p)))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(scaled_antisymmetric())
@example((3, ((0, 9), (-9, 0)), 1))
@example((2, ((0, 0), (0, 0)), 2))
@example((2**61 - 1, ((0, 2**61 - 1), (1 - 2**61, 0)), 1))
def test_perfectness_valuation_is_the_valuation_of_the_determinant(case):
    p, nums, den = case
    # Q(zeta_3) and Q(i) have degree 2 and are unramified at every other prime
    tg = TraceGram(cyclo_field(4 if p == 3 else 3), len(nums) // 2, nums, den)
    value = reference_rational_det(tg.matrix)
    if value == 0:
        with pytest.raises(DegenerateForm):
            perfectness_valuation(tg, p)
    else:
        assert perfectness_valuation(tg, p) == rational_valuation(value, p)


def test_primes_from_2_to_the_31_match_the_reference():
    # an update adds less than p^(2e) to an entry, so p^e >= 2^31 runs the
    # same elimination on Python ints: 2^31 - 1 runs e = 1 in int64 and
    # e >= 2 on Python ints, 2^31 + 11 and 2^61 - 1 every e on Python ints
    F = cyclo_field(5)
    gram = rand_skew_hermitian(F, 2, random.Random(5300))
    for p in (2**31 - 1, 2**31 + 11, 2**61 - 1):
        got = []
        for c in (1, p, Fraction(1, p)):
            tg = trace_gram(HermitianModule(F, scaled(F, gram, c)))
            got.append(perfectness_valuation(tg, p))
            assert got[-1] == reference_valuation(tg, p), (p, c)
        assert got == [0, 8, -8], p


def test_p_dividing_the_denominator_matches_the_reference():
    F = cyclo_field(8)
    gram = scaled(F, rand_skew_hermitian(F, 2, random.Random(5400)), Fraction(1, 3))
    tg = trace_gram(HermitianModule(F, gram))
    assert tg.den % 3 == 0
    expected = reference_valuation(tg, 3)
    assert expected < 0
    assert perfectness_valuation(tg, 3) == expected
    assert (perfectness_valuation(tg, 5) == 0) == reference_unit_det_mod(tg.matrix, 5)


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
    # the constructor reduces to lowest terms
    rebuilt = TraceGram(F, 2, tg.nums * 6, tg.den * 6)
    assert (rebuilt.nums.tolist(), rebuilt.den) == (tg.nums.tolist(), tg.den)
    assert rebuilt.matrix == rows
    # (zeta - zeta^2) / 3 over Q(zeta_3) has an integral trace form
    F3 = cyclo_field(3)
    x = (F3.zeta - F3.zeta_power(2)) / 3
    tg = trace_gram(HermitianModule(F3, [[x]]))
    assert (tg.nums.tolist(), tg.den) == ([[0, -1], [1, 0]], 1)
    rebuilt = TraceGram(F3, 1, *integer_matrix(tg.matrix))
    assert (rebuilt.nums.tolist(), rebuilt.den) == (tg.nums.tolist(), 1)
    with pytest.raises(ValueError, match="antisymmetric"):
        TraceGram(cyclo_field(4), 1, [[0, 1], [1, 0]], 1)
    with pytest.raises(ValueError, match="antisymmetric"):
        TraceGram(cyclo_field(4), 1, [[1, 1], [-1, 0]], 2)
    with pytest.raises(ValueError, match="wrong size"):
        TraceGram(cyclo_field(4), 2, [[0, 1], [-1, 0]], 1)


# -- the array path against the element oracles ------------------------------

# m = 105 is the only conductor below 120 whose power table has an entry of
# absolute value 2
ARRAY_CONDUCTORS = (3, 4, 5, 8, 12, 16, 105)


@st.composite
def rational_gram_pairs(draw):
    """(psi0, psi1): a nonzero totally imaginary psi0 and a skew-Hermitian
    psi1 of rank <= 4 (<= 2 at m = 105), coordinates over denominators
    drawn from one of three sets."""
    m = draw(st.sampled_from(ARRAY_CONDUCTORS))
    field = cyclo_field(m)
    n = draw(st.integers(1, 2 if m == 105 else 4))
    dens = draw(st.sampled_from(((1,), (1, 2, 3), (1, 5, 7, 9))))
    rng = random.Random(draw(st.integers(0, 2**32)))
    psi0 = field.zero
    while not psi0:
        x = rand_fraction_element(field, rng, dens)
        psi0 = x - x.conj()
    return psi0, rand_fraction_skew(field, n, rng, dens)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(rational_gram_pairs())
def test_array_wedge_and_trace_form_match_the_element_oracles(case):
    psi0, psi1 = case
    field = psi0.field
    for k in range(len(psi1) + 1):
        wedge = wedge_gram(psi0, psi1, k)
        assert wedge == elementwise_wedge(psi0, psi1, k), (field.m, k)
        module = HermitianModule(field, wedge)
        got, want = trace_gram(module), elementwise_trace_gram(module)
        assert (got.nums.tolist(), got.den) == (want.nums.tolist(), want.den), (field.m, k)


def recorded_dtypes(monkeypatch, module=cyclofield):
    """The dtype every array stage of `module` chooses, in call order."""
    chosen = []
    choose = cyclofield.exact_dtype
    monkeypatch.setattr(module, "exact_dtype", lambda bound: chosen.append(choose(bound)) or chosen[-1])
    return chosen


def worst_case_growth(p, steps):
    """An alternating matrix of size 2 * steps + 4 whose first `steps`
    pivots [[0, 1], [-1, 0]] each add (q - 1)^2 to the entry (i, j) =
    (2 steps, 2 steps + 2), the most one update can add mod q = p: the
    residue -1 of every pivot column meets there, and every other product
    is 0.  That entry starts at -steps - p, so it ends at -p, and with
    a[i + 1, j + 1] = 1 the pfaffian is p, det = p^2."""
    size = 2 * steps + 4
    i, j = size - 4, size - 2
    a = [[0] * size for _ in range(size)]
    for k in range(steps):
        a[2 * k][2 * k + 1] = 1
        a[2 * k][j] = a[2 * k + 1][i] = 1
    a[i][j] = -steps - p
    a[i + 1][j + 1] = 1
    for r in range(size):
        for c in range(r):
            a[r][c] = -a[c][r]
    return a


@pytest.mark.parametrize("p, dtypes", [(2**31 - 1, [np.int64, object]), (2**31 + 11, [object, object])])
def test_moduli_either_side_of_the_int64_bound_match_the_reference(monkeypatch, p, dtypes):
    # each update adds less than q^2 to an entry and the block is reduced
    # once its entries may reach 2^62, so entries stay below 2^62 + q^2:
    # int64 while q < 2^31.  Mod 2^31 - 1 the worst case below reaches
    # (q - 3) + 2 (q - 1)^2, about 2^63 - 2^34, before its reduction
    matrix = worst_case_growth(p, 3)
    chosen = recorded_dtypes(monkeypatch, pairings)
    assert _det_valuation(matrix, p) == rational_valuation(reference_rational_det(matrix), p) == 2
    # e = 1 meets a block that p divides throughout, and e = 2 decides it
    assert chosen == dtypes
    form = rand_alternating(random.Random(5900), 12, bound=10**6)
    chosen.clear()
    assert _det_valuation(form, p) == rational_valuation(reference_rational_det(form), p)
    assert chosen[0] is dtypes[0]


def test_large_entries_run_on_python_ints_and_agree_with_int64(monkeypatch):
    field = cyclo_field(16)
    gram = CycloMatrix.of(field, rand_skew_hermitian(field, 5, random.Random(5800)))
    scale = 2**40
    chosen = recorded_dtypes(monkeypatch)
    small = compound(gram, 3)
    small_form = trace_gram(HermitianModule(field, gram))
    assert set(chosen) == {np.int64}
    chosen.clear()
    big = compound(CycloMatrix(field, gram.nums * scale), 3)
    # level 1 still fits int64; level 2 reaches about 2^80
    assert chosen[0] is np.int64 and object in chosen
    assert big.nums.dtype == object and big.den == small.den == 1
    assert np.array_equal(big.nums, small.nums.astype(object) * scale**3)
    # skew check and trace form: 2^62 times the entries passes 2^63
    chosen.clear()
    big_form = trace_gram(HermitianModule(field, CycloMatrix(field, gram.nums.astype(object) * 2**62)))
    assert chosen == [object, object]
    assert big_form.nums.dtype == object
    assert np.array_equal(big_form.nums, small_form.nums.astype(object) * 2**62)
    # -2^63 fits int64, but its absolute value does not
    assert cyclofield.magnitude(cyclofield.integer_array([[-2**63, 1]])) == 2**63


def test_a_minor_just_past_2_to_the_63_is_exact(monkeypatch):
    # over Q(i), with a = d = M(1 + i) and b = -c = M(1 + i), det = 4M^2 i,
    # the bound 2 * 2 * M^2 met with equality, and 4M^2 > 2^63 > 2M^2
    field = cyclo_field(4)
    M = 1518500250
    x = field.element([M, M])
    chosen = recorded_dtypes(monkeypatch)
    minor = compound(CycloMatrix.of(field, [[x, x], [-x, x]]), 2)
    assert chosen == [np.int64, object]
    assert minor.nums.tolist() == [[[0, 4 * M * M]]] and 4 * M * M > 2**63


def test_the_560_row_bound_runs_in_int64(monkeypatch):
    # m=16, n=8, k=4: C(8, 4) * phi(16) = 560 rows, the bound of random `verify prinz`
    field = cyclo_field(16)
    module0, module1 = rand_perfect_pair(field, 8, 3, random.Random(16))
    chosen = recorded_dtypes(monkeypatch)
    wedge = wedge_gram(module0.gram[0][0], module1.gram, 4)
    form = trace_gram(HermitianModule(field, wedge))
    assert len(chosen) == 4 + 1 + 1 + 1  # four levels, the scaling, skew check, trace
    assert set(chosen) == {np.int64}
    assert wedge.nums.dtype == form.nums.dtype == np.int64
    assert len(form.matrix) == 560
    assert wedge == elementwise_wedge(module0.gram[0][0], module1.gram, 4)
    assert perfectness_valuation(form, 3) == 0


# -- the inverse-free wedge against the wedge gram ----------------------------


def test_output_valuation_matches_the_wedge_gram_route():
    # W' = psi0^(k-1) Lambda^k Psi1 shifted by (2 - 2k) C(n, k) v0, against
    # the trace form of the wedge gram psi0^(1-k) Lambda^k Psi1 itself
    rng = random.Random(2500)
    seen = set()
    for m in (5, 8, 12, 16):
        F = cyclo_field(m)
        p = UNRAMIFIED[m][0]
        for n in range(1, 5):
            perfect0, module1 = rand_perfect_pair(F, n, p, rng)
            for c0 in (1, Fraction(1, p), p):
                psi0 = F.from_rational(c0) * perfect0.gram[0][0]
                module0 = HermitianModule(F, [[psi0]])
                for k in range(n + 1):
                    wedge = HermitianModule(F, wedge_gram(psi0, module1.gram, k))
                    expected = perfectness_valuation(trace_gram(wedge), p)
                    report = verify_prinz(module0, module1, k, p)
                    assert report.output_valuation == expected, (m, n, c0, k)
                    seen.add((k == 0, expected > 0, expected < 0))
    assert len(seen) >= 4


def test_the_m281_trial_inverts_no_field_element(capsys, monkeypatch):
    # at k = 2 the wedge gram of an n=2 pair at m=281 is psi0^-1 det Psi1,
    # and inverting psi0 (phi = 280) took about 3 s
    def refuse(*args):
        raise AssertionError("psi0 inverted")

    monkeypatch.setattr(cyclofield.CycloElement, "inverse", refuse)
    start = time.perf_counter()
    code = main(["verify", "prinz", "--m", "281", "--n", "2", "--trials", "1", "--seed", "3"])
    elapsed = time.perf_counter() - start
    records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    (record,) = [r["record"] for r in records if "record" in r]
    assert code == 0
    assert (record["k"], record["output_valuation"], record["status"]) == (2, 0, "pass")
    assert elapsed < 2, elapsed


def counted_valuations(monkeypatch):
    """The number of `perfectness_valuation` calls made through pairings."""
    calls = []
    value = pairings.perfectness_valuation
    monkeypatch.setattr(
        pairings, "perfectness_valuation", lambda gram, p: calls.append(p) or value(gram, p)
    )
    return calls


@pytest.mark.parametrize("argv, calls", [
    # v0 and v1 once, then one wedge form per k
    (("--input", ALLPASS), 2 + 3),
    (("--input", ALLPASS, "--k", "1"), 2 + 1),
    (("--input", NONPERFECT), 2 + 3),
    # a random trial values its own pair with each record
    (("--trials", "2", "--m", "8", "--n", "3", "--seed", "4"), 2 * 3),
])
def test_the_inputs_are_valued_once_per_pel(capsys, monkeypatch, argv, calls):
    counted = counted_valuations(monkeypatch)
    main(["verify", "prinz", *argv])
    assert len(counted) == calls


# -- delayed updates against the 2 x 2 loop ----------------------------------


def reference_det_valuation_mod(nums, p, e):
    """The elimination over Z/p^e with every rank-2 update applied at its
    pivot, in int64 while p^e < 2^31 and on Python ints above that: the
    loop the delayed updates replaced."""
    q = p**e
    if cyclofield.exact_dtype(2**62 + q * q) is np.int64:
        a = (nums % q).astype(np.int64, copy=False)
    else:
        a = nums.astype(object) % q
    v = 0
    bound = q
    while len(a):
        units = np.flatnonzero(a[0] % p)
        if units.size:
            r, s = 0, int(units[0])
        else:
            units = np.flatnonzero(a % p)
            if not units.size:
                if q == p:
                    return None
                a %= q
                a //= p
                q //= p
                bound = q
                v += len(a)
                continue
            r, s = divmod(int(units[0]), len(a))
        for i, j in ((0, r), (1, s)):
            if i != j:
                a[[i, j]] = a[[j, i]]
                a[:, [i, j]] = a[:, [j, i]]
        y = a[2:, 0] % q * pow(int(a[0, 1]) % q, -1, q) % q
        t = np.outer(a[2:, 1] % q, y)
        t -= t.T
        a = a[2:, 2:]
        a += t
        bound += q * q
        if bound >= 2**62:
            a %= q
            bound = q
    return v


BLOCKED_ROWS = pairings._BLOCKED_ROWS
# the rows eliminated between two updates of a blocked elimination
FLUSH_ROWS = 2 * pairings._BLOCKED_PAIRS


def random_alternating(rng, size, bound=10**6):
    """B - B^T for B with entries uniform in [-bound, bound], from a numpy
    Generator."""
    b = rng.integers(-bound, bound, (size, size), endpoint=True)
    return b - b.T


def congruent_alternating(rng, pivots):
    """M D M^T with D block diagonal of the pivots [[0, d], [-d, 0]], d in
    `pivots`, and M lower unitriangular with entries in [-1, 1] below the
    diagonal: det = prod d^2.  While the d are units, each pivot is the
    next pair in row order and leaves the block M' D' M'^T of the rest, so
    the block's first row is p times an integer row where d is, and the
    whole block is where every d left is."""
    size = 2 * len(pivots)
    m = np.tril(rng.integers(-1, 1, (size, size), endpoint=True), -1) + np.eye(size, dtype=np.int64)
    md = np.zeros((size, size), dtype=object)
    for j, x in enumerate(pivots):
        md[:, 2 * j], md[:, 2 * j + 1] = -x * m[:, 2 * j + 1], x * m[:, 2 * j]
    if size * max(map(abs, pivots)) < 2**53:
        # every partial sum of the product is an integer below 2^53
        return (md.astype(np.float64) @ m.T.astype(np.float64)).astype(np.int64)
    return md @ m.T.astype(object)


def congruent_blocks(rng, block, size):
    """M B M^T with B block diagonal of copies of the 4 x 4 `block` (and a
    last pivot [[0, 1], [-1, 0]] when 4 does not divide size), M lower
    unitriangular with entries in [-1, 1]: every 4-row step that starts on
    a block boundary meets a leading block congruent to `block`."""
    b = np.zeros((size, size), dtype=np.int64)
    for i in range(0, size - 3, 4):
        b[i : i + 4, i : i + 4] = block
    if size % 4:
        b[-2, -1], b[-1, -2] = 1, -1
    m = np.tril(rng.integers(-1, 1, (size, size), endpoint=True), -1) + np.eye(size, dtype=np.int64)
    return m @ b @ m.T


def alternating_block(a01, a02, a03, a12, a13, a23):
    return np.array([[0, a01, a02, a03], [-a01, 0, a12, a13],
                     [-a02, -a12, 0, a23], [-a03, -a13, -a23, 0]], dtype=np.int64)


def elimination_cases(rng, p, size):
    """(label, matrix) of one even size: random, with p dividing some rows,
    congruent forms whose block p divides throughout, or whose first row
    has no unit, after pairs that are still pending, and congruent forms
    whose leading 4 x 4 blocks have a unit a01 but a Pfaffian 0 mod p (a
    2 x 2 pivot) or a01 = 0 mod p but a unit Pfaffian (a 4 x 4 pivot)."""
    yield "random", random_alternating(rng, size)
    scale = np.where(rng.random(size) < 0.3, p, 1)
    yield "rows times p", scale[:, None] * random_alternating(rng, size, 3) * scale
    if size >= 4:
        # Pf = a01 a23 - a02 a13 + a03 a12 = p - p + 0
        yield "unit a01, Pfaffian 0", congruent_blocks(rng, alternating_block(1, 1, 0, 2, p, p), size)
        # Pf = p * 1 - 1 * 1 + 0 = p - 1
        yield "a01 = 0, unit Pfaffian", congruent_blocks(rng, alternating_block(p, 1, 0, 2, 1, 1), size)
    pairs = size // 2
    if pairs < 2:
        return
    units = [int(x) for x in rng.choice((1, -1, 2) if p > 2 else (1, -1, 3), pairs)]
    # 1 .. b - 1 pairs, before the last pair, are pending when p first divides
    pending = 1 + (pairs - 2) % (FLUSH_ROWS // 2 - 1)
    tail = [p * u for u in units[pending:]]
    yield "p divides the block", congruent_alternating(rng, units[:pending] + tail)
    yield "no unit in the first row", congruent_alternating(
        rng, units[:pending] + [p * units[pending]] + units[pending + 1 :])
    tail[: len(tail) // 2] = [p * x for x in tail[: len(tail) // 2]]
    yield "two divisions", congruent_alternating(rng, units[:pending] + tail)


@pytest.mark.parametrize("p, e", [(2, 1), (2, 3), (3, 1), (3, 3)])
def test_the_block_inverse_inverts_random_4x4_blocks(p, e):
    rng = random.Random(6000 + 10 * p + e)
    q = p**e
    inverted = singular = 0
    for _ in range(200):
        upper = [rng.randrange(-2 * q, 2 * q) for _ in range(6)]
        a = alternating_block(*upper)
        m = _block_inverse(upper, p, q)
        a01, a02, a03, a12, a13, a23 = upper
        if (a01 * a23 - a02 * a13 + a03 * a12) % p == 0:
            assert m is None
            singular += 1
            continue
        m = np.array(m, dtype=np.int64)
        assert np.all(abs(m) < q)
        assert np.array_equal((a @ m) % q, np.eye(4, dtype=np.int64))
        assert np.array_equal(m.T, -m)
        inverted += 1
    assert inverted > 50 and singular > 10


@pytest.mark.parametrize("p", [2, 3, 5, 7, 13, 2**31 - 1])
def test_delayed_updates_match_the_2x2_loop(p):
    rng = np.random.default_rng(6100 + p % 1000)
    sizes = (2, 10, BLOCKED_ROWS - 2, BLOCKED_ROWS, BLOCKED_ROWS + 2,
             FLUSH_ROWS, FLUSH_ROWS + 2, 2 * FLUSH_ROWS + 2)
    outcomes = set()
    for size in sizes:
        cases = list(elimination_cases(rng, p, size))
        cases.append(("odd", random_alternating(rng, size + 1)))
        for e in (1, 2, 3, 8):
            if p**e >= 2**31 and size > (BLOCKED_ROWS + 2 if e == 2 else 10):
                continue  # b = 1 on Python ints: the same loop, and slow
            for label, matrix in cases:
                got = _det_valuation_mod(matrix, p, e)
                assert got == reference_det_valuation_mod(matrix, p, e), (label, size, e)
                outcomes.add("None" if got is None else "v > 0" if got else "v = 0")
    assert outcomes == {"None", "v > 0", "v = 0"}


@pytest.mark.parametrize("p, e", [(2, 1), (3, 3)])
def test_a_600_row_block_matches_the_2x2_loop(p, e):
    rng = np.random.default_rng(6200 + p)
    for label, matrix in elimination_cases(rng, p, 600):
        if label in ("rows times p", "no unit in the first row"):
            # rows that stay unit-free come back to the top, so every later
            # pivot searches the whole block, in both loops: 0.6 s each here
            continue
        assert _det_valuation_mod(matrix, p, e) == reference_det_valuation_mod(matrix, p, e), label


def test_the_plan_switches_at_the_float64_and_int64_bounds():
    b, rows = pairings._BLOCKED_PAIRS, BLOCKED_ROWS
    assert b > 1
    assert _elimination_plan(rows - 1, 3)[:2] == (1, np.int64)
    assert _elimination_plan(rows, 3) == (b, np.int64, np.float64)
    # the products of b pairs run in float64 while b q^2 < 2^53
    float_q = math.isqrt((2**53 - 1) // b)
    assert _elimination_plan(rows, float_q) == (b, np.int64, np.float64)
    assert _elimination_plan(rows, float_q + 1) == (b, np.int64, np.int64)
    # and the block in int64 while 2^62 + b q^2 < 2^63
    int_q = math.isqrt((2**62 - 1) // b)
    assert _elimination_plan(rows, int_q) == (b, np.int64, np.int64)
    assert _elimination_plan(rows, int_q + 1)[:2] == (1, np.int64)
    # b = 1 as before: int64 while q < 2^31
    assert _elimination_plan(rows, 2**31 - 1)[:2] == (1, np.int64)
    assert _elimination_plan(rows, 2**31)[:2] == (1, object)


@pytest.mark.parametrize("e, plan", [
    (23, ("b", np.int64, np.float64)),
    (24, ("b", np.int64, np.int64)),
    (28, ("b", np.int64, np.int64)),
    (29, (1, np.int64)),
    (30, (1, np.int64)),
    (31, (1, object)),
])
def test_moduli_either_side_of_the_panel_bounds_match_the_2x2_loop(e, plan):
    # 2^e either side of b q^2 = 2^53, of 2^62 + b q^2 = 2^63 and of q = 2^31,
    # on forms whose elimination divides by 2 after pending pairs
    rng = np.random.default_rng(6300 + e)
    size = FLUSH_ROWS + 2
    b = pairings._BLOCKED_PAIRS
    assert _elimination_plan(size, 2**e)[: len(plan)] == tuple(b if x == "b" else x for x in plan)
    for label, matrix in elimination_cases(rng, 2, size):
        for precision in (e, e + 1):
            got = _det_valuation_mod(matrix, 2, precision)
            assert got == reference_det_valuation_mod(matrix, 2, precision), (label, precision)


def test_a_degenerate_blocked_form_climbs_to_the_hadamard_exponent(monkeypatch):
    calls = recorded_precisions(monkeypatch)
    pivots = [1, 2, -1] * (BLOCKED_ROWS // 6) + [0, 1]
    form = congruent_alternating(np.random.default_rng(6400), pivots)
    assert len(form) >= BLOCKED_ROWS
    with pytest.raises(DegenerateForm):
        _det_valuation(form, 3)
    assert calls[-1] == hadamard_exponent(form.tolist(), 3) > 8
