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

from pelwedge import cyclofield, exterior, instances, pairings
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
    _det_valuation,
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
    ((_, minors),) = exterior.compounds(psi1, [k])
    return tuple(tuple(factor * x for x in row) for row in minors)


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
    monkeypatch.setattr(pairings, "wedge_gram", elementwise_wedge)
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


@pytest.mark.parametrize("p", [2, 3, 5, 7, 2**31 - 1])
def test_det_valuation_matches_the_gaussian_reference(p):
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
    # pfaffian 3: column 0 has no unit, so a unit elsewhere is swapped in
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
    # p^e >= 2^31 runs the same elimination on Python ints
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


def recorded_dtypes(monkeypatch):
    """The dtype every array stage chooses, in call order."""
    chosen = []
    choose = cyclofield.exact_dtype
    monkeypatch.setattr(cyclofield, "exact_dtype", lambda bound: chosen.append(choose(bound)) or chosen[-1])
    return chosen


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
