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
    perfectness_valuation,
    rational_det,
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


def test_rational_det_examples():
    assert rational_det([[Fraction(0), Fraction(-2)], [Fraction(2), Fraction(0)]]) == 4
    assert rational_det([[Fraction(1, 2)]]) == Fraction(1, 2)
    assert rational_det([[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]]) == 0


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
    value = rational_det(gram.matrix)
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
