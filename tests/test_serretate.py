import contextlib
import io
import json
import math
import random

import pytest
import sympy
from hypothesis import example, given
from hypothesis import strategies as st
from modint import ModInt
from rowmatrix import mat_mul

from pelwedge import exterior, serretate
from pelwedge.cli import main
from pelwedge.exterior import SparseRows, compound, removal_entries
from pelwedge.serretate import (
    assemble_block,
    contract,
    generators,
    verify_vdrei,
    verify_vzehn,
)


def test_modint_arithmetic():
    x = ModInt(7, 9)
    y = ModInt(5, 9)
    assert (x + y).value == 3
    assert (x * y).value == 8
    assert (x - y).value == 2
    assert (-x).value == 2
    assert x + 2 == ModInt(0, 9)
    assert 2 * x == ModInt(5, 9)
    assert 1 - x == ModInt(3, 9)
    assert bool(ModInt(9, 9)) is False
    with pytest.raises(ValueError):
        x + ModInt(1, 4)


def _row_block(c1, row):
    """The block [[c1, row], [0, E_b]] of a parameter row."""
    return assemble_block(c1, SparseRows.of((tuple(row),)))


def test_assemble_block_example():
    block = _row_block(5, (2, 3))
    assert block == (
        (5, 2, 3),
        (0, 1, 0),
        (0, 0, 1),
    )
    # the heights are read off the shape of C
    assert assemble_block(5, SparseRows.of(((2,), (3,)))) == (
        (5, 0, 2),
        (0, 5, 3),
        (0, 0, 1),
    )


def test_verify_vdrei_examples():
    assert verify_vdrei(3, [2])[2] is None
    witnesses = verify_vdrei(5, [3, 1, 5])
    assert witnesses == {1: None, 3: None, 5: None} and list(witnesses) == [1, 3, 5]
    assert verify_vdrei(1, [1])[1] is None
    assert verify_vdrei(4, []) == {}
    for k in (0, 4):
        with pytest.raises(ValueError):
            verify_vdrei(3, [k])


def test_contract_k1_is_row():
    out = contract((2, 3, 5), 1)
    assert out.shape == (1, 3)
    assert out == ((2, 3, 5),)


def test_contract_shape_and_entries():
    x, y = sympy.symbols("x y")
    out = contract((x, y), 2)
    # rows {1},{2}; col {1,2}; entries (-1)^(nu-1) phi_{i_nu}
    assert out == ((-y,), (x,))
    for k in (0, 4):
        with pytest.raises(ValueError):
            contract((x, y), k)


def test_contract_shape_law():
    for b in range(1, 7):
        row = sympy.symbols(f"x1:{b + 1}")
        for k in range(1, b + 2):
            assert contract(row, k).shape == (math.comb(b, k - 1), math.comb(b, k))


def test_verify_vzehn_symbolic():
    for b in range(1, 5):
        c1, *row = generators("c1", *(f"x{i}" for i in range(1, b + 1)))
        assert verify_vzehn(row, c1, range(1, b + 2)) == {k: True for k in range(1, b + 2)}
    with pytest.raises(ValueError):
        verify_vzehn(row, c1, [b + 2])


def test_verify_vzehn_modint():
    rng = random.Random(15)
    modulus = 3 ** 4
    for b in (2, 3):
        row = tuple(ModInt(rng.randrange(modulus), modulus) for _ in range(b))
        c1 = ModInt(1 + 3 * rng.randrange(27), modulus)
        assert all(verify_vzehn(row, c1, range(1, b + 2)).values())


def test_cocycle_additivity_unipotent():
    # with c1 = 1 the assembled blocks are unipotent and the parameter
    # rows add under multiplication; the same holds after contraction
    rng = random.Random(77)
    b = 3
    for _ in range(10):
        r1 = tuple(rng.randint(-5, 5) for _ in range(b))
        r2 = tuple(rng.randint(-5, 5) for _ in range(b))
        rsum = tuple(u + v for u, v in zip(r1, r2))
        for k in range(1, b + 2):
            b1 = assemble_block(1, contract(r1, k))
            b2 = assemble_block(1, contract(r2, k))
            bs = assemble_block(1, contract(rsum, k))
            assert mat_mul(b1, b2) == bs


def test_compound_of_block_is_block():
    # numeric spot check of the same identity verify_vdrei proves
    # symbolically
    base = _row_block(7, (2, -3, 5))
    for k in range(1, 5):
        assert compound(base, k) == assemble_block(7, contract((2, -3, 5), k))


def run_cli(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(list(argv))
    return code, [json.loads(line) for line in out.getvalue().splitlines()]


def perturb_assembled_block(monkeypatch, shape, row, col, delta):
    """Make serretate assemble each block of the heights shape = (a, b)
    with delta(c1) added at (row, col); col None is the first column of C."""
    original = serretate.assemble_block

    def perturbed(c1, C):
        block = original(c1, C)
        if C.shape != shape:
            return block
        a = shape[0]
        rows = [list(r) for r in block]
        j = a if col is None else col
        rows[row][j] = rows[row][j] + delta(c1)
        return SparseRows.of(rows)

    monkeypatch.setattr(serretate, "assemble_block", perturbed)


def test_vdrei_failure_reports_the_first_differing_entry(monkeypatch):
    n, k, row, col = 4, 2, 1, 3
    c1, *c = sympy.symbols("c1:5")
    left = compound(_row_block(c1, c), k)
    right = assemble_block(c1, contract(c, k))
    # the contracted block has heights (3, 3), the base block (1, 3)
    perturb_assembled_block(monkeypatch, (3, 3), row, col, lambda x: x * x)
    code, lines = run_cli("verify", "vdrei", "--n", str(n), "--k", str(k))
    records = [line["record"] for line in lines[1:-1]]
    failed = [r for r in records if r["status"] == "fail"]
    assert code == 1
    assert failed == [{
        "check": f"vdrei n={n} k={k}",
        "n": n,
        "k": k,
        "status": "fail",
        "witness": {
            "row": row,
            "col": col,
            "got": str(sympy.expand(left[row][col])),
            "expected": str(sympy.expand(right[row][col] + c1 * c1)),
        },
    }]
    assert failed[0]["witness"]["got"] != "0"


def test_vzehn_fails_on_a_perturbed_block_in_every_ring(monkeypatch):
    b, k = 3, 2
    c1, *row = generators("c1", "x1", "x2", "x3")
    modulus = 3 ** 4
    inputs = [
        (c1, tuple(row)),
        (4, (5, 7, 11)),
        (ModInt(4, modulus), tuple(ModInt(v, modulus) for v in (5, 7, 11))),
    ]
    for one, params in inputs:
        assert verify_vzehn(params, one, [k]) == {k: True}
    perturb_assembled_block(monkeypatch, (3, 3), 0, None, lambda x: 1)
    for one, params in inputs:
        assert verify_vzehn(params, one, [k]) == {k: False}


def _unsigned(size, k):
    return ((r, c, t, 1) for r, c, t, _ in removal_entries(size, k))


def test_vzehn_fails_when_the_removal_signs_are_dropped(monkeypatch):
    # the contracted block loses its signs while the compound keeps them:
    # every k from 2 to b must fail; at k = 1 no sign is negative, and at
    # k = b + 1 the C-block has no column
    b = 4
    c1, *row = generators("c1", *(f"p{i}" for i in range(1, b + 1)))
    assert all(verify_vzehn(row, c1, range(1, b + 2)).values())
    monkeypatch.setattr(serretate, "removal_entries", _unsigned)
    got = verify_vzehn(row, c1, range(1, b + 2))
    assert got == {1: True, 2: False, 3: False, 4: False, 5: True}
    code, lines = run_cli("verify", "vzehn", "--n", "7")
    assert code == 1
    assert lines[-1]["summary"]["failed"] > 0
    assert any(w is not None for w in verify_vdrei(5, range(1, 6)).values())


def test_vzehn_fails_on_one_corrupted_compound_minor(monkeypatch):
    b, k = 3, 2
    c1, *row = generators("c1", *(f"p{i}" for i in range(1, b + 1)))
    original = serretate.leading_compounds

    def corrupted(matrix, ks):
        # one minor of the k-th compound of the (b+1) x (b+1) leading block,
        # whichever walk it is read off
        for j, leading in original(matrix, ks):
            def read(size, j=j, leading=leading):
                wedge = leading(size)
                if (size, j) == (b + 1, k):
                    entries = dict(wedge.entries)
                    entries[2, 1] = entries.get((2, 1), 0) + c1
                    wedge = SparseRows(wedge.shape, entries)
                return wedge

            yield j, read

    monkeypatch.setattr(serretate, "leading_compounds", corrupted)
    assert verify_vzehn(row, c1, range(1, b + 2)) == {1: True, 2: False, 3: True, 4: True}
    code, lines = run_cli("verify", "vzehn", "--n", "4", "--k", str(k))
    assert code == 1
    assert [r["record"]["status"] for r in lines[1:-1]] == ["pass", "pass", "fail"]
    # read off the walk of the 6 x 6 block, height b fails alone
    code, lines = run_cli("verify", "vzehn", "--n", "6", "--k", str(k))
    assert code == 1
    assert [r["record"]["status"] for r in lines[1:-1]] == ["pass", "pass", "fail", "pass", "pass"]


@pytest.mark.parametrize("suite", ["vdrei", "vzehn"])
def test_a_suite_walks_its_largest_block_once(monkeypatch, suite):
    # one _laplace per nonempty row subset of the 10 x 10 block: 1,023, where
    # a walk per block made 2,036 (vdrei, sizes 1..10) and 2,035 (vzehn,
    # sizes 2..10)
    calls = []
    laplace = exterior._laplace
    monkeypatch.setattr(exterior, "_laplace", lambda *args: calls.append(1) or laplace(*args))
    code, lines = run_cli("verify", suite, "--n", "10")
    assert code == 0 and len(calls) == 2**10 - 1
    assert lines[-1]["summary"]["checks"] == {"vdrei": 55, "vzehn": 54}[suite]


def test_block_identities_reads_each_size_off_one_walk():
    c1, *row = generators("c1", *(f"p{i}" for i in range(1, 6)))
    # sizes in ascending order, each with its k up to the size; a size
    # below every k has none
    got = list(serretate.block_identities(c1, row, [4, 2], [6, 1, 3, 5]))
    assert got == [(1, {}), (3, {2: None}), (5, {2: None, 4: None}), (6, {2: None, 4: None})]
    for size in ([0], [7]):
        with pytest.raises(ValueError):
            list(serretate.block_identities(c1, row, [1], size))
    with pytest.raises(ValueError):
        list(serretate.block_identities(c1, row, [7]))


def _monomial(gens, exponents):
    out = 1
    for x, e in zip(gens, exponents):
        for _ in range(e):
            out = out * x
    return out


def _from_sympy(expr, names):
    """The Polynomial of a sympy expression in the named variables, built
    term by term from sympy's own expansion."""
    gens = generators(*names)
    out = 0
    for monomial, coeff in sympy.Poly(sympy.expand(expr), *sympy.symbols(names)).terms():
        out = out + int(coeff) * _monomial(gens, monomial)
    return out


@pytest.mark.parametrize("n", range(1, 8))
def test_ring_compound_equals_the_expanded_symbolic_compound(n):
    # sympy.expand of the compound over sympy symbols is the oracle
    names = [f"c{i}" for i in range(1, n + 1)]
    gens = generators(*names)
    symbols = sympy.symbols(names)
    blocks = [(_row_block(gens[0], gens[1:]), _row_block(symbols[0], symbols[1:]), names)]
    if n <= 5:  # a Hankel matrix, whose minors merge and cancel terms
        hankel = [f"h{s}" for s in range(2 * n - 1)]
        blocks.append(tuple(
            tuple(tuple(h[i + j] for j in range(n)) for i in range(n))
            for h in (generators(*hankel), sympy.symbols(hankel))
        ) + (hankel,))
    for ring_block, symbolic_block, block_names in blocks:
        for k in range(1, n + 1):
            got = [x for row in compound(ring_block, k) for x in row]
            expected = [
                sympy.expand(x) for row in compound(symbolic_block, k) for x in row
            ]
            assert got == [_from_sympy(x, block_names) for x in expected]
            assert list(map(str, got)) == list(map(str, expected))


_NAMES = ("c1", "c2", "c10", "x")
_TERMS = st.lists(
    st.tuples(st.integers(-6, 6), st.tuples(*(st.integers(0, 3) for _ in _NAMES))),
    max_size=5,
)


def _both(terms):
    """One polynomial as a Polynomial and as an expanded sympy expression."""
    gens, symbols = generators(*_NAMES), sympy.symbols(_NAMES)
    poly, expr = 0, sympy.Integer(0)
    for coeff, exponents in terms:
        poly = poly + coeff * _monomial(gens, exponents)
        expr += coeff * sympy.Mul(*(s**e for s, e in zip(symbols, exponents)))
    return poly, sympy.expand(expr)


@given(_TERMS, _TERMS, st.integers(-3, 3))
# sympy prints a positive constant first only beside a negative multiple of
# one variable's power: 1 - x, but -c1*x + 1
@example([(1, (0, 0, 0, 1))], [(1, (0, 0, 0, 2))], 1)
@example([(1, (1, 0, 0, 1))], [(3, (0, 0, 0, 0)), (1, (0, 0, 0, 1))], 1)
def test_polynomial_arithmetic_agrees_with_sympy(left, right, n):
    (a, A), (b, B) = _both(left), _both(right)
    for got, want in [
        (a + b, A + B), (a - b, A - B), (a * b, A * B), (-a, -A),
        (a + n, A + n), (n - a, n - A), (n * a, n * A), (a * n, A * n),
    ]:
        assert got == _from_sympy(want, _NAMES)
        assert str(got) == str(sympy.expand(want))
    assert (a == b) == (sympy.expand(A - B) == 0)
    assert (a == n) == (sympy.expand(A - n) == 0)
    assert bool(a) == (A != 0)
    assert not (a - a) and a - a == 0 and str(a - a) == "0"


def test_polynomial_degree_stays_inside_the_exponent_field():
    (x,) = generators("x")
    for _ in range(15):
        x = x * x
    assert str(x) == "x**32768" and x.degree == 2**15
    with pytest.raises(OverflowError):
        x * x


def test_block_suites_exit_0_with_no_failures_at_n6():
    for suite in ("vdrei", "vzehn"):
        code, lines = run_cli("verify", suite, "--n", "6")
        assert code == 0
        assert lines[-1]["summary"]["failed"] == 0
