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

from pelwedge import serretate
from pelwedge.cli import main
from pelwedge.exterior import SparseRows, compound, removal_entries
from pelwedge.serretate import (
    DeformationParams,
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


def test_deformation_params_validation():
    DeformationParams(1, 2, ((1, 2),))
    with pytest.raises(ValueError):
        DeformationParams(1, 2, ((1,),))
    with pytest.raises(ValueError):
        DeformationParams(-1, 2, ())


def test_assemble_block_example():
    block = assemble_block(5, ((2, 3),), 1, 2)
    assert block == (
        (5, 2, 3),
        (0, 1, 0),
        (0, 0, 1),
    )
    with pytest.raises(ValueError):
        assemble_block(5, ((2, 3),), 2, 2)


def test_verify_vdrei_examples():
    assert verify_vdrei(3, [2])[2].ok
    reports = verify_vdrei(5, [3, 1, 5])
    assert list(reports) == [1, 3, 5] and all(r.ok for r in reports.values())
    assert verify_vdrei(1, [1])[1].ok
    assert verify_vdrei(4, []) == {}
    for k in (0, 4):
        with pytest.raises(ValueError):
            verify_vdrei(3, [k])


def test_contract_k1_is_row():
    phi = DeformationParams(1, 3, ((2, 3, 5),))
    out = contract(phi, 1)
    assert out.a == 1 and out.b == 3
    assert out.phi == ((2, 3, 5),)


def test_contract_shape_and_entries():
    phi = DeformationParams(1, 2, ((sympy.Symbol("x"), sympy.Symbol("y")),))
    out = contract(phi, 2)
    # rows {1},{2}; col {1,2}; entries (-1)^(nu-1) phi_{i_nu}
    x, y = phi.phi[0]
    assert out.phi == ((-y,), (x,))
    with pytest.raises(ValueError):
        contract(phi, 4)
    with pytest.raises(ValueError):
        contract(DeformationParams(2, 2, ((1, 1), (1, 1))), 1)


def test_contract_shape_law():
    for b in range(1, 7):
        row = sympy.symbols(f"x1:{b + 1}")
        phi = DeformationParams(1, b, (tuple(row),))
        for k in range(1, b + 2):
            out = contract(phi, k)
            assert out.a == math.comb(b, k - 1)
            assert out.b == math.comb(b, k)


def test_verify_vzehn_symbolic():
    for b in range(1, 5):
        c1, *row = generators("c1", *(f"x{i}" for i in range(1, b + 1)))
        phi = DeformationParams(1, b, (tuple(row),))
        assert verify_vzehn(phi, c1, range(1, b + 2)) == {k: True for k in range(1, b + 2)}
    with pytest.raises(ValueError):
        verify_vzehn(phi, c1, [b + 2])
    with pytest.raises(ValueError):
        verify_vzehn(DeformationParams(2, 1, ((c1,), (c1,))), c1, [1])


def test_verify_vzehn_modint():
    rng = random.Random(15)
    modulus = 3 ** 4
    for b in (2, 3):
        row = tuple(ModInt(rng.randrange(modulus), modulus) for _ in range(b))
        phi = DeformationParams(1, b, (row,))
        c1 = ModInt(1 + 3 * rng.randrange(27), modulus)
        assert all(verify_vzehn(phi, c1, range(1, b + 2)).values())


def test_cocycle_additivity_unipotent():
    # with c1 = 1 the assembled blocks are unipotent and the parameter
    # rows add under multiplication; the same holds after contraction
    rng = random.Random(77)
    b = 3
    for _ in range(10):
        r1 = tuple(rng.randint(-5, 5) for _ in range(b))
        r2 = tuple(rng.randint(-5, 5) for _ in range(b))
        p1 = DeformationParams(1, b, (r1,))
        p2 = DeformationParams(1, b, (r2,))
        psum = DeformationParams(1, b, (tuple(u + v for u, v in zip(r1, r2)),))
        for k in range(1, b + 2):
            c_1 = contract(p1, k)
            c_2 = contract(p2, k)
            c_s = contract(psum, k)
            b1 = assemble_block(1, c_1.phi, c_1.a, c_1.b)
            b2 = assemble_block(1, c_2.phi, c_2.a, c_2.b)
            bs = assemble_block(1, c_s.phi, c_s.a, c_s.b)
            assert mat_mul(b1, b2) == bs


def test_compound_of_block_is_block():
    # numeric spot check of the same identity verify_vdrei proves
    # symbolically
    base = assemble_block(7, ((2, -3, 5),), 1, 3)
    for k in range(1, 5):
        contracted = contract(DeformationParams(1, 3, ((2, -3, 5),)), k)
        right = assemble_block(7, contracted.phi, contracted.a, contracted.b)
        assert compound(base, k) == right


def run_cli(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(list(argv))
    return code, [json.loads(line) for line in out.getvalue().splitlines()]


def perturb_assembled_block(monkeypatch, shape, row, col, delta):
    """Make serretate assemble each block of the heights shape = (a, b)
    with delta(c1) added at (row, col); col None is the first column of C."""
    original = serretate.assemble_block

    def perturbed(c1, C, a, b):
        block = original(c1, C, a, b)
        if (a, b) != shape:
            return block
        rows = [list(r) for r in block]
        j = a if col is None else col
        rows[row][j] = rows[row][j] + delta(c1)
        return SparseRows.of(rows)

    monkeypatch.setattr(serretate, "assemble_block", perturbed)


def _contracted_block(c1, row, k):
    contracted = contract(DeformationParams(1, len(row), (tuple(row),)), k)
    return assemble_block(c1, contracted.phi, contracted.a, contracted.b)


def test_vdrei_failure_reports_the_first_differing_entry(monkeypatch):
    n, k, row, col = 4, 2, 1, 3
    c1, *c = sympy.symbols("c1:5")
    left = compound(assemble_block(c1, (tuple(c),), 1, n - 1), k)
    right = _contracted_block(c1, c, k)
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
        assert verify_vzehn(DeformationParams(1, b, (params,)), one, [k]) == {k: True}
    perturb_assembled_block(monkeypatch, (3, 3), 0, None, lambda x: 1)
    for one, params in inputs:
        assert verify_vzehn(DeformationParams(1, b, (params,)), one, [k]) == {k: False}


def _unsigned(size, k):
    return ((r, c, t, 1) for r, c, t, _ in removal_entries(size, k))


def test_vzehn_fails_when_the_removal_signs_are_dropped(monkeypatch):
    # the contracted block loses its signs while the compound keeps them:
    # every k from 2 to b must fail; at k = 1 no sign is negative, and at
    # k = b + 1 the C-block has no column
    b = 4
    c1, *row = generators("c1", *(f"p{i}" for i in range(1, b + 1)))
    phi = DeformationParams(1, b, (tuple(row),))
    assert all(verify_vzehn(phi, c1, range(1, b + 2)).values())
    monkeypatch.setattr(serretate, "removal_entries", _unsigned)
    got = verify_vzehn(phi, c1, range(1, b + 2))
    assert got == {1: True, 2: False, 3: False, 4: False, 5: True}
    code, lines = run_cli("verify", "vzehn", "--n", "7")
    assert code == 1
    assert lines[-1]["summary"]["failed"] > 0
    assert not all(report.ok for report in verify_vdrei(5, range(1, 6)).values())


def test_vzehn_fails_on_one_corrupted_compound_minor(monkeypatch):
    b, k = 3, 2
    c1, *row = generators("c1", *(f"p{i}" for i in range(1, b + 1)))
    phi = DeformationParams(1, b, (tuple(row),))
    original = serretate.compounds

    def corrupted(matrix, ks):
        for j, wedge in original(matrix, ks):
            if (len(matrix), j) == (b + 1, k):
                entries = dict(wedge.entries)
                entries[2, 1] = entries.get((2, 1), 0) + c1
                wedge = SparseRows(wedge.shape, entries)
            yield j, wedge

    monkeypatch.setattr(serretate, "compounds", corrupted)
    assert verify_vzehn(phi, c1, range(1, b + 2)) == {1: True, 2: False, 3: True, 4: True}
    code, lines = run_cli("verify", "vzehn", "--n", "4", "--k", str(k))
    assert code == 1
    assert [r["record"]["status"] for r in lines[1:-1]] == ["pass", "pass", "fail"]


def _vdrei_base(c1, c):
    return assemble_block(c1, (tuple(c),), 1, len(c))


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
    blocks = [(_vdrei_base(gens[0], gens[1:]), _vdrei_base(symbols[0], symbols[1:]), names)]
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
