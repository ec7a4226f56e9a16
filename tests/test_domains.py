import json
import math

import numpy as np
import pytest
import sympy

from pelwedge import domains
from pelwedge.cli import main
from pelwedge.domains import (
    anticommutation_witness,
    embedding_trial_stats,
    op_norm,
    satake_matrix,
)
from pelwedge.exterior import removal_entries, removal_matrix
from pelwedge.serretate import contract


def test_satake_matrix_row_case():
    # k=1 rows are indexed by the empty set: the matrix is the row vector x
    x = (0.3, 0.4j)
    mat = satake_matrix(x, 3, 1)
    assert mat.shape == (1, 2)
    assert mat[0, 0] == 0.3
    assert mat[0, 1] == 0.4j


def test_satake_matrix_column_case():
    # n=3, k=2: rows {1},{2}; col {1,2}; entries (-x2, x1)
    x = (0.3, 0.4)
    mat = satake_matrix(x, 3, 2)
    assert mat.shape == (2, 1)
    assert mat[0, 0] == -0.4
    assert mat[1, 0] == 0.3


def test_satake_matrix_shapes_and_validation():
    x = (0.1, 0.2, 0.1)
    for k in range(1, 4):
        mat = satake_matrix(x, 4, k)
        assert mat.shape == (math.comb(3, k - 1), math.comb(3, k))
    with pytest.raises(ValueError):
        satake_matrix(x, 4, 4)
    with pytest.raises(ValueError):
        satake_matrix(x, 3, 1)


def test_satake_matches_contraction_pattern():
    # same entry rule as the symbolic parameter contraction
    coords = [0.1, -0.2, 0.15]
    syms = sympy.symbols("x1 x2 x3")
    subs = dict(zip(syms, coords))
    for k in range(1, 4):
        mat = satake_matrix(coords, 4, k)
        sym = contract(syms, k)
        rows, cols = sym.shape
        for i in range(rows):
            for j in range(cols):
                expected = complex(sympy.Float(sympy.simplify(sym[i][j].subs(subs)), 15)) \
                    if isinstance(sym[i][j], sympy.Basic) else complex(sym[i][j])
                assert mat[i, j] == pytest.approx(expected)


def test_satake_linearity():
    a = (0.1, 0.2)
    b = (0.05, -0.1)
    s = (0.15, 0.1)
    for k in (1, 2):
        assert np.allclose(
            satake_matrix(s, 3, k),
            satake_matrix(a, 3, k) + satake_matrix(b, 3, k),
        )


def test_op_norm_examples():
    assert op_norm(np.array([[3.0, 4.0]])) == pytest.approx(5.0)
    assert op_norm(np.zeros((0, 2))) == 0.0
    assert op_norm(np.eye(3) * 0.5) == pytest.approx(0.5)


def test_norm_never_exceeds_point_norm():
    rng = np.random.default_rng(5)
    for _ in range(50):
        n = int(rng.integers(2, 6))
        raw = rng.standard_normal(n - 1) + 1j * rng.standard_normal(n - 1)
        point = raw / np.linalg.norm(raw) * rng.uniform(0, 0.999)
        for k in range(1, n):
            assert op_norm(satake_matrix(point, n, k)) <= np.linalg.norm(point) + 1e-12


CONFIGS = [(n, k) for n in range(2, 8) for k in range(1, n)]


def test_sampled_operator_norms_equal_the_point_norm():
    # the float oracle of the exact identity: ||A_k(x)|| = |x| for n <= 7
    rng = np.random.default_rng(17)
    for n, k in CONFIGS:
        for _ in range(20):
            raw = rng.standard_normal(n - 1) + 1j * rng.standard_normal(n - 1)
            point = raw * (rng.uniform(0.01, 0.99) / np.linalg.norm(raw))
            norm = np.linalg.norm(satake_matrix(point, n, k), 2)
            assert norm == pytest.approx(np.linalg.norm(point), rel=1e-12, abs=0)


def test_embedding_trial_stats():
    stats = embedding_trial_stats(4, 2, 200, seed=3)
    assert stats["min_norm_ratio"] == pytest.approx(1, rel=1e-12, abs=0)
    assert stats["max_norm_ratio"] == pytest.approx(1, rel=1e-12, abs=0)
    assert stats == embedding_trial_stats(4, 2, 200, seed=3)


def test_anticommutation_identity_holds_through_the_rank_bound():
    # n <= 13 is every n that verify embedding accepts
    for n in range(2, 14):
        for k in range(1, n):
            assert anticommutation_witness(n, k) is None, (n, k)


def test_anticommutation_identity_equals_the_symbolic_product():
    # x_i and conj(x_i) as independent generators: A_k A_k* + A_(k-1)* A_(k-1)
    # is (sum_i x_i conj(x_i)) I exactly where the integer check passes
    from sympy import ZZ
    from sympy.polys.rings import ring

    for n in range(2, 7):
        _, *gens = ring([f"x{i}" for i in range(1, n)] + [f"y{i}" for i in range(1, n)], ZZ)
        xs, xbars = gens[: n - 1], gens[n - 1 :]

        def matrix(values, k):
            return removal_matrix(values, k) if k >= 1 else ()

        for k in range(1, n):
            a, abar = matrix(xs, k), matrix(xbars, k)
            b, bbar = matrix(xs, k - 1), matrix(xbars, k - 1)
            size = math.comb(n - 1, k - 1)
            for r in range(size):
                for s in range(size):
                    entry = sum(a[r][c] * abar[s][c] for c in range(len(a[0])))
                    entry += sum(bbar[q][r] * b[q][s] for q in range(len(b)))
                    assert entry == (sum(x * y for x, y in zip(xs, xbars)) if r == s else 0)
            assert anticommutation_witness(n, k) is None


def _flip_first_sign(original):
    def flipped(size, k):
        entries = original(size, k)
        for r, c, t, sign in entries:
            yield r, c, t, -sign
            break
        yield from entries

    return flipped


def test_a_flipped_sign_fails_every_k_from_two(monkeypatch):
    monkeypatch.setattr(domains, "removal_entries", _flip_first_sign(removal_entries))
    assert anticommutation_witness(5, 1) is None  # any signs make a row vector of norm |x|
    for k in range(2, 5):
        witness = anticommutation_witness(5, k)
        assert witness is not None
        assert witness["got"] != witness["expected"]
        assert set(witness) == {"i", "j", "row", "col", "got", "expected"}


def test_a_flipped_sign_fails_verify_embedding_with_a_witness(monkeypatch, capsys):
    monkeypatch.setattr(domains, "removal_entries", _flip_first_sign(removal_entries))
    assert main(["verify", "embedding", "--n", "4"]) == 1
    records = [json.loads(line)["record"] for line in capsys.readouterr().out.splitlines()[1:-1]]
    # at n = 3 the two flips are one change of basis sign, which keeps the norm
    assert [r["status"] for r in records] == ["pass", "pass", "pass", "pass", "fail", "fail"]
    assert all(("witness" in r) == (r["status"] == "fail") for r in records)


def test_anticommutation_witness_refuses_k_outside_one_to_n_minus_one():
    for n, k in ((4, 0), (4, 4), (2, 2)):
        with pytest.raises(ValueError):
            anticommutation_witness(n, k)


def test_trial_stats_refuse_k_outside_one_to_n_minus_one():
    for n, k in ((4, 0), (4, 4), (2, 2)):
        with pytest.raises(ValueError):
            embedding_trial_stats(n, k, 1, seed=0)
