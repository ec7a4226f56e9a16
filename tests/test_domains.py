import math

import numpy as np
import pytest
import sympy

from pelwedge import domains
from pelwedge.domains import (
    BallPoint,
    embedding_trial_stats,
    in_ball,
    op_norm,
    satake_matrix,
)
from pelwedge.serretate import DeformationParams, contract


def test_ball_point_validation():
    BallPoint.of([0.5, 0.5])
    with pytest.raises(ValueError):
        BallPoint.of([1.0, 0.0])
    outside = BallPoint.of([2.0], require_in_ball=False)
    assert outside.norm == 2.0


def test_satake_matrix_row_case():
    # k=1 rows are indexed by the empty set: the matrix is the row vector x
    x = BallPoint.of([0.3, 0.4j])
    mat = satake_matrix(x, 3, 1)
    assert mat.shape == (1, 2)
    assert mat[0, 0] == 0.3
    assert mat[0, 1] == 0.4j


def test_satake_matrix_column_case():
    # n=3, k=2: rows {1},{2}; col {1,2}; entries (-x2, x1)
    x = BallPoint.of([0.3, 0.4])
    mat = satake_matrix(x, 3, 2)
    assert mat.shape == (2, 1)
    assert mat[0, 0] == -0.4
    assert mat[1, 0] == 0.3


def test_satake_matrix_shapes_and_validation():
    x = BallPoint.of([0.1, 0.2, 0.1])
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
    phi = DeformationParams(1, 3, (syms,))
    subs = dict(zip(syms, coords))
    x = BallPoint.of(coords)
    for k in range(1, 4):
        mat = satake_matrix(x, 4, k)
        sym = contract(phi, k)
        for i in range(sym.a):
            for j in range(sym.b):
                expected = complex(sympy.Float(sympy.simplify(sym.phi[i][j].subs(subs)), 15)) \
                    if isinstance(sym.phi[i][j], sympy.Basic) else complex(sym.phi[i][j])
                assert mat[i, j] == pytest.approx(expected)


def test_satake_linearity():
    a = BallPoint.of([0.1, 0.2])
    b = BallPoint.of([0.05, -0.1])
    s = BallPoint.of([0.15, 0.1])
    for k in (1, 2):
        assert np.allclose(
            satake_matrix(s, 3, k),
            satake_matrix(a, 3, k) + satake_matrix(b, 3, k),
        )


def test_op_norm_examples():
    assert op_norm(np.array([[3.0, 4.0]])) == pytest.approx(5.0)
    assert op_norm(np.zeros((0, 2))) == 0.0
    assert op_norm(np.eye(3) * 0.5) == pytest.approx(0.5)


def test_in_ball():
    assert in_ball(np.array([[0.5]]))
    assert not in_ball(np.array([[1.0]]))
    assert not in_ball(np.array([[1 - 1e-12]]))  # inside the guard band


def test_norm_never_exceeds_point_norm():
    rng = np.random.default_rng(5)
    for _ in range(50):
        n = int(rng.integers(2, 6))
        raw = rng.standard_normal(n - 1) + 1j * rng.standard_normal(n - 1)
        raw = raw / np.linalg.norm(raw) * rng.uniform(0, 0.999)
        point = BallPoint.of(raw)
        for k in range(1, n):
            assert op_norm(satake_matrix(point, n, k)) <= point.norm + 1e-12


def test_embedding_trial_stats():
    stats = embedding_trial_stats(4, 2, 200, seed=3)
    assert stats["failures"] == 0
    assert 0 < stats["max_norm_ratio"] <= 1 + 1e-12
    again = embedding_trial_stats(4, 2, 200, seed=3)
    assert stats == again


def per_point_trial_stats(n, k, trials, seed):
    """One `satake_matrix` and two `op_norm` SVDs per point: the oracle of
    the batched evaluation in `embedding_trial_stats`."""
    rng = np.random.default_rng(seed)
    failures = 0
    max_ratio = 0.0
    for _ in range(trials):
        raw = rng.standard_normal(n - 1) + 1j * rng.standard_normal(n - 1)
        radius = rng.uniform(0.0, 1.0 - 1e-6) ** (1.0 / max(2 * (n - 1), 1))
        norm = np.linalg.norm(raw)
        coords = raw * (radius / norm) if norm > 0 else raw * 0
        point = BallPoint.of(coords)
        mat = satake_matrix(point, n, k)
        if not in_ball(mat):
            failures += 1
        if point.norm > 0:
            max_ratio = max(max_ratio, op_norm(mat) / point.norm)
    return {
        "n": n,
        "k": k,
        "trials": trials,
        "seed": seed,
        "failures": failures,
        "max_norm_ratio": max_ratio,
    }


CONFIGS = [(n, k) for n in range(2, 8) for k in range(1, n)]


@pytest.mark.parametrize("chunk_entries", [domains.CHUNK_ENTRIES, 64])
def test_batched_trials_equal_the_per_point_oracle(monkeypatch, chunk_entries):
    # dict equality compares the float bits of max_norm_ratio; 75 trials is
    # no multiple of any chunk at 64 entries, and one short chunk at 2^16
    monkeypatch.setattr(domains, "CHUNK_ENTRIES", chunk_entries)
    for n, k in CONFIGS:
        for seed in (0, 1, 2):
            assert embedding_trial_stats(n, k, 75, seed) == per_point_trial_stats(n, k, 75, seed)


def test_failures_are_counted_as_the_oracle_counts_them(monkeypatch):
    monkeypatch.setattr(domains, "GUARD_BAND", 0.4)  # fails points with op norm >= 0.6
    monkeypatch.setattr(domains, "CHUNK_ENTRIES", 64)
    for n, k in ((2, 1), (5, 2), (7, 3)):
        stats = embedding_trial_stats(n, k, 150, seed=11)
        assert stats == per_point_trial_stats(n, k, 150, seed=11)
        assert 0 < stats["failures"] < 150


def test_trial_stats_refuse_k_outside_one_to_n_minus_one():
    for n, k in ((4, 0), (4, 4), (2, 2)):
        with pytest.raises(ValueError):
            embedding_trial_stats(n, k, 1, seed=0)
