"""The explicit embedding of the complex ball into larger bounded
matrix domains, with operator-norm membership checks.

This module is floating point by design: operator norms are analytic,
so membership is tested with a guard band rather than exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exterior import removal_matrix

GUARD_BAND = 1e-10


@dataclass(frozen=True)
class BallPoint:
    """Point of the unit ball in C^(n-1)."""

    x: tuple[complex, ...]

    @classmethod
    def of(cls, coords, require_in_ball: bool = True) -> "BallPoint":
        x = tuple(complex(c) for c in coords)
        if require_in_ball and np.linalg.norm(x) >= 1:
            raise ValueError("point is not inside the unit ball")
        return cls(x)

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.x))


def satake_matrix(x: BallPoint, n: int, k: int) -> np.ndarray:
    """The C(n-1,k-1) x C(n-1,k) matrix with entry (-1)^(nu-1) x_{i_nu}
    at (I, J) when I = J - {i_nu}; subsets of {1..n-1}, colex order."""
    if not 1 <= k <= n - 1:
        raise ValueError(f"need 1 <= k <= n-1, got k={k}, n={n}")
    if len(x.x) != n - 1:
        raise ValueError(f"need a point of C^{n - 1}")
    return np.array(removal_matrix(x.x, range(1, n), k), dtype=complex)


def op_norm(matrix: np.ndarray) -> float:
    """Largest singular value."""
    if matrix.size == 0:
        return 0.0
    return float(np.linalg.norm(matrix, 2))


def in_ball(matrix: np.ndarray) -> bool:
    """Strict operator-norm membership with a guard band."""
    return op_norm(matrix) < 1 - GUARD_BAND


def embedding_trial_stats(n: int, k: int, trials: int, seed: int) -> dict:
    """Ball-to-ball check over random interior points; reports, does not
    assert, the maximum observed ratio op_norm(A) / ||x||."""
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
