"""The explicit embedding of the complex ball into larger bounded
matrix domains, with operator-norm membership checks.

This module is floating point by design: operator norms are analytic,
so membership is tested with a guard band rather than exactly.
`embedding_trial_stats` draws the same points as one `BallPoint` at a
time but evaluates them in batches: it fills stacked matrices from one
index pattern per (n, k) and takes one batched SVD per chunk, so each
operator norm is computed once and its bits equal `op_norm`'s.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exterior import removal_matrix

GUARD_BAND = 1e-10
# complex entries of the matrices stacked for one batched SVD (1 MiB)
CHUNK_ENTRIES = 2**16


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


def _removal_pattern(n: int, k: int):
    """Shape of the n, k removal matrix, and the row, column, coordinate
    index and sign of each of its nonzero entries: `removal_matrix` on the
    tags 1..n-1 gives +-tag."""
    if not 1 <= k <= n - 1:
        raise ValueError(f"need 1 <= k <= n-1, got k={k}, n={n}")
    tagged = np.array(removal_matrix(range(1, n), range(1, n), k))
    rows, cols = np.nonzero(tagged)
    tags = tagged[rows, cols]
    return tagged.shape, (rows, cols, np.abs(tags) - 1, np.sign(tags))


def _op_norms(coords: list, shape, entries) -> np.ndarray:
    """`op_norm` of the `satake_matrix` of each point, from one batched SVD."""
    rows, cols, coordinate, sign = entries
    stack = np.zeros((len(coords), *shape), dtype=complex)
    stack[:, rows, cols] = sign * np.array(coords)[:, coordinate]
    return np.linalg.svd(stack, compute_uv=False).max(-1)


def embedding_trial_stats(n: int, k: int, trials: int, seed: int) -> dict:
    """Ball-to-ball check over random interior points; reports, does not
    assert, the maximum observed ratio op_norm(A) / ||x||.

    Points are drawn one at a time, with the refusal of `BallPoint.of`;
    their matrices are
    evaluated in chunks of at most `CHUNK_ENTRIES` entries (one matrix when
    it alone has more) by one batched SVD, which gives the bits `op_norm`
    gives one matrix at a time."""
    rng = np.random.default_rng(seed)
    shape, entries = _removal_pattern(n, k)
    chunk = max(1, CHUNK_ENTRIES // (shape[0] * shape[1]))
    failures = 0
    max_ratio = 0.0
    for start in range(0, trials, chunk):
        coords, norms = [], []
        for _ in range(min(chunk, trials - start)):
            raw = rng.standard_normal(n - 1) + 1j * rng.standard_normal(n - 1)
            radius = rng.uniform(0.0, 1.0 - 1e-6) ** (1.0 / max(2 * (n - 1), 1))
            norm = np.linalg.norm(raw)
            point = raw * (radius / norm) if norm > 0 else raw * 0
            point_norm = float(np.linalg.norm(point))
            if point_norm >= 1:
                raise ValueError("point is not inside the unit ball")
            coords.append(point)
            norms.append(point_norm)
        for op, point_norm in zip(_op_norms(coords, shape, entries).tolist(), norms):
            if not op < 1 - GUARD_BAND:
                failures += 1
            if point_norm > 0:
                max_ratio = max(max_ratio, op / point_norm)
    return {
        "n": n,
        "k": k,
        "trials": trials,
        "seed": seed,
        "failures": failures,
        "max_norm_ratio": max_ratio,
    }
