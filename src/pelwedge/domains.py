"""The explicit embedding of the complex ball into larger bounded
matrix domains, and the exact proof that it maps ball to ball.

`satake_matrix` is the contraction A_k(x) = sum_i x_i E_k^(i) from the
k-th to the (k-1)-th exterior power of C^(n-1), with 0/+-1 matrices
E_k^(i).  `anticommutation_witness` checks A_k A_k* + A_(k-1)* A_(k-1) =
|x|^2 I coefficient by coefficient, in Python ints, on the entries that
`removal_entries` gives `satake_matrix`; A_(k-1)* A_(k-1) is positive
semidefinite, so ||A_k(x)|| <= |x| < 1 on the whole ball.  `op_norm` and
`embedding_trial_stats` are the floating-point cross-check on sampled
points; no verdict reads them.
"""

from __future__ import annotations

import math
from collections import defaultdict
from itertools import product

import numpy as np

from .exterior import removal_entries, removal_matrix


def satake_matrix(x, n: int, k: int) -> np.ndarray:
    """The C(n-1,k-1) x C(n-1,k) matrix with entry (-1)^(nu-1) x_{i_nu}
    at (I, J) when I = J - {i_nu}, for the coordinates x of a point of
    C^(n-1); subsets of {1..n-1}, colex order."""
    if not 1 <= k <= n - 1:
        raise ValueError(f"need 1 <= k <= n-1, got k={k}, n={n}")
    if len(x) != n - 1:
        raise ValueError(f"need a point of C^{n - 1}")
    return np.array(removal_matrix(x, k), dtype=complex)


def op_norm(matrix: np.ndarray) -> float:
    """Largest singular value."""
    if matrix.size == 0:
        return 0.0
    return float(np.linalg.norm(matrix, 2))


def _entries(n: int, k: int, axis: int):
    """The nonzero entries of the n, k removal matrix on the tags 1..n-1,
    grouped by row (axis 0) or column (axis 1), each as (its index on the
    other axis, tag i, sign): E_k^(i) has that sign there."""
    groups = defaultdict(list)
    for r, c, t, sign in removal_entries(n - 1, k):
        groups[(r, c)[axis]].append(((c, r)[axis], t + 1, sign))
    return groups.values()


def anticommutation_witness(n: int, k: int) -> dict | None:
    """None when E_k^(i) E_k^(j)^T + E_(k-1)^(j)^T E_(k-1)^(i) = delta_ij I
    for all i, j in 1..n-1 (the second term is empty at k = 1); otherwise
    the least failing (i, j, row, col), rows and columns indexing the colex
    (k-1)-subsets of 1..n-1, with the entry it got and the one expected."""
    if not 1 <= k <= n - 1:
        raise ValueError(f"need 1 <= k <= n-1, got k={k}, n={n}")
    # the coefficient of x_i conj(x_j) at (row, col), minus delta_ij I
    residual = defaultdict(int)
    for column in _entries(n, k, 1):  # (E_k^(i) E_k^(j)^T)[r, s]
        for (r, i, a), (s, j, b) in product(column, repeat=2):
            residual[i, j, r, s] += a * b
    for row in _entries(n, k - 1, 0) if k > 1 else ():  # (E_(k-1)^(j)^T E_(k-1)^(i))[r, s]
        for (r, j, a), (s, i, b) in product(row, repeat=2):
            residual[i, j, r, s] += a * b
    for i in range(1, n):
        for r in range(math.comb(n - 1, k - 1)):
            residual[i, i, r, r] -= 1
    failing = min((key for key, value in residual.items() if value), default=None)
    if failing is None:
        return None
    i, j, row, col = failing
    expected = int(i == j and row == col)
    return {"i": i, "j": j, "row": row, "col": col,
            "got": residual[failing] + expected, "expected": expected}


def embedding_trial_stats(n: int, k: int, trials: int, seed: int) -> dict:
    """The least and the largest op_norm(A_k(x)) / |x| over `trials`
    seeded points x of the ball; the identity makes both 1 up to rounding."""
    rng = np.random.default_rng(seed)
    ratios = []
    for _ in range(trials):
        raw = rng.standard_normal(n - 1) + 1j * rng.standard_normal(n - 1)
        point = raw * (rng.uniform(0.01, 0.99) / np.linalg.norm(raw))
        ratios.append(op_norm(satake_matrix(point, n, k)) / float(np.linalg.norm(point)))
    return {"n": n, "k": k, "trials": trials, "seed": seed,
            "min_norm_ratio": min(ratios), "max_norm_ratio": max(ratios)}
