"""Subset indexing, compound (exterior-power) matrices, wedge Gram
construction, and the induced similitude map.

All arithmetic here is exact and ring-generic: entries may be ints,
Fractions, CycloElements, or sympy expressions, as long as they support
+, -, * and truthiness-as-nonzero.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .cyclofield import CycloElement


class NotASimilitude(ArithmeticError):
    """No single multiplier transports the form through the given matrix."""


def _colex_key(subset: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(sorted(subset, reverse=True))


@dataclass(frozen=True)
class SubsetIndex:
    """k-subsets of {1..n}: subsets containing 1 first, colex within halves."""

    n: int
    k: int
    order: tuple[tuple[int, ...], ...]

    @classmethod
    def build(cls, n: int, k: int) -> "SubsetIndex":
        if not 0 <= k <= n:
            raise ValueError(f"need 0 <= k <= n, got k={k}, n={n}")
        with_one = sorted(
            ((1,) + rest for rest in combinations(range(2, n + 1), k - 1)),
            key=_colex_key,
        ) if k >= 1 else []
        without_one = sorted(combinations(range(2, n + 1), k), key=_colex_key)
        return cls(n, k, tuple(with_one) + tuple(without_one))

    def position(self, subset: tuple[int, ...]) -> int:
        return self.order.index(tuple(sorted(subset)))

    def __len__(self) -> int:
        return len(self.order)


def subsets_of_tail(n: int, k: int) -> tuple[tuple[int, ...], ...]:
    """k-subsets of {2..n} in colex order (the block-index convention)."""
    return tuple(sorted(combinations(range(2, n + 1), k), key=_colex_key))


def det(matrix) -> object:
    """Exact determinant by cofactor expansion, skipping zero entries.

    The empty matrix has determinant 1 (as a plain int, which coerces
    into any of the supported rings)."""
    rows = [list(row) for row in matrix]
    n = len(rows)
    if n == 0:
        return 1
    if n == 1:
        return rows[0][0]

    def expand(row_ids, col_ids):
        if len(row_ids) == 1:
            return rows[row_ids[0]][col_ids[0]]
        # expand along the row with the fewest nonzero entries
        best = min(
            row_ids,
            key=lambda r: sum(1 for c in col_ids if rows[r][c]),
        )
        rest_rows = tuple(r for r in row_ids if r != best)
        sign_base = row_ids.index(best)
        total = None
        for pos, c in enumerate(col_ids):
            entry = rows[best][c]
            if not entry:
                continue
            rest_cols = col_ids[:pos] + col_ids[pos + 1 :]
            term = entry * expand(rest_rows, rest_cols)
            if (sign_base + pos) % 2:
                term = -term
            total = term if total is None else total + term
        if total is None:
            return rows[0][0] - rows[0][0]  # a zero of the right ring
        return total

    return expand(tuple(range(n)), tuple(range(n)))


def compound(matrix, k: int) -> tuple[tuple[object, ...], ...]:
    """Matrix of k x k minors in SubsetIndex order (the k-th compound)."""
    rows = [list(row) for row in matrix]
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise ValueError("compound requires a square matrix")
    if not 0 <= k <= n:
        raise ValueError(f"need 0 <= k <= n, got k={k}, n={n}")
    index = SubsetIndex.build(n, k)
    out = []
    for I in index.order:
        out_row = []
        for J in index.order:
            minor = [[rows[i - 1][j - 1] for j in J] for i in I]
            out_row.append(det(minor))
        out.append(tuple(out_row))
    return tuple(out)


def mat_mul(a, b):
    rows, inner, cols = len(a), len(b), len(b[0]) if b else 0
    if any(len(row) != inner for row in a):
        raise ValueError("dimension mismatch")
    out = []
    for i in range(rows):
        out_row = []
        for j in range(cols):
            acc = None
            for t in range(inner):
                term = a[i][t] * b[t][j]
                acc = term if acc is None else acc + term
            out_row.append(acc)
        out.append(tuple(out_row))
    return tuple(out)


def conj_transpose(matrix):
    return tuple(
        tuple(matrix[j][i].conj() for j in range(len(matrix)))
        for i in range(len(matrix[0]))
    )


def scalar_mul(scalar, matrix):
    return tuple(tuple(scalar * entry for entry in row) for row in matrix)


def wedge_gram(psi0: CycloElement, psi1, k: int):
    """psi0^(1-k) times the k-th compound of psi1: entry (I,J) = psi0^(1-k) * det(psi1[I,J]).

    With a Gram pair this is the wedge Gram; with a similitude pair
    (gamma0, gamma1) it is the induced similitude map `g_k`."""
    if not psi0:
        raise ValueError("psi0 must be nonzero")
    n = len(psi1)
    if not 0 <= k <= n:
        raise ValueError(f"need 0 <= k <= n, got k={k}, n={n}")
    factor = psi0 ** (1 - k)
    return scalar_mul(factor, compound(psi1, k))


def skew_sign(psi0: CycloElement, psi1, k: int) -> int:
    """The sign s with conj-transpose(wedge_gram) = s * wedge_gram.

    Recorded empirically per k rather than assumed; raises if the
    computed gram satisfies neither sign."""
    gram = wedge_gram(psi0, psi1, k)
    ct = conj_transpose(gram)
    if all(ct[i][j] == -gram[i][j] for i in range(len(gram)) for j in range(len(gram))):
        return -1
    if all(ct[i][j] == gram[i][j] for i in range(len(gram)) for j in range(len(gram))):
        return 1
    raise ArithmeticError(f"wedge gram at k={k} is neither Hermitian nor skew")


# the induced similitude map gamma0^(1-k) * Lambda^k gamma1
g_k = wedge_gram


def multiplier(gamma, psi) -> CycloElement:
    """The unique mu with conj-transpose(gamma) * psi * gamma = mu * psi."""
    n = len(gamma)
    if len(psi) != n:
        raise ValueError("dimension mismatch")
    transported = mat_mul(mat_mul(conj_transpose(gamma), psi), gamma)
    mu = None
    for i in range(n):
        for j in range(n):
            if psi[i][j]:
                mu = transported[i][j] / psi[i][j]
                break
        if mu is not None:
            break
    if mu is None:
        raise ValueError("psi is the zero form")
    for i in range(n):
        for j in range(n):
            if transported[i][j] != mu * psi[i][j]:
                raise NotASimilitude(
                    f"no single multiplier works (mismatch at {(i, j)})"
                )
    return mu
