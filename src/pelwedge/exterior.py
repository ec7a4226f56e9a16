"""Subset indexing, compound (exterior-power) matrices, removal
matrices, wedge Gram construction, and the induced similitude map.

All arithmetic here is exact and ring-generic: entries may be ints,
Fractions, CycloElements, or sympy expressions, as long as they support
+, -, * and truthiness-as-nonzero.  `compound` computes each minor once,
by Laplace expansion from the minors on one row fewer, and `det` is its
n x n case.  `colex_subsets` is the one subset order and `removal_matrix`
the one builder of the +-x_{i_nu} matrices of the deformation blocks and
the ball embedding.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .cyclofield import CycloElement


class NotASimilitude(ArithmeticError):
    """No single multiplier transports the form through the given matrix."""


def colex_subsets(ground, k: int) -> tuple[tuple[int, ...], ...]:
    """k-subsets of the ascending sequence ground, each ascending, in colex order."""
    return tuple(sorted(combinations(ground, k), key=lambda s: s[::-1]))


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
        with_one = tuple(
            (1,) + rest for rest in colex_subsets(range(2, n + 1), k - 1)
        ) if k >= 1 else ()
        return cls(n, k, with_one + colex_subsets(range(2, n + 1), k))

    def __len__(self) -> int:
        return len(self.order)


def subsets_of_tail(n: int, k: int) -> tuple[tuple[int, ...], ...]:
    """k-subsets of {2..n} in colex order (the block-index convention)."""
    return colex_subsets(range(2, n + 1), k)


def removal_matrix(values, ground, k: int) -> tuple[tuple[object, ...], ...]:
    """Rows (k-1)-subsets, columns k-subsets of ground, both colex; entry
    (I, J) is (-1)**nu * values[t] when I = J - {J[nu]} and J[nu] = ground[t],
    else 0."""
    value_of = dict(zip(ground, values))
    rows = colex_subsets(ground, k - 1)
    cols = colex_subsets(ground, k)
    row_of = {I: r for r, I in enumerate(rows)}
    out = [[0] * len(cols) for _ in rows]
    for c, J in enumerate(cols):
        for nu, removed in enumerate(J):
            out[row_of[J[:nu] + J[nu + 1 :]]][c] = (-1) ** nu * value_of[removed]
    return tuple(map(tuple, out))


def _laplace(minors: dict, row) -> dict:
    """Nonzero minors on the rows of `minors` plus one row below them.

    minors maps a column bitmask to the nonzero minor on those columns
    ({0: 1} for no rows); row lists (column, entry) for its nonzero
    entries.  The expansion is along the new last row: moving column c
    past the chosen columns above it gives the sign."""
    out = {}
    for cols, minor in minors.items():
        for c, entry in row:
            bit = 1 << c
            if cols & bit:
                continue
            term = entry * minor if cols else entry
            if (cols >> c).bit_count() % 2:
                term = -term
            key = cols | bit
            out[key] = out[key] + term if key in out else term
    return {key: value for key, value in out.items() if value}


def compound(matrix, k: int) -> tuple[tuple[object, ...], ...]:
    """Matrix of k x k minors in SubsetIndex order (the k-th compound).

    Each minor is computed once: the minors on rows P + (r,) come from the
    minors on rows P by Laplace expansion along row r, walking the row
    prefixes depth first.  Only multiplication, addition and negation are
    used, so any commutative ring works."""
    n = len(matrix)
    if any(len(row) != n for row in matrix):
        raise ValueError("compound requires a square matrix")
    if not 0 <= k <= n:
        raise ValueError(f"need 0 <= k <= n, got k={k}, n={n}")
    if k == 0:
        return ((1,),)
    zero = matrix[0][0] - matrix[0][0]
    rows = [[(c, entry) for c, entry in enumerate(row) if entry] for row in matrix]
    by_rows = {}
    # one (row prefix, its minors) per unfinished prefix that can still reach k rows
    stack = [((), {0: 1})]
    while stack:
        prefix, minors = stack.pop()
        if len(prefix) == k:
            by_rows[prefix] = minors
            continue
        first = prefix[-1] + 1 if prefix else 0
        for r in range(first, n - k + len(prefix) + 1):
            stack.append((prefix + (r,), _laplace(minors, rows[r])))
    masks = {s: sum(1 << (i - 1) for i in s) for s in SubsetIndex.build(n, k).order}
    return tuple(
        tuple(by_rows[tuple(i - 1 for i in I)].get(mask, zero) for mask in masks.values())
        for I in masks
    )


def det(matrix) -> object:
    """Exact determinant: the n x n case of compound.

    The empty matrix has determinant 1 (as a plain int, which coerces
    into any of the supported rings)."""
    return compound(matrix, len(matrix))[0][0]


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
