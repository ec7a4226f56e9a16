"""Subset indexing, compound (exterior-power) matrices, removal
matrices, wedge Gram construction, and the induced similitude map.

All arithmetic here is exact and ring-generic: entries may be ints,
Fractions, CycloElements, `serretate.Polynomial`s or sympy expressions,
as long as they support +, -, * and truthiness-as-nonzero.  `compound`
computes each minor once, by Laplace expansion from the minors on one
row fewer, and `det` is its n x n case.  `colex_subsets` is the one
subset order and `removal_entries` the one builder of the +-x_{i_nu}
matrices of the deformation blocks and the ball embedding, which
`removal_matrix` makes dense.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations, repeat

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


def removal_entries(ground, k: int):
    """The nonzero entries of the removal matrix on ground, column by column,
    as (row, col, t, sign): row and col index the colex (k-1)- and
    k-subsets of ground, and column J holds sign = (-1)**nu times the t-th
    value in the row J - {J[nu]}, where J[nu] = ground[t]."""
    position = {x: t for t, x in enumerate(ground)}
    row_of = {I: r for r, I in enumerate(colex_subsets(ground, k - 1))}
    for c, J in enumerate(colex_subsets(ground, k)):
        for nu, removed in enumerate(J):
            yield row_of[J[:nu] + J[nu + 1 :]], c, position[removed], (-1) ** nu


def removal_matrix(values, ground, k: int) -> tuple[tuple[object, ...], ...]:
    """Rows (k-1)-subsets, columns k-subsets of ground, both colex; entry
    (I, J) is (-1)**nu * values[t] when I = J - {J[nu]} and J[nu] = ground[t],
    else 0."""
    size = len(ground)
    out = [[0] * math.comb(size, k) for _ in range(math.comb(size, k - 1))]
    for r, c, t, sign in removal_entries(ground, k):
        out[r][c] = sign * values[t]
    return tuple(map(tuple, out))


def _laplace(minors: dict, row) -> dict:
    """Nonzero minors on the rows of `minors` plus one row below them.

    minors maps a column bitmask to the nonzero minor on those columns
    ({0: 1} for no rows); row lists (column, (entry, -entry)) for its
    nonzero entries.  The expansion is along the new last row: the parity
    of the chosen columns above column c picks the signed entry."""
    out = {}
    for cols, minor in minors.items():
        for c, signed in row:
            bit = 1 << c
            if cols & bit:
                continue
            entry = signed[(cols >> c).bit_count() & 1]
            term = entry * minor if cols else entry
            key = cols | bit
            out[key] = out[key] + term if key in out else term
    return {key: value for key, value in out.items() if value}


def compound(matrix, k: int) -> tuple[tuple[object, ...], ...]:
    """Matrix of k x k minors in SubsetIndex order (the k-th compound).

    Each minor is computed once: the minors on rows P + (r,) come from the
    minors on rows P by Laplace expansion along row r, walking the row
    prefixes depth first.  Only multiplication, addition and negation are
    used, so any commutative ring works; a vanishing minor is the int 0."""
    n = len(matrix)
    if any(len(row) != n for row in matrix):
        raise ValueError("compound requires a square matrix")
    if not 0 <= k <= n:
        raise ValueError(f"need 0 <= k <= n, got k={k}, n={n}")
    if k == 0:
        return ((1,),)
    # each entry with its negation, made once per row, not once per minor
    rows = [[(c, (entry, -entry)) for c, entry in enumerate(row) if entry] for row in matrix]
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
    order = SubsetIndex.build(n, k).order
    masks = [sum(1 << (i - 1) for i in s) for s in order]
    return tuple(
        tuple(map(by_rows[tuple(i - 1 for i in I)].get, masks, repeat(0)))
        for I in order
    )


def det(matrix) -> object:
    """Exact determinant: the n x n case of compound.

    The empty matrix has determinant 1 and a singular one 0, as plain
    ints, which coerce into any of the supported rings."""
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
