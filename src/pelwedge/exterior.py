"""Subset indexing, compound (exterior-power) matrices, removal
matrices, wedge Gram construction, and the induced similitude map.

All arithmetic here is exact.  `compound` computes each minor once, by
Laplace expansion from the minors on one row fewer, and `det` is its
n x n case.  It takes one of two paths, chosen from the entries:

- Over L = Q(zeta_m), a `CycloMatrix` or rows holding a CycloElement, the
  minors are built by levels on one integer array (rows, cols, phi(m)):
  level j+1 is one gather from level j and from the matrix, one batched
  product through the field's power table and one sum over the j+1 terms
  of the expansion along the last row.  The gather indices are cached per
  (n, k).  A level runs in int64 when (j+1) * bound * max|A| * max|M_j|
  < 2^63, from the actual largest entries of the matrix A and of level
  j and the field's product bound, and on Python ints otherwise.
- Over any other commutative ring (ints, Fractions, `serretate.Polynomial`s
  or sympy expressions, with +, -, * and truthiness-as-nonzero), `_laplace`
  keeps only the nonzero minors in a dict per row prefix.  The Serre-Tate
  blocks are sparse, and dense levels would enumerate all C(n, j)^2 minors
  of each of them.

`wedge_gram` is the L path followed by one more product, by psi0^(1-k),
and returns a `CycloMatrix`; `multiplier` stays on CycloElements.
`colex_subsets` is the one subset order and `removal_entries` the one
builder of the +-x_{i_nu} matrices of the deformation blocks and the ball
embedding, which `removal_matrix` makes dense.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, repeat

import numpy as np

from .cyclofield import CycloElement, CycloMatrix, integer_array


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


def compound(matrix, k: int):
    """Matrix of k x k minors in SubsetIndex order (the k-th compound).

    Over L (a `CycloMatrix`, or rows with a CycloElement among their
    entries) the minors are built by levels on one array and returned as a
    CycloMatrix.  Over any other commutative ring each minor is computed
    once: the minors on rows P + (r,) come from the minors on rows P by
    Laplace expansion along row r, walking the row prefixes depth first.
    Only multiplication, addition and negation are used, and a vanishing
    minor is the int 0."""
    n = len(matrix)
    if isinstance(matrix, CycloMatrix):
        square = matrix.shape == (n, n)
    else:
        square = all(len(row) == n for row in matrix)
        field = next((x.field for row in matrix for x in row if isinstance(x, CycloElement)), None)
        if square and field is not None:
            matrix = CycloMatrix.of(field, matrix)
    if not square:
        raise ValueError("compound requires a square matrix")
    if not 0 <= k <= n:
        raise ValueError(f"need 0 <= k <= n, got k={k}, n={n}")
    if isinstance(matrix, CycloMatrix):
        return _field_compound(matrix, k)
    return _ring_compound(matrix, k)


def _ring_compound(matrix, k: int) -> tuple[tuple[object, ...], ...]:
    """The k-th compound of a square matrix over any commutative ring, by
    `_laplace` on the nonzero minors of each row prefix."""
    n = len(matrix)
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


def _frozen(values) -> np.ndarray:
    a = np.array(values, dtype=np.intp)
    a.flags.writeable = False
    return a


@lru_cache(maxsize=64)
def _levels(n: int, k: int):
    """Gather indices of the compound by levels, for an n x n matrix.

    Level j holds the minors on the colex j-subsets R of the rows {0..n-1}
    that can still grow to k rows (max R < n - k + j) and on every colex
    j-subset of the columns.  The minor on R and J at level j+1 expands
    along the last row r = R[-1]: it is the sum over nu of
    (-1)^(j+nu) * A[r, J[nu]] * minor(R - {r}, J - {J[nu]}).  Each step is
    (last, rest, entry, rest_cols, signs): last[R] = r and rest[R] the index
    of R - {r} at level j; entry[J, nu] = J[nu] and rest_cols[J, nu] the
    index of J - {J[nu]}.  At level k every k-subset is a row, so rows
    and columns share one colex order, and `order` maps SubsetIndex order
    to it."""
    steps = []
    rows = [()]
    cols = [()]
    for j in range(k):
        row_index = {R: i for i, R in enumerate(rows)}
        col_index = {J: i for i, J in enumerate(cols)}
        rows = [R for R in colex_subsets(range(n), j + 1) if R[-1] < n - k + j + 1]
        cols = colex_subsets(range(n), j + 1)
        steps.append((
            _frozen([R[-1] for R in rows]),
            _frozen([row_index[R[:-1]] for R in rows]),
            _frozen(cols),
            _frozen([[col_index[J[:nu] + J[nu + 1 :]] for nu in range(j + 1)] for J in cols]),
            _frozen([(-1) ** (j + nu) for nu in range(j + 1)]),
        ))
    position = {J: i for i, J in enumerate(cols)}
    order = _frozen([position[tuple(i - 1 for i in I)] for I in SubsetIndex.build(n, k).order])
    return tuple(steps), order


def _field_compound(matrix: CycloMatrix, k: int) -> CycloMatrix:
    """The k-th compound over L, level by level (see `_levels`); minors
    of j rows are numerators over den^j."""
    field = matrix.field
    a = matrix.nums
    minors = np.zeros((1, 1, field.degree), dtype=np.int64)
    minors[0, 0, 0] = 1
    steps, order = _levels(len(matrix), k)
    for last, rest, entry, rest_cols, signs in steps:
        terms = a[last[:, None, None], entry] * signs[:, None]
        below = minors[rest[:, None, None], rest_cols]
        minors = field.dot(terms, below)
    return CycloMatrix(field, minors[order][:, order], matrix.den**k)


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


def wedge_gram(psi0: CycloElement, psi1, k: int) -> CycloMatrix:
    """psi0^(1-k) times the k-th compound of psi1: entry (I,J) = psi0^(1-k) * det(psi1[I,J]).

    With a Gram pair this is the wedge Gram; with a similitude pair
    (gamma0, gamma1) it is the induced similitude map `g_k`.  psi1 is a
    CycloMatrix or rows over psi0's field; the compound takes the array
    path, and the scaling is one more product of the whole array."""
    if not psi0:
        raise ValueError("psi0 must be nonzero")
    n = len(psi1)
    if not 0 <= k <= n:
        raise ValueError(f"need 0 <= k <= n, got k={k}, n={n}")
    field = psi0.field
    minors = compound(CycloMatrix.of(field, psi1), k)
    factor = psi0 ** (1 - k)
    nums = field.dot(minors.nums[..., None, :], integer_array([factor.num]))
    return CycloMatrix(field, nums, minors.den * factor.den)


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
