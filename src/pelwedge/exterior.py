"""Subset indexing, compound (exterior-power) matrices, removal
matrices, wedge Gram construction, and the induced similitude map.

All arithmetic here is exact.  `compound` computes each minor once, by
Laplace expansion from the minors on one row fewer.  It takes one of two
paths, chosen from the entries:

- Over L = Q(zeta_m), a `CycloMatrix`, the minors are built by levels
  on one integer array (rows, cols, phi(m)): level j+1 is one gather from
  level j and from the matrix, and one batched `CycloField.matmul` of the
  j+1 entries of the last row by their j-row minors, which sums the terms
  of the expansion along that row.  The gather indices are cached per
  (n, k).  The product's bounds, from the actual largest entries of the
  matrix and of level j, keep it exact: in float64 below 2^53, in uint64
  above while the product is small and its result certified below 2^62
  (or its bound below 2^63), else on limbs, with a result in int64 below
  2^63 and on Python ints above.
- Over any other commutative ring (ints, Fractions, `serretate.Polynomial`s,
  sympy expressions or CycloElements given as rows, with +, -, * and
  truthiness-as-nonzero), `leading_compounds` walks the same levels once
  for every requested k: `_laplace` keeps only the nonzero minors in a
  dict per row prefix, and a prefix is kept only while it can still grow
  to the next requested k (so `det` walks one chain of prefixes).  The
  k-th compound of the matrix and of each of its leading blocks is a
  `SparseRows` read off level k, so a suite of nested blocks is one walk
  of the largest.  The Serre-Tate blocks are sparse: at n = 10 the
  compounds over every k hold 3,328 nonzero minors of 184,756, and those
  of the leading blocks n = 1..10 together 6,143, all read off the
  3,328 that one walk computes.

`det` is the n x n case of the generic path.  Over L it is the last of
the `leading_minors`, which one division-free Berkowitz pass makes for
every leading block at once in O(n^4) field products (`_berkowitz`; the
same pass gives the characteristic polynomials of the leading blocks,
`minors_and_polynomials`), so L keeps one determinant; a level walk would
hold 2^n minors.  Every product over L is a `CycloField.matmul`.

`wedge_gram` is the L path followed by one scaling, by psi0^(1-k), and
returns a `CycloMatrix`; `multiplier` is two `CycloMatrix` products and
one scaling.
`colex_subsets` is the one subset order and `removal_entries` the one
builder of the +-x_{i_nu} matrices of the deformation blocks and the ball
embedding, which depend only on the number of values and on k;
`removal_matrix` makes them dense for the ball embedding.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterator, Sequence
from dataclasses import dataclass
from functools import lru_cache, partial
from itertools import combinations

import numpy as np

from .cyclofield import CycloElement, CycloMatrix


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


class SparseRows(Sequence):
    """A matrix as its `shape` and `entries`, a dict from (row, col) to each
    nonzero entry.  Every builder leaves out the falsy entries, and `of`
    drops them from dense rows.

    It reads as a sequence of rows, each a tuple with the int 0 where no
    entry is stored, made on first read; it equals any sequence of equal
    rows, and another SparseRows exactly when their entries are equal."""

    __slots__ = ("shape", "entries", "_rows")

    def __init__(self, shape: tuple[int, int], entries: dict):
        self.shape = shape
        self.entries = entries
        self._rows = None

    @classmethod
    def of(cls, rows) -> "SparseRows":
        """rows as a SparseRows: a SparseRows is returned as it is, and
        rows of unequal lengths raise ValueError."""
        if isinstance(rows, SparseRows):
            return rows
        rows = [tuple(row) for row in rows]
        cols = len(rows[0]) if rows else 0
        if any(len(row) != cols for row in rows):
            raise ValueError("rows must have equal lengths")
        return cls(
            (len(rows), cols),
            {(i, j): x for i, row in enumerate(rows) for j, x in enumerate(row) if x},
        )

    def _dense(self) -> tuple[tuple[object, ...], ...]:
        if self._rows is None:
            rows, cols = self.shape
            out = [[0] * cols for _ in range(rows)]
            for (i, j), x in self.entries.items():
                out[i][j] = x
            self._rows = tuple(map(tuple, out))
        return self._rows

    def __len__(self) -> int:
        return self.shape[0]

    def __getitem__(self, i):
        return self._dense()[i]

    def __iter__(self):
        return iter(self._dense())

    def __eq__(self, other):
        if isinstance(other, SparseRows):
            # every shape with no rows has the same (empty) rows
            return self.entries == other.entries and (
                self.shape == other.shape or not (self.shape[0] or other.shape[0])
            )
        if not isinstance(other, Sequence):
            return NotImplemented
        return self._dense() == tuple(map(tuple, other))

    __hash__ = None


def removal_entries(size: int, k: int) -> Iterator[tuple[int, int, int, int]]:
    """The nonzero entries of the removal matrix on size values, column by
    column, as (row, col, t, sign): row and col index the colex (k-1)- and
    k-subsets of range(size), and column J holds sign = (-1)**nu times the
    value J[nu] = t in the row J - {t}.  They are listed once per
    (size, k); the iterator reads that list."""
    return iter(_removal_positions(size, k))


@lru_cache(maxsize=64)
def _removal_positions(size: int, k: int) -> tuple[tuple[int, int, int, int], ...]:
    row_of = {I: r for r, I in enumerate(colex_subsets(range(size), k - 1))}
    return tuple(
        (row_of[J[:nu] + J[nu + 1 :]], c, t, (-1) ** nu)
        for c, J in enumerate(colex_subsets(range(size), k))
        for nu, t in enumerate(J)
    )


def removal_matrix(values, k: int) -> tuple[tuple[object, ...], ...]:
    """Rows (k-1)-subsets, columns k-subsets of the positions of values,
    both colex; entry (I, J) is (-1)**nu * values[J[nu]] when
    I = J - {J[nu]}, else 0."""
    size = len(values)
    out = [[0] * math.comb(size, k) for _ in range(math.comb(size, k - 1))]
    for r, c, t, sign in removal_entries(size, k):
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

    Over L (a `CycloMatrix`) the minors are built by levels on one array
    and returned as a CycloMatrix.  Over any other commutative ring, rows
    of CycloElements among them, it is the one-k, whole-matrix case of
    `leading_compounds`, a `SparseRows` of the nonzero minors."""
    if not isinstance(matrix, CycloMatrix):
        return next(leading_compounds(matrix, (k,)))[1](len(matrix))
    n = len(matrix)
    if matrix.shape != (n, n):
        raise ValueError("compound requires a square matrix")
    if not 0 <= k <= n:
        raise ValueError(f"need 0 <= k <= n, got k={k}, n={n}")
    return _field_compound(matrix, k)


def leading_compounds(matrix, ks) -> Iterator[tuple[int, Callable[[int], SparseRows]]]:
    """(k, leading) for each k of ks in ascending order, from one walk by
    levels of a square matrix over any commutative ring: leading(size) is
    the k-th compound of the leading size x size block, for k <= size <= n,
    so leading(n) is the matrix's own.

    Level j maps each row prefix of j rows that can still grow to the next
    requested k to its nonzero minors; level j+1 is `_laplace` of each
    prefix along each later row, and each minor is computed once.  The
    minors of a leading block are the same determinants, so leading(size)
    keeps the minors of level k whose row and column bitmasks lie below
    2^size.  The walk holds at most two levels at a time, and a leading
    holds the level it was yielded with for as long as it is kept.  Only
    multiplication, addition and negation are used, and each compound is
    a `SparseRows` of the nonzero minors."""
    matrix = SparseRows.of(matrix)
    n, cols = matrix.shape
    if cols != n:
        raise ValueError("compound requires a square matrix")
    ks = sorted(set(ks))
    for k in ks:
        if not 0 <= k <= n:
            raise ValueError(f"need 0 <= k <= n, got k={k}, n={n}")
    # each entry with its negation, made once per entry, not once per minor;
    # sorted, each row lists its entries by column
    rows = [[] for _ in range(n)]
    for (i, c), entry in sorted(matrix.entries.items()):
        rows[i].append((c, (entry, -entry)))
    level, j = {0: {0: 1}}, 0  # the bitmask of each row prefix -> its minors
    for k in ks:
        while j < k:
            level = {
                used | 1 << r: _laplace(minors, rows[r])
                for used, minors in level.items()
                for r in range(used.bit_length(), n - k + j + 1)
            }
            j += 1
        yield k, partial(_leading_compound, level, k)


def _leading_compound(level: dict, k: int, size: int) -> SparseRows:
    """The k-th compound of the leading size x size block, from the level
    of k-row prefixes of a larger matrix: at level k every k-subset of the
    rows is a prefix."""
    limit = 1 << size
    index = _subset_masks(size, k)
    return SparseRows((len(index), len(index)), {
        (index[used], index[cols]): minor
        for used, minors in level.items() if used < limit
        for cols, minor in minors.items() if cols < limit
    })


@lru_cache(maxsize=64)
def _subset_masks(n: int, k: int) -> dict[int, int]:
    """The map from the bitmask of each k-subset of {0..n-1} to its index
    in SubsetIndex order."""
    return {
        sum(1 << (i - 1) for i in s): c for c, s in enumerate(SubsetIndex.build(n, k).order)
    }


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
        # one (1, j + 1) by (j + 1, 1) product over L for each minor
        minors = field.matmul(terms[..., None, :, :], below[..., None, :])[..., 0, 0, :]
    return CycloMatrix(field, minors[order][:, order], matrix.den**k)


def _berkowitz(matrix: CycloMatrix) -> list[np.ndarray]:
    """p_0 .. p_n, the characteristic polynomials det(x I - N_k) of the
    leading k x k blocks N_k of the numerator array N of a square matrix
    over L, each as a (k + 1, phi(m)) array of numerators from the
    leading 1 down, from one division-free Berkowitz pass over every
    leading block at once (Berkowitz, Inform. Process. Lett. 18, 1984).

    With c_k the column above N[k, k] and r_k the row before it, p_(k+1)
    is T_k p_k for the Toeplitz matrix T_k of (1, -N[k, k], -r_k c_k,
    -r_k N_k c_k, .., -r_k N_k^(k-1) c_k).  Column k of V_i holds
    N_k^i c_k above row k and 0 from row k down, so U_i = N V_i is one
    `CycloField.matmul` per power i < n - 1, whose entry (k, k) is r_k
    N_k^i c_k; the strict upper triangle of U_i is V_(i+1).  Those
    entries fill the first columns of every T_k as they come.  Then one
    matrix-vector `matmul` per k takes p_k to p_(k+1): 2n - 1 products
    and no inverse.  The coefficients of p_k are far smaller than the
    a-priori bounds of the last steps, which pass 2^53, so those steps
    are the small uint64 products of `CycloField.matmul`."""
    field, a = matrix.field, matrix.nums
    n, d = len(matrix), field.degree
    if matrix.shape != (n, n):
        raise ValueError("the characteristic polynomial needs a square matrix")
    # row k from place 1 on: 1, -N[k, k], -r_k c_k, .., -r_k N_k^(k-1) c_k,
    # the first column of T_k
    columns = np.zeros((n, n + 3, d), dtype=a.dtype)
    columns[:, 1, 0] = 1
    columns[:, 2] = -a[range(n), range(n)]
    upper = np.triu(np.ones((n, n), dtype=bool), 1)[..., None]
    v = np.where(upper, a, 0)[:, 1:]  # the columns k > i of V_i
    for i in range(n - 1):
        u = field.matmul(a, v)
        if u.dtype == object:
            columns = columns.astype(object, copy=False)
        # U_i[k, k] = r_k N_k^i c_k for the columns k > i
        columns[i + 1 :, i + 3] = -u[i + 1 :].diagonal(0, 0, 1).T
        v = np.where(upper[:, i + 2 :], u[:, 1:], 0)
    # row 0 of the column is 0, so T_k[r, j] = column[r - j + 1] if r >= j
    places = np.maximum(np.arange(n + 1)[:, None] - np.arange(n) + 1, 0)
    polys = [np.eye(1, d, dtype=np.int64)]
    for k in range(n):
        toeplitz = columns[k, places[: k + 2, : k + 1]]
        polys.append(field.matmul(toeplitz, polys[-1][:, None])[:, 0])
    return polys


def leading_minors(matrix: CycloMatrix) -> tuple[CycloElement, ...]:
    """Delta_1 .. Delta_n, the leading principal minors of a square matrix
    over L, from one Berkowitz pass: the first of `minors_and_polynomials`."""
    return minors_and_polynomials(matrix)[0]


def minors_and_polynomials(matrix: CycloMatrix):
    """(Delta_1 .. Delta_n, p_0 .. p_n) from one Berkowitz pass over a square
    matrix over L: the polynomials p_k of `_berkowitz`, of the leading
    blocks of its numerator array, and Delta_k = (-1)^k p_k(0) / den^k."""
    field, den = matrix.field, matrix.den
    polys = _berkowitz(matrix)
    minors = tuple(
        CycloElement(field, tuple(c if k % 2 == 0 else -c for c in p[-1].tolist()), den**k)
        for k, p in enumerate(polys[1:], 1)
    )
    return minors, polys


def det(matrix) -> object:
    """Exact determinant.  Over L (a `CycloMatrix`) it is the last of the
    `leading_minors`, and 1 for the empty matrix; over any other ring it
    is the n x n case of compound, and the empty matrix has determinant 1
    and a singular one 0, as plain ints, which coerce into any of the
    supported rings."""
    if isinstance(matrix, CycloMatrix):
        minors = leading_minors(matrix)
        return minors[-1] if minors else matrix.field.one
    return compound(matrix, len(matrix))[0][0]


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
    return compound(CycloMatrix.of(psi0.field, psi1), k) * psi0 ** (1 - k)


# the induced similitude map gamma0^(1-k) * Lambda^k gamma1
g_k = wedge_gram


def multiplier(gamma: CycloMatrix, psi: CycloMatrix) -> CycloElement:
    """The unique mu with conj-transpose(gamma) * psi * gamma = mu * psi,
    for square matrices of one size over one field."""
    n = len(psi)
    if gamma.shape != (n, n) or psi.shape != (n, n):
        raise ValueError("dimension mismatch")
    transported = gamma.conj_transpose() @ psi @ gamma
    nonzero = np.argwhere(psi.nums.any(axis=2))
    if not len(nonzero):
        raise ValueError("psi is the zero form")
    i, j = nonzero[0]
    mu = transported[i][j] / psi[i][j]
    expected = psi * mu
    if transported != expected:
        mismatch = next(
            (i, j) for i in range(n) for j in range(n) if transported[i][j] != expected[i][j]
        )
        raise NotASimilitude(f"no single multiplier works (mismatch at {mismatch})")
    return mu
