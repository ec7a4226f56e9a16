"""Block-matrix shadows of ordinary deformations and their Galois action.

A deformation is represented only by its parameter matrix phi (connected
height a, etale height b); the Galois action on the Tate module is the
block matrix [[c1*E_a, C], [0, E_b]], made by `assemble_block`.  The
Serre-Tate identity is checked in one place, `_block_identity`: the
k-th compound of the (1, b) block of a parameter row is the block of the
row's contraction `contract(row, k)`, as an exact identity in
Z[c1, ...], with one walk of `compounds` for every k of a block.
`verify_vdrei` and `verify_vzehn` differ only in their generators and in
what they report.  The ring's elements (`Polynomial`, made from
`generators`) are sparse dicts from monomial to nonzero int, so equal
polynomials compare equal with no symbolic simplification.

Every block is a `SparseRows`: the compound keeps only its nonzero
minors, the C-blocks are built from `removal_entries`, and two blocks
are compared by their nonzero entries alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .exterior import SparseRows, compounds, removal_entries

# A variable is its name, as a sympy Symbol is: the first `generators` call
# that names it gives it the next _BITS-bit field of a monomial, and every
# later call with that name returns the same variable.
_BITS = 16
_MAX_DEGREE = (1 << _BITS) - 1
_VARIABLES: dict[str, int] = {}


class Polynomial:
    """Element of Z[x1, x2, ...]: a dict from monomial to nonzero int.

    A monomial packs one exponent per variable into _BITS bits of an int,
    so multiplying monomials adds their ints and the constant monomial is
    0.  `degree` bounds the total degree from above; a product past
    _MAX_DEGREE raises, so no exponent carries into the next field.  Equal
    polynomials have equal dicts, and ints compare as constants."""

    __slots__ = ("terms", "degree")

    def __init__(self, terms: dict[int, int], degree: int):
        self.terms = terms
        self.degree = degree

    def __add__(self, other):
        if isinstance(other, int):
            if not other:
                return self
            other, degree = {0: other}, self.degree
        elif isinstance(other, Polynomial):
            other, degree = other.terms, max(self.degree, other.degree)
        else:
            return NotImplemented
        terms = self.terms
        if len(terms) < len(other):
            terms, other = other, terms
        out = terms.copy()
        for m, b in other.items():
            c = out.get(m, 0) + b
            if c:
                out[m] = c
            else:
                del out[m]
        return Polynomial(out, degree)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial({m: -a for m, a in self.terms.items()}, self.degree)

    def __sub__(self, other):
        return self + -other if isinstance(other, (int, Polynomial)) else NotImplemented

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        if isinstance(other, int):
            # most block entries are 1 or -1, which need no new products
            if other == 1:
                return self
            if other == -1:
                return -self
            terms = {m: a * other for m, a in self.terms.items()} if other else {}
            return Polynomial(terms, self.degree)
        if not isinstance(other, Polynomial):
            return NotImplemented
        degree = self.degree + other.degree
        if degree > _MAX_DEGREE:
            raise OverflowError(f"degree {degree} exceeds {_MAX_DEGREE}")
        small, large = self.terms, other.terms
        if len(small) > len(large):
            small, large = large, small
        if len(small) == 1:  # a monomial times a polynomial: no terms merge
            ((m, a),) = small.items()
            return Polynomial({m + n: a * b for n, b in large.items()}, degree)
        out = {}
        for m, a in small.items():
            for n, b in large.items():
                out[m + n] = out.get(m + n, 0) + a * b
        return Polynomial({m: c for m, c in out.items() if c}, degree)

    __rmul__ = __mul__

    def __eq__(self, other):
        if isinstance(other, Polynomial):
            return self.terms == other.terms
        if isinstance(other, int):
            return self.terms == {0: other} if other else not self.terms
        return NotImplemented

    def __bool__(self):
        return bool(self.terms)

    def __str__(self):
        """The polynomial as sympy prints it: terms in descending lex order
        of their exponents over the variable names sorted as strings."""
        names = sorted(_VARIABLES)
        shifts = [_BITS * _VARIABLES[x] for x in names]
        exponents = {m: [m >> s & _MAX_DEGREE for s in shifts] for m in self.terms}
        order = sorted(self.terms, key=exponents.get, reverse=True)
        # sympy's one exception: a positive constant and a negative multiple
        # of one variable's power print the constant first, as in 1 - x
        if (len(order) == 2 and order[1] == 0 and self.terms[0] > 0
                and self.terms[order[0]] < 0 and sum(map(bool, exponents[order[0]])) == 1):
            order.reverse()
        out = []
        for m in order:
            c = self.terms[m]
            factors = "*".join(
                x if e == 1 else f"{x}**{e}" for x, e in zip(names, exponents[m]) if e
            )
            if not factors:
                out.append(str(c))
            elif c == 1:
                out.append(factors)
            elif c == -1:
                out.append(f"-{factors}")
            else:
                out.append(f"{c}*{factors}")
        if not out:
            return "0"
        return out[0] + "".join(f" - {t[1:]}" if t[0] == "-" else f" + {t}" for t in out[1:])

    __repr__ = __str__


def generators(*names: str) -> tuple[Polynomial, ...]:
    """The variables of Z[names] as polynomials, in the order given."""
    return tuple(
        Polynomial({1 << _BITS * _VARIABLES.setdefault(x, len(_VARIABLES)): 1}, 1)
        for x in names
    )


@dataclass(frozen=True)
class DeformationParams:
    """Connected height a, etale height b, and the a x b parameter matrix."""

    a: int
    b: int
    phi: tuple[tuple[object, ...], ...] | SparseRows

    def __post_init__(self):
        if self.a < 0 or self.b < 0:
            raise ValueError("heights must be nonnegative")
        if not _has_shape(self.phi, self.a, self.b):
            raise ValueError(f"phi must be {self.a} x {self.b}")


def _has_shape(matrix, a: int, b: int) -> bool:
    """Whether matrix, a SparseRows or rows, is a x b."""
    if isinstance(matrix, SparseRows):
        return matrix.shape == (a, b)
    return len(matrix) == a and all(len(row) == b for row in matrix)


def assemble_block(c1, C, a: int, b: int) -> SparseRows:
    """The Galois block [[c1*E_a, C], [0, E_b]] of C, an a x b SparseRows
    or rows."""
    if not _has_shape(C, a, b):
        raise ValueError(f"C must be {a} x {b}")
    entries = {(i, i): c1 for i in range(a)} if c1 else {}
    entries.update(((i, a + j), x) for (i, j), x in SparseRows.of(C).entries.items())
    entries.update(((i, i), 1) for i in range(a, a + b))
    return SparseRows((a + b, a + b), entries)


def _removal_rows(values, k: int) -> SparseRows:
    """The removal matrix of values (see `removal_entries`), with each
    value negated once and falsy values dropped."""
    signed = [(x, -x) if x else None for x in values]
    size = len(values)
    return SparseRows((math.comb(size, k - 1), math.comb(size, k)), {
        (r, c): signed[t][sign < 0]
        for r, c, t, sign in removal_entries(size, k)
        if signed[t]
    })


@dataclass(frozen=True)
class VdreiReport:
    ok: bool
    witness: tuple[int, int, object, object] | None  # (row, col, got, expected)


def _first_mismatch(left, right) -> tuple[int, int, object, object] | None:
    """(row, col, left entry, right entry) at the least (row, col) where two
    equal-shape matrices differ, or None.  Only the nonzero entries are
    compared, of a SparseRows as it is and of other rows by SparseRows.of."""
    got, expected = SparseRows.of(left).entries, SparseRows.of(right).entries
    if got == expected:
        return None
    i, j = min(
        key for key in got.keys() | expected.keys() if got.get(key, 0) != expected.get(key, 0)
    )
    return i, j, got.get((i, j), 0), expected.get((i, j), 0)


def contract(phi: DeformationParams, k: int) -> DeformationParams:
    """Level-k contraction of a height-(1, b) parameter row: the parameters
    of the block that the Serre-Tate identity makes the k-th exterior power
    of the row's block (see `_block_identity`).

    Output shape C(b, k-1) x C(b, k); entry (I, J) is
    (-1)^(nu-1) * phi_{i_nu} when I = J - {i_nu}, over subsets of {1..b}."""
    if phi.a != 1:
        raise ValueError("contraction requires connected height a=1")
    b = phi.b
    if not 1 <= k <= b + 1:
        raise ValueError(f"need 1 <= k <= b+1, got k={k}, b={b}")
    matrix = _removal_rows(phi.phi[0], k)
    return DeformationParams(*matrix.shape, matrix)


def _block_identity(c1, phi: DeformationParams, ks) -> dict[int, tuple | None]:
    """For each k of ks: None when the k-th compound of the block
    [[c1, phi], [0, E_b]] of a 1 x b parameter row phi is the block of
    `contract(phi, k)`, else the least (row, col) where they differ, with
    the compound's entry and the contracted block's.  One walk of
    `compounds` serves every k."""
    witnesses = {}
    for k, wedge in compounds(assemble_block(c1, phi.phi, 1, phi.b), ks):
        contracted = contract(phi, k)
        block = assemble_block(c1, contracted.phi, contracted.a, contracted.b)
        witnesses[k] = _first_mismatch(wedge, block)
    return witnesses


def verify_vdrei(n: int, ks) -> dict[int, VdreiReport]:
    """The Serre-Tate identity (see `_block_identity`) in Z[c1..cn] on the
    1 x (n-1) block of c1 and the row c2..cn, for each k of ks.  A witness
    holds the two differing entries, as `Polynomial`s or ints.  A k outside
    1..n raises ValueError."""
    c1, *c = generators(*(f"c{i}" for i in range(1, n + 1)))
    witnesses = _block_identity(c1, DeformationParams(1, n - 1, (tuple(c),)), ks)
    return {k: VdreiReport(w is None, w) for k, w in witnesses.items()}


def verify_vzehn(phi: DeformationParams, c1, ks) -> dict[int, bool]:
    """The Serre-Tate identity (see `_block_identity`) on the block of the
    1 x b parameter row phi and c1, for each k of ks: whether the k-th
    compound of the block equals the block of the contracted parameters.

    Entries may come from any commutative ring that compares exactly:
    ints, `Polynomial`s from `generators`, or Z/p^N.  A k outside 1..b+1
    raises ValueError."""
    if phi.a != 1:
        raise ValueError("phi must be a 1 x b parameter row")
    return {k: w is None for k, w in _block_identity(c1, phi, ks).items()}
