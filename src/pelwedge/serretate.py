"""Block-matrix shadows of ordinary deformations and their Galois action.

A deformation is represented only by its parameter matrix phi (connected
height a, etale height b); the Galois action on the Tate module is the
block matrix [[c1*E_a, C], [0, E_b]].  Verification compares compounds
of these blocks against the directly constructed wedge blocks, as exact
identities in Z[c1, ...].  Its elements (`Polynomial`, made from
`generators`) are sparse dicts from monomial to nonzero int, so equal
polynomials compare equal with no symbolic simplification.

Every block is a `SparseRows`: the compound keeps only its nonzero
minors, the C-blocks are built from `removal_entries`, and two blocks
are compared by their nonzero entries alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .exterior import SparseRows, compound, removal_entries

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


@dataclass(frozen=True)
class DeformationBlock:
    """The Galois block [[c1*E_a, C], [0, E_b]]."""

    c1: object
    C: SparseRows
    a: int
    b: int
    assembled: SparseRows


def assemble_block(c1, C, a: int, b: int) -> DeformationBlock:
    """The block of C, an a x b SparseRows or rows, with c1 on the first a
    diagonal entries and 1 on the last b."""
    if not _has_shape(C, a, b):
        raise ValueError(f"C must be {a} x {b}")
    C = SparseRows.of(C)
    entries = {(i, i): c1 for i in range(a)} if c1 else {}
    entries.update(((i, a + j), x) for (i, j), x in C.entries.items())
    entries.update(((i, i), 1) for i in range(a, a + b))
    return DeformationBlock(c1, C, a, b, SparseRows((a + b, a + b), entries))


def _removal_rows(values, ground, k: int) -> SparseRows:
    """The removal matrix of values on ground (see `removal_entries`),
    with each value negated once and falsy values dropped."""
    signed = [(x, -x) if x else None for x in values]
    size = len(ground)
    return SparseRows((math.comb(size, k - 1), math.comb(size, k)), {
        (r, c): signed[t][sign < 0]
        for r, c, t, sign in removal_entries(ground, k)
        if signed[t]
    })


def wedge_block(n: int, k: int, c1, c) -> DeformationBlock:
    """Block form of the k-th exterior power of [[c1, c2..cn], [0, E]].

    c lists the cocycle entries c_2 .. c_n.  Rows of the C-block are
    indexed by (k-1)-subsets of {2..n}, columns by k-subsets, colex."""
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    c = tuple(c)
    if len(c) != n - 1:
        raise ValueError(f"need {n - 1} cocycle entries, got {len(c)}")
    C = _removal_rows(c, range(2, n + 1), k)
    return assemble_block(c1, C, *C.shape)


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


def verify_vdrei(n: int, k: int) -> VdreiReport:
    """Polynomial identity in Z[c1..cn]: the k-th compound of the assembled
    1 x (n-1) block equals the directly constructed wedge block.  A witness
    holds the two differing entries, as `Polynomial`s or ints."""
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    c1, *c = generators(*(f"c{i}" for i in range(1, n + 1)))
    base = assemble_block(c1, (tuple(c),), 1, n - 1)
    witness = _first_mismatch(compound(base.assembled, k), wedge_block(n, k, c1, c).assembled)
    return VdreiReport(witness is None, witness)


def contract(phi: DeformationParams, k: int) -> DeformationParams:
    """Level-k contraction of a height-(1, b) parameter row.

    Output shape C(b, k-1) x C(b, k); entry (I, J) is
    (-1)^(nu-1) * phi_{i_nu} when I = J - {i_nu}, over subsets of {1..b}."""
    if phi.a != 1:
        raise ValueError("contraction requires connected height a=1")
    b = phi.b
    if not 1 <= k <= b + 1:
        raise ValueError(f"need 1 <= k <= b+1, got k={k}, b={b}")
    matrix = _removal_rows(phi.phi[0], range(1, b + 1), k)
    return DeformationParams(*matrix.shape, matrix)


def verify_vzehn(b: int, k: int, phi: DeformationParams, c1) -> bool:
    """The block built from contracted parameters equals the k-th wedge
    block built from the original parameters.

    Both sides are built by `_removal_rows` from the same values, so this
    checks how `contract` is wired into `assemble_block`, not the
    exterior-power identity itself: that the k-th compound of a block is
    its wedge block is checked only by `verify_vdrei`.

    Entries may come from any commutative ring that compares exactly:
    ints, `Polynomial`s from `generators`, or Z/p^N."""
    if phi.a != 1 or phi.b != b:
        raise ValueError("phi must be a 1 x b parameter row")
    if not 1 <= k <= b + 1:
        raise ValueError(f"need 1 <= k <= b+1, got k={k}, b={b}")
    row = phi.phi[0]
    contracted = contract(phi, k)
    left = assemble_block(c1, contracted.phi, contracted.a, contracted.b).assembled
    right = wedge_block(b + 1, k, c1, row).assembled
    return left == right
