"""Block-matrix shadows of ordinary deformations and their Galois action.

A deformation is represented only by its parameters: a 1 x b row for
connected height 1 and etale height b.  The Galois action on the Tate
module is the block matrix [[c1*E_a, C], [0, E_b]] of an a x b
`SparseRows` C, made by `assemble_block`.  The Serre-Tate identity is
checked in one place, `block_identities`: the k-th compound of the block
of a parameter row is the block of the row's contraction
`contract(row, k)`, as an exact identity in Z[c1, ...].  The block of a
row's first parameters is a leading block of the row's block, so one
`leading_compounds` walk of the largest block serves every block size
and every k of a suite.  `verify_vdrei` (generators c1..cn, a witness
per k) and `verify_vzehn` (any row, a pass or fail per k) are its
one-block case.  The ring's elements (`Polynomial`, made from
`generators`) are sparse dicts from monomial to nonzero int, so equal
polynomials compare equal with no symbolic simplification.

Every block is a `SparseRows`: the compound keeps only its nonzero
minors, the C-blocks are built from `removal_entries`, and two blocks
are compared by their nonzero entries alone.
"""

from __future__ import annotations

import math
from collections.abc import Iterator

from .exterior import SparseRows, leading_compounds, removal_entries

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


def assemble_block(c1, C: SparseRows) -> SparseRows:
    """The Galois block [[c1*E_a, C], [0, E_b]] of an a x b SparseRows C."""
    a, b = C.shape
    entries = {(i, i): c1 for i in range(a)} if c1 else {}
    entries.update(((i, a + j), x) for (i, j), x in C.entries.items())
    entries.update(((i, i), 1) for i in range(a, a + b))
    return SparseRows((a + b, a + b), entries)


def _first_mismatch(left: SparseRows, right: SparseRows) -> tuple | None:
    """(row, col, left entry, right entry) at the least (row, col) where two
    equal-shape matrices differ, or None, from their nonzero entries alone."""
    got, expected = left.entries, right.entries
    if got == expected:
        return None
    i, j = min(
        key for key in got.keys() | expected.keys() if got.get(key, 0) != expected.get(key, 0)
    )
    return i, j, got.get((i, j), 0), expected.get((i, j), 0)


def contract(row, k: int) -> SparseRows:
    """Level-k contraction of a 1 x b parameter row: the parameters of the
    block that the Serre-Tate identity makes the k-th exterior power of the
    row's block (see `block_identities`).

    The C(b, k-1) x C(b, k) removal matrix of the row (see
    `removal_entries`): entry (I, J) is (-1)^(nu-1) * row[J[nu]] when
    I = J - {J[nu]}, over colex subsets of the b positions, with each
    parameter negated once and its zero entries left out.  A k outside
    1..b+1 raises ValueError."""
    b = len(row)
    if not 1 <= k <= b + 1:
        raise ValueError(f"need 1 <= k <= b+1, got k={k}, b={b}")
    signed = [(x, -x) if x else None for x in row]
    return SparseRows((math.comb(b, k - 1), math.comb(b, k)), {
        (r, c): signed[t][sign < 0]
        for r, c, t, sign in removal_entries(b, k)
        if signed[t]
    })


def block_identities(
    c1, row, ks, sizes=None
) -> Iterator[tuple[int, dict[int, tuple | None]]]:
    """The Serre-Tate identity on leading blocks of the block B =
    [[c1, row], [0, E_b]] of a 1 x b parameter row, from one walk of B.

    The leading size x size block of B is the block of the row's first
    size - 1 parameters.  For each size of sizes (ascending, each in
    1..b+1; default b+1 alone) this yields (size, {k: witness}) for each k
    of ks up to size: None when the k-th compound of that block is the
    block of `contract(row[:size - 1], k)`, else the least (row, col)
    where they differ, with the compound's entry and the contracted
    block's.

    One `leading_compounds` walk of B serves every size and k.  Each
    (size, k) is checked at level k against its own contracted block, and
    a size is yielded as soon as its last k is checked.  A k outside
    1..b+1 raises ValueError."""
    row = tuple(row)
    b = len(row)
    sizes = (b + 1,) if sizes is None else sorted(set(sizes))
    if not all(1 <= size <= b + 1 for size in sizes):
        raise ValueError(f"need block sizes in 1..{b + 1}, got {sizes}")
    ks = sorted(set(ks))
    witnesses = {size: {} for size in sizes}
    for size in sizes:
        if not ks or size < ks[0]:  # no k to check
            yield size, witnesses.pop(size)
    for k, leading in leading_compounds(assemble_block(c1, SparseRows.of((row,))), ks):
        later = next((j for j in ks if j > k), math.inf)
        for size in [size for size in witnesses if size >= k]:
            block = assemble_block(c1, contract(row[: size - 1], k))
            witnesses[size][k] = _first_mismatch(leading(size), block)
            if size < later:  # its last k
                yield size, witnesses.pop(size)


def verify_vdrei(n: int, ks) -> dict[int, tuple | None]:
    """The Serre-Tate identity (see `block_identities`) in Z[c1..cn] on the
    1 x (n-1) block of c1 and the row c2..cn, for each k of ks: its
    witness, None when the identity holds.  A witness holds the two
    differing entries, as `Polynomial`s or ints.  A k outside 1..n raises
    ValueError."""
    c1, *row = generators(*(f"c{i}" for i in range(1, n + 1)))
    ((_, witnesses),) = block_identities(c1, row, ks)
    return witnesses


def verify_vzehn(row, c1, ks) -> dict[int, bool]:
    """The Serre-Tate identity (see `block_identities`) on the block of c1
    and the 1 x b parameter row, for each k of ks: whether the k-th
    compound of the block equals the block of the contracted parameters.

    Entries may come from any commutative ring that compares exactly:
    ints, `Polynomial`s from `generators`, or Z/p^N.  A k outside 1..b+1
    raises ValueError."""
    ((_, witnesses),) = block_identities(c1, row, ks)
    return {k: w is None for k, w in witnesses.items()}
