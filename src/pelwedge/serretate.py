"""Block-matrix shadows of ordinary deformations and their Galois action.

A deformation is represented only by its parameter matrix phi (connected
height a, etale height b); the Galois action on the Tate module is the
block matrix [[c1*E_a, C], [0, E_b]].  Verification compares compounds
of these blocks against the directly constructed wedge blocks, as exact
(by default symbolic) identities.
"""

from __future__ import annotations

from dataclasses import dataclass

import sympy

from .exterior import compound, removal_matrix


class ModInt:
    """Element of Z / p^N Z; one of the pluggable coefficient rings."""

    __slots__ = ("value", "modulus")

    def __init__(self, value: int, modulus: int):
        self.modulus = modulus
        self.value = value % modulus

    def _coerce(self, other) -> "ModInt":
        if isinstance(other, ModInt):
            if other.modulus != self.modulus:
                raise ValueError("mixed moduli")
            return other
        if isinstance(other, int):
            return ModInt(other, self.modulus)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return ModInt(self.value + other.value, self.modulus)

    __radd__ = __add__

    def __neg__(self):
        return ModInt(-self.value, self.modulus)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return ModInt(self.value - other.value, self.modulus)

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return ModInt(self.value * other.value, self.modulus)

    __rmul__ = __mul__

    def __eq__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.value == other.value

    def __hash__(self):
        return hash((self.value, self.modulus))

    def __bool__(self):
        return self.value != 0

    def __repr__(self):
        return f"ModInt({self.value}, {self.modulus})"


@dataclass(frozen=True)
class DeformationParams:
    """Connected height a, etale height b, and the a x b parameter matrix."""

    a: int
    b: int
    phi: tuple[tuple[object, ...], ...]

    def __post_init__(self):
        if self.a < 0 or self.b < 0:
            raise ValueError("heights must be nonnegative")
        if len(self.phi) != self.a or any(len(r) != self.b for r in self.phi):
            raise ValueError(f"phi must be {self.a} x {self.b}")


@dataclass(frozen=True)
class DeformationBlock:
    """The Galois block [[c1*E_a, C], [0, E_b]]."""

    c1: object
    C: tuple[tuple[object, ...], ...]
    a: int
    b: int
    assembled: tuple[tuple[object, ...], ...]


def assemble_block(c1, C, a: int, b: int) -> DeformationBlock:
    C = tuple(tuple(row) for row in C)
    if len(C) != a or any(len(row) != b for row in C):
        raise ValueError(f"C must be {a} x {b}")
    rows = []
    for i in range(a):
        row = [c1 * 1 if j == i else 0 for j in range(a)]
        row.extend(C[i])
        rows.append(tuple(row))
    for i in range(b):
        row = [0] * a + [1 if j == i else 0 for j in range(b)]
        rows.append(tuple(row))
    return DeformationBlock(c1, C, a, b, tuple(rows))


def wedge_block(n: int, k: int, c1, c) -> DeformationBlock:
    """Block form of the k-th exterior power of [[c1, c2..cn], [0, E]].

    c lists the cocycle entries c_2 .. c_n.  Rows of the C-block are
    indexed by (k-1)-subsets of {2..n}, columns by k-subsets, colex."""
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    c = tuple(c)
    if len(c) != n - 1:
        raise ValueError(f"need {n - 1} cocycle entries, got {len(c)}")
    C = removal_matrix(c, range(2, n + 1), k)
    return assemble_block(c1, C, len(C), len(C[0]))


@dataclass(frozen=True)
class VdreiReport:
    ok: bool
    witness: tuple[int, int, object, object] | None  # (row, col, got, expected)


def _difference_is_zero(x, y) -> bool:
    diff = x - y
    if isinstance(diff, sympy.Basic):
        return sympy.expand(diff) == 0
    return not diff


def verify_vdrei(n: int, k: int) -> VdreiReport:
    """Symbolic identity: the k-th compound of the assembled 1 x (n-1)
    block equals the directly constructed wedge block."""
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    c1 = sympy.Symbol("c1")
    c = sympy.symbols(f"c2:{n + 1}") if n > 1 else ()
    base = assemble_block(c1, (tuple(c),), 1, n - 1)
    left = compound(base.assembled, k)
    right = wedge_block(n, k, c1, c).assembled
    for i in range(len(left)):
        for j in range(len(left)):
            if not _difference_is_zero(left[i][j], right[i][j]):
                return VdreiReport(False, (i, j, left[i][j], right[i][j]))
    return VdreiReport(True, None)


def contract(phi: DeformationParams, k: int) -> DeformationParams:
    """Level-k contraction of a height-(1, b) parameter row.

    Output shape C(b, k-1) x C(b, k); entry (I, J) is
    (-1)^(nu-1) * phi_{i_nu} when I = J - {i_nu}, over subsets of {1..b}."""
    if phi.a != 1:
        raise ValueError("contraction requires connected height a=1")
    b = phi.b
    if not 1 <= k <= b + 1:
        raise ValueError(f"need 1 <= k <= b+1, got k={k}, b={b}")
    matrix = removal_matrix(phi.phi[0], range(1, b + 1), k)
    return DeformationParams(len(matrix), len(matrix[0]), matrix)


def verify_vzehn(b: int, k: int, phi: DeformationParams, c1=None) -> bool:
    """The block built from contracted parameters equals the k-th wedge
    block built from the original parameters."""
    if phi.a != 1 or phi.b != b:
        raise ValueError("phi must be a 1 x b parameter row")
    if not 1 <= k <= b + 1:
        raise ValueError(f"need 1 <= k <= b+1, got k={k}, b={b}")
    if c1 is None:
        c1 = sympy.Symbol("c1")
    contracted = contract(phi, k)
    left = assemble_block(c1, contracted.phi, contracted.a, contracted.b).assembled
    right = wedge_block(b + 1, k, c1, phi.phi[0]).assembled
    return all(
        _difference_is_zero(left[i][j], right[i][j])
        for i in range(len(left))
        for j in range(len(left))
    )
