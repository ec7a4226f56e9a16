"""Rational trace forms of skew-Hermitian Grams and p-integral perfectness.

The trace form psi = tr_{L/Q} Psi is an antisymmetric rational matrix in
the basis {zeta^a e_i}, held as integer numerators over one common
denominator D; perfectness at p is certified by the p-adic valuation of
its determinant (equivalent to self-duality at unramified p, which is
the only case accepted here).

Each entry of psi is a linear functional of the integer numerators of one
Psi_ij, evaluated with the Ramanujan sums tr(zeta^t), so building psi
needs no field multiplication.  The valuation is decided by elimination
mod p first, in numpy int64 with unit pivots: when p < 2^31, p shares no
factor with D and the determinant is a unit residue, v_p(det) = 0 and the
form is nondegenerate.  Only otherwise is the exact determinant computed,
by fraction-free (Bareiss) elimination on the numerators, and its
valuation returned.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

import numpy as np

from .cyclofield import CycloElement, CycloField, RamifiedPrimeError, _ramanujan_sum
from .exterior import wedge_gram
from .hodge import HermitianModule

# residues below this bound multiply without overflow in int64
_INT64_MODULUS_BOUND = 2**31


class DegenerateForm(ArithmeticError):
    """The trace form is degenerate over Q."""


def _integer_matrix(matrix) -> tuple[tuple[tuple[int, ...], ...], int]:
    """(nums, den) with matrix = nums / den and den the least common
    denominator of the entries."""
    rows = [[Fraction(x) for x in row] for row in matrix]
    den = lcm(*(x.denominator for row in rows for x in row))
    return tuple(tuple(x.numerator * (den // x.denominator) for x in row) for row in rows), den


class FractionRows(Sequence):
    """The rows of the integer matrix nums over den, as tuples of Fractions
    made when a row is read; equal to any sequence of equal rows."""

    __slots__ = ("_nums", "_den")

    def __init__(self, nums, den: int):
        self._nums = nums
        self._den = den

    def __len__(self) -> int:
        return len(self._nums)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return tuple(self[j] for j in range(len(self))[i])
        return tuple(Fraction(x, self._den) for x in self._nums[i])

    def __eq__(self, other):
        if not isinstance(other, Sequence):
            return NotImplemented
        return tuple(self) == tuple(other)

    __hash__ = None


class TraceGram:
    """tr_{L/Q} Psi in the basis {zeta^a e_i}, row index a*n + i.

    The entries are the integers `nums` over the positive denominator
    `den`, in lowest terms (den is the least common denominator of the
    entries); `matrix` reads the same form as rows of Fractions.
    TraceGram(field, rank, matrix) takes rational rows."""

    def __init__(self, field: CycloField, rank: int, matrix):
        nums, den = _integer_matrix(matrix)
        self._set(field, rank, nums, den)

    @classmethod
    def from_integers(cls, field: CycloField, rank: int, nums, den: int) -> "TraceGram":
        """The form nums / den, for integer rows nums and den > 0."""
        g = gcd(den, *(x for row in nums for x in row))
        if g != 1:
            nums = tuple(tuple(x // g for x in row) for row in nums)
            den //= g
        gram = cls.__new__(cls)
        gram._set(field, rank, nums, den)
        return gram

    def _set(self, field, rank, nums, den) -> None:
        size = field.degree * rank
        if len(nums) != size or any(len(r) != size for r in nums):
            raise ValueError("trace gram has the wrong size")
        if list(zip(*nums)) != [tuple(-x for x in row) for row in nums]:
            raise ValueError("trace gram is not antisymmetric")
        self.field = field
        self.rank = rank
        self.nums = nums
        self.den = den

    @property
    def matrix(self) -> FractionRows:
        return FractionRows(self.nums, self.den)


def _shifted_traces(x: CycloElement, shift_rows, scale: int) -> list[int]:
    """scale * x.den * tr(zeta^s * x) for s = 1-d .. d-1, where
    shift_rows[t] lists tr(zeta^(t+s)) over the same s."""
    out = [0] * len(shift_rows[0])
    for c, row in zip(x.num, shift_rows):
        if c:
            c *= scale
            out = [acc + c * tr for acc, tr in zip(out, row)]
    return out


def trace_gram(module: HermitianModule) -> TraceGram:
    """psi(zeta^a e_i, zeta^b e_j) = tr(conj(zeta^a) * Psi_ij * zeta^b).

    Sesquilinear convention: conjugate-linear in the first argument.  As
    conj(zeta^a) = zeta^(-a), the entry is tr(zeta^(b-a) * Psi_ij), which
    depends on (i, j) and the shift b - a only.  Every entry is put over
    the least common denominator of the Psi_ij."""
    field = module.field
    n = module.rank
    d = field.degree
    m = field.m
    shift_rows = [[_ramanujan_sum(m, (t + s) % m) for s in range(1 - d, d)] for t in range(d)]
    den = lcm(*(x.den for row in module.gram for x in row))
    shifted = [[_shifted_traces(x, shift_rows, den // x.den) for x in row] for row in module.gram]
    rows = []
    for a in range(d):
        for i in range(n):
            by_shift = shifted[i]
            # by_shift[j][b - a + d - 1] = den * psi(zeta^a e_i, zeta^b e_j)
            rows.append(tuple(by_shift[j][b - a + d - 1] for b in range(d) for j in range(n)))
    return TraceGram.from_integers(field, n, tuple(rows), den)


def _bareiss(nums) -> int:
    """Exact determinant of an integer matrix by fraction-free elimination
    (Bareiss 1968): after step k every entry is a minor of the input, so
    the division by the previous pivot is exact."""
    rows = [list(row) for row in nums]
    size = len(rows)
    sign, prev = 1, 1
    for k in range(size):
        pivot = next((r for r in range(k, size) if rows[r][k]), None)
        if pivot is None:
            return 0
        if pivot != k:
            rows[k], rows[pivot] = rows[pivot], rows[k]
            sign = -sign
        head = rows[k]
        lead = head[k]
        for r in range(k + 1, size):
            row = rows[r]
            f = row[k]
            row[k + 1 :] = [
                (x * lead - f * y) // prev for x, y in zip(row[k + 1 :], head[k + 1 :])
            ]
        prev = lead
    return sign * prev


def _valuation(value: int, p: int) -> int:
    v = 0
    while value % p == 0:
        value //= p
        v += 1
    return v


def _unit_det_mod(nums, den: int, p: int) -> bool:
    """True when det(nums / den) is certified a unit mod p.

    There is no certificate when p >= 2^31 or p shares a factor with den.
    Otherwise the residues are eliminated in numpy int64 over Z/p with
    unit pivots only, so a False answer is inconclusive when p is
    composite.  Row order is irrelevant: only whether det is a unit is
    decided."""
    if p >= _INT64_MODULUS_BOUND or gcd(den, p) != 1:
        return False
    size = len(nums)
    a = np.array([[x % p for x in row] for row in nums], dtype=np.int64).reshape(size, size)
    a = a * pow(den, -1, p) % p
    # pivot rows and columns are reduced mod p, so each update subtracts
    # products below p^2 < 2^62; the rest is reduced only before |a| could
    # reach 2^63
    bound = p  # every |entry| is below bound
    for c in range(size):
        units = np.flatnonzero(np.gcd(a[c:, c] % p, p) == 1)
        if not units.size:
            return False
        r = c + int(units[0])
        if r != c:
            a[[c, r]] = a[[r, c]]
        # the pivot row scaled to a leading 1
        tail = a[c, c + 1 :] % p * pow(int(a[c, c]) % p, -1, p) % p
        block = a[c + 1 :, c + 1 :]
        block -= np.outer(a[c + 1 :, c] % p, tail)
        bound += p * p
        if bound >= 2**62:
            block %= p
            bound = p
    return True


def perfectness_valuation(gram: TraceGram, p: int) -> int:
    """p-adic valuation of det; 0 certifies Z_(p)-perfectness in this basis.

    A nonzero residue of det mod p proves the valuation is 0 (and that the
    form is nondegenerate); only otherwise is the exact determinant computed."""
    if p < 2:
        raise ValueError(f"perfectness test requires p >= 2, got p={p}")
    if gcd(p, gram.field.m) != 1:
        raise RamifiedPrimeError(
            f"perfectness test requires p coprime to m, got p={p}, m={gram.field.m}"
        )
    if _unit_det_mod(gram.nums, gram.den, p):
        return 0
    d = Fraction(_bareiss(gram.nums), gram.den ** len(gram.nums))
    if d == 0:
        raise DegenerateForm("trace gram is degenerate over Q")
    # in lowest terms, so a composite p counts the same powers as before
    return _valuation(d.numerator, p) - _valuation(d.denominator, p)


@dataclass(frozen=True)
class PrinzReport:
    p: int
    k: int
    input_valuations: tuple[int, int]  # (psi0, psi1)
    output_valuation: int
    hypotheses_met: bool

    @property
    def implication_holds(self) -> bool:
        """Vacuously true when the inputs are not perfect at p."""
        return not self.hypotheses_met or self.output_valuation == 0


def verify_prinz(
    module0: HermitianModule, module1: HermitianModule, k: int, p: int
) -> PrinzReport:
    """Instance check: inputs perfect at p imply the wedge form is too."""
    if module0.rank != 1:
        raise ValueError("module0 must have rank 1")
    n = module1.rank
    if not 0 <= k <= n:
        raise ValueError(f"need 0 <= k <= n, got k={k}, n={n}")
    v0 = perfectness_valuation(trace_gram(module0), p)
    v1 = perfectness_valuation(trace_gram(module1), p)
    psi0 = module0.gram[0][0]
    wedge = wedge_gram(psi0, module1.gram, k)
    # the wedge gram is skew-Hermitian for every k, so its trace form is
    # a TraceGram in the same sense
    wedge_module = HermitianModule(module0.field, wedge)
    vk = perfectness_valuation(trace_gram(wedge_module), p)
    return PrinzReport(
        p=p,
        k=k,
        input_valuations=(v0, v1),
        output_valuation=vk,
        hypotheses_met=v0 == 0 and v1 == 0,
    )
