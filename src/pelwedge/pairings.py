"""Rational trace forms of skew-Hermitian Grams and p-integral perfectness.

The trace form psi = tr_{L/Q} Psi is an antisymmetric rational matrix in
the basis {zeta^a e_i}, held as one integer array of numerators over one
common denominator D; perfectness at p is certified by the p-adic
valuation of its determinant (equivalent to self-duality at unramified p,
which is the only case accepted here).

Each entry of psi is a linear functional of the integer numerators of one
Psi_ij, evaluated with the Ramanujan sums tr(zeta^t), so building psi
needs no field multiplication: it is one matmul of the gram's
(n, n, phi(m)) numerator array with the field's shift table, in int64
when the table's bound times the largest |numerator| is below 2^63 and
on Python ints otherwise, then one gather.  The valuation has one
algorithm for every prime p: the numerators are eliminated over Z/p^e
with unit pivots, and a block that p divides throughout is divided by p,
adding its size to the valuation at the cost of one digit of precision.
e starts at 1, where a p-perfect form finishes without dividing, and
doubles whenever the precision runs out, up to e_H, the least e with
p^(2e) above the Hadamard bound H >= det^2; a determinant that p^e_H
divides is 0.  The residues live in numpy int64 while p^e < 2^31 and in
Python ints above that.  The denominator adds -size * v_p(D).
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm, prod

import numpy as np

from .cyclofield import (
    PRIME_LIMIT,
    CycloField,
    RamifiedPrimeError,
    integer_array,
    is_prime,
    lowest_terms,
)
from .exterior import wedge_gram
from .hodge import HermitianModule


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
        return tuple(Fraction(x, self._den) for x in self._nums[i].tolist())

    def __eq__(self, other):
        if not isinstance(other, Sequence):
            return NotImplemented
        return tuple(self) == tuple(other)

    __hash__ = None


class TraceGram:
    """tr_{L/Q} Psi in the basis {zeta^a e_i}, row index a*n + i.

    The entries are the integer array `nums` over the positive denominator
    `den`, in lowest terms (den is the least common denominator of the
    entries); `matrix` reads the same form as rows of Fractions.
    TraceGram(field, rank, matrix) takes rational rows."""

    def __init__(self, field: CycloField, rank: int, matrix):
        nums, den = _integer_matrix(matrix)
        self._set(field, rank, integer_array(nums), den)

    @classmethod
    def from_integers(cls, field: CycloField, rank: int, nums, den: int) -> "TraceGram":
        """The form nums / den, for an integer matrix nums and den > 0."""
        gram = cls.__new__(cls)
        gram._set(field, rank, *lowest_terms(integer_array(nums), den))
        return gram

    def _set(self, field, rank, nums, den) -> None:
        size = field.degree * rank
        if nums.shape != (size, size):
            raise ValueError("trace gram has the wrong size")
        if not np.array_equal(nums.T, -nums):
            raise ValueError("trace gram is not antisymmetric")
        self.field = field
        self.rank = rank
        self.nums = nums
        self.den = den

    @property
    def matrix(self) -> FractionRows:
        return FractionRows(self.nums, self.den)


def trace_gram(module: HermitianModule) -> TraceGram:
    """psi(zeta^a e_i, zeta^b e_j) = tr(conj(zeta^a) * Psi_ij * zeta^b).

    Sesquilinear convention: conjugate-linear in the first argument.  As
    conj(zeta^a) = zeta^(-a), the entry is tr(zeta^(b-a) * Psi_ij), which
    depends on (i, j) and the shift b - a only: one matmul gives every
    shift of every Psi_ij over the gram's denominator, and one gather puts
    shift b - a at (a*n + i, b*n + j)."""
    field = module.field
    n = module.rank
    d = field.degree
    # by_shift[i, j, s + d - 1] = den * tr(zeta^s * Psi_ij)
    by_shift = field.shifted_traces(module.gram.nums)
    shift = np.arange(d)
    entries = by_shift[:, :, shift[None, :] - shift[:, None] + d - 1]  # [i, j, a, b]
    nums = entries.transpose(2, 0, 3, 1).reshape(d * n, d * n)
    return TraceGram.from_integers(field, n, nums, module.gram.den)


def _valuation(value: int, p: int) -> int:
    v = 0
    while value % p == 0:
        value //= p
        v += 1
    return v


def _det_valuation_mod(nums: np.ndarray, p: int, e: int) -> int | None:
    """v_p(det nums) for a square integer array and a prime p, by
    elimination over Z/p^e, or None when e is too small to decide it.

    A unit pivot leaves the valuation of the remaining block unchanged; it
    is taken from the pivot column when it has one, else from anywhere in
    the block after a column swap.  When p divides every entry of the
    block, det(block) = p^size * det(block / p), and block / p is known mod
    p^(e-1).  None means such a block was met mod p, so p^e divides det."""
    q = p**e
    size = len(nums)
    # residues below 2^31 multiply without overflow in int64; larger moduli
    # run the same loop on Python ints
    if q < 2**31:
        a = (nums % q).astype(np.int64, copy=False)
    else:
        a = nums.astype(object) % q
    v = 0
    # pivot rows and columns are reduced mod q, so each update subtracts
    # products below q^2; the rest is reduced only before |a| could reach
    # 2^63, which on Python ints (q^2 >= 2^62) is after every step
    bound = q  # every |entry| is below bound
    c = 0
    while c < size:
        units = np.flatnonzero(a[c:, c] % p)
        if units.size:
            r = c + int(units[0])
        else:
            block = a[c:, c:]
            units = np.flatnonzero(block % p)
            if not units.size:
                if q == p:
                    return None
                block %= q  # so every |entry| is below q // p after the division
                block //= p
                q //= p
                bound = q
                v += size - c
                continue
            r, j = divmod(int(units[0]), size - c)
            r += c
            a[c:, [c, c + j]] = a[c:, [c + j, c]]
        if r != c:
            a[[c, r]] = a[[r, c]]
        # the pivot row scaled to a leading 1
        tail = a[c, c + 1 :] % q * pow(int(a[c, c]) % q, -1, q) % q
        block = a[c + 1 :, c + 1 :]
        block -= np.outer(a[c + 1 :, c] % q, tail)
        bound += q * q
        if bound >= 2**62:
            block %= q
            bound = q
        c += 1
    return v


def _hadamard_exponent(nums: np.ndarray, p: int) -> int:
    """e_H, the least e with p^(2e) > H, where H = prod of the squared row
    norms is at least det^2; so p^e_H > |det| for a nonzero det."""
    hadamard = prod(sum(x * x for x in row) for row in nums.tolist())
    e, power = 0, 1
    while power <= hadamard:
        e += 1
        power *= p * p
    return e


def _det_valuation(nums, p: int) -> int:
    """v_p(det nums) for a square integer matrix and a prime p.

    The matrix is eliminated mod p, then mod p^2, p^4, ... until the
    precision decides the valuation, the last step at the Hadamard
    exponent e_H.  p^e_H | det means det = 0, and DegenerateForm is
    raised."""
    nums = integer_array(nums).reshape(len(nums), len(nums))
    e, e_hadamard = 1, None
    while (v := _det_valuation_mod(nums, p, e)) is None:
        if e_hadamard is None:
            e_hadamard = _hadamard_exponent(nums, p)
        if e >= e_hadamard:
            raise DegenerateForm("trace gram is degenerate over Q")
        e = min(2 * e, e_hadamard)
    return v


def perfectness_valuation(gram: TraceGram, p: int) -> int:
    """p-adic valuation of det for a prime p (ValueError for any other p);
    0 certifies Z_(p)-perfectness in this basis."""
    if not (2 <= p < PRIME_LIMIT and is_prime(p)):
        raise ValueError(f"perfectness test requires a prime p below 2^64, got p={p}")
    if gcd(p, gram.field.m) != 1:
        raise RamifiedPrimeError(
            f"perfectness test requires p coprime to m, got p={p}, m={gram.field.m}"
        )
    return _det_valuation(gram.nums, p) - len(gram.nums) * _valuation(gram.den, p)


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
