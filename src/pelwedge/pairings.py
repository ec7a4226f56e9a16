"""Rational trace forms of skew-Hermitian Grams and p-integral perfectness.

The trace form psi = tr_{L/Q} Psi is an antisymmetric rational matrix in
the basis {zeta^a e_i}, held as integer numerators over one common
denominator D; perfectness at p is certified by the p-adic valuation of
its determinant (equivalent to self-duality at unramified p, which is
the only case accepted here).

Each entry of psi is a linear functional of the integer numerators of one
Psi_ij, evaluated with the Ramanujan sums tr(zeta^t), so building psi
needs no field multiplication.  The valuation has one algorithm for every
prime p: the numerators are eliminated over Z/p^e with unit pivots, and a
block that p divides throughout is divided by p, adding its size to the
valuation at the cost of one digit of precision.  e starts at 1, where a
p-perfect form finishes without dividing, and doubles whenever the
precision runs out; once p^e passes the Hadamard bound the determinant is
0.  The residues live in numpy int64 while p^e < 2^31 and in Python ints
above that.  The denominator adds -size * v_p(D).
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm, prod

import numpy as np

from .cyclofield import (
    PRIME_LIMIT,
    CycloElement,
    CycloField,
    RamifiedPrimeError,
    _ramanujan_sum,
    is_prime,
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


def _valuation(value: int, p: int) -> int:
    v = 0
    while value % p == 0:
        value //= p
        v += 1
    return v


def _det_valuation_mod(nums, p: int, e: int) -> int | None:
    """v_p(det nums) for a square integer matrix and a prime p, by
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
    dtype = np.int64 if q < 2**31 else object
    a = np.array([[x % q for x in row] for row in nums], dtype=dtype).reshape(size, size)
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


def _det_valuation(nums, p: int) -> int:
    """v_p(det nums) for a square integer matrix and a prime p.

    The matrix is eliminated mod p, then mod p^2, p^4, ... until the
    precision decides the valuation.  Once p^e passes the Hadamard bound,
    p^e | det means det = 0, and DegenerateForm is raised."""
    e, hadamard = 1, None
    while (v := _det_valuation_mod(nums, p, e)) is None:
        if hadamard is None:
            hadamard = prod(sum(x * x for x in row) for row in nums)  # >= det^2
        if p ** (2 * e) > hadamard:
            raise DegenerateForm("trace gram is degenerate over Q")
        e *= 2
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
