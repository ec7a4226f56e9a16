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
algorithm for every prime p.  psi is alternating, so the numerators are
eliminated over Z/p^e with 2 x 2 pivots [[0, x], [-x, 0]], x a unit: each
is one rank-2 update that leaves the rest alternating, so an N-row form
takes N/2 steps, not N.  From 80 rows on the updates are delayed: up to 48
pairs wait in two panels, a pivot brings only the two rows it reads up to
date, and the trailing block gets the waiting pairs as one matrix product,
in float64 (BLAS) while it is exact and in int64 above that; below 80 rows
each pivot updates the block at once.  A block that p divides throughout
is divided by p, adding its size to the valuation at the cost of one digit
of precision.  e starts at 1, where a p-perfect form finishes without
dividing, and doubles whenever the precision runs out, up to e_H, the least
e with p^(2e) above the Hadamard bound H >= det^2; a determinant that p^e_H
divides is 0.  The residues live in numpy int64 while p^e < 2^31 and in
Python ints above that.  The denominator adds -size * v_p(D).

`verify_prinz` values the wedge psi0^(1-k) Lambda^k Psi1 through
psi0^(k-1) Lambda^k Psi1, whose valuation differs by (2k - 2) C(n, k) v0,
so no field element is inverted; given the inputs' `input_valuations`, as
`verify prinz --input` computes them once for every k, it values only the
wedge.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from math import comb, gcd, prod

import numpy as np

from .cyclofield import (
    PRIME_LIMIT,
    CycloField,
    RamifiedPrimeError,
    exact_dtype,
    integer_array,
    is_prime,
    lowest_terms,
)
from .exterior import compound
from .hodge import HermitianModule


class DegenerateForm(ArithmeticError):
    """The trace form is degenerate over Q."""


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
    TraceGram(field, rank, nums, den) takes any integer matrix nums and
    den > 0 and reduces nums / den to lowest terms."""

    def __init__(self, field: CycloField, rank: int, nums, den: int):
        nums, den = lowest_terms(integer_array(nums), den)
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
    return TraceGram(field, n, nums, module.gram.den)


def _valuation(value: int, p: int) -> int:
    v = 0
    while value % p == 0:
        value //= p
        v += 1
    return v


# the fewest rows at which delaying the updates pays, and the pivot pairs
# delayed there (see `_elimination_plan`)
_BLOCKED_ROWS = 80
_BLOCKED_PAIRS = 48


def _elimination_plan(size: int, q: int):
    """(b, dtype, panel_dtype) for eliminating a size-row block mod q: the
    block is updated once per b pivot pairs, it is held in `dtype` and the
    pending pairs in `panel_dtype`.

    Every pending entry lies in [0, q), so the update of b pairs adds less
    than b * q^2 to an entry, and so does bringing a row up to date; the
    block is reduced once its entries may reach 2^62, so it stays in int64
    while 2^62 + b * q^2 < 2^63.  The products of the pending pairs run in
    float64 (BLAS) while b * q^2 < 2^53, where every partial sum is an exact
    integer, and in int64 above that.  b is 1 below `_BLOCKED_ROWS` rows,
    where a matrix product costs more than it saves, and when q is too large
    for int64 at b pairs; b = 1 runs on Python ints from q = 2^31 on."""
    b = _BLOCKED_PAIRS if size >= _BLOCKED_ROWS else 1
    dtype = exact_dtype(2**62 + b * q * q)
    if dtype is object and b > 1:
        b, dtype = 1, exact_dtype(2**62 + q * q)
    return b, dtype, np.float64 if b * q * q < 2**53 else dtype


def _det_valuation_mod(nums: np.ndarray, p: int, e: int) -> int | None:
    """v_p(det nums) for a square alternating integer array and a prime p,
    by elimination over Z/p^e with 2 x 2 pivots, or None when e is too
    small to decide it.

    A pivot [[0, x], [-x, 0]] with x a unit mod p has det x^2, so it leaves
    the valuation of the remaining block unchanged.  x is the first unit of
    the block's first row when that row has one, else the first unit
    anywhere in the block, which lies above the diagonal and is brought to
    (0, 1) by a symmetric swap of rows and columns.  With u and w the rows 0
    and 1 right of the pivot and y = u / x, the Schur complement of the
    pivot is block + w y^T - y w^T, alternating again (J. R. Bunch, Math.
    Comp. 38, 1982).  The updates are delayed (J.-G. Dumas, P. Giorgi and
    C. Pernet, ACM TOMS 35, 2008): the block gets those of b pairs at once,
    one matrix product, and until then the pairs are pending in two panels
    whose columns are swapped with the block's rows; a pivot reads only the
    rows 0 and 1 of the block, brought up to date from the panels, and the
    pending pairs are applied before the block is read whole.  b = 1 (see
    `_elimination_plan`) updates the block at every pivot.  When p divides
    every entry of the block, det(block) = p^size * det(block / p), and
    block / p is known mod p^(e-1).  None means such a block was met mod p,
    so p^e divides det."""
    q = p**e
    b, dtype, panel_dtype = _elimination_plan(len(nums), q)
    if dtype is object:
        a = nums.astype(object) % q
    else:
        a = (nums % q).astype(np.int64, copy=False)
    # pending pair j is (w, y) in the rows 2j and 2j + 1 of `left` and (y, -w)
    # in those of `right`, so its update w y^T - y w^T is in left^T right
    left = np.empty((2 * b - 2, len(a)), panel_dtype)
    right = np.empty_like(left)
    v = pending = 0
    bound = q  # every |entry| of the block is below bound

    def pending_update(rows=slice(None)):
        """What the pending pairs add to the given rows of the block."""
        t = left[: 2 * pending, rows].T @ right[: 2 * pending]
        return t.astype(dtype, copy=False)

    def update(t, pairs: int) -> None:
        """Add the alternating update t of `pairs` pivot pairs to the block."""
        nonlocal a, bound
        a += t
        bound += pairs * q * q
        if bound >= 2**62:
            a %= q
            bound = q

    while len(a):
        first = a[0] + pending_update(0) if pending else a[0]
        units = np.flatnonzero(first % p)
        if units.size:
            r, s = 0, int(units[0])
        else:
            if pending:
                update(pending_update(), pending)
                pending = 0
            units = np.flatnonzero(a % p)
            if not units.size:
                if q == p:
                    return None
                a %= q  # so every |entry| is below q // p after the division
                a //= p
                q //= p
                bound = q
                v += len(a)
                continue
            # the first unit in row order: its mirror image is in a later row
            r, s = divmod(int(units[0]), len(a))
        for i, j in ((0, r), (1, s)):
            if i != j:
                a[[i, j]] = a[[j, i]]
                a[:, [i, j]] = a[:, [j, i]]
                if pending:
                    left[: 2 * pending, [i, j]] = left[: 2 * pending, [j, i]]
                    right[: 2 * pending, [i, j]] = right[: 2 * pending, [j, i]]
        if pending:  # so r = 0, and `first` was read before the swap
            first[[1, s]] = first[[s, 1]]
            second = a[1] + pending_update(1)
        else:
            first, second = a[0], a[1]
        w = second[2:] % q
        y = first[2:] % q * pow(int(first[1]) % q, -1, q) % q
        a = a[2:, 2:]
        if pending < b - 1:  # the pair waits
            left[2 * pending, 2:], left[2 * pending + 1, 2:] = w, y
            right[2 * pending, 2:], right[2 * pending + 1, 2:] = y, -w
            pending += 1
        else:  # the b-th pair: the block gets all b
            t = np.outer(w, y)
            t -= t.T
            if pending:
                left, right = left[:, 2:], right[:, 2:]
                t += pending_update()
                pending = 0
            update(t, b)
            continue
        left, right = left[:, 2:], right[:, 2:]  # the panels follow the block
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
    """v_p(det nums) for a square alternating integer matrix and a prime p
    (ValueError for a matrix that is not alternating).

    The matrix is eliminated mod p, then mod p^2, p^4, ... until the
    precision decides the valuation, the last step at the Hadamard
    exponent e_H.  p^e_H | det means det = 0, and DegenerateForm is
    raised."""
    nums = integer_array(nums).reshape(len(nums), len(nums))
    if not np.array_equal(nums.T, -nums):
        raise ValueError("the valuation needs an alternating matrix")
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


def input_valuations(module0: HermitianModule, module1: HermitianModule, p: int) -> tuple[int, int]:
    """(v0, v1): the valuations at p of the trace forms of psi0 and Psi1."""
    return perfectness_valuation(trace_gram(module0), p), perfectness_valuation(trace_gram(module1), p)


def verify_prinz(
    module0: HermitianModule,
    module1: HermitianModule,
    k: int,
    p: int,
    valuations: tuple[int, int] | None = None,
) -> PrinzReport:
    """Instance check: inputs perfect at p imply the wedge form is too.

    `valuations` are the inputs' `input_valuations`, computed here when not
    given.  The wedge W = psi0^(1-k) Lambda^k Psi1 is valued with no inverse
    of psi0: for k >= 1, W' = psi0^(2k-2) W = psi0^(k-1) Lambda^k Psi1, and
    the trace form of c W is that of W times multiplication by c on each of
    the C(n, k) coordinates, whose det is N(c)^C(n, k).  The trace form of
    psi0 is that of 1, whose det is the discriminant of L, a unit at p
    coprime to m, times multiplication by psi0, so v_p(N(psi0)) = v0 and
    v_p(W) = v_p(W') + (2 - 2k) C(n, k) v0.  At k = 0, W = [psi0]."""
    if module0.rank != 1:
        raise ValueError("module0 must have rank 1")
    n = module1.rank
    if not 0 <= k <= n:
        raise ValueError(f"need 0 <= k <= n, got k={k}, n={n}")
    v0, v1 = input_valuations(module0, module1, p) if valuations is None else valuations
    if k == 0:
        wedge, shift = module0, 0
    else:
        # psi0^(k-1) Lambda^k Psi1 is skew-Hermitian for every k, so its trace
        # form is a TraceGram in the same sense
        scaled = compound(module1.gram, k) * module0.gram[0][0] ** (k - 1)
        wedge, shift = HermitianModule(module0.field, scaled), (2 - 2 * k) * comb(n, k) * v0
    vk = perfectness_valuation(trace_gram(wedge), p) + shift
    return PrinzReport(
        p=p,
        k=k,
        input_valuations=(v0, v1),
        output_valuation=vk,
        hypotheses_met=v0 == 0 and v1 == 0,
    )
