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
eliminated over Z/p^e four rows at a time where it can: each step reads
the first four rows, and when the Pfaffian of their leading 4 x 4 block is
a unit mod p, that block is the pivot, inverted in closed form (-D / Pf,
D the block's adjugate pattern); else the step takes a 2 x 2 pivot
[[0, x], [-x, 0]], x a unit.  Either is one update X^T M X that leaves
the rest alternating, so an N-row form takes between N/4 and N/2 steps,
not N; M X is kept as centred residues, so that a 4-row update is no
larger than two 2 x 2 ones.  From 80 rows on the updates are delayed: up
to 96 pivot rows wait in two panels, a step brings only the rows it reads
up to date, and the trailing block gets the waiting rows as one matrix
product, in float64 (BLAS) while it is exact and in int64 above that;
below 80 rows each step updates the block at once.  A block that p
divides throughout is divided by p, adding its size to the valuation at
the cost of one digit of precision.  e starts at 1, where a p-perfect form finishes without
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
    block is updated once per at most 2b pivot rows (b pairs; a 4 x 4 pivot
    counts as two), it is held in `dtype` and the pending rows in
    `panel_dtype`.

    Each pending row pairs residues in [0, q) with centred residues of
    absolute value at most q/2 (see `_det_valuation_mod`), so the update of
    2b rows adds less than b * q^2 to an entry, and so does bringing a row
    up to date; the block is reduced once its entries may reach 2^62, so it
    stays in int64 while 2^62 + b * q^2 < 2^63.  The products of the
    pending rows run in float64 (BLAS) while b * q^2 < 2^53, where every
    partial sum is an exact integer, and in int64 above that.  b is 1 below
    `_BLOCKED_ROWS` rows, where a matrix product costs more than it saves,
    and when q is too large for int64 at b pairs; b = 1 runs on Python ints
    from q = 2^31 on."""
    b = _BLOCKED_PAIRS if size >= _BLOCKED_ROWS else 1
    dtype = exact_dtype(2**62 + b * q * q)
    if dtype is object and b > 1:
        b, dtype = 1, exact_dtype(2**62 + q * q)
    return b, dtype, np.float64 if b * q * q < 2**53 else dtype


def _swap(i: int, j: int, *arrays) -> None:
    """Swap the columns i and j of each 2-d array in place."""
    for array in arrays:
        column = array[:, i].copy()
        array[:, i] = array[:, j]
        array[:, j] = column


def _block_inverse(upper, p: int, q: int):
    """The inverse mod q of the alternating 4 x 4 block A whose entries above
    the diagonal are upper = (a01, a02, a03, a12, a13, a23), as a tuple of
    rows with entries in (-q, q), or None when A is singular mod p.

    det A = Pf^2 for the Pfaffian Pf = a01 a23 - a02 a13 + a03 a12, and
    A D = -Pf I for D = [[0, a23, -a13, a12], [-a23, 0, a03, -a02],
    [a13, -a03, 0, a01], [-a12, a02, -a01, 0]], so A^-1 = -D / Pf."""
    a01, a02, a03, a12, a13, a23 = upper
    pf = a01 * a23 - a02 * a13 + a03 * a12
    if not pf % p:
        return None
    c = pow(-pf, -1, q)
    m01, m02, m03, m12, m13, m23 = (c * y % q for y in upper)
    return ((0, m23, -m13, m12), (-m23, 0, m03, -m02), (m13, -m03, 0, m01), (-m12, m02, -m01, 0))


def _det_valuation_mod(nums: np.ndarray, p: int, e: int) -> int | None:
    """v_p(det nums) for a square alternating integer array and a prime p,
    by elimination over Z/p^e with 4 x 4 and 2 x 2 pivot blocks, or None
    when e is too small to decide it.

    Each step reads the rows 0 to 3 of the block.  When the Pfaffian of the
    leading 4 x 4 block is a unit mod p, so is its det, Pf^2, and the block
    is the pivot, its inverse M in closed form (`_block_inverse`).  Else
    the pivot is [[0, x], [-x, 0]] with x a unit mod p, M = [[0, -1/x],
    [1/x, 0]]: x is the first unit of the block's first row when that row
    has one, else the first unit anywhere in the block, which lies above
    the diagonal and is brought to (0, 1) by a symmetric swap of rows and
    columns (J. R. Bunch, Math. Comp. 38, 1982).  Either pivot leaves the
    valuation of the remaining block unchanged, and with X its k rows right
    of the pivot, the Schur complement is block + X^T M X, alternating
    again; an N-row form takes between N/4 and N/2 steps.  X is held in
    [0, q) and M X as centred residues, of absolute value at most q/2, so
    each pivot row adds less than q^2/2 to an entry: a 4-row step counts as
    two pairs in the bounds of `_elimination_plan`.  The updates are delayed
    (J.-G. Dumas, P. Giorgi and C. Pernet, ACM TOMS 35, 2008): up to 2b
    pivot rows wait in two panels, X in `left` and M X in `right`, whose
    columns are swapped with the block's rows, and the block gets them as
    one matrix product left^T right when the next step would not fit; a
    step reads only the rows it needs, brought up to date from the panels,
    and the pending steps are applied before the block is read whole.
    b = 1 updates the block at every step, with X centred too, so that a
    4-row step adds at most q^2, as a pair does.  When p divides every
    entry of the block, det(block) = p^size * det(block / p), and block / p
    is known mod p^(e-1).  None means such a block was met mod p, so p^e
    divides det."""
    q = p**e
    b, dtype, panel_dtype = _elimination_plan(len(nums), q)
    if dtype is object:
        a = nums.astype(object) % q
    else:
        a = (nums % q).astype(np.int64, copy=False)
    # the pending steps: a step's rows X right of its pivot block in `left`
    # and M X in `right`, so their update X^T M X is in left^T right
    left = np.empty((2 * b, len(a)), panel_dtype)
    right = np.empty_like(left)
    v = pending = 0  # pending: the rows in the panels
    bound = q  # every |entry| of the block is below bound
    half = q // 2

    def read(rows: int):
        """The first rows of the block, brought up to date, mod q."""
        head = a[:rows]
        if pending:
            head = head + (left[:pending, :rows].T @ right[:pending]).astype(dtype, copy=False)
        return head % q

    def update(t, rows: int) -> None:
        """Add the alternating update t of steps with `rows` pivot rows."""
        nonlocal a, bound
        a += t
        bound += rows // 2 * q * q
        if bound >= 2**62:
            a %= q
            bound = q

    def flush() -> None:
        """Apply the pending steps to the block."""
        nonlocal pending
        if pending:
            update((left[:pending].T @ right[:pending]).astype(dtype, copy=False), pending)
            pending = 0

    while len(a):
        head = read(4)
        m = None
        if len(a) >= 4:
            row0, row1, row2 = head[:3, :4].tolist()
            m = _block_inverse((*row0[1:], *row1[2:], row2[3]), p, q)
        if m is not None:
            k = 4
        else:
            units = np.flatnonzero(head[0] % p)
            if units.size:
                r, s = 0, int(units[0])
            else:
                flush()
                units = np.flatnonzero(a % p)
                if not units.size:
                    if q == p:
                        return None
                    a %= q  # so every |entry| is below q // p after the division
                    a //= p
                    q //= p
                    bound, half = q, q // 2
                    v += len(a)
                    continue
                # the first unit in row order: its mirror image is in a later row
                r, s = divmod(int(units[0]), len(a))
            for i, j in ((0, r), (1, s)):
                if i != j:
                    _swap(i, j, a, a.T, left[:pending], right[:pending])
            if r or s >= len(head):
                head = read(2)
            elif s > 1:
                _swap(1, s, head, head.T)
            c = pow(int(head[0, 1]), -1, q)
            k, m = 2, ((0, -c), (c, 0))
        x = head[:k, k:]
        if b == 1:  # X^T M X goes into the block at once: at most q^2 an entry
            x = (x + half) % q - half
        mx = np.array(m, dtype) @ x
        mx += half
        mx %= q
        mx -= half
        a = a[k:, k:]
        if b == 1:
            update((x.T.astype(panel_dtype) @ mx.astype(panel_dtype)).astype(dtype, copy=False), k)
            continue
        left, right = left[:, k:], right[:, k:]  # the panels follow the block
        if pending + k > len(left):
            flush()
        left[pending : pending + k], right[pending : pending + k] = x, mx
        pending += k
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
