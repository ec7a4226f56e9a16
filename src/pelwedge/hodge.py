"""CM-trace vectors, signatures of skew-Hermitian forms, and the
weight-multiset bookkeeping for exterior powers.

A `HermitianModule` holds its Gram matrix as a `CycloMatrix`, one
(rank, rank, phi(m)) integer array over one denominator, and checks
skew-Hermitian symmetry on that array in int64 when the conjugation
bound times the largest |entry| is below 2^63, else on Python ints.  The
signatures are read by Jacobi's rule from the signs of the leading
principal minors, made division-free by `exterior.leading_minors` and
repaired by an exact congruence where one is 0 (`jacobi_minors`); no
field element is inverted.

The central check is `verify_type11`: combining the per-embedding wedge
weight table with the twist table must land every weight in
{(-1,0),(0,-1)}, with (-1,0)-multiplicity given by the derived trace
coefficients C(n-1,k)*[sigma in supp(phi0)] + C(n-1,k-1)*[sigma in
supp(phin)].
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .cyclofield import (
    CMType,
    CycloElement,
    CycloField,
    CycloMatrix,
)
from .exterior import characteristic_polynomial, leading_minors

DEFAULT_PREC_BITS = 128  # starting precision of the certified embedding signs


class SingularAtEmbedding(ArithmeticError):
    """The skew-Hermitian form is degenerate over L, so no embedding gives
    it a signature."""


def binom(n: int, k: int) -> int:
    """C(n, k) with the convention C(n, k) = 0 for k < 0 or k > n."""
    if k < 0 or k > n:
        return 0
    return math.comb(n, k)


@dataclass(frozen=True)
class CMTraceVector:
    """Formal Z-linear combination of embeddings, as residue -> coefficient."""

    field: CycloField
    coeffs: tuple[int, ...]  # one per residue in field.units, same order

    def __post_init__(self):
        if len(self.coeffs) != self.field.degree:
            raise ValueError("one coefficient per embedding required")

    @classmethod
    def from_cm_type(cls, phi: CMType) -> "CMTraceVector":
        return cls(
            phi.field,
            tuple(1 if k in phi.members else 0 for k in phi.field.units),
        )

    def __add__(self, other: "CMTraceVector") -> "CMTraceVector":
        if other.field != self.field:
            raise ValueError("vectors over different fields")
        return CMTraceVector(
            self.field, tuple(a + b for a, b in zip(self.coeffs, other.coeffs))
        )

    def scale(self, c: int) -> "CMTraceVector":
        return CMTraceVector(self.field, tuple(c * a for a in self.coeffs))


def derived_cm_trace(
    n: int, k: int, phi0: CMTraceVector, phin: CMTraceVector
) -> CMTraceVector:
    """C(n-1,k)*phi0 + C(n-1,k-1)*phin, with out-of-range binomials zero."""
    if not 0 <= k <= n:
        raise ValueError(f"need 0 <= k <= n, got k={k}, n={n}")
    return phi0.scale(binom(n - 1, k)) + phin.scale(binom(n - 1, k - 1))


class EmbeddingCase(enum.Enum):
    BOTH = "both"
    ONLY0 = "only0"
    ONLYN = "onlyn"
    NEITHER = "neither"


def case_of(k: int, phi0: CMType, phin: CMType) -> EmbeddingCase:
    in0 = k in phi0.members
    inn = k in phin.members
    if in0 and inn:
        return EmbeddingCase.BOTH
    if in0:
        return EmbeddingCase.ONLY0
    if inn:
        return EmbeddingCase.ONLYN
    return EmbeddingCase.NEITHER


WeightMultiset = dict[tuple[int, int], int]


def wedge_weights(case: EmbeddingCase, n: int, k: int) -> WeightMultiset:
    """Weights (with multiplicity) of the k-th exterior power eigenspace."""
    if not 0 <= k <= n:
        raise ValueError(f"need 0 <= k <= n, got k={k}, n={n}")
    if case is EmbeddingCase.BOTH:
        entries = [((-k, 0), binom(n, k))]
    elif case is EmbeddingCase.ONLY0:
        entries = [((-k, 0), binom(n - 1, k)), ((1 - k, -1), binom(n - 1, k - 1))]
    elif case is EmbeddingCase.ONLYN:
        entries = [((-1, 1 - k), binom(n - 1, k - 1)), ((0, -k), binom(n - 1, k))]
    else:
        entries = [((0, -k), binom(n, k))]
    return {pq: mult for pq, mult in entries if mult}


def twist_weights(in_phi0: bool, k: int) -> tuple[int, int]:
    """Weight of the (1-k)-th tensor power of the rank-one factor."""
    return (k - 1, 0) if in_phi0 else (0, k - 1)


@dataclass(frozen=True)
class Type11Report:
    ok: bool
    weights: dict[int, WeightMultiset]  # residue -> combined multiset
    minus10_multiplicities: dict[int, int]


def verify_type11(n: int, k: int, phi0: CMType, phin: CMType) -> Type11Report:
    """Check that all combined weights lie in {(-1,0),(0,-1)} and that the
    (-1,0)-multiplicity per embedding matches the derived trace formula."""
    if not 0 <= k <= n:
        raise ValueError(f"need 0 <= k <= n, got k={k}, n={n}")
    field = phi0.field
    derived = derived_cm_trace(
        n, k, CMTraceVector.from_cm_type(phi0), CMTraceVector.from_cm_type(phin)
    )
    ok = True
    combined: dict[int, WeightMultiset] = {}
    minus10: dict[int, int] = {}
    for residue, coefficient in zip(field.units, derived.coeffs):
        case = case_of(residue, phi0, phin)
        tp, tq = twist_weights(residue in phi0.members, k)
        multiset: WeightMultiset = {}
        for (p, q), mult in wedge_weights(case, n, k).items():
            pq = (p + tp, q + tq)
            multiset[pq] = multiset.get(pq, 0) + mult
        combined[residue] = multiset
        if any(pq not in {(-1, 0), (0, -1)} for pq in multiset):
            ok = False
        mult10 = multiset.get((-1, 0), 0)
        minus10[residue] = mult10
        if mult10 != coefficient:
            ok = False
        if sum(multiset.values()) != binom(n, k):
            ok = False
    return Type11Report(ok, combined, minus10)


class HermitianModule:
    """Free O_L-lattice with a *-skew-Hermitian Gram matrix.

    `gram` is a `CycloMatrix`: the numerators of every entry in one
    (rank, rank, phi(m)) integer array over one denominator.  The gram may
    be given as a CycloMatrix or as rows of CycloElements.
    Skew-Hermitian symmetry, conj(Psi)^T = -Psi, is one comparison of
    numerator arrays with `CycloMatrix.conj_transpose`."""

    def __init__(self, field: CycloField, gram):
        if isinstance(gram, CycloMatrix):
            square = gram.shape[0] == gram.shape[1]
        else:
            gram = [list(row) for row in gram]
            square = all(len(row) == len(gram) for row in gram)
        if not square:
            raise ValueError("gram matrix must be square")
        gram = CycloMatrix.of(field, gram)
        if not np.array_equal(gram.conj_transpose().nums, -gram.nums):
            raise ValueError("gram matrix is not *-skew-Hermitian")
        self.field = field
        self.rank = len(gram)
        self.gram = gram
        self._minors = None

    def minors(self) -> tuple[CycloElement, ...]:
        """The `jacobi_minors` of the gram, computed on first use."""
        if self._minors is None:
            self._minors = jacobi_minors(self.gram)
        return self._minors


def jacobi_minors(gram: CycloMatrix) -> tuple[CycloElement, ...]:
    """Delta_1 .. Delta_n, every one nonzero, the leading principal minors
    of P* Psi P for some P in GL_n(L): those of Psi itself when none is 0.
    Each zero minor is repaired by `_repair`, which leaves the minors
    before it as they are, so at most n passes of `leading_minors` are
    made."""
    while True:
        minors = leading_minors(gram)
        r = next((r for r, delta in enumerate(minors) if not delta), None)
        if r is None:
            return minors
        gram = _repair(gram, minors, r)


def _repair(gram: CycloMatrix, minors, r: int) -> CycloMatrix:
    """A gram congruent to Psi with the same Delta_1 .. Delta_r and a
    nonzero Delta_(r+1), where Delta_(r+1) of Psi is 0.

    The rows and columns R = {0 .. r-1} hold the nonzero Delta_r, and the
    `_bordered_minors` B_ij, for i, j >= r, are Delta_r times the Schur
    complement S_ij of that block.  Some B_ii != 0 is moved to position r
    by swapping e_r with e_i.  Otherwise some B_ij != 0 with i < j: after
    that swap, e_r <- e_r + c*e_j gives the new Delta_(r+1) = Delta_r *
    (c*S_ij - conj(c*S_ij)), which is 0 for both c = 1 and c = zeta only
    if zeta were real; c = 1 serves unless S_ij, so B_ij * conj(Delta_r),
    is real.  If B = 0 then S = 0 and Psi has rank r, which raises
    SingularAtEmbedding."""
    field, n = gram.field, len(gram)
    bordered = _bordered_minors(gram, r)
    nonzero = bordered.any(axis=2)
    diagonal = np.flatnonzero(nonzero.diagonal())
    if diagonal.size:
        return _congruent(gram, r, r + int(diagonal[0]))
    pairs = np.argwhere(np.triu(nonzero, 1))  # by i, then by j
    if not pairs.size:
        raise SingularAtEmbedding(
            f"the gram matrix is degenerate over Q(zeta_{field.m}): rank {r} < {n}"
        )
    i, j = map(int, pairs[0])
    x = CycloElement(field, tuple(map(int, bordered[i, j])))
    if r:
        x = x * minors[r - 1].conj()
    return _congruent(gram, r, r + i, r + j, field.one if x != x.conj() else field.zeta)


def _bordered_minors(gram: CycloMatrix, r: int) -> np.ndarray:
    """The numerators, over den^(r+1), of B_ij = det Psi[R + i, R + j] for
    R = {0 .. r-1} and i, j >= r, as an (n - r, n - r, phi(m)) array.

    With A, X, Y and Z the blocks of the numerator array on R x R, R x T,
    T x R and T x T (T = {r .. n-1}), and x^r + c_1 x^(r-1) + .. + c_r the
    characteristic polynomial of A, Cayley-Hamilton gives adj(A) =
    (-1)^(r-1) (A^(r-1) + c_1 A^(r-2) + .. + c_(r-1)), so the bordered
    determinants det A * Z - Y adj(A) X are (-1)^r (c_r Z + Y W) for W =
    A^(r-1) X + c_1 A^(r-2) X + .. + c_(r-1) X, made by Horner's rule:
    r products, no inverse and no determinant per entry.  Sums are taken
    on Python ints, so no int64 sum can overflow."""
    field, nums = gram.field, gram.nums
    a, x, y, z = nums[:r, :r], nums[:r, r:], nums[r:, :r], nums[r:, r:]
    poly = characteristic_polynomial(CycloMatrix(field, a))

    def product(u: np.ndarray, v: np.ndarray) -> np.ndarray:
        return field.dot(u[:, None], np.swapaxes(v, 0, 1)[None])

    def scaled(u: np.ndarray, c: np.ndarray) -> np.ndarray:
        return field.dot(u[..., None, :], c[None])

    w = x
    for c in poly[1:r]:
        w = np.add(product(a, w), scaled(x, c), dtype=object)
    return (-1) ** r * np.add(scaled(z, poly[r]), product(y, w), dtype=object)


def _congruent(gram: CycloMatrix, r: int, i: int, j: int | None = None, c=None) -> CycloMatrix:
    """P* Psi P for the P whose column i is e_r and column r is e_i + c*e_j
    (e_i alone when j is None), every other column that of the identity."""
    field, n = gram.field, len(gram)
    p = np.zeros((n, n, field.degree), dtype=np.int64)
    p[range(n), range(n), 0] = 1
    p[:, [r, i]] = p[:, [i, r]]
    if j is not None:
        p[j, r] = c.num
    p = CycloMatrix(field, p)
    return p.conj_transpose() @ gram @ p


_GUARD_BITS = 32  # beyond prec_bits, so the error bounds below cost a few units at most


def _atan_inverse(x: int, bits: int) -> tuple[int, int]:
    """(a, e) with |a - 2^bits * atan(1/x)| < e, for an integer x >= 2.

    Term k of the series sum (-1)^k / ((2k+1) x^(2k+1)) is floor(power /
    (2k+1)) for power = floor(2^bits / x^(2k+1)), which repeated floor
    division makes exactly; each is low by less than 2, and the terms
    left out once power is 0 add up to less than 1."""
    power = (1 << bits) // x
    total, terms = 0, 0
    while power:
        term = power // (2 * terms + 1)
        total += -term if terms % 2 else term
        power //= x * x
        terms += 1
    return total, 2 * terms + 1


@lru_cache(maxsize=32)  # a table per field and precision in use
def _trig_bounds(m: int, prec_bits: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """(cosines, sines), where cosines[j] = (lo, hi) with lo <= 2^prec_bits *
    cos(2 pi j / m) <= hi for j < m, and sines the same for the sine.

    Everything is integer arithmetic on w = prec_bits + `_GUARD_BITS`
    bits.  pi is Machin's 16 atan(1/5) - 4 atan(1/239), within pi_err
    units.  The angle 2 pi j / m is a quarter turn q = floor(4j / m) plus
    theta = pi * (4j - qm) / (2m) < pi/2, within pi_err / 2 + 1 units,
    which moves cos and sin by no more.  The Taylor terms 2^w theta^i / i!
    come one from the last by a floor, so each is low by at most
    e_i = e_(i-1) * theta / i + 1 <= 2, and once one is 0 the rest add up
    to less than 10.  The quarter turns are exact."""
    bits = prec_bits + _GUARD_BITS
    a, a_err = _atan_inverse(5, bits)
    b, b_err = _atan_inverse(239, bits)
    pi, pi_err = 16 * a - 4 * b, 16 * a_err + 4 * b_err

    def bounds(value: int, err: int) -> tuple[int, int]:
        return (value - err) >> _GUARD_BITS, -(-(value + err) >> _GUARD_BITS)

    cosines, sines = [], []
    for j in range(m):
        quarter, rest = divmod(4 * j, m)
        theta = pi * rest // (2 * m)
        parts = [0, 0, 0, 0]  # the terms of cos, sin, -cos and -sin
        term, terms = 1 << bits, 0
        while term:
            parts[terms % 4] += term
            terms += 1
            term = term * theta // (terms << bits)
        err = 2 * terms + 10 + pi_err
        cos, sin = parts[0] - parts[2], parts[1] - parts[3]
        for _ in range(quarter):
            cos, sin = -sin, cos
        cosines.append(bounds(cos, err))
        sines.append(bounds(sin, err))
    return tuple(cosines), tuple(sines)


def _certified_sign(x: CycloElement, k: int, part: int) -> int:
    """The sign of the real (part 0) or imaginary (part 1) part of
    sigma_k(x), which must not be 0.

    That part is sum_t num_t * cos or sin(2 pi k t / m) / den.  The sum is
    bounded exactly from the interval table at `DEFAULT_PREC_BITS` bits,
    and the precision doubles until the bounds exclude 0."""
    m = x.field.m
    terms = [(c, k * t % m) for t, c in enumerate(x.num) if c]
    prec_bits = DEFAULT_PREC_BITS
    while True:
        table = _trig_bounds(m, prec_bits)[part]
        lo = hi = 0
        for c, j in terms:
            low, high = table[j]
            if c > 0:
                lo += c * low
                hi += c * high
            else:
                lo += c * high
                hi += c * low
        if lo > 0:
            return 1
        if hi < 0:
            return -1
        prec_bits *= 2


def real_sign(x: CycloElement, k: int) -> int:
    """The sign of sigma_k(x) for a nonzero totally real x, certified."""
    return _certified_sign(x, k, 0)


def imaginary_sign(x: CycloElement, k: int) -> int:
    """The sign of Im sigma_k(x) for a nonzero totally imaginary x, certified."""
    return _certified_sign(x, k, 1)


def signature_at(module: HermitianModule, k: int) -> tuple[int, int]:
    """Signature (positives, negatives) of the Hermitian matrix i*Psi_sigma.

    Congruence keeps it (Sylvester's law of inertia), so it is read off
    the `HermitianModule.minors` Delta_j by Jacobi's rule (Gantmacher,
    The Theory of Matrices, vol. 1, ch. X): the number of negatives is
    the number of sign changes in 1, D_1, .., D_n, where D_j = i^j *
    sigma_k(Delta_j) is the j-th leading minor of i*Psi_sigma.  As
    conj(Delta_j) = (-1)^j Delta_j, D_j = (-1)^((j+1)/2) Im
    sigma_k(Delta_j) for odd j and (-1)^(j/2) sigma_k(Delta_j) for even
    j; each sign is certified by `imaginary_sign` or `real_sign`."""
    if math.gcd(k, module.field.m) != 1:
        raise ValueError(f"{k} is not a unit modulo {module.field.m}")
    neg, previous = 0, 1
    for j, delta in enumerate(module.minors(), 1):
        if j % 2:
            sign = imaginary_sign(delta, k) * (-1) ** ((j + 1) // 2)
        else:
            sign = real_sign(delta, k) * (-1) ** (j // 2)
        neg += sign != previous
        previous = sign
    return module.rank - neg, neg


def compatible(module: HermitianModule, phi: CMTraceVector) -> bool:
    """True iff p_sigma equals phi's coefficient at sigma, for every sigma."""
    if any(c < 0 or c > module.rank for c in phi.coeffs):
        raise ValueError("coefficients must lie in [0, rank]")
    for k, coefficient in zip(module.field.units, phi.coeffs):
        pos, _ = signature_at(module, k)
        if pos != coefficient:
            return False
    return True
