"""CM-trace vectors, signatures of skew-Hermitian forms, and the
weight-multiset bookkeeping for exterior powers.

A `HermitianModule` holds its Gram matrix as a `CycloMatrix`, one
(rank, rank, phi(m)) integer array over one denominator, and checks
skew-Hermitian symmetry on that array in int64 when the conjugation
bound times the largest |entry| is below 2^63, else on Python ints.  The
signatures stay on CycloElements: `congruence_diagonal` eliminates over
L entry by entry on the element view of the gram.

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


def dim_minus10(case: EmbeddingCase, n: int) -> int:
    """Dimension of the (-1,0)-eigenspace at an embedding of the given case."""
    return {
        EmbeddingCase.BOTH: n,
        EmbeddingCase.ONLY0: n - 1,
        EmbeddingCase.ONLYN: 1,
        EmbeddingCase.NEITHER: 0,
    }[case]


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
    (rank, rank, phi(m)) integer array over one denominator, read as rows
    of CycloElements only by the paths that stay on elements (the
    congruence diagonal and so the signatures).  The gram may be given
    as a CycloMatrix or as rows of CycloElements.  Skew-Hermitian symmetry,
    conj(Psi)^T = -Psi, is one comparison of numerator arrays through the
    field's conjugation matrix."""

    def __init__(self, field: CycloField, gram):
        if isinstance(gram, CycloMatrix):
            square = gram.shape[0] == gram.shape[1]
        else:
            gram = [list(row) for row in gram]
            square = all(len(row) == len(gram) for row in gram)
        if not square:
            raise ValueError("gram matrix must be square")
        gram = CycloMatrix.of(field, gram)
        if not np.array_equal(field.conjugate(gram.nums).transpose(1, 0, 2), -gram.nums):
            raise ValueError("gram matrix is not *-skew-Hermitian")
        self.field = field
        self.rank = len(gram)
        self.gram = gram
        self._diagonal = None

    def diagonal(self) -> tuple[CycloElement, ...]:
        """The `congruence_diagonal` of the gram, computed on first use."""
        if self._diagonal is None:
            self._diagonal = congruence_diagonal(self.field, self.gram)
        return self._diagonal


def congruence_diagonal(field: CycloField, gram) -> tuple[CycloElement, ...]:
    """delta_1 .. delta_n with P* Psi P = diag(delta_j) for some P in
    GL_n(L), by symmetric elimination over L.  Each delta_j is nonzero and
    totally imaginary.

    Each step moves a nonzero diagonal entry of the remaining block to the
    pivot and replaces the block by its Schur complement, which is again
    *-skew-Hermitian.  When every diagonal entry of the block is 0 but some
    Psi_ij is not, e_i + c*e_j has the diagonal entry c*Psi_ij -
    conj(c*Psi_ij); that is 0 for both c = 1 and c = zeta only if zeta were
    real.  A zero block means Psi is degenerate over L, and raises
    SingularAtEmbedding."""
    a = [list(row) for row in gram]
    n = len(a)
    deltas = []
    for r in range(n):
        pivot = next((i for i in range(r, n) if a[i][i]), None)
        if pivot is None:
            pivot, j = next(
                ((i, j) for i in range(r, n) for j in range(i + 1, n) if a[i][j]), (None, None)
            )
            if pivot is None:
                raise SingularAtEmbedding(
                    f"the gram matrix is degenerate over Q(zeta_{field.m}): rank {r} < {n}"
                )
            c = field.one if (a[pivot][j] - a[pivot][j].conj()) else field.zeta
            # e_pivot <- e_pivot + c * e_j: column pivot gains c times column j
            for k in range(r, n):
                if k != pivot:
                    a[k][pivot] = a[k][pivot] + a[k][j] * c
                    a[pivot][k] = -a[k][pivot].conj()
            d = c * a[pivot][j]
            a[pivot][pivot] = d - d.conj()
        a[r], a[pivot] = a[pivot], a[r]
        for row in a:
            row[r], row[pivot] = row[pivot], row[r]
        delta = a[r][r]
        deltas.append(delta)
        # a[i][j] -= a[i][r] * delta^-1 * a[r][j] on the upper triangle of
        # the block; the lower one follows by skew-Hermitian symmetry
        inverse = delta.inverse()
        pivot_row = a[r]
        for i in range(r + 1, n):
            t = a[i][r] * inverse
            row = a[i]
            for j in range(i, n):
                row[j] = row[j] - t * pivot_row[j]
                if j > i:
                    a[j][i] = -row[j].conj()
    return tuple(deltas)


@lru_cache(maxsize=32)  # a table per field and precision in use
def _sine_bounds(m: int, prec_bits: int) -> tuple[tuple[int, int], ...]:
    """(lo_j, hi_j) with lo_j <= 2^prec_bits * sin(2 pi j / m) <= hi_j for
    j < m, integers from the endpoints of mpmath's interval sine."""
    # loaded on first use: a run that finds no signature never imports mpmath
    from mpmath.libmp import from_int, libmpi, mpf_shift, round_ceiling, round_floor, to_int

    def point(value: int):
        return from_int(value), from_int(value)

    pi = libmpi.mpi_pi(prec_bits)
    bounds = []
    for j in range(m):
        angle = libmpi.mpi_div(libmpi.mpi_mul(pi, point(2 * j), prec_bits), point(m), prec_bits)
        _, (lo, hi) = libmpi.mpi_cos_sin(angle, prec_bits)
        bounds.append((
            to_int(mpf_shift(lo, prec_bits), round_floor),
            to_int(mpf_shift(hi, prec_bits), round_ceiling),
        ))
    return tuple(bounds)


def imaginary_sign(x: CycloElement, k: int) -> int:
    """The sign of Im sigma_k(x) for a nonzero totally imaginary x.

    Im sigma_k(x) = sum_t num_t * sin(2 pi k t / m) / den.  The sum is
    bounded exactly from the interval sines at `DEFAULT_PREC_BITS` bits,
    and the precision doubles until the bounds exclude 0; they do, since
    sigma_k(x) is a nonzero imaginary number."""
    m = x.field.m
    terms = [(c, k * t % m) for t, c in enumerate(x.num) if c]
    prec_bits = DEFAULT_PREC_BITS
    while True:
        table = _sine_bounds(m, prec_bits)
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


def signature_at(module: HermitianModule, k: int) -> tuple[int, int]:
    """Signature (positives, negatives) of the Hermitian matrix i*Psi_sigma.

    By Sylvester's law of inertia it is that of i*sigma_k(delta_j) over the
    `HermitianModule.diagonal`, and i*sigma_k(delta_j) = -Im
    sigma_k(delta_j) since delta_j is totally imaginary.  Each sign is
    certified by `imaginary_sign`."""
    if math.gcd(k, module.field.m) != 1:
        raise ValueError(f"{k} is not a unit modulo {module.field.m}")
    neg = sum(imaginary_sign(delta, k) > 0 for delta in module.diagonal())
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
