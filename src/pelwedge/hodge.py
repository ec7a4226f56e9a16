"""CM-trace vectors, signatures of skew-Hermitian forms, and the
weight-multiset bookkeeping for exterior powers.

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

import mpmath

from .cyclofield import (
    DEFAULT_PREC_BITS,
    CMType,
    CycloElement,
    CycloField,
)


class SingularAtEmbedding(ArithmeticError):
    """An eigenvalue of the embedded Hermitian matrix is too close to zero."""


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

    def coefficient(self, k: int) -> int:
        return self.coeffs[self.field.units.index(k)]

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
    for residue in field.units:
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
        if mult10 != derived.coefficient(residue):
            ok = False
        if sum(multiset.values()) != binom(n, k):
            ok = False
    return Type11Report(ok, combined, minus10)


class HermitianModule:
    """Free O_L-lattice with a *-skew-Hermitian Gram matrix."""

    def __init__(self, field: CycloField, gram):
        self.field = field
        gram = tuple(tuple(entry for entry in row) for row in gram)
        n = len(gram)
        if any(len(row) != n for row in gram):
            raise ValueError("gram matrix must be square")
        for i in range(n):
            for j in range(n):
                if gram[j][i].conj() != -gram[i][j]:
                    raise ValueError("gram matrix is not *-skew-Hermitian")
        self.rank = n
        self.gram = gram

    def embedded_gram(self, k: int, prec_bits: int = DEFAULT_PREC_BITS):
        """Gram matrix under sigma_k as an mpmath matrix."""
        n = self.rank
        out = mpmath.matrix(n, n)
        for i in range(n):
            for j in range(n):
                out[i, j] = self.gram[i][j].embed(k, prec_bits)
        return out


def signature_at(
    module: HermitianModule,
    k: int,
    prec_bits: int = DEFAULT_PREC_BITS,
    tolerance: float = 1e-20,
) -> tuple[int, int]:
    """Signature (positives, negatives) of the Hermitian matrix i*Psi_sigma."""
    n = module.rank
    with mpmath.workprec(prec_bits):
        mat = module.embedded_gram(k, prec_bits)
        herm = mpmath.matrix(n, n)
        for i in range(n):
            for j in range(n):
                herm[i, j] = mpmath.mpc(0, 1) * mat[i, j]
        eigenvalues = mpmath.eighe(herm, eigvals_only=True)
        pos = neg = 0
        for ev in eigenvalues:
            value = mpmath.re(ev)
            if abs(value) <= tolerance:
                raise SingularAtEmbedding(
                    f"eigenvalue {value} within tolerance of 0 at sigma_{k}"
                )
            if value > 0:
                pos += 1
            else:
                neg += 1
    return pos, neg


def compatible(
    module: HermitianModule,
    phi: CMTraceVector,
    prec_bits: int = DEFAULT_PREC_BITS,
) -> bool:
    """True iff p_sigma equals phi's coefficient at sigma, for every sigma."""
    if any(c < 0 or c > module.rank for c in phi.coeffs):
        raise ValueError("coefficients must lie in [0, rank]")
    for k in module.field.units:
        pos, _ = signature_at(module, k, prec_bits)
        if pos != phi.coefficient(k):
            return False
    return True
