"""Rational trace forms of skew-Hermitian Grams and p-integral perfectness.

The trace form psi = tr_{L/Q} Psi is an antisymmetric rational matrix in
the basis {zeta^a e_i}; perfectness at p is certified by the p-adic
valuation of its determinant (equivalent to self-duality at unramified
p, which is the only case accepted here).

Each entry of psi is a linear functional of the coordinates of one Psi_ij,
evaluated with the Ramanujan sums tr(zeta^t), so building psi needs no
field multiplication.  The valuation is decided by elimination mod p
first: when every entry is p-integral and the determinant is a nonzero
residue, v_p(det) = 0 and the form is nondegenerate.  Only otherwise is
the exact determinant computed and its valuation returned.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from .cyclofield import CycloElement, CycloField, RamifiedPrimeError, _ramanujan_sum
from .exterior import wedge_gram
from .hodge import HermitianModule


class DegenerateForm(ArithmeticError):
    """The trace form is degenerate over Q."""


@dataclass(frozen=True)
class TraceGram:
    """tr_{L/Q} Psi in the basis {zeta^a e_i}, row index a*n + i."""

    field: CycloField
    rank: int
    matrix: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self):
        size = self.field.degree * self.rank
        if len(self.matrix) != size or any(len(r) != size for r in self.matrix):
            raise ValueError("trace gram has the wrong size")
        for i in range(size):
            for j in range(i, size):
                if self.matrix[j][i] != -self.matrix[i][j]:
                    raise ValueError("trace gram is not antisymmetric")


def _shifted_traces(x: CycloElement, traces: list[int], d: int) -> list[Fraction]:
    """tr(zeta^s * x) for s = 1-d .. d-1, from tr(zeta^t) = traces[t % m]."""
    m = len(traces)
    den = lcm(*(c.denominator for c in x.coords))
    nums = [(t, c.numerator * (den // c.denominator)) for t, c in enumerate(x.coords) if c]
    return [
        Fraction(sum(c * traces[(t + s) % m] for t, c in nums), den)
        for s in range(1 - d, d)
    ]


def trace_gram(module: HermitianModule) -> TraceGram:
    """psi(zeta^a e_i, zeta^b e_j) = tr(conj(zeta^a) * Psi_ij * zeta^b).

    Sesquilinear convention: conjugate-linear in the first argument.  As
    conj(zeta^a) = zeta^(-a), the entry is tr(zeta^(b-a) * Psi_ij), which
    depends on (i, j) and the shift b - a only."""
    field = module.field
    n = module.rank
    d = field.degree
    traces = [_ramanujan_sum(field.m, t) for t in range(field.m)]
    shifted = [[_shifted_traces(x, traces, d) for x in row] for row in module.gram]
    rows = []
    for a in range(d):
        for i in range(n):
            by_shift = shifted[i]
            # by_shift[j][b - a + d - 1] = psi(zeta^a e_i, zeta^b e_j)
            rows.append(tuple(by_shift[j][b - a + d - 1] for b in range(d) for j in range(n)))
    return TraceGram(field, n, tuple(rows))


def rational_det(matrix) -> Fraction:
    """Exact determinant of a rational matrix by fraction Gaussian elimination."""
    rows = [[Fraction(x) for x in row] for row in matrix]
    n = len(rows)
    sign = 1
    result = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if rows[r][col]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            rows[col], rows[pivot] = rows[pivot], rows[col]
            sign = -sign
        p = rows[col][col]
        result *= p
        for r in range(col + 1, n):
            factor = rows[r][col] / p
            if factor:
                for c in range(col, n):
                    rows[r][c] -= factor * rows[col][c]
    return sign * result


def _valuation(value: int, p: int) -> int:
    v = 0
    while value % p == 0:
        value //= p
        v += 1
    return v


def _unit_det_mod(matrix, p: int) -> bool:
    """True when no denominator shares a factor with p and det is a unit mod p.

    Gaussian elimination over Z/p with unit pivots only, so a False answer
    is inconclusive when p is composite.  Row order is irrelevant: only
    whether det is a unit is decided."""
    inverses: dict[int, int] = {1: 1}
    rows = []
    for row in matrix:
        reduced = []
        for x in row:
            den = x.denominator
            inv = inverses.get(den)
            if inv is None:
                if gcd(den, p) != 1:
                    return False
                inv = inverses[den] = pow(den, -1, p)
            reduced.append(x.numerator * inv % p)
        rows.append(reduced)
    while rows:
        pivot = next((r for r, row in enumerate(rows) if row[0] and gcd(row[0], p) == 1), None)
        if pivot is None:
            return False
        head = rows.pop(pivot)
        inv = pow(head[0], -1, p)
        # the pivot row scaled to a leading 1, with its pivot column dropped
        tail = [y * inv % p for y in head[1:]]
        rows = [
            [(x - f * y) % p for x, y in zip(row[1:], tail)] if (f := row[0]) else row[1:]
            for row in rows
        ]
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
    if _unit_det_mod(gram.matrix, p):
        return 0
    d = rational_det(gram.matrix)
    if d == 0:
        raise DegenerateForm("trace gram is degenerate over Q")
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
