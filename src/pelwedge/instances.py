"""Seeded random instance generators for the verification suites.

Everything here is deterministic given the Random instance, so CLI runs
and tests can reproduce any reported witness from the seed alone.
"""

from __future__ import annotations

import random

import numpy as np

from .cyclofield import CycloElement, CycloField, CycloMatrix, cyclo_field
from .exterior import det
from .hodge import HermitianModule
from .pairings import DegenerateForm, perfectness_valuation, trace_gram


def rand_element(field: CycloField, rng: random.Random, lo: int = -3, hi: int = 3) -> CycloElement:
    return CycloElement(field, tuple(rng.randint(lo, hi) for _ in range(field.degree)))


def rand_skew_hermitian(field: CycloField, n: int, rng: random.Random) -> CycloMatrix:
    """Random *-skew-Hermitian n x n gram over O_L: U - U^* for U upper
    triangular, its entries drawn by `rand_element` row by row."""
    upper = np.zeros((n, n, field.degree), dtype=np.int64)
    for a in range(n):
        for b in range(a, n):
            upper[a, b] = rand_element(field, rng).num
    upper = CycloMatrix(field, upper)
    return CycloMatrix(field, upper.nums - upper.conj_transpose().nums)


class SamplingExhausted(RuntimeError):
    """`rand_perfect_pair` found no p-perfect gram in its draws."""


def rand_perfect_pair(
    field: CycloField, n: int, p: int, rng: random.Random, max_attempts: int = 200
) -> tuple[HermitianModule, HermitianModule]:
    """Random rank-1 and rank-n skew-Hermitian modules, both p-perfect.

    Rejection sampling: random integral grams are p-perfect with
    probability roughly 1 - 1/p; SamplingExhausted after max_attempts
    rejected draws of one gram."""

    def draw(rank: int) -> HermitianModule:
        for _ in range(max_attempts):
            module = HermitianModule(field, rand_skew_hermitian(field, rank, rng))
            try:
                if perfectness_valuation(trace_gram(module), p) == 0:
                    return module
            except DegenerateForm:
                continue
        raise SamplingExhausted(
            f"no p-perfect gram of rank {rank} at m={field.m}, n={n}, p={p} "
            f"in {max_attempts} draws"
        )

    return draw(1), draw(n)


def _unit(field: CycloField, rng: random.Random) -> CycloElement:
    """A random root of unity in O_L."""
    t = rng.randrange(field.m)
    return field.zeta_power(t) if rng.random() < 0.5 else -field.zeta_power(t)


def _identity(field: CycloField, n: int) -> np.ndarray:
    """Numerators of the n x n identity matrix over field."""
    nums = np.zeros((n, n, field.degree), dtype=np.int64)
    nums[range(n), range(n), 0] = 1
    return nums


def rand_unimodular(field: CycloField, n: int, rng: random.Random, steps: int = 4):
    """(B, B_inverse) with B a product of transvections and unit diagonals."""
    B = Binv = CycloMatrix(field, _identity(field, n))
    for _ in range(steps):
        M, Minv = _identity(field, n), _identity(field, n)
        if n >= 2 and rng.random() < 0.7:
            i, j = rng.sample(range(n), 2)
            lam = rand_element(field, rng, -2, 2)
            M[i, j] = lam.num
            Minv[i, j] = (-lam).num
        else:
            d = rng.randrange(n)
            u = _unit(field, rng)
            M[d, d] = u.num
            Minv[d, d] = u.conj().num
        B = B @ CycloMatrix(field, M)
        Binv = CycloMatrix(field, Minv) @ Binv
    return B, Binv


def rand_similitude_pair(n: int, rng: random.Random):
    """Random (gamma0, gamma1, psi0, psi1, mu) over Q(i) with
    multiplier([[gamma0]], psi0) = multiplier(gamma1, psi1) = mu; gamma1,
    psi0 and psi1 are CycloMatrices.

    gamma1 is a similitude of psi1 = B^dagger (i I) B obtained by
    conjugating a product of unit-monomial and rational-scalar
    generators; mu is then a square c^2 and gamma0 = c * unit."""
    field = cyclo_field(4)
    i = field.zeta
    c = 1
    gamma = CycloMatrix(field, _identity(field, n))
    for _ in range(3):
        if rng.random() < 0.5:
            perm = list(range(n))
            rng.shuffle(perm)
            M = np.zeros((n, n, field.degree), dtype=np.int64)
            for a in range(n):
                M[a, perm[a]] = _unit(field, rng).num
        else:
            scalar = rng.choice([2, 3, 5, -2])
            c *= scalar
            M = _identity(field, n) * scalar
        gamma = gamma @ CycloMatrix(field, M)

    B, Binv = rand_unimodular(field, n, rng)
    psi1 = B.conj_transpose() @ B * i
    gamma1 = Binv @ gamma @ B
    gamma0 = field.from_rational(c) * _unit(field, rng)
    psi0 = CycloMatrix.of(field, [[i * field.from_rational(rng.choice([1, 1, 3]))]])
    mu = field.from_rational(c * c)
    return gamma0, gamma1, psi0, psi1, mu


def rand_definite_instance(n: int, rng: random.Random):
    """(psi0, psi1) over Q(i), skew-Hermitian, with i * psi_sigma1
    positive definite for both (matching orientation at sigma_1)."""
    field = cyclo_field(4)
    while True:
        A = CycloMatrix.of(field, [[rand_element(field, rng, -2, 2) for _ in range(n)]
                                   for _ in range(n)])
        if det(A):
            break
    minus_i = -field.zeta
    psi1 = A @ A.conj_transpose() * minus_i  # -i times a positive definite Hermitian
    psi0 = CycloMatrix.of(field, [[minus_i * field.from_rational(rng.choice([1, 2, 5]))]])
    return psi0, psi1
