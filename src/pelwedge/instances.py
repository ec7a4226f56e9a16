"""Seeded random instance generators for the verification suites.

Everything here is deterministic given the Random instance, so CLI runs
and tests can reproduce any reported witness from the seed alone.
"""

from __future__ import annotations

import random

from .cyclofield import CycloElement, CycloField, cyclo_field
from .exterior import conj_transpose, mat_mul
from .hodge import HermitianModule
from .pairings import DegenerateForm, perfectness_valuation, trace_gram


def rand_element(field: CycloField, rng: random.Random, lo: int = -3, hi: int = 3) -> CycloElement:
    return field.element([rng.randint(lo, hi) for _ in range(field.degree)])


def rand_skew_hermitian(field: CycloField, n: int, rng: random.Random):
    """Random *-skew-Hermitian n x n gram over O_L."""
    gram = [[field.zero] * n for _ in range(n)]
    for a in range(n):
        x = rand_element(field, rng)
        gram[a][a] = x - x.conj()
        for b in range(a + 1, n):
            y = rand_element(field, rng)
            gram[a][b] = y
            gram[b][a] = -y.conj()
    return gram


def rand_perfect_pair(
    field: CycloField, n: int, p: int, rng: random.Random, max_attempts: int = 200
) -> tuple[HermitianModule, HermitianModule]:
    """Random rank-1 and rank-n skew-Hermitian modules, both p-perfect.

    Rejection sampling: random integral grams are p-perfect with
    probability roughly 1 - 1/p."""

    def draw(rank: int) -> HermitianModule:
        for _ in range(max_attempts):
            module = HermitianModule(field, rand_skew_hermitian(field, rank, rng))
            try:
                if perfectness_valuation(trace_gram(module), p) == 0:
                    return module
            except DegenerateForm:
                continue
        raise RuntimeError(f"no p-perfect gram of rank {rank} found at p={p}")

    return draw(1), draw(n)


def _unit(field: CycloField, rng: random.Random) -> CycloElement:
    """A random root of unity in O_L."""
    t = rng.randrange(field.m)
    return field.zeta_power(t) if rng.random() < 0.5 else -field.zeta_power(t)


def rand_unimodular(field: CycloField, n: int, rng: random.Random, steps: int = 4):
    """(B, B_inverse) with B a product of transvections and unit diagonals."""
    B = [[field.one if a == b else field.zero for b in range(n)] for a in range(n)]
    Binv = [list(row) for row in B]

    def apply(M, Minv_factor):
        nonlocal B, Binv
        B = [list(r) for r in mat_mul(B, M)]
        Binv = [list(r) for r in mat_mul(Minv_factor, Binv)]

    for _ in range(steps):
        if n >= 2 and rng.random() < 0.7:
            i, j = rng.sample(range(n), 2)
            lam = rand_element(field, rng, -2, 2)
            M = [[field.one if a == b else field.zero for b in range(n)] for a in range(n)]
            Mi = [list(r) for r in M]
            M[i][j] = lam
            Mi[i][j] = -lam
            apply(M, Mi)
        else:
            d = rng.randrange(n)
            u = _unit(field, rng)
            M = [[field.one if a == b else field.zero for b in range(n)] for a in range(n)]
            Mi = [list(r) for r in M]
            M[d][d] = u
            Mi[d][d] = u.conj() * (u * u.conj()).inverse()
            apply(M, Mi)
    return tuple(map(tuple, B)), tuple(map(tuple, Binv))


def rand_similitude_pair(n: int, rng: random.Random):
    """Random (gamma0, gamma1, psi0, psi1, mu) over Q(i) with
    multiplier(gamma0, psi0) = multiplier(gamma1, psi1) = mu.

    gamma1 is a similitude of psi1 = B^dagger (i I) B obtained by
    conjugating a product of unit-monomial and rational-scalar
    generators; mu is then a square c^2 and gamma0 = c * unit."""
    field = cyclo_field(4)
    i = field.zeta
    c = 1
    gamma = [[field.one if a == b else field.zero for b in range(n)] for a in range(n)]

    def matm(A, Bm):
        return [list(r) for r in mat_mul(A, Bm)]

    for _ in range(3):
        if rng.random() < 0.5:
            perm = list(range(n))
            rng.shuffle(perm)
            M = [
                [_unit(field, rng) if perm[a] == b else field.zero for b in range(n)]
                for a in range(n)
            ]
        else:
            scalar = rng.choice([2, 3, 5, -2])
            c *= scalar
            M = [
                [field.from_rational(scalar) if a == b else field.zero for b in range(n)]
                for a in range(n)
            ]
        gamma = matm(gamma, M)

    B, Binv = rand_unimodular(field, n, rng)
    psi_std = [[i if a == b else field.zero for b in range(n)] for a in range(n)]
    psi1 = mat_mul(mat_mul(conj_transpose(B), psi_std), B)
    gamma1 = mat_mul(mat_mul(Binv, gamma), B)
    gamma0 = field.from_rational(c) * _unit(field, rng)
    psi0_entry = i * field.from_rational(rng.choice([1, 1, 3]))
    psi0 = ((psi0_entry,),)
    mu = field.from_rational(c * c)
    return gamma0, gamma1, psi0, psi1, mu


def rand_definite_instance(n: int, rng: random.Random):
    """(psi0, psi1) over Q(i), skew-Hermitian, with i * psi_sigma1
    positive definite for both (matching orientation at sigma_1)."""
    field = cyclo_field(4)
    i = field.zeta
    while True:
        A = [[rand_element(field, rng, -2, 2) for _ in range(n)] for _ in range(n)]
        from .exterior import det

        if det(A):
            break
    H = mat_mul(A, conj_transpose(A))  # positive definite Hermitian
    minus_i = -i
    psi1 = tuple(tuple(minus_i * entry for entry in row) for row in H)
    psi0 = ((minus_i * field.from_rational(rng.choice([1, 2, 5])),),)
    return psi0, psi1
