"""Exact arithmetic in cyclotomic CM fields Q(zeta_m).

Elements are stored as rational coordinate vectors in the power basis
1, zeta, ..., zeta^(phi(m)-1), reduced modulo the m-th cyclotomic
polynomial.  The CM involution is zeta -> zeta^(m-1).  Everything here
is immutable and exact; complex embeddings are evaluated with mpmath at
a configurable binary precision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable

import mpmath

DEFAULT_PREC_BITS = 128


class RamifiedPrimeError(ValueError):
    """Raised when a prime dividing m is used where p | m is excluded."""


def _poly_divmod(num: list[int], den: list[int]) -> tuple[list[int], list[int]]:
    """Exact division of integer polynomials, coefficients low-to-high."""
    num = list(num)
    deg_d = len(den) - 1
    lead = den[-1]
    quot = [0] * (max(len(num) - deg_d, 0))
    for i in range(len(num) - 1, deg_d - 1, -1):
        c = num[i]
        if c % lead != 0:
            raise ArithmeticError("non-exact polynomial division")
        q = c // lead
        quot[i - deg_d] = q
        for j, d in enumerate(den):
            num[i - deg_d + j] -= q * d
    while num and num[-1] == 0:
        num.pop()
    return quot, num


@lru_cache(maxsize=None)
def cyclotomic_poly(m: int) -> tuple[int, ...]:
    """Coefficients (low-to-high, monic) of the m-th cyclotomic polynomial."""
    if m == 1:
        return (-1, 1)
    num = [0] * (m + 1)
    num[0], num[m] = -1, 1
    for d in range(1, m):
        if m % d == 0:
            num, rem = _poly_divmod(num, list(cyclotomic_poly(d)))
            assert not rem
    return tuple(num)


def _mobius(n: int) -> int:
    if n == 1:
        return 1
    result = 1
    d = 2
    while d * d <= n:
        if n % d == 0:
            n //= d
            if n % d == 0:
                return 0
            result = -result
        d += 1
    if n > 1:
        result = -result
    return result


def _totient(n: int) -> int:
    result = n
    d = 2
    m = n
    while d * d <= m:
        if m % d == 0:
            while m % d == 0:
                m //= d
            result -= result // d
        d += 1
    if m > 1:
        result -= result // m
    return result


@lru_cache(maxsize=None)
def _ramanujan_sum(m: int, j: int) -> int:
    """Sum of sigma(zeta^j) over all phi(m) embeddings sigma, exactly."""
    g = math.gcd(j % m, m)
    q = m // g
    return _mobius(q) * (_totient(m) // _totient(q))


class CycloField:
    """The cyclotomic field Q(zeta_m), m >= 3 and m != 2 (mod 4)."""

    def __init__(self, m: int):
        if m < 3 or m % 4 == 2:
            raise ValueError(f"need m >= 3 with m != 2 (mod 4), got {m}")
        self.m = m
        self.degree = _totient(m)
        self.units = tuple(k for k in range(1, m) if math.gcd(k, m) == 1)
        # zeta^t in the power basis, for t = 0 .. max(m, 2*degree) - 1
        d = self.degree
        poly = cyclotomic_poly(m)
        table: list[tuple[Fraction, ...]] = []
        for t in range(d):
            row = [Fraction(0)] * d
            row[t] = Fraction(1)
            table.append(tuple(row))
        n_rows = max(m, 2 * d - 1)
        for t in range(d, n_rows):
            prev = list(table[t - 1])
            top = prev[d - 1]
            row = [Fraction(0)] + prev[:-1]
            if top:
                for j in range(d):
                    row[j] -= top * poly[j]
            table.append(tuple(row))
        self._zeta_powers = tuple(table)

    def __repr__(self) -> str:
        return f"CycloField({self.m})"

    def __eq__(self, other) -> bool:
        return isinstance(other, CycloField) and other.m == self.m

    def __hash__(self) -> int:
        return hash(("CycloField", self.m))

    def element(self, coords: Iterable) -> "CycloElement":
        coords = [Fraction(c) for c in coords]
        if len(coords) != self.degree:
            raise ValueError(f"expected {self.degree} coordinates")
        return CycloElement(self, tuple(coords))

    def from_rational(self, value) -> "CycloElement":
        coords = [Fraction(0)] * self.degree
        coords[0] = Fraction(value)
        return CycloElement(self, tuple(coords))

    @property
    def zero(self) -> "CycloElement":
        return self.from_rational(0)

    @property
    def one(self) -> "CycloElement":
        return self.from_rational(1)

    @property
    def zeta(self) -> "CycloElement":
        return self.zeta_power(1)

    def zeta_power(self, t: int) -> "CycloElement":
        return CycloElement(self, self._zeta_powers[t % self.m])


@lru_cache(maxsize=None)
def cyclo_field(m: int) -> CycloField:
    return CycloField(m)


class CycloElement:
    """Element of Q(zeta_m) as exact rational power-basis coordinates."""

    __slots__ = ("field", "coords")

    def __init__(self, field: CycloField, coords: tuple[Fraction, ...]):
        self.field = field
        self.coords = coords

    def _coerce(self, other) -> "CycloElement":
        if isinstance(other, CycloElement):
            if other.field != self.field:
                raise ValueError("elements of different fields")
            return other
        if isinstance(other, (int, Fraction)):
            return self.field.from_rational(other)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return CycloElement(
            self.field, tuple(a + b for a, b in zip(self.coords, other.coords))
        )

    __radd__ = __add__

    def __neg__(self):
        return CycloElement(self.field, tuple(-a for a in self.coords))

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        d = self.field.degree
        prod = [Fraction(0)] * (2 * d - 1)
        for i, a in enumerate(self.coords):
            if not a:
                continue
            for j, b in enumerate(other.coords):
                if b:
                    prod[i + j] += a * b
        table = self.field._zeta_powers
        out = [Fraction(0)] * d
        for t, c in enumerate(prod):
            if c:
                row = table[t]
                for j in range(d):
                    if row[j]:
                        out[j] += c * row[j]
        return CycloElement(self.field, tuple(out))

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        return self._coerce(other) * self.inverse()

    def __pow__(self, exponent: int):
        if exponent < 0:
            return self.inverse() ** (-exponent)
        result = self.field.one
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def __eq__(self, other) -> bool:
        try:
            other = self._coerce(other)
        except ValueError:
            return False
        if other is NotImplemented:
            return NotImplemented
        return self.coords == other.coords

    def __hash__(self) -> int:
        return hash((self.field.m, self.coords))

    def __bool__(self) -> bool:
        return any(self.coords)

    def is_rational(self) -> bool:
        return not any(self.coords[1:])

    def rational_value(self) -> Fraction:
        if not self.is_rational():
            raise ValueError("element is not rational")
        return self.coords[0]

    def inverse(self) -> "CycloElement":
        """Extended Euclid against the cyclotomic polynomial over Q."""
        if not self:
            raise ZeroDivisionError("inverse of zero")

        def trim(poly):
            while poly and not poly[-1]:
                poly.pop()
            return poly

        def divmod_poly(a, b):
            a = list(a)
            quot = [Fraction(0)] * max(len(a) - len(b) + 1, 0)
            while len(a) >= len(b):
                c = a[-1] / b[-1]
                shift = len(a) - len(b)
                quot[shift] = c
                for i, bc in enumerate(b):
                    a[i + shift] -= c * bc
                a.pop()
                trim(a)
            return quot, a

        def mul_poly(a, b):
            out = [Fraction(0)] * (len(a) + len(b) - 1) if a and b else []
            for i, ac in enumerate(a):
                if ac:
                    for j, bc in enumerate(b):
                        out[i + j] += ac * bc
            return trim(out)

        def sub_poly(a, b):
            out = list(a) + [Fraction(0)] * (len(b) - len(a))
            for i, bc in enumerate(b):
                out[i] -= bc
            return trim(out)

        r0 = [Fraction(c) for c in cyclotomic_poly(self.field.m)]
        r1 = trim([Fraction(c) for c in self.coords])
        s0, s1 = [], [Fraction(1)]
        while len(r1) > 1:
            q, rem = divmod_poly(r0, r1)
            r0, r1 = r1, rem
            s0, s1 = s1, sub_poly(s0, mul_poly(q, s1))
        if not r1:
            raise ZeroDivisionError("element is a zero divisor (unexpected)")
        lead = r1[0]
        d = self.field.degree
        coords = [Fraction(0)] * d
        for i, c in enumerate(s1):
            coords[i] = c / lead
        return CycloElement(self.field, tuple(coords))

    def conj(self) -> "CycloElement":
        """The CM involution zeta -> zeta^(m-1)."""
        m = self.field.m
        table = self.field._zeta_powers
        d = self.field.degree
        out = [Fraction(0)] * d
        for j, c in enumerate(self.coords):
            if c:
                row = table[(m - j) % m]
                for t in range(d):
                    if row[t]:
                        out[t] += c * row[t]
        return CycloElement(self.field, tuple(out))

    def embed(self, k: int, prec_bits: int = DEFAULT_PREC_BITS) -> mpmath.mpc:
        """Numeric value under sigma_k : zeta -> exp(2 pi i k / m)."""
        if math.gcd(k, self.field.m) != 1:
            raise ValueError(f"{k} is not a unit modulo {self.field.m}")
        with mpmath.workprec(prec_bits):
            zeta = mpmath.expjpi(mpmath.mpf(2) * k / self.field.m)
            acc = mpmath.mpc(0)
            power = mpmath.mpc(1)
            for c in self.coords:
                if c:
                    acc += mpmath.mpf(c.numerator) / c.denominator * power
                power *= zeta
            return acc

    def __repr__(self) -> str:
        terms = []
        for j, c in enumerate(self.coords):
            if c:
                if j == 0:
                    terms.append(str(c))
                elif j == 1:
                    terms.append(f"{c}*z")
                else:
                    terms.append(f"{c}*z^{j}")
        return " + ".join(terms) if terms else "0"


def conj(x: CycloElement) -> CycloElement:
    return x.conj()


def trace_LQ(x: CycloElement) -> Fraction:
    """Trace to Q: sum of x over all phi(m) complex embeddings, exact."""
    m = x.field.m
    total = Fraction(0)
    for j, c in enumerate(x.coords):
        if c:
            total += c * _ramanujan_sum(m, j)
    return total


@dataclass(frozen=True)
class CMType:
    """One embedding chosen from each conjugate pair."""

    field: CycloField
    members: frozenset[int]  # residues k with sigma_k in the type

    def __post_init__(self):
        m = self.field.m
        for k in self.members:
            if math.gcd(k, m) != 1:
                raise ValueError(f"{k} is not a unit modulo {m}")
            if (m - k) % m in self.members:
                raise ValueError(f"both {k} and {m - k} present")
        if 2 * len(self.members) != self.field.degree:
            raise ValueError("a CM type picks one embedding per conjugate pair")

    def conjugate(self) -> "CMType":
        m = self.field.m
        return CMType(self.field, frozenset((m - k) % m for k in self.members))

    def sorted_members(self) -> tuple[int, ...]:
        return tuple(sorted(self.members))


def cm_type(field: CycloField, members: Iterable[int]) -> CMType:
    return CMType(field, frozenset(members))


def all_cm_types(field: CycloField) -> list[CMType]:
    """All 2^(phi(m)/2) CM types, in a deterministic order."""
    m = field.m
    pairs = sorted({tuple(sorted((k, m - k))) for k in field.units})
    types = []
    for mask in range(1 << len(pairs)):
        members = frozenset(
            pair[(mask >> i) & 1] for i, pair in enumerate(pairs)
        )
        types.append(CMType(field, members))
    return types


def cm_trace(
    phi: CMType, x: CycloElement, prec_bits: int = DEFAULT_PREC_BITS
) -> mpmath.mpc:
    """Partial embedding sum over the members of the CM type."""
    if x.field != phi.field:
        raise ValueError("element not in the CM type's field")
    with mpmath.workprec(prec_bits):
        return mpmath.fsum(
            (x.embed(k, prec_bits) for k in phi.sorted_members()),
            absolute=False,
        )


@dataclass(frozen=True)
class FrobeniusOrbitPartition:
    """Orbits of multiplication by p on (Z/m)^*; one orbit per prime of L over p."""

    m: int
    p: int
    orbits: tuple[tuple[int, ...], ...]  # each sorted ascending; sorted by min

    def orbit_of(self, k: int) -> tuple[int, ...]:
        for orbit in self.orbits:
            if k in orbit:
                return orbit
        raise ValueError(f"{k} is not a unit modulo {self.m}")

    def conjugate_orbit(self, orbit: tuple[int, ...]) -> tuple[int, ...]:
        return self.orbit_of((self.m - orbit[0]) % self.m)


def frobenius_orbits(m: int, p: int) -> FrobeniusOrbitPartition:
    if math.gcd(p, m) != 1:
        raise RamifiedPrimeError(f"prime {p} divides m={m} (ramified case excluded)")
    seen: set[int] = set()
    orbits = []
    for k in range(1, m):
        if math.gcd(k, m) != 1 or k in seen:
            continue
        orbit = []
        j = k
        while j not in seen:
            seen.add(j)
            orbit.append(j)
            j = (j * p) % m
        orbits.append(tuple(sorted(orbit)))
    orbits.sort(key=lambda o: o[0])
    return FrobeniusOrbitPartition(m, p, tuple(orbits))


@dataclass(frozen=True)
class SpadesuitReport:
    """Per-bullet verdicts plus the derived splitting data on success."""

    m: int
    p: int
    level: int
    perfect_at_p: bool         # bullet 1
    coprime_level: bool        # bullet 2
    orbit_aligned: bool        # bullet 3
    distinct_primes: bool      # bullet 4
    pi: tuple[tuple[int, ...], ...] | None = None
    pi_star: tuple[tuple[int, ...], ...] | None = None
    r: int | None = None
    num_primes: int | None = None

    @property
    def all_hold(self) -> bool:
        return (
            self.perfect_at_p
            and self.coprime_level
            and self.orbit_aligned
            and self.distinct_primes
        )


def check_spadesuit(phi0: CMType, phin: CMType, p: int, l: int, gram0, gram1) -> SpadesuitReport:
    """Check the four smooth-model hypotheses for the given PEL input.

    gram0 and gram1 are HermitianModules of rank 1 and rank n.  Bullet 3
    is read as: the support of phi0 is a union of complete Frobenius
    orbits; bullet 4 as: the embeddings in supp(phin) - supp(phi0) meet
    pairwise distinct orbits.
    """
    from .pairings import perfectness_valuation, trace_gram

    field = phi0.field
    if phin.field != field:
        raise ValueError("CM types over different fields")
    if phi0.members == phin.members:
        raise ValueError("the two CM types must differ")
    m = field.m
    if math.gcd(p, m) != 1:
        raise RamifiedPrimeError(f"prime {p} divides m={m}")
    if gram0.rank != 1:
        raise ValueError("gram0 must have rank 1")

    v0 = perfectness_valuation(trace_gram(gram0), p)
    v1 = perfectness_valuation(trace_gram(gram1), p)
    perfect = v0 == 0 and v1 == 0

    coprime = math.gcd(p, l) == 1

    partition = frobenius_orbits(m, p)
    support0 = set(phi0.members)
    covered: set[int] = set()
    pi_star_orbits = []
    aligned = True
    for orbit in partition.orbits:
        hit = support0.intersection(orbit)
        if hit:
            if len(hit) != len(orbit):
                aligned = False
                break
            pi_star_orbits.append(orbit)
            covered |= set(orbit)
    if aligned and covered != support0:
        aligned = False

    diff = sorted(phin.members - phi0.members)
    diff_orbits = [partition.orbit_of(k) for k in diff]
    distinct = len({o[0] for o in diff_orbits}) == len(diff_orbits)

    if not aligned:
        return SpadesuitReport(m, p, l, perfect, coprime, False, distinct)

    pi_orbits = [partition.conjugate_orbit(o) for o in pi_star_orbits]
    # order pi so the orbits met by supp(phin) - supp(phi0) come first
    leading = []
    for o in diff_orbits:
        if o in pi_orbits and o not in leading:
            leading.append(o)
    trailing = sorted((o for o in pi_orbits if o not in leading), key=lambda o: o[0])
    pi_ordered = tuple(leading + trailing)
    pi_star_ordered = tuple(
        partition.conjugate_orbit(o) for o in pi_ordered
    )
    return SpadesuitReport(
        m=m,
        p=p,
        level=l,
        perfect_at_p=perfect,
        coprime_level=coprime,
        orbit_aligned=True,
        distinct_primes=distinct,
        pi=pi_ordered,
        pi_star=pi_star_ordered,
        r=len(leading) if distinct else None,
        num_primes=len(pi_ordered),
    )
