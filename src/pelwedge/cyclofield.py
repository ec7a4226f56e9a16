"""Exact arithmetic in cyclotomic CM fields Q(zeta_m).

Elements are stored as integer numerators in the power basis
1, zeta, ..., zeta^(phi(m)-1) over one positive denominator, in lowest
terms.  Products are integer schoolbook products reduced modulo the
monic m-th cyclotomic polynomial; each Galois automorphism
sigma_a : zeta -> zeta^a, the CM involution sigma_(m-1) among them, is an
integer change of coordinates, and the inverse is the product of the
other conjugates over the norm.  Everything here is immutable and exact.

A matrix over the field is a `CycloMatrix`: one integer array of shape
(rows, cols, phi(m)) over one positive denominator.  `CycloField` turns
the same power tables into three integer matrices, built on first use,
through which whole arrays are multiplied (`dot`), conjugated
(`conjugate`) and traced against every power of zeta (`shifted_traces`).
Each of these stages runs in numpy int64 only when a bound taken from the
actual largest |entry| of its inputs proves that no intermediate value
reaches 2^63, and otherwise runs the same code on Python ints (object
dtype).
"""

from __future__ import annotations

import math
import operator
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Iterable

import numpy as np


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


def is_conductor(m: int) -> bool:
    """Whether m names Q(zeta_m) by its conductor: m >= 3 and m != 2 (mod 4)."""
    return m >= 3 and m % 4 != 2


# The largest phi(m) of a field the CLI builds: random `verify prinz` takes
# C(n, n/2) * phi(m) <= 560, which is phi(m) <= 560 at n = 1.
DEGREE_MAX = 560


def degree_excess(m: int) -> str | None:
    """Why Q(zeta_m) is too large to build, phi(m) > `DEGREE_MAX`, or None.
    Since phi(m) >= sqrt(m/2), an m above 2 * DEGREE_MAX^2 is refused
    without factoring it."""
    if m > 2 * DEGREE_MAX**2:
        return f"phi(m) <= {DEGREE_MAX}, got m={m} > 2 * {DEGREE_MAX}^2"
    degree = _totient(m)
    if degree > DEGREE_MAX:
        return f"phi(m) <= {DEGREE_MAX}, got phi({m}) = {degree}"
    return None


# Miller-Rabin on these bases decides every n < 3.18e23 (Sorenson-Webster)
_MILLER_RABIN_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
PRIME_LIMIT = 2**64


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for every n < `PRIME_LIMIT`;
    larger n raise ValueError."""
    if n >= PRIME_LIMIT:
        raise ValueError(f"primality is decided only below 2^64, got {n}")
    if n < 2 or any(n % base == 0 for base in _MILLER_RABIN_BASES):
        return n in _MILLER_RABIN_BASES
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d * 2^s with d odd
    d = (n - 1) >> s
    return not any(
        pow(base, d, n) != 1 and all(pow(base, d << r, n) != n - 1 for r in range(s))
        for base in _MILLER_RABIN_BASES
    )


INT64_LIMIT = 2**63


def exact_dtype(bound: int):
    """int64 when `bound` < 2^63 bounds every |value| a stage makes, else
    object dtype, which holds Python ints."""
    return np.int64 if bound < INT64_LIMIT else object


def magnitude(a: np.ndarray) -> int:
    """The largest |entry| of an integer array as a Python int, 0 if empty."""
    return max(int(a.max()), -int(a.min())) if a.size else 0


def integer_array(values) -> np.ndarray:
    """Nested sequences of ints as one array: int64 when every entry fits,
    else object dtype.  An integer ndarray is returned as it is."""
    if isinstance(values, np.ndarray):
        return values
    try:
        return np.array(values, dtype=np.int64)
    except OverflowError:
        return np.array(values, dtype=object)


def lowest_terms(nums: np.ndarray, den: int) -> tuple[np.ndarray, int]:
    """(nums / g, den / g) for g = gcd(den, *nums); an all-zero nums gets
    the denominator 1."""
    if den == 1:
        return nums, 1
    content = int(np.gcd.reduce(nums, axis=None)) if nums.size else 0
    if not content:
        return nums, 1
    g = math.gcd(den, content)
    return (nums // g, den // g) if g != 1 else (nums, den)


class _IntegerMap:
    """x -> x @ matrix on the last axis of integer arrays.  `bound` is the
    largest column sum of |matrix|, so |x @ matrix| <= bound * max|x| and
    every partial sum of the product stays below that too."""

    def __init__(self, matrix: np.ndarray, bound: int | None = None):
        self.matrix = matrix
        self.bound = magnitude(np.abs(matrix).sum(axis=0)) if bound is None else bound

    def __call__(self, x: np.ndarray) -> np.ndarray:
        """x @ matrix, in int64 when bound * max|x| < 2^63."""
        dtype = exact_dtype(self.bound * magnitude(x))
        return x.astype(dtype, copy=False) @ self.matrix.astype(dtype, copy=False)


class CycloField:
    """The cyclotomic field Q(zeta_m), m >= 3 and m != 2 (mod 4)."""

    def __init__(self, m: int):
        if not is_conductor(m):
            raise ValueError(f"need m >= 3 with m != 2 (mod 4), got {m}")
        self.m = m
        self.degree = _totient(m)
        self.units = tuple(k for k in range(1, m) if math.gcd(k, m) == 1)
        # zeta^t in the power basis, for t = 0 .. max(m, 2*degree) - 1
        d = self.degree
        poly = cyclotomic_poly(m)
        table: list[tuple[int, ...]] = []
        for t in range(d):
            row = [0] * d
            row[t] = 1
            table.append(tuple(row))
        n_rows = max(m, 2 * d - 1)
        for t in range(d, n_rows):
            prev = table[t - 1]
            top = prev[d - 1]
            table.append(tuple(
                (prev[j - 1] if j else 0) - top * poly[j] for j in range(d)
            ))
        self._zeta_powers = tuple(table)
        # zeta^d = -(poly[0] + ... + poly[d-1] zeta^(d-1)), as nonzero terms
        self._reduction = tuple((j, -c) for j, c in enumerate(poly[:d]) if c)
        # unit a -> sigma_a(zeta^j) = zeta^(ja) for j < d, as nonzero terms of
        # the power basis; filled per a on first use, since all phi(m) tables
        # together hold up to phi(m)^3 terms
        self._automorphisms: dict[int, tuple] = {}

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
        den = math.lcm(*(c.denominator for c in coords))
        return CycloElement(self, tuple(c.numerator * (den // c.denominator) for c in coords), den)

    def from_rational(self, value) -> "CycloElement":
        value = Fraction(value)
        return CycloElement(
            self, (value.numerator,) + (0,) * (self.degree - 1), value.denominator
        )

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

    def _automorphism(self, a: int) -> tuple[tuple[tuple[int, int], ...], ...]:
        """sigma_a(zeta^j) for j < degree, each as its nonzero (t, coefficient)
        terms in the power basis."""
        a %= self.m
        terms = self._automorphisms.get(a)
        if terms is None:
            if math.gcd(a, self.m) != 1:
                raise ValueError(f"{a} is not a unit modulo {self.m}")
            terms = self._automorphisms[a] = tuple(
                tuple((t, c) for t, c in enumerate(self._zeta_powers[j * a % self.m]) if c)
                for j in range(self.degree)
            )
        return terms

    @cached_property
    def _products(self) -> _IntegerMap:
        """Row s is zeta^s, s < 2*degree - 1: a convolution of numerators
        times it is the product.  Its bound is max_t sum_s w_s |zeta^s_t|,
        with w_s = min(s + 1, 2*degree - 1 - s) the number of terms of
        convolution coefficient s, so |x*y| <= bound * max|x| * max|y|; the
        bound is at least degree, which bounds each coefficient too."""
        d = self.degree
        table = integer_array(self._zeta_powers[: 2 * d - 1])
        weights = np.minimum(np.arange(1, 2 * d), np.arange(2 * d - 1, 0, -1))
        return _IntegerMap(table, magnitude(np.abs(table).T.astype(object) @ weights))

    @cached_property
    def conjugate(self) -> _IntegerMap:
        """Numerators of the CM conjugates of a numerator array (last axis
        degree): row j of the map is conj(zeta^j) = zeta^(-j), as `conj`
        reads it from the automorphism sigma_(m-1)."""
        table = np.zeros((self.degree, self.degree), dtype=object)
        for j, terms in enumerate(self._automorphism(self.m - 1)):
            for t, c in terms:
                table[j, t] = c
        return _IntegerMap(integer_array(table))

    @cached_property
    def shifted_traces(self) -> _IntegerMap:
        """tr(zeta^s * x) * den for s = 1 - degree .. degree - 1 along the
        last axis, for a numerator array x over den: entry (t, s + degree
        - 1) of the map is tr(zeta^(t + s)), gathered from the m Ramanujan
        sums."""
        m, d = self.m, self.degree
        sums = integer_array([_ramanujan_sum(m, t) for t in range(m)])
        return _IntegerMap(sums[(np.arange(d)[:, None] + np.arange(1 - d, d)) % m])

    def dot(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Numerators of the sums over axis -2 of the products x * y, for
        numerator arrays x and y of shape (..., terms, degree), the other
        axes broadcast.  It runs in int64 when terms * bound * max|x| *
        max|y| < 2^63, else on Python ints."""
        d = self.degree
        products = self._products
        terms = max(x.shape[-2], y.shape[-2])
        dtype = exact_dtype(terms * products.bound * magnitude(x) * magnitude(y))
        # outer[..., i, j] = sum over the terms of x_i * y_j
        outer = np.swapaxes(x.astype(dtype, copy=False), -1, -2) @ y.astype(dtype, copy=False)
        conv = np.zeros(outer.shape[:-2] + (2 * d - 1,), dtype=dtype)
        for i in range(d):
            conv[..., i : i + d] += outer[..., i, :]
        return conv @ products.matrix.astype(dtype, copy=False)


@lru_cache(maxsize=None)
def cyclo_field(m: int) -> CycloField:
    return CycloField(m)


class CycloElement:
    """Element of Q(zeta_m) as integer power-basis numerators `num` over
    one denominator `den`.

    The pair is kept in lowest terms: den > 0, gcd(den, *num) = 1, and
    zero has den 1, so equal elements have equal (num, den)."""

    __slots__ = ("field", "num", "den")

    def __init__(self, field: CycloField, num: tuple[int, ...], den: int = 1):
        if den != 1:
            g = math.gcd(den, *num)
            if den < 0:
                g = -g
            if g != 1:
                num = tuple(c // g for c in num)
                den //= g
        self.field = field
        self.num = num
        self.den = den

    @property
    def coords(self) -> tuple[Fraction, ...]:
        """The power-basis coordinates as Fractions (a read-only view)."""
        return tuple(Fraction(c, self.den) for c in self.num)

    def _coerce(self, other) -> "CycloElement":
        if isinstance(other, CycloElement):
            if other.field is not self.field and other.field != self.field:
                raise ValueError("elements of different fields")
            return other
        if isinstance(other, (int, Fraction)):
            return self.field.from_rational(other)
        return NotImplemented

    def _combine(self, other, op):
        """self op other for op in (add, sub), over the least common denominator."""
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        da, db = self.den, other.den
        if da == db:
            return CycloElement(self.field, tuple(map(op, self.num, other.num)), da)
        g = math.gcd(da, db)
        sa, sb = db // g, da // g
        return CycloElement(
            self.field,
            tuple(op(a * sa, b * sb) for a, b in zip(self.num, other.num)),
            da * sa,
        )

    def __add__(self, other):
        return self._combine(other, operator.add)

    __radd__ = __add__

    def __neg__(self):
        return CycloElement(self.field, tuple(map(operator.neg, self.num)), self.den)

    def __sub__(self, other):
        return self._combine(other, operator.sub)

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        if type(other) is not CycloElement or other.field is not self.field:
            other = self._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        field = self.field
        d = field.degree
        prod = [0] * (2 * d - 1)
        for i, a in enumerate(self.num):
            if a:
                for j, b in enumerate(other.num):
                    if b:
                        prod[i + j] += a * b
        # reduce modulo the monic cyclotomic polynomial, top degree first
        reduction = field._reduction
        for t in range(2 * d - 2, d - 1, -1):
            c = prod[t]
            if c:
                base = t - d
                for j, q in reduction:
                    prod[base + j] += c * q
        return CycloElement(field, tuple(prod[:d]), self.den * other.den)

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
        return self.den == other.den and self.num == other.num

    def __hash__(self) -> int:
        return hash((self.field.m, self.num, self.den))

    def __bool__(self) -> bool:
        return any(self.num)

    def is_rational(self) -> bool:
        return not any(self.num[1:])

    def rational_value(self) -> Fraction:
        if not self.is_rational():
            raise ValueError("element is not rational")
        return Fraction(self.num[0], self.den)

    def inverse(self) -> "CycloElement":
        """den * prod_{a != 1} sigma_a(num) / N(num), where the norm
        N(num) = num * prod_{a != 1} sigma_a(num) is a positive integer.

        The conjugates are multiplied pairwise, a balanced product tree,
        so both factors of each product have about the same size."""
        if not self:
            raise ZeroDivisionError("inverse of zero")
        field = self.field
        num = CycloElement(field, self.num)
        factors = [num.galois(a) for a in field.units[1:]]
        while len(factors) > 1:
            paired = [a * b for a, b in zip(factors[::2], factors[1::2])]
            factors = paired + factors[len(paired) * 2:]
        others = factors[0]
        norm = (num * others).num[0]
        return CycloElement(field, tuple(c * self.den for c in others.num), norm)

    def galois(self, a: int) -> "CycloElement":
        """The automorphism sigma_a : zeta -> zeta^a, for a unit a mod m.

        It maps Z[zeta] onto itself, so the numerators keep their content
        and (num, den) stays in lowest terms."""
        out = [0] * self.field.degree
        for c, terms in zip(self.num, self.field._automorphism(a)):
            if c:
                for t, r in terms:
                    out[t] += c * r
        return CycloElement(self.field, tuple(out), self.den)

    def conj(self) -> "CycloElement":
        """The CM involution zeta -> zeta^(m-1)."""
        return self.galois(self.field.m - 1)

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


class CycloMatrix(Sequence):
    """A matrix over Q(zeta_m) as one integer array `nums` of shape
    (rows, cols, phi(m)), the power-basis numerators of every entry, over
    one positive denominator `den`, in lowest terms: gcd(den, *nums) = 1,
    and den = 1 when every entry is 0.

    It reads as a sequence of rows, each a tuple of CycloElements, made on
    first read; it equals any sequence of equal rows."""

    __slots__ = ("field", "nums", "den", "_rows")

    def __init__(self, field: CycloField, nums: np.ndarray, den: int = 1):
        if nums.ndim != 3 or nums.shape[2] != field.degree:
            raise ValueError(f"expected an array of shape (rows, cols, {field.degree})")
        self.field = field
        self.nums, self.den = lowest_terms(nums, den)
        self._rows = None

    @classmethod
    def of(cls, field: CycloField, rows) -> "CycloMatrix":
        """rows as a CycloMatrix over field: a CycloMatrix is returned as it
        is, and rows of CycloElements, ints or Fractions are packed over
        the least common denominator of their entries."""
        if isinstance(rows, CycloMatrix):
            if rows.field != field:
                raise ValueError("elements of different fields")
            return rows
        rows = [[x if isinstance(x, CycloElement) else field.from_rational(x) for x in row]
                for row in rows]
        if any(len(row) != len(rows[0]) for row in rows):
            raise ValueError("rows of different lengths")
        if any(x.field != field for row in rows for x in row):
            raise ValueError("elements of different fields")
        den = math.lcm(*(x.den for row in rows for x in row))
        nums = integer_array([
            [x.num if x.den == den else [c * (den // x.den) for c in x.num] for x in row]
            for row in rows
        ]).reshape(len(rows), len(rows[0]) if rows else 0, field.degree)
        matrix = cls(field, nums, den)
        matrix._rows = tuple(map(tuple, rows))
        return matrix

    @property
    def shape(self) -> tuple[int, int]:
        return self.nums.shape[:2]

    def _elements(self) -> tuple[tuple[CycloElement, ...], ...]:
        if self._rows is None:
            field, den = self.field, self.den
            self._rows = tuple(
                tuple(CycloElement(field, tuple(x), den) for x in row)
                for row in self.nums.tolist()
            )
        return self._rows

    def __len__(self) -> int:
        return self.nums.shape[0]

    def __getitem__(self, i):
        return self._elements()[i]

    def __eq__(self, other):
        if isinstance(other, CycloMatrix):
            return (
                other.field == self.field
                and other.den == self.den
                and np.array_equal(other.nums, self.nums)
            )
        if not isinstance(other, Sequence):
            return NotImplemented
        return self._elements() == tuple(map(tuple, other))

    __hash__ = None


def trace_LQ(x: CycloElement) -> Fraction:
    """Trace to Q: sum of x over all phi(m) complex embeddings, exact."""
    m = x.field.m
    return Fraction(sum(c * _ramanujan_sum(m, j) for j, c in enumerate(x.num) if c), x.den)


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
