import math
import random
from fractions import Fraction
from functools import lru_cache

import mpmath
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from rowmatrix import conj_transpose, mat_mul

from pelwedge import cyclofield
from pelwedge.cyclofield import (
    CMType,
    CycloElement,
    CycloMatrix,
    RamifiedPrimeError,
    all_cm_types,
    check_spadesuit,
    cm_type,
    cyclo_field,
    cyclotomic_poly,
    frobenius_orbits,
    integer_array,
    is_prime,
    magnitude,
    trace_LQ,
)
from pelwedge.hodge import HermitianModule
from pelwedge.instances import rand_element, rand_skew_hermitian


def test_field_construction():
    F = cyclo_field(5)
    assert F.degree == 4
    assert F.units == (1, 2, 3, 4)
    with pytest.raises(ValueError):
        cyclo_field(6)  # 6 = 2 mod 4
    with pytest.raises(ValueError):
        cyclo_field(2)


def test_cyclotomic_polys():
    assert cyclotomic_poly(4) == (1, 0, 1)
    assert cyclotomic_poly(5) == (1, 1, 1, 1, 1)
    assert cyclotomic_poly(8) == (1, 0, 0, 0, 1)
    assert cyclotomic_poly(12) == (1, 0, -1, 0, 1)


def test_conj_examples(F4, F5):
    i = F4.zeta
    assert i.conj() == -i
    assert F4.from_rational(3).conj() == F4.from_rational(3)
    z = F5.zeta
    assert z.conj() == F5.element([-1, -1, -1, -1])
    assert z.conj() == z ** 4


def test_trace_examples(F4, F5):
    assert trace_LQ(F4.one) == 2
    assert trace_LQ(F4.zeta) == 0
    assert trace_LQ(F5.zeta) == -1


@given(
    st.lists(st.integers(-20, 20), min_size=4, max_size=4),
    st.lists(st.integers(-20, 20), min_size=4, max_size=4),
)
def test_trace_is_additive_and_conjugation_invariant(a, b):
    F = cyclo_field(5)
    x = F.element(a)
    y = F.element(b)
    assert trace_LQ(x + y) == trace_LQ(x) + trace_LQ(y)
    assert trace_LQ(x.conj()) == trace_LQ(x)


def test_arithmetic_properties(F5):
    rng = random.Random(11)
    for _ in range(50):
        x = rand_element(F5, rng)
        y = rand_element(F5, rng)
        z = rand_element(F5, rng)
        assert (x + y) * z == x * z + y * z
        assert x * y == y * x
        assert x.conj().conj() == x
        assert (x * y).conj() == x.conj() * y.conj()


def test_inverse(F5, F8):
    rng = random.Random(3)
    for F in (F5, F8):
        for _ in range(20):
            x = rand_element(F, rng)
            if not x:
                continue
            assert x * x.inverse() == F.one
            assert x ** -2 == (x.inverse()) ** 2


@pytest.mark.parametrize("m", [3, 5, 8, 12, 16, 60])
def test_rand_element_is_the_element_of_the_same_draws(m):
    F = cyclo_field(m)
    for seed in range(5):
        drawn, replayed = random.Random(seed), random.Random(seed)
        x = rand_element(F, drawn, -7, 7)
        y = F.element([replayed.randint(-7, 7) for _ in range(F.degree)])
        assert (x.num, x.den) == (y.num, y.den)
        assert drawn.getstate() == replayed.getstate()


def element_skew_hermitian(field, n, rng):
    """The gram `rand_skew_hermitian` draws, built entry by entry from
    CycloElements: x - conj(x) on the diagonal, y and -conj(y) off it."""
    gram = [[field.zero] * n for _ in range(n)]
    for a in range(n):
        x = rand_element(field, rng)
        gram[a][a] = x - x.conj()
        for b in range(a + 1, n):
            y = rand_element(field, rng)
            gram[a][b] = y
            gram[b][a] = -y.conj()
    return gram


@pytest.mark.parametrize("m", [5, 8, 12, 16])
def test_rand_skew_hermitian_is_the_element_built_gram_of_the_same_draws(m):
    F = cyclo_field(m)
    for n in range(5):
        for seed in range(20):
            drawn, replayed = random.Random(seed), random.Random(seed)
            gram = rand_skew_hermitian(F, n, drawn)
            assert isinstance(gram, CycloMatrix) and gram.den == 1
            assert gram == element_skew_hermitian(F, n, replayed)
            assert drawn.getstate() == replayed.getstate()


@pytest.mark.parametrize("m", [3, 4, 5, 8, 12, 16])
def test_cyclo_matrix_operations_match_the_row_oracle(m):
    F = cyclo_field(m)
    rng = random.Random(5000 + m)
    big = lambda: F.element([rng.randint(-2**62, 2**62) for _ in range(F.degree)])
    for rows, inner, cols in ((1, 1, 1), (2, 3, 2), (3, 3, 3), (4, 2, 1), (1, 4, 3)):
        for draw in (lambda: rand_rational_element(F, rng), big):
            a = [[draw() for _ in range(inner)] for _ in range(rows)]
            b = [[draw() for _ in range(cols)] for _ in range(inner)]
            x = draw()
            A, B = CycloMatrix.of(F, a), CycloMatrix.of(F, b)
            assert A @ B == mat_mul(a, b)
            assert A.conj_transpose() == conj_transpose(a)
            assert A * x == tuple(tuple(e * x for e in row) for row in a)
            assert A * F.zero == ((F.zero,) * inner,) * rows
    A = CycloMatrix.of(F, [[1, 2], [3, 4]])
    with pytest.raises(ValueError, match="dimension mismatch"):
        A @ CycloMatrix.of(F, [[1, 2, 3]])
    other = cyclo_field(7 if m != 7 else 9)
    with pytest.raises(ValueError, match="different fields"):
        A @ CycloMatrix.of(other, [[1], [2]])
    with pytest.raises(ValueError, match="different fields"):
        A * other.zeta


@pytest.mark.parametrize("m", [3, 4, 5, 7, 8, 9, 12, 15, 16, 20, 60])
def test_galois_automorphisms(m):
    F = cyclo_field(m)
    rng = random.Random(6000 + m)
    xs = [rand_rational_element(F, rng) for _ in range(4)]
    for a in F.units:
        # sigma_a is the ring map fixed by zeta -> zeta^a
        assert F.zeta.galois(a) == F.zeta_power(a)
        for x, y in zip(xs, xs[1:]):
            assert (x + y).galois(a) == x.galois(a) + y.galois(a)
            assert (x * y).galois(a) == x.galois(a) * y.galois(a)
        for b in F.units[:4]:
            assert xs[0].galois(b).galois(a) == xs[0].galois(a * b % m)
    for x in xs:
        assert x.galois(m - 1) == x.conj()
        assert x.galois(1) == x
    for a in (0, m, next(a for a in range(2, m + 1) if math.gcd(a, m) > 1)):
        with pytest.raises(ValueError, match="not a unit"):
            xs[0].galois(a)


@pytest.mark.parametrize("m", [3, 4, 5, 8, 12, 13, 16, 60])
def test_norm_is_a_positive_integer(m):
    F = cyclo_field(m)
    rng = random.Random(6100 + m)
    for _ in range(10):
        x = rand_element(F, rng, -50, 50)
        if not x:
            continue
        norm = F.one
        for a in F.units:
            norm = norm * x.galois(a)
        assert not any(norm.num[1:]) and norm.den == 1 and norm.num[0] > 0


@pytest.mark.parametrize("m", [3, 7, 11, 17, 32, 40, 48, 60, 61])
def test_inverse_matches_the_euclid_reference(m):
    # phi(m) = 16 for m in 17 .. 60, and 60 at m = 61; the product tree pairs
    # phi(m) - 1 = 1, 5, 9, 15 or 59 conjugates
    F = cyclo_field(m)
    rng = random.Random(6200 + m)
    # the Euclid reference costs seconds per inverse at m = 61
    ys = [rand_element(F, rng) / 7 + F.zeta] if m == 61 else [
        rand_rational_element(F, rng) for _ in range(5)]
    for y in ys:
        if y:
            assert y.inverse().coords == reference_inverse(F, y.coords)


def test_inverse_at_m_101():
    F = cyclo_field(101)
    x = rand_element(F, random.Random(101)) / 5 + F.zeta
    assert x * x.inverse() == F.one


def test_trace_matches_embedding_sum(F5):
    rng = random.Random(5)
    with mpmath.workprec(140):
        for _ in range(25):
            x = rand_element(F5, rng)
            numeric = mpmath.fsum(reference_embed(F5, x.coords, k, 140) for k in F5.units)
            exact = trace_LQ(x)
            target = mpmath.mpf(exact.numerator) / exact.denominator
            assert abs(numeric - target) < mpmath.mpf(10) ** -20


def test_norm_nonnegative(F8):
    rng = random.Random(9)
    for _ in range(20):
        x = rand_element(F8, rng)
        norm = x * x.conj()
        for k in F8.units:
            value = reference_embed(F8, norm.coords, k, 96)
            assert mpmath.im(value) < 1e-20
            assert mpmath.re(value) >= -1e-20


def test_cm_type_validation(F5):
    with pytest.raises(ValueError):
        cm_type(F5, [1, 4])  # conjugate pair
    with pytest.raises(ValueError):
        cm_type(F5, [1])  # too small
    t = cm_type(F5, [1, 2])
    assert t.conjugate().members == frozenset({3, 4})


def test_all_cm_types(F5, F8):
    for F in (F5, F8):
        types = all_cm_types(F)
        assert len(types) == 2 ** (F.degree // 2)
        assert len({t.members for t in types}) == len(types)


def test_frobenius_orbit_examples():
    assert frobenius_orbits(5, 11).orbits == ((1,), (2,), (3,), (4,))
    assert frobenius_orbits(5, 2).orbits == ((1, 2, 3, 4),)
    assert frobenius_orbits(4, 5).orbits == ((1,), (3,))
    with pytest.raises(RamifiedPrimeError):
        frobenius_orbits(4, 2)


@pytest.mark.parametrize("m,p", [(5, 2), (5, 3), (8, 3), (8, 5), (12, 5), (7, 2)])
def test_frobenius_orbit_structure(m, p):
    part = frobenius_orbits(m, p)
    elements = [k for orbit in part.orbits for k in orbit]
    assert sorted(elements) == sorted({k for k in range(1, m) if math.gcd(k, m) == 1})
    sizes = {len(o) for o in part.orbits}
    assert len(sizes) == 1  # all orbits share the order of p mod m
    for orbit in part.orbits:
        assert all((k * p) % m in orbit for k in orbit)


def _diag_module(F, entry, n):
    return HermitianModule(
        F, [[entry if a == b else F.zero for b in range(n)] for a in range(n)]
    )


def test_spadesuit_all_pass(F4):
    i = F4.zeta
    rep = check_spadesuit(
        cm_type(F4, [3]), cm_type(F4, [1]), 5, 3,
        _diag_module(F4, i, 1), _diag_module(F4, i, 2),
    )
    assert rep.all_hold
    assert rep.r == 1
    assert rep.pi == ((1,),)
    assert rep.pi_star == ((3,),)


def test_spadesuit_coprime_fail(F4):
    i = F4.zeta
    rep = check_spadesuit(
        cm_type(F4, [3]), cm_type(F4, [1]), 3, 3,
        _diag_module(F4, i, 1), _diag_module(F4, i, 2),
    )
    assert not rep.coprime_level
    assert rep.perfect_at_p


def test_spadesuit_orbit_fail(F5):
    d = F5.zeta - F5.zeta.conj()
    rep = check_spadesuit(
        cm_type(F5, [3, 4]), cm_type(F5, [1, 2]), 2, 3,
        _diag_module(F5, d, 1), _diag_module(F5, d, 2),
    )
    assert not rep.orbit_aligned
    assert rep.perfect_at_p and rep.coprime_level


def test_spadesuit_deterministic(F4):
    i = F4.zeta
    args = (cm_type(F4, [3]), cm_type(F4, [1]), 5, 3,
            _diag_module(F4, i, 1), _diag_module(F4, i, 2))
    assert check_spadesuit(*args) == check_spadesuit(*args)


def test_spadesuit_ramified_rejected(F4):
    i = F4.zeta
    with pytest.raises(RamifiedPrimeError):
        check_spadesuit(
            cm_type(F4, [3]), cm_type(F4, [1]), 2, 3,
            _diag_module(F4, i, 1), _diag_module(F4, i, 2),
        )


# -- reference oracle: the Fraction-coordinate element the kernel replaced ---


@lru_cache(maxsize=None)
def reference_zeta_powers(F):
    """zeta^t as Fraction coordinates, t = 0 .. max(m, 2d - 1) - 1."""
    d, poly = F.degree, cyclotomic_poly(F.m)
    table = [tuple(Fraction(int(j == t)) for j in range(d)) for t in range(d)]
    for t in range(d, max(F.m, 2 * d - 1)):
        prev = list(table[t - 1])
        top = prev[d - 1]
        row = [Fraction(0)] + prev[:-1]
        for j in range(d):
            row[j] -= top * poly[j]
        table.append(tuple(row))
    return table


def reference_mul(F, a, b):
    d = F.degree
    prod = [Fraction(0)] * (2 * d - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] += x * y
    table = reference_zeta_powers(F)
    out = [Fraction(0)] * d
    for t, c in enumerate(prod):
        for j in range(d):
            out[j] += c * table[t][j]
    return tuple(out)


def reference_conj(F, a):
    table = reference_zeta_powers(F)
    out = [Fraction(0)] * F.degree
    for j, c in enumerate(a):
        row = table[(F.m - j) % F.m]
        for t in range(F.degree):
            out[t] += c * row[t]
    return tuple(out)


def reference_inverse(F, a):
    """Extended Euclid against the cyclotomic polynomial over Q."""

    def trim(poly):
        while poly and not poly[-1]:
            poly.pop()
        return poly

    def divmod_poly(x, y):
        x = list(x)
        quot = [Fraction(0)] * max(len(x) - len(y) + 1, 0)
        while len(x) >= len(y):
            c = x[-1] / y[-1]
            shift = len(x) - len(y)
            quot[shift] = c
            for i, yc in enumerate(y):
                x[i + shift] -= c * yc
            x.pop()
            trim(x)
        return quot, x

    def mul_poly(x, y):
        out = [Fraction(0)] * (len(x) + len(y) - 1) if x and y else []
        for i, xc in enumerate(x):
            for j, yc in enumerate(y):
                out[i + j] += xc * yc
        return trim(out)

    def sub_poly(x, y):
        out = list(x) + [Fraction(0)] * (len(y) - len(x))
        for i, yc in enumerate(y):
            out[i] -= yc
        return trim(out)

    r0 = [Fraction(c) for c in cyclotomic_poly(F.m)]
    r1 = trim(list(a))
    s0, s1 = [], [Fraction(1)]
    while len(r1) > 1:
        q, rem = divmod_poly(r0, r1)
        r0, r1 = r1, rem
        s0, s1 = s1, sub_poly(s0, mul_poly(q, s1))
    out = [Fraction(0)] * F.degree
    for i, c in enumerate(s1):
        out[i] = c / r1[0]
    return tuple(out)


def reference_pow(F, a, e):
    if e < 0:
        a, e = reference_inverse(F, a), -e
    out = tuple(Fraction(int(j == 0)) for j in range(F.degree))
    for _ in range(e):
        out = reference_mul(F, out, a)
    return out


def reference_embed(F, a, k, prec_bits):
    with mpmath.workprec(prec_bits):
        zeta = mpmath.expjpi(mpmath.mpf(2) * k / F.m)
        acc = mpmath.mpc(0)
        power = mpmath.mpc(1)
        for c in a:
            if c:
                acc += mpmath.mpf(c.numerator) / c.denominator * power
            power *= zeta
        return acc


def rand_rational_element(F, rng):
    """Coordinates with shared and unshared denominators, some zero, some large."""
    dens = rng.choice([(1,), (2, 4), (3, 9, 1), (5, 7, 35), (6, 10, 15)])
    coords = []
    for _ in range(F.degree):
        if rng.random() < 0.2:
            coords.append(Fraction(0))
        else:
            size = rng.choice([3, 3, 3, 5000])
            coords.append(Fraction(rng.randint(-size, size), rng.choice(dens)))
    return F.element(coords)


def assert_canonical(x):
    assert all(type(c) is int for c in x.num) and type(x.den) is int
    assert x.den > 0
    assert math.gcd(x.den, *x.num) == 1
    if not x:
        assert x.den == 1


def polynomial_reduced_mul(x, y):
    """x * y as the integer convolution reduced modulo the monic cyclotomic
    polynomial term by term, top degree first."""
    F = x.field
    d, poly = F.degree, cyclotomic_poly(F.m)
    prod = [0] * (2 * d - 1)
    for i, a in enumerate(x.num):
        for j, b in enumerate(y.num):
            prod[i + j] += a * b
    for t in range(2 * d - 2, d - 1, -1):
        for j in range(d):
            prod[t - d + j] -= prod[t] * poly[j]
    return CycloElement(F, tuple(prod[:d]), x.den * y.den)


@pytest.mark.parametrize("m", [3, 4, 5, 7, 8, 9, 12, 13, 15, 16, 21])
def test_integer_kernel_matches_the_fraction_reference(m):
    F = cyclo_field(m)
    rng = random.Random(3000 + m)
    seen_fraction = False
    for _ in range(25):
        x, y = rand_rational_element(F, rng), rand_rational_element(F, rng)
        a, b = x.coords, y.coords
        seen_fraction |= any(c.denominator > 1 for c in a)
        assert (x + y).coords == tuple(s + t for s, t in zip(a, b))
        assert (x - y).coords == tuple(s - t for s, t in zip(a, b))
        assert (-x).coords == tuple(-s for s in a)
        assert (x * y).coords == reference_mul(F, a, b)
        product = polynomial_reduced_mul(x, y)
        assert ((x * y).num, (x * y).den) == (product.num, product.den)
        assert (x * 3).coords == (3 * x).coords == tuple(3 * s for s in a)
        assert (x + Fraction(1, 6)).coords == (a[0] + Fraction(1, 6),) + a[1:]
        assert x.conj().coords == reference_conj(F, a)
        assert (x ** 3).coords == reference_pow(F, a, 3)
        if y:
            assert y.inverse().coords == reference_inverse(F, b)
            assert (x / y).coords == reference_mul(F, a, reference_inverse(F, b))
            assert (y ** -2).coords == reference_pow(F, b, -2)
            assert (1 / y).coords == reference_inverse(F, b)
        for results in (x + y, x - y, x * y, x.conj(), x ** 3, x - x, x * 0):
            assert_canonical(results)
    assert seen_fraction
    q = F.from_rational(Fraction(-10, 4))
    assert q.coords == (Fraction(-5, 2),) + (0,) * (F.degree - 1) and q.den == 2


def reference_matmul(F, x, y):
    """x @ y over L for numerator arrays of shapes (..., r, t, d) and
    (..., t, c, d), entry by entry: sums over the terms of `reference_mul`."""
    batch = np.broadcast_shapes(x.shape[:-3], y.shape[:-3])
    (r, t), c = x.shape[-3:-1], y.shape[-2]
    x = np.broadcast_to(x, batch + x.shape[-3:])
    y = np.broadcast_to(y, batch + y.shape[-3:])
    out = np.zeros(batch + (r, c, F.degree), dtype=object)
    for *b, i, j in np.ndindex(*batch, r, c):
        total = [0] * F.degree
        for k in range(t):
            terms = reference_mul(F, x[(*b, i, k)].tolist(), y[(*b, k, j)].tolist())
            total = [s + u for s, u in zip(total, terms)]
        assert all(Fraction(s).denominator == 1 for s in total)
        out[(*b, i, j)] = [int(s) for s in total]
    return out


def rand_numerators(rng, shape, size, degree):
    """Numerators of shape + (degree,) in [-size, size], each entry with one
    coefficient +-size, so every bound of the product is met by some entry;
    int64 where every value fits, else object."""
    values = []
    for _ in range(math.prod(shape)):
        entry = [rng.randint(-size, size) for _ in range(degree)]
        entry[rng.randrange(degree)] = rng.choice((size, -size))
        values.append(entry)
    return integer_array(values).reshape(*shape, degree)


# (x, y) shapes without the degree axis: matrix, broadcast batch, scalar
# (t = 1) and matrix-vector products, and zero-size axes
PRODUCT_SHAPES = [
    ((2, 3), (3, 2)),
    ((2, 1, 1, 2), (3, 2, 1)),
    ((3, 1), (1, 1)),
    ((3, 2), (2, 1)),
    ((0, 2), (2, 3)),
    ((2, 0), (0, 3)),
    ((2, 2), (2, 0)),
    ((0, 1, 2), (2, 1)),
]


@pytest.mark.parametrize("m", [3, 4, 5, 7, 8, 12, 16, 21, 101, 281])
def test_matmul_matches_the_python_int_oracle(m, monkeypatch):
    F = cyclo_field(m)
    rng = random.Random(2800 + m)
    split = []
    limbs = cyclofield._limbs

    def counted_limbs(*args):
        split.append(args)
        return limbs(*args)

    monkeypatch.setattr(cyclofield, "_limbs", counted_limbs)
    chunk = cyclofield._BAND_FLOATS
    # the Fraction oracle costs about degree^2 operations an entry
    shapes = PRODUCT_SHAPES if F.degree < 100 else [((1, 1), (1, 1))]
    for x_shape, y_shape in shapes:
        terms = x_shape[-1]
        scale = max(terms, 1) * F._products[1]
        x_size = 2**20
        # (x size, y size, limbs, result dtype): either side of the float64
        # bound t * bound * max|x| * max|y| < 2^53, either side of the int64
        # combine bound 2^63, and entries of several limbs
        cases = [
            (3, 5, False, np.int64),
            (x_size, (2**53 - 1) // (scale * x_size), False, np.int64),
            (x_size, (2**53 - 1) // (scale * x_size) + 1, True, np.int64),
            (x_size, 2**62 // (scale * x_size), True, np.int64),
            (x_size, 2**63 // (scale * x_size) + 1, True, object),
            (7, 2**200, True, object),
            (2**200, 2**200, True, object),
        ]
        if F.degree >= 100:
            del cases[3:6]
        for x_max, y_max, limbed, dtype in cases:
            x = rand_numerators(rng, x_shape, x_max, F.degree)
            y = rand_numerators(rng, y_shape, y_max, F.degree)
            want = reference_matmul(F, x, y)
            empty = not (x.size and y.size)
            # object inputs, and bands taken one term at a time; without the
            # uint64 tier every product past 2^53 splits into limbs, and
            # with it an int64 one splits only if its bound passes 2^63 and
            # its result is not certified below 2^62
            for a, b, band_floats, words in (
                (x, y, chunk, False), (x.astype(object), y.astype(object), chunk, False),
                (x, y, 1, False), (x, y, chunk, True), (x, y, 1, True),
            ):
                monkeypatch.setattr(cyclofield, "_BAND_FLOATS", band_floats)
                monkeypatch.setattr(cyclofield, "_WORD_TERMS", 2**40 if words else 0)
                split.clear()
                got = F.matmul(a, b)
                assert got.shape == want.shape
                assert got.tolist() == want.tolist(), (x_shape, y_shape, x_max, y_max, words)
                if words and limbed and a.dtype != object and not empty:
                    # certified with far more room than the gap 2^61 .. 2^62
                    # here, or certainly not, at 2^62
                    size = magnitude(want)
                    if dtype is np.int64 or size < 2**61:
                        assert not split and got.dtype == np.int64, (x_shape, x_max, y_max)
                    elif size >= 2**62:
                        assert split and got.dtype == object, (x_shape, x_max, y_max)
                    continue
                assert bool(split) == (limbed and not empty), (x_shape, x_max, y_max)
                assert got.dtype == (np.int64 if empty else dtype)
    # |-2^63| is read from int64 as it is
    x = np.full((1, 1, F.degree), -(2**63), dtype=np.int64)
    y = rand_numerators(rng, (1, 1), 3, F.degree)
    assert F.matmul(x, y).tolist() == reference_matmul(F, x, y).tolist()


@pytest.mark.parametrize("m", [3, 5, 16])
def test_the_uint64_tier_runs_only_where_its_result_is_certified(m, monkeypatch):
    F = cyclo_field(m)
    d = F.degree
    split = []
    limbs = cyclofield._limbs
    monkeypatch.setattr(cyclofield, "_limbs", lambda *args: split.append(args) or limbs(*args))
    a, b = 2**30 + 1, 2**31 + 3  # a * b past 2^61, so t * d * a * b past 2^63
    x = np.zeros((1, 2, d), dtype=np.int64)
    y = np.zeros((2, 1, d), dtype=np.int64)
    x[0, :, 0] = a
    y[0, 0], y[1, 0] = b, -b
    # a bound past 2^63, a result of 0: one uint64 product, in int64
    assert F._sum_bound(x, y) >= 2**63
    got = F.matmul(x, y)
    assert not split and got.dtype == np.int64 and not got.any()
    # results at 2^62 and past 2^63, where a wrapped uint64 sum would be
    # wrong: both on limbs, as Python ints
    for scale in (2, 4):
        y[1, 0] = b * (scale - 1)
        want = reference_matmul(F, x, y)
        assert magnitude(want) >= 2**62
        split.clear()
        got = F.matmul(x, y)
        assert split and got.dtype == object and got.tolist() == want.tolist()
    # past 2^53 and below 2^63 the bound alone certifies the uint64 product
    y[1, 0] = 1
    small = x // 2**8
    assert 2**53 <= F._sum_bound(small, y) < 2**63
    split.clear()
    got = F.matmul(small, y)
    assert not split and got.tolist() == reference_matmul(F, small, y).tolist()
    # and past `_WORD_TERMS` terms the products run on limbs
    monkeypatch.setattr(cyclofield, "_WORD_TERMS", small.size - 1)
    assert F.matmul(small, y).tolist() == got.tolist() and split


@pytest.mark.parametrize("m", [3, 4, 5, 8, 12, 16])
def test_equal_elements_have_one_canonical_form(m):
    F = cyclo_field(m)
    rng = random.Random(4000 + m)
    for _ in range(25):
        x = rand_rational_element(F, rng)
        y = rand_rational_element(F, rng)
        # the same element reached along different paths
        for twin in (x + y - y, (x * 6) / 6, x.conj().conj(), F.element(x.coords)):
            assert twin == x
            assert (twin.num, twin.den) == (x.num, x.den)
            assert hash(twin) == hash(x)
            assert_canonical(twin)
    zero = rand_rational_element(F, rng) * 0
    assert (zero.num, zero.den) == ((0,) * F.degree, 1)
    assert F.element([Fraction(2, 4)] + [Fraction(0)] * (F.degree - 1)).den == 2
    assert F.element([Fraction(1, 3)] * F.degree) * 3 == F.element([1] * F.degree)
    assert trace_LQ(F.element([Fraction(1, 3)] * F.degree)) == Fraction(
        sum(trace_LQ(F.zeta_power(t)) for t in range(F.degree)), 3
    )


def test_is_prime_agrees_with_sympy_below_10_5():
    from sympy import isprime

    assert [n for n in range(-5, 10**5) if is_prime(n)] == [
        n for n in range(-5, 10**5) if isprime(n)
    ]


@pytest.mark.parametrize(
    "n",
    [
        3215031751,  # strong pseudoprime to the bases 2, 3, 5, 7
        3825123056546413051,  # strong pseudoprime to the bases 2 .. 23
        561, 1105, 1729, 2465, 41041, 825265, 321197185, 5394826801,  # Carmichael numbers
        2**61 - 1,
        2**64 - 59,  # the largest prime below 2^64
        2**64 - 1,
        (2**32 - 5) * (2**32 - 17),
    ],
)
def test_is_prime_agrees_with_sympy_on_hard_cases(n):
    from sympy import isprime

    assert is_prime(n) == isprime(n)


def test_is_prime_refuses_2_64_and_beyond():
    for n in (2**64, 2**64 + 13, 2**89 - 1):
        with pytest.raises(ValueError, match="below 2\\^64"):
            is_prime(n)
