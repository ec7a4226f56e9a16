import math
import random
from fractions import Fraction

import mpmath
import pytest

from pelwedge import hodge
from pelwedge.cyclofield import CycloElement, all_cm_types, cm_type, cyclo_field
from pelwedge.exterior import det
from pelwedge.hodge import (
    CMTraceVector,
    EmbeddingCase,
    HermitianModule,
    SingularAtEmbedding,
    binom,
    case_of,
    compatible,
    derived_cm_trace,
    dim_minus10,
    imaginary_sign,
    signature_at,
    twist_weights,
    verify_type11,
    wedge_weights,
)
from pelwedge.instances import rand_skew_hermitian
from test_cyclofield import reference_embed


def _vec(phi):
    return CMTraceVector.from_cm_type(phi)


def test_derived_cm_trace_endpoints(F4):
    phi0 = cm_type(F4, [3])
    phin = cm_type(F4, [1])
    for n in range(1, 6):
        assert derived_cm_trace(n, 0, _vec(phi0), _vec(phin)) == _vec(phi0)
        assert derived_cm_trace(n, n, _vec(phi0), _vec(phin)) == _vec(phin)
    # k=1 is (n-1)*phi0 + phin
    got = derived_cm_trace(4, 1, _vec(phi0), _vec(phin))
    assert got == _vec(phi0).scale(3) + _vec(phin)
    got = derived_cm_trace(4, 2, _vec(phi0), _vec(phin))
    assert got == _vec(phi0).scale(3) + _vec(phin).scale(3)
    with pytest.raises(ValueError):
        derived_cm_trace(3, 4, _vec(phi0), _vec(phin))


def test_case_of(F4, F5):
    phi0 = cm_type(F4, [3])
    phin = cm_type(F4, [1])
    assert case_of(1, phi0, phin) is EmbeddingCase.ONLYN
    assert case_of(3, phi0, phin) is EmbeddingCase.ONLY0
    p0 = cm_type(F5, [1, 2])
    pn = cm_type(F5, [1, 3])
    assert case_of(1, p0, pn) is EmbeddingCase.BOTH
    assert case_of(2, p0, pn) is EmbeddingCase.ONLY0
    assert case_of(3, p0, pn) is EmbeddingCase.ONLYN
    assert case_of(4, p0, pn) is EmbeddingCase.NEITHER


def test_dim_minus10():
    assert dim_minus10(EmbeddingCase.BOTH, 4) == 4
    assert dim_minus10(EmbeddingCase.ONLY0, 4) == 3
    assert dim_minus10(EmbeddingCase.ONLYN, 4) == 1
    assert dim_minus10(EmbeddingCase.NEITHER, 7) == 0


def test_wedge_weights_tables():
    assert wedge_weights(EmbeddingCase.BOTH, 3, 2) == {(-2, 0): 3}
    assert wedge_weights(EmbeddingCase.ONLY0, 3, 2) == {(-2, 0): 1, (-1, -1): 2}
    assert wedge_weights(EmbeddingCase.NEITHER, 3, 0) == {(0, 0): 1}
    assert wedge_weights(EmbeddingCase.ONLYN, 3, 2) == {(-1, -1): 2, (0, -2): 1}


def test_pascal_consistency():
    # the two middle cases split C(n,k) as C(n-1,k) + C(n-1,k-1)
    for n in range(1, 8):
        for k in range(n + 1):
            for case in (EmbeddingCase.ONLY0, EmbeddingCase.ONLYN):
                assert sum(wedge_weights(case, n, k).values()) == binom(n, k)


def test_twist_weights():
    assert twist_weights(True, 2) == (1, 0)
    assert twist_weights(False, 2) == (0, 1)
    assert twist_weights(True, 1) == (0, 0)
    assert twist_weights(False, 1) == (0, 0)


def test_verify_type11_basic(F4):
    phi0 = cm_type(F4, [3])
    phin = cm_type(F4, [1])
    report = verify_type11(3, 2, phi0, phin)
    assert report.ok
    # sigma_1 has 1 in phin only: the (-1,0)-multiplicity is the derived
    # coefficient C(2,1) = 2
    assert report.weights[1] == {(-1, 0): 2, (0, -1): 1}
    assert report.weights[3] == {(-1, 0): 1, (0, -1): 2}


def test_verify_type11_k0(F5):
    phi0 = cm_type(F5, [1, 2])
    phin = cm_type(F5, [3, 4])
    report = verify_type11(3, 0, phi0, phin)
    assert report.ok
    for residue, ws in report.weights.items():
        expected = {(-1, 0): 1} if residue in phi0.members else {(0, -1): 1}
        assert ws == expected


def test_verify_type11_negative_control(F4, monkeypatch):
    import pelwedge.hodge as hodge

    def corrupted(case, n, k):
        ws = wedge_weights(case, n, k)
        return {pq: mult + 1 for pq, mult in ws.items()}

    monkeypatch.setattr(hodge, "wedge_weights", corrupted)
    report = hodge.verify_type11(3, 2, cm_type(F4, [3]), cm_type(F4, [1]))
    assert not report.ok


def test_hermitian_module_validation(F4):
    i = F4.zeta
    with pytest.raises(ValueError):
        HermitianModule(F4, [[F4.one]])  # 1 is not skew
    with pytest.raises(ValueError):
        HermitianModule(F4, [[i, F4.one], [F4.one, i]])
    HermitianModule(F4, [[i, i], [i, i]])  # genuinely skew despite the looks
    HermitianModule(F4, [[i, F4.one], [-F4.one, i]])


def test_hermitian_module_checks_skew_symmetry_on_the_array(F8, monkeypatch):
    gram = rand_skew_hermitian(F8, 4, random.Random(3))
    conj = CycloElement.conj
    calls = []
    monkeypatch.setattr(CycloElement, "conj", lambda x: calls.append(x) or conj(x))
    HermitianModule(F8, gram)
    assert calls == []  # one array comparison, no conj per entry
    monkeypatch.undo()
    for i, j in ((1, 0), (0, 1), (2, 2), (3, 0)):  # a bad entry on either side is refused
        broken = [list(row) for row in gram]
        broken[i][j] = broken[i][j] + F8.one
        with pytest.raises(ValueError, match="not \\*-skew-Hermitian"):
            HermitianModule(F8, broken)


def test_signature_examples(F4):
    i = F4.zeta
    assert signature_at(HermitianModule(F4, [[i]]), 1) == (0, 1)
    for n in (2, 3):
        diag = HermitianModule(
            F4, [[i if a == b else F4.zero for b in range(n)] for a in range(n)]
        )
        assert signature_at(diag, 1) == (0, n)
        assert signature_at(diag, 3) == (n, 0)


def test_signature_singular(F8):
    z = F8.zeta
    d = z - z.conj()
    zero_block = HermitianModule(F8, [[d, F8.zero], [F8.zero, F8.zero]])
    with pytest.raises(SingularAtEmbedding):
        signature_at(zero_block, 1)


def reference_signature(module, k, prec_bits=128):
    """Signature of i * Psi_sigma_k from mpmath eigenvalues: the float path
    the exact one replaced, kept as an oracle for well-conditioned forms."""
    n, field = module.rank, module.field
    with mpmath.workprec(prec_bits):
        herm = mpmath.matrix(n, n)
        for a in range(n):
            for b in range(n):
                herm[a, b] = mpmath.mpc(0, 1) * reference_embed(
                    field, module.gram[a][b].coords, k, prec_bits)
        eigenvalues = [mpmath.re(ev) for ev in mpmath.eighe(herm, eigvals_only=True)]
        scale = max(abs(ev) for ev in eigenvalues)
        assert all(abs(ev) > scale * mpmath.mpf(2) ** (-prec_bits // 2) for ev in eigenvalues), (
            "the oracle decides only well-conditioned forms")
    return sum(ev > 0 for ev in eigenvalues), sum(ev < 0 for ev in eigenvalues)


@pytest.mark.parametrize("m", [4, 5, 8, 13, 16])
def test_signature_matches_the_eigenvalue_oracle(m):
    F = cyclo_field(m)
    rng = random.Random(1300 + m)
    for n in (1, 2, rng.randint(3, 8), 12):
        module = HermitianModule(F, rand_skew_hermitian(F, n, rng))
        for k in F.units:
            assert signature_at(module, k) == reference_signature(module, k)


def test_signature_is_scale_invariant():
    # at 1e-21 every eigenvalue is below the old absolute bound of 1e-20
    F = cyclo_field(16)
    module = HermitianModule(F, rand_skew_hermitian(F, 12, random.Random(16)))
    expected = [reference_signature(module, k) for k in F.units]
    for factor in (Fraction(1, 10**21), 10**30):
        scaled = HermitianModule(F, [[x * factor for x in row] for row in module.gram])
        assert [signature_at(scaled, k) for k in F.units] == expected


@pytest.mark.parametrize("m", [3, 4, 5, 8, 12])
def test_signature_of_the_hyperbolic_plane(m):
    # every diagonal entry is 0, so the first pivot needs e_1 + c * e_2
    F = cyclo_field(m)
    plane = HermitianModule(F, [[F.zero, F.one], [-F.one, F.zero]])
    assert all(signature_at(plane, k) == (1, 1) for k in F.units)
    # here Psi_12 = zeta is not real: c = 1 serves
    twisted = HermitianModule(F, [[F.zero, F.zeta], [-F.zeta.conj(), F.zero]])
    assert all(signature_at(twisted, k) == (1, 1) for k in F.units)


def test_congruence_diagonal_is_congruent(F5):
    rng = random.Random(55)
    module = HermitianModule(F5, rand_skew_hermitian(F5, 5, rng))
    deltas = module.diagonal()
    assert module.diagonal() is deltas  # computed once
    assert all(d and d.conj() == -d for d in deltas)
    # the product of the delta_j is det(Psi) times the norm |det P|^2 of P
    ratio = det(module.gram) / math.prod(deltas, start=F5.one)
    assert ratio.conj() == ratio


def test_degenerate_forms_raise(F8):
    d = F8.zeta - F8.zeta.conj()
    rank_one = HermitianModule(F8, [[d, d], [d, d]])
    with pytest.raises(SingularAtEmbedding, match="degenerate over Q\\(zeta_8\\): rank 1 < 2"):
        signature_at(rank_one, 1)
    zero = HermitianModule(F8, [[F8.zero] * 3 for _ in range(3)])
    with pytest.raises(SingularAtEmbedding, match="rank 0 < 3"):
        signature_at(zero, 3)


def test_low_starting_precision_escalates(monkeypatch):
    F = cyclo_field(16)
    module = HermitianModule(F, rand_skew_hermitian(F, 12, random.Random(8)))
    bits = []
    sine_bounds = hodge._sine_bounds

    def recording(m, prec_bits):
        bits.append(prec_bits)
        return sine_bounds(m, prec_bits)

    monkeypatch.setattr(hodge, "_sine_bounds", recording)
    monkeypatch.setattr(hodge, "DEFAULT_PREC_BITS", 8)
    low = [signature_at(module, k) for k in F.units]
    assert min(bits) == 8 and max(bits) > 8
    monkeypatch.undo()
    assert low == [signature_at(module, k) for k in F.units]


def test_imaginary_sign(F5, monkeypatch):
    x = F5.zeta - F5.zeta.conj()  # 2i sin(2 pi k / 5) under sigma_k
    assert [imaginary_sign(x, k) for k in F5.units] == [1, 1, -1, -1]
    monkeypatch.setattr(hodge, "DEFAULT_PREC_BITS", 8)
    assert imaginary_sign(x * Fraction(1, 10**40), 1) == 1


def test_signature_conjugation_swap(F4, F5, F8):
    rng = random.Random(23)
    for F in (F4, F5, F8, cyclo_field(13)):
        for n in (1, 3, 6):
            drawn = 0
            while drawn < 20:
                gram = rand_skew_hermitian(F, n, rng)
                if not det(gram):
                    continue  # degenerate over L: no embedding has a signature
                drawn += 1
                module = HermitianModule(F, gram)
                for k in F.units:
                    pos, neg = signature_at(module, k)
                    assert signature_at(module, F.m - k) == (neg, pos)


def test_compatible(F4):
    i = F4.zeta
    module = HermitianModule(F4, [[i]])
    on3 = CMTraceVector(F4, (0, 1))  # units are (1, 3)
    on1 = CMTraceVector(F4, (1, 0))
    assert compatible(module, on3)
    assert not compatible(module, on1)
    n = 3
    diag = HermitianModule(
        F4, [[i if a == b else F4.zero for b in range(n)] for a in range(n)]
    )
    assert compatible(diag, CMTraceVector(F4, (0, n)))
