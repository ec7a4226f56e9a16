"""Acceptance suite: one test per release criterion.

Each test prints a single PASS/FAIL line (visible under `pytest -s`)
with the measured runtime against its budget, and asserts the same
condition, so a plain `pytest` run also gates on them.
"""

import json
import math
import random
import time

from pelwedge.cli import main
from pelwedge.cyclofield import all_cm_types, check_spadesuit, cyclo_field
from pelwedge.domains import anticommutation_witness
from pelwedge.exterior import g_k, multiplier, wedge_gram
from pelwedge.hodge import HermitianModule, binom, signature_at, verify_type11
from pelwedge.instances import (
    rand_definite_instance,
    rand_perfect_pair,
    rand_similitude_pair,
)
from pelwedge.pairings import verify_prinz
from pelwedge.reporting import load_pel_input
from pelwedge.serretate import verify_vdrei, verify_vzehn


def _report(name: str, ok: bool, elapsed: float, budget: float, detail: str = ""):
    status = "PASS" if ok and elapsed < budget else "FAIL"
    extra = f" {detail}" if detail else ""
    print(f"{status}: {name} — {elapsed:.2f}s (budget {budget:.0f}s){extra}")
    assert ok, f"{name}: property violated{extra}"
    assert elapsed < budget, f"{name}: took {elapsed:.2f}s, budget {budget:.0f}s"


def test_acceptance_exterior_hodge_types():
    start = time.perf_counter()
    checked = 0
    ok = True
    for m in (4, 5, 8):
        field = cyclo_field(m)
        types = all_cm_types(field)
        for phi0 in types:
            for phin in types:
                if phi0.members == phin.members:
                    continue
                for n in range(1, 7):
                    for k in range(n + 1):
                        rep = verify_type11(n, k, phi0, phin)
                        ok = ok and rep.ok
                        # independent check of the multiplicity formula
                        for residue in field.units:
                            expected = binom(n - 1, k) * (
                                residue in phi0.members
                            ) + binom(n - 1, k - 1) * (residue in phin.members)
                            ok = ok and rep.minus10_multiplicities[residue] == expected
                        checked += 1
    _report(
        "wedge Hodge types, all CM pairs, m in {4,5,8}, n<=6",
        ok,
        time.perf_counter() - start,
        10.0,
        f"({checked} pair configurations)",
    )


def test_acceptance_symbolic_block_compounds():
    start = time.perf_counter()
    ok = all(
        witness is None
        for n in range(1, 8) for witness in verify_vdrei(n, range(1, n + 1)).values()
    )
    _report(
        "symbolic block-compound identity, 1<=k<=n<=7",
        ok,
        time.perf_counter() - start,
        60.0,
    )


def test_acceptance_symbolic_contraction():
    from pelwedge.serretate import generators

    start = time.perf_counter()
    ok = True
    for b in range(1, 7):
        c1, *row = generators("c1", *(f"x{i}" for i in range(1, b + 1)))
        ok = ok and all(verify_vzehn(row, c1, range(1, b + 2)).values())
    _report(
        "symbolic contraction identity, 1<=k<=b+1<=7",
        ok,
        time.perf_counter() - start,
        60.0,
    )


def test_acceptance_perfectness_transport():
    start = time.perf_counter()
    rng = random.Random(20260826)
    ok = True
    for _ in range(200):
        m = rng.choice([4, 5])
        p = rng.choice([q for q in (3, 5, 7, 13) if math.gcd(q, m) == 1])
        n = rng.randint(1, 4)
        k = rng.randint(0, n)
        field = cyclo_field(m)
        module0, module1 = rand_perfect_pair(field, n, p, rng)
        rep = verify_prinz(module0, module1, k, p)
        ok = ok and rep.hypotheses_met and rep.output_valuation == 0
    _report(
        "p-perfectness transport, 200 random pairs",
        ok,
        time.perf_counter() - start,
        120.0,
    )


def test_acceptance_similitude_transport():
    start = time.perf_counter()
    rng = random.Random(17)
    ok = True
    for _ in range(200):
        n = rng.randint(1, 4)
        gamma0, gamma1, psi0, psi1, mu = rand_similitude_pair(n, rng)
        for k in range(n + 1):
            wedge = wedge_gram(psi0[0][0], psi1, k)
            ok = ok and multiplier(g_k(gamma0, gamma1, k), wedge) == mu
    for _ in range(200):
        n = rng.randint(1, 4)
        g0a, g1a, _, _, _ = rand_similitude_pair(n, rng)
        g0b, g1b, _, _, _ = rand_similitude_pair(n, rng)
        for k in range(n + 1):
            ok = ok and g_k(g0a * g0b, g1a @ g1b, k) == g_k(g0a, g1a, k) @ g_k(g0b, g1b, k)
    _report(
        "similitude multiplier transport + multiplicativity, 200+200 pairs",
        ok,
        time.perf_counter() - start,
        60.0,
    )


def test_acceptance_ball_embedding():
    start = time.perf_counter()
    ok = all(
        anticommutation_witness(n, k) is None for n in range(2, 7) for k in range(1, n)
    )
    _report(
        "ball-to-ball embedding, exact anticommutation identity per (n,k), n<=6",
        ok,
        time.perf_counter() - start,
        30.0,
    )


def test_acceptance_positivity_transport():
    start = time.perf_counter()
    rng = random.Random(5)
    ok = True
    for _ in range(100):
        n = rng.randint(1, 4)
        psi0, psi1 = rand_definite_instance(n, rng)
        for k in range(n + 1):
            wedge = wedge_gram(psi0[0][0], psi1, k)
            module = HermitianModule(cyclo_field(4), wedge)
            ok = ok and signature_at(module, 1) == (len(wedge), 0)
    _report(
        "positivity transport, 100 random definite instances",
        ok,
        time.perf_counter() - start,
        60.0,
    )


def test_acceptance_hypothesis_checker_fixtures(fixtures_dir):
    start = time.perf_counter()

    def verdicts(name):
        pel = load_pel_input(str(fixtures_dir / name))
        rep = check_spadesuit(pel.phi0, pel.phin, pel.p, pel.l, pel.gram0, pel.gram1)
        return rep

    good = verdicts("allpass.pel")
    coprime = verdicts("coprime_fail.pel")
    orbit = verdicts("orbit_fail.pel")
    ok = (
        good.all_hold
        and not coprime.coprime_level
        and coprime.perfect_at_p
        and not orbit.orbit_aligned
        and orbit.perfect_at_p
        and orbit.coprime_level
    )
    _report(
        "hypothesis checker, three hand-built fixtures",
        ok,
        time.perf_counter() - start,
        1.0,
    )


def test_acceptance_reproducibility(capsys):
    start = time.perf_counter()
    ok = True
    for args in (
        ["verify", "prinz", "--trials", "10", "--seed", "11", "--n", "3"],
        ["verify", "embedding", "--n", "4", "--seed", "9"],
        ["verify", "data", "--m", "5", "--n", "3"],
    ):
        main(args)
        first = capsys.readouterr().out
        main(args)
        second = capsys.readouterr().out
        ok = ok and first == second and json.loads(first.splitlines()[0])
    elapsed = time.perf_counter() - start
    with capsys.disabled():
        _report("byte-identical reports under a fixed seed", bool(ok), elapsed, 60.0)
