"""The four workloads: seeded inputs, the rounds of requests a run replays,
and the output shape each request must produce.

A run issues whole rounds, one request after another (one closed-loop
client), cycling through the pool of rounds built here, and repeats the
warm-up request at the end to check that its stdout bytes are identical.  Every input is
derived from the workload seed; the program sees only the argv and the
`.pel` files written below.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path


@dataclass(frozen=True)
class Request:
    argv: tuple[str, ...]
    kind: str  # which oracle checks it: prinz, suite or signatures
    records: int  # number of verdict records the output must hold
    pel: str | None = None  # input file, read by the signature oracle


@dataclass(frozen=True)
class Plan:
    rounds: tuple[tuple[Request, ...], ...]
    warmup: Request


def _coeffs(x) -> list:
    return [c.numerator if c.denominator == 1 else f"{c.numerator}/{c.denominator}"
            for c in x.coords]


def write_pel(path: Path, field, gram0, gram1, p: int, rng: random.Random) -> str:
    """Write a `.pel` input with seeded CM types and return its path."""
    from pelwedge.cyclofield import all_cm_types

    types = all_cm_types(field)
    doc = {
        "m": field.m,
        "n": len(gram1),
        "phi0": sorted(rng.choice(types).members),
        "phin": sorted(rng.choice(types).members),
        "gram0": [[_coeffs(x) for x in row] for row in gram0],
        "gram1": [[_coeffs(x) for x in row] for row in gram1],
        "p": p,
        "l": 3,
    }
    path.write_text(json.dumps(doc))
    return str(path)


def prinz_sweep(seed: int, workdir: Path) -> Plan:
    """Many small random instances through the `--trials` path: per-operation
    field arithmetic, `trace_gram` and rejection sampling in `instances`.
    Bypasses `compound` (about 1% of the time), so a compound change should
    not move it.  The pool is larger than a run consumes, so no instance
    repeats and each run samples as many distinct instances as it can."""
    from pelwedge.cyclofield import cyclo_field

    ms = (5, 8, 12, 16)
    for m in ms:
        cyclo_field(m)
    rng = random.Random(f"prinz-sweep:{seed}")

    def request(m: int) -> Request:
        return Request(("verify", "prinz", "--trials", "1", "--seed", str(rng.randrange(2**31)),
                        "--m", str(m), "--n", "4"), "prinz", 1)

    warmup = request(8)
    rounds = []
    for _ in range(512):
        order = list(ms)
        rng.shuffle(order)  # every round holds each m once
        rounds.append(tuple(request(m) for m in order))
    return Plan(tuple(rounds), warmup)


def prinz_large(seed: int, workdir: Path) -> Plan:
    """Single p-perfect lattices at the sizes where the cost explodes: wedge
    trace forms of 140x140 (m=8, n=7, k=3) and 80x80 (m=16, n=5, k=2).
    Exercises the determinant in `perfectness_valuation`, `trace_gram` and
    `compound`; three 140x140 instances per round put the median on them."""
    from pelwedge.cyclofield import cyclo_field
    from pelwedge.instances import rand_perfect_pair

    rng = random.Random(f"prinz-large:{seed}")
    p = 3
    rounds = []
    for r in range(2):
        reqs = []
        for i, (m, n) in enumerate(((8, 7), (8, 7), (8, 7), (16, 5))):
            field = cyclo_field(m)
            module0, module1 = rand_perfect_pair(field, n, p, rng)
            path = write_pel(workdir / f"large-{r}-{i}.pel", field, module0.gram,
                             module1.gram, p, rng)
            reqs.append(Request(("verify", "prinz", "--input", path, "--k", str(n // 2)),
                                "prinz", 1))
        rounds.append(tuple(reqs))
    return Plan(tuple(rounds), rounds[0][3])


def symbolic_blocks(seed: int, workdir: Path) -> Plan:
    """The Serre-Tate block identities over sympy: the same `compound` over
    a generic ring, with no `CycloElement` work.  A compound change tuned
    for field elements that slows the generic ring shows here."""
    vdrei = Request(("verify", "vdrei", "--n", "10"), "suite", 55)
    vzehn = Request(("verify", "vzehn", "--n", "10"), "suite", 54)
    rng = random.Random(f"symbolic-blocks:{seed}")
    rounds = []
    for _ in range(4):
        order = [vdrei, vdrei, vzehn]
        rng.shuffle(order)
        rounds.append(tuple(order))
    return Plan(tuple(rounds), vzehn)


def _well_conditioned(path: str) -> bool:
    from perfbench.oracles import float_spectra

    for eigenvalues in float_spectra(json.loads(Path(path).read_text())).values():
        magnitudes = abs(eigenvalues)
        if magnitudes.min() < 1e-6 * magnitudes.max():
            return False
    return True


def hodge_catalogue(seed: int, workdir: Path) -> Plan:
    """Hodge types, the ball embedding and signatures: no exact linear
    algebra.  The bypass workload for field-kernel changes, and where
    certified signatures and a combinatorial data suite show their effect."""
    from pelwedge.cyclofield import cyclo_field
    from pelwedge.instances import rand_skew_hermitian

    cyclo_field(13)
    field = cyclo_field(16)
    rng = random.Random(f"hodge-catalogue:{seed}")
    rounds = []
    for r in range(2):
        reqs = [
            Request(("verify", "data", "--m", "13", "--n", "6"), "suite", 27),
            Request(("verify", "embedding", "--n", "8", "--seed", str(rng.randrange(2**31))),
                    "suite", 28),
        ]
        for i in range(5):
            # the float64 oracle can only certify well-conditioned forms
            while True:
                path = write_pel(workdir / f"sig-{r}-{i}.pel", field,
                                 rand_skew_hermitian(field, 1, rng),
                                 rand_skew_hermitian(field, 12, rng), 3, rng)
                if _well_conditioned(path):
                    break
            reqs.append(Request(("table", "signatures", "--input", path, "--format", "records"),
                                "signatures", field.degree, path))
        rng.shuffle(reqs)
        rounds.append(tuple(reqs))
    warmup = next(req for req in rounds[0] if req.kind == "signatures")
    return Plan(tuple(rounds), warmup)


WORKLOADS = {
    "prinz-sweep": prinz_sweep,
    "prinz-large": prinz_large,
    "symbolic-blocks": symbolic_blocks,
    "hodge-catalogue": hodge_catalogue,
}
