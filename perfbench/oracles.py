"""Checks of one request's output, independent of the code path they check.

`check` returns None for a correct output and otherwise the reason it is
wrong.  Verdicts are checked against what the paper predicts for inputs
built to satisfy its hypotheses; signatures against a float64
eigendecomposition the benchmark builds from the `.pel` coefficients.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

import numpy as np


def parse_report(stdout: str) -> list[dict]:
    """The records of a JSONL report, after checking header and summary."""
    lines = [json.loads(line) for line in stdout.splitlines()]
    if not lines or "header" not in lines[0] or "summary" not in lines[-1]:
        raise ValueError("report lacks a header or a summary")
    records = [line["record"] for line in lines[1:-1]]
    if lines[-1]["summary"]["checks"] != len(records):
        raise ValueError("summary disagrees with the record count")
    return records


def float_spectra(pel: dict) -> dict[int, np.ndarray]:
    """Eigenvalues of i * Psi_sigma_k for every unit k, in float64, from the
    raw coefficients of gram1 in the power basis."""
    m = pel["m"]
    coeffs = np.array(
        [[[float(Fraction(c)) for c in entry] for entry in row] for row in pel["gram1"]]
    )
    d = coeffs.shape[2]
    out = {}
    for k in range(1, m):
        if math.gcd(k, m) != 1:
            continue
        powers = np.exp(2j * np.pi * k * np.arange(d) / m)
        out[k] = np.linalg.eigvalsh(1j * (coeffs @ powers))
    return out


def expected_signatures(pel: dict) -> dict[int, tuple[int, int]]:
    return {
        k: (int((ev > 0).sum()), int((ev < 0).sum()))
        for k, ev in float_spectra(pel).items()
    }


def check(request, exit_code, stdout: str, signatures=None) -> str | None:
    """`signatures` maps a `.pel` path to (rank n, its expected_signatures)."""
    if exit_code != 0:
        return f"exit code {exit_code}"
    try:
        records = parse_report(stdout)
        if len(records) != request.records:
            return f"{len(records)} records, expected {request.records}"
        if request.kind == "signatures":
            return _check_signatures(records, *signatures[request.pel])
        return _check_verdicts(records, request.kind == "prinz")
    except (ValueError, KeyError, TypeError) as exc:
        return f"malformed report: {exc!r}"


def _check_signatures(records, n, expected) -> str | None:
    got = {r["embedding"]: (r["p"], r["q"]) for r in records}
    for k, (p, q) in got.items():
        if p + q != n:
            return f"signature at sigma_{k} has p+q={p + q}, expected {n}"
    if got != expected:
        return f"signatures {got} disagree with float64 eigenvalues {expected}"
    return None


def _check_verdicts(records, perfect: bool) -> str | None:
    """Every record passes; with `perfect`, the inputs and the wedge form
    are perfect at p, as the paper predicts for inputs built perfect."""
    for r in records:
        if r["status"] != "pass":
            return f"record {r['check']} has status {r['status']}"
        if perfect and (r["output_valuation"] != 0 or r["input_valuations"] != [0, 0]):
            return f"record {r['check']} is not perfect at p: {r}"
    return None


def count_records(stdout: str) -> int:
    return sum(1 for line in stdout.splitlines() if line.startswith('{"record"'))
