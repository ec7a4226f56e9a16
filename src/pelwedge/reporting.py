"""Structured report documents and the PEL input file format.

Reports are newline-delimited JSON records with a stable field order
(sorted keys) so that a run is byte-identical given the same seed and
input hash.  Timings never enter the structured stream.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm
from typing import Iterable, Iterator

from .cyclofield import (
    PRIME_LIMIT,
    CMType,
    CycloField,
    CycloMatrix,
    cyclo_field,
    degree_excess,
    integer_array,
    is_prime,
)
from .hodge import HermitianModule

SCHEMA_VERSION = "1"


class PelInputError(ValueError):
    """Input file failed to parse; message carries the location."""


@dataclass
class ReportDocument:
    """Machine-readable (JSONL) and human-readable renderings of a run."""

    suite: str
    seed: int | None = None
    precision_bits: int | None = None
    input_hash: str | None = None
    params: dict = field(default_factory=dict)
    records: list[dict] = field(default_factory=list)

    def add(self, **fields) -> None:
        self.records.append(fields)

    @property
    def n_failed(self) -> int:
        return sum(1 for r in self.records if r.get("status") == "fail")

    @property
    def n_vacuous(self) -> int:
        return sum(1 for r in self.records if r.get("status") == "vacuous")

    def exit_code(self) -> int:
        return self.summary()["exit_code"]

    def header(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "suite": self.suite,
            "seed": self.seed,
            "precision_bits": self.precision_bits,
            "input_hash": self.input_hash,
            "params": self.params,
        }

    def summary(self) -> dict:
        return _summary(len(self.records), self.n_failed, self.n_vacuous)

    def lines(self, records: Iterable[dict] | None = None) -> Iterator[str]:
        """The JSONL report one newline-terminated line at a time: the
        header, one line per record, then the summary.

        `records`, when given, stands in for `self.records`: each is read
        as its line is made and none is kept, so a caller can write every
        line out before the next record exists."""
        yield _dump({"header": self.header()})
        if records is None:
            records = self.records
        checks = failed = vacuous = 0
        for record in records:
            status = record.get("status")
            checks += 1
            failed += status == "fail"
            vacuous += status == "vacuous"
            yield _dump({"record": record})
        yield _dump({"summary": _summary(checks, failed, vacuous)})

    def to_jsonl(self) -> str:
        return "".join(self.lines())

    def human_summary(self) -> str:
        lines = [f"suite {self.suite}: {len(self.records)} checks"]
        for r in self.records:
            status = r.get("status", "?")
            name = r.get("check", "?")
            if status != "pass":
                lines.append(f"  {name}: {status.upper()} {r}")
        s = self.summary()
        lines.append(
            f"  failed={s['failed']} vacuous={s['vacuous']} exit={s['exit_code']}"
        )
        return "\n".join(lines)


def _dump(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def _summary(checks: int, failed: int, vacuous: int) -> dict:
    return {
        "checks": checks,
        "failed": failed,
        "vacuous": vacuous,
        "exit_code": 1 if failed else 2 if vacuous else 0,
    }


def params_hash(params: dict) -> str:
    canonical = json.dumps(params, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def _parse_rational(value, where: str) -> int | Fraction:
    if isinstance(value, int):
        return int(value)
    try:
        if isinstance(value, str):
            return Fraction(value)
    except (ValueError, ZeroDivisionError) as exc:
        raise PelInputError(f"{where}: bad rational {value!r}: {exc}") from None
    raise PelInputError(f"{where}: expected integer or 'a/b' string, got {value!r}")


def _parse_gram(field_obj: CycloField, raw, where: str) -> HermitianModule:
    """The gram as (n, n, phi(m)) numerators over the least common
    denominator of its coefficients, checked skew-Hermitian on that array."""
    if not isinstance(raw, list) or not raw:
        raise PelInputError(f"{where}: expected a nonempty matrix")
    coeffs = []
    for i, row in enumerate(raw):
        if not isinstance(row, list) or len(row) != len(raw):
            raise PelInputError(f"{where}[{i}]: matrix must be square")
        for j, entry in enumerate(row):
            if not isinstance(entry, list) or len(entry) != field_obj.degree:
                raise PelInputError(
                    f"{where}[{i}][{j}]: expected {field_obj.degree} coefficients"
                )
            coeffs.extend(
                _parse_rational(c, f"{where}[{i}][{j}][{t}]") for t, c in enumerate(entry)
            )
    den = lcm(*(c.denominator for c in coeffs if type(c) is Fraction))
    nums = integer_array(
        [c * den if type(c) is int else c.numerator * (den // c.denominator) for c in coeffs]
    ).reshape(len(raw), len(raw), field_obj.degree)
    try:
        return HermitianModule(field_obj, CycloMatrix(field_obj, nums, den))
    except ValueError as exc:
        raise PelInputError(f"{where}: {exc}") from None


@dataclass(frozen=True)
class PelInput:
    field: CycloField
    n: int
    phi0: CMType
    phin: CMType
    gram0: HermitianModule
    gram1: HermitianModule
    p: int
    l: int
    input_hash: str


def load_pel_input(path: str) -> PelInput:
    with open(path, "rb") as fh:
        raw_bytes = fh.read()
    try:
        doc = json.loads(raw_bytes)
    except json.JSONDecodeError as exc:
        raise PelInputError(
            f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}"
        ) from None
    except ValueError as exc:  # bytes that are not UTF-8/16/32, or an overlong integer
        raise PelInputError(f"{path}: {exc}") from None
    if not isinstance(doc, dict):
        raise PelInputError(f"{path}: top level must be an object")
    required = ["m", "n", "phi0", "phin", "gram0", "gram1", "p", "l"]
    for key in required:
        if key not in doc:
            raise PelInputError(f"{path}: missing key {key!r}")
    for key in ("m", "n", "p", "l"):
        if not isinstance(doc[key], int):
            raise PelInputError(f"{path}: key {key!r} must be an integer")
    excess = degree_excess(doc["m"])
    if excess:
        raise PelInputError(f"{path}: m: need {excess}")
    try:
        field_obj = cyclo_field(doc["m"])
    except ValueError as exc:
        raise PelInputError(f"{path}: m: {exc}") from None
    if doc["l"] < 3:
        raise PelInputError(f"{path}: level l must be >= 3")
    if doc["p"] < 2:
        raise PelInputError(f"{path}: p must be >= 2")
    if doc["p"] >= PRIME_LIMIT:
        raise PelInputError(f"{path}: p must be below 2^64, got {doc['p']}")
    if not is_prime(doc["p"]):
        raise PelInputError(f"{path}: p must be a prime, got {doc['p']}")

    def parse_type(key: str) -> CMType:
        members = doc[key]
        if not isinstance(members, list) or not all(isinstance(k, int) for k in members):
            raise PelInputError(f"{path}: {key} must be a list of residues")
        try:
            return CMType(field_obj, frozenset(members))
        except ValueError as exc:
            raise PelInputError(f"{path}: {key}: {exc}") from None

    phi0 = parse_type("phi0")
    phin = parse_type("phin")
    gram0 = _parse_gram(field_obj, doc["gram0"], f"{path}: gram0")
    gram1 = _parse_gram(field_obj, doc["gram1"], f"{path}: gram1")
    if gram0.rank != 1:
        raise PelInputError(f"{path}: gram0 must be 1x1")
    if gram1.rank != doc["n"]:
        raise PelInputError(f"{path}: gram1 must be {doc['n']}x{doc['n']}")
    return PelInput(
        field=field_obj,
        n=doc["n"],
        phi0=phi0,
        phin=phin,
        gram0=gram0,
        gram1=gram1,
        p=doc["p"],
        l=doc["l"],
        input_hash=hashlib.sha256(raw_bytes).hexdigest(),
    )
