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

from .cyclofield import CMType, CycloField, cyclo_field
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
        if self.n_failed:
            return 1
        if self.n_vacuous:
            return 2
        return 0

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
        return {
            "checks": len(self.records),
            "failed": self.n_failed,
            "vacuous": self.n_vacuous,
            "exit_code": self.exit_code(),
        }

    def to_jsonl(self) -> str:
        def dump(obj) -> str:
            return json.dumps(obj, sort_keys=True, separators=(",", ":"))

        lines = [dump({"header": self.header()})]
        lines.extend(dump({"record": r}) for r in self.records)
        lines.append(dump({"summary": self.summary()}))
        return "\n".join(lines) + "\n"

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


def params_hash(params: dict) -> str:
    canonical = json.dumps(params, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def _parse_rational(value, where: str) -> Fraction:
    try:
        if isinstance(value, str):
            return Fraction(value)
        if isinstance(value, int):
            return Fraction(value)
    except (ValueError, ZeroDivisionError) as exc:
        raise PelInputError(f"{where}: bad rational {value!r}: {exc}") from None
    raise PelInputError(f"{where}: expected integer or 'a/b' string, got {value!r}")


def _parse_gram(field_obj: CycloField, raw, where: str) -> HermitianModule:
    if not isinstance(raw, list) or not raw:
        raise PelInputError(f"{where}: expected a nonempty matrix")
    gram = []
    for i, row in enumerate(raw):
        if not isinstance(row, list) or len(row) != len(raw):
            raise PelInputError(f"{where}[{i}]: matrix must be square")
        out_row = []
        for j, coeffs in enumerate(row):
            if not isinstance(coeffs, list) or len(coeffs) != field_obj.degree:
                raise PelInputError(
                    f"{where}[{i}][{j}]: expected {field_obj.degree} coefficients"
                )
            out_row.append(
                field_obj.element(
                    [
                        _parse_rational(c, f"{where}[{i}][{j}][{t}]")
                        for t, c in enumerate(coeffs)
                    ]
                )
            )
        gram.append(out_row)
    try:
        return HermitianModule(field_obj, gram)
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
    if not isinstance(doc, dict):
        raise PelInputError(f"{path}: top level must be an object")
    required = ["m", "n", "phi0", "phin", "gram0", "gram1", "p", "l"]
    for key in required:
        if key not in doc:
            raise PelInputError(f"{path}: missing key {key!r}")
    for key in ("m", "n", "p", "l"):
        if not isinstance(doc[key], int):
            raise PelInputError(f"{path}: key {key!r} must be an integer")
    try:
        field_obj = cyclo_field(doc["m"])
    except ValueError as exc:
        raise PelInputError(f"{path}: m: {exc}") from None
    if doc["l"] < 3:
        raise PelInputError(f"{path}: level l must be >= 3")
    if doc["p"] < 2:
        raise PelInputError(f"{path}: p must be >= 2")

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
