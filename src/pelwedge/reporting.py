"""Structured report documents and the PEL input file format.

Reports are newline-delimited JSON records with a stable field order
(sorted keys) so that a run is byte-identical given the same seed and
input hash.  Timings never enter the structured stream.

`ReportDocument.lines` is the one writer of every verify, spadesuit and
`table --format records` report.  It makes the first record before it
yields the header, so an input error there leaves stdout empty, and then
yields each record's line as the record is made.  It keeps the check
count and the records that failed or were vacuous, which is all the
summary line and `human_summary` read.

`load_pel_input` reads a `.pel` file.  A gram's coefficients are gathered
in one pass over its entries and its ints taken as they are; only a
coefficient that is not an int is parsed on its own, and the location of
an error (`gram1[i][j][t]`) is made only for a coefficient it refuses.
"""

from __future__ import annotations

import importlib
import itertools
import json
import re
import sys
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

try:
    # CPython's builtin SHA-256, imported by name because it is _sha2 from
    # 3.12 and _sha256 before, and each version lists only its own as
    # stdlib; hashlib would load OpenSSL's libcrypto, about 3.5 MB and 2 ms
    # per process, to hash a few hundred bytes
    _sha256 = importlib.import_module("_sha2" if sys.version_info >= (3, 12) else "_sha256").sha256
except ImportError:
    from hashlib import sha256 as _sha256


class PelInputError(ValueError):
    """Input file failed to parse; message carries the location."""


@dataclass
class ReportDocument:
    """One run's report: `lines` writes it as JSONL while its records are
    made, and `human_summary` renders the records that did not pass."""

    suite: str
    seed: int | None = None
    precision_bits: int | None = None
    input_hash: str | None = None
    params: dict = field(default_factory=dict)
    checks: int = field(default=0, init=False)
    # the failed and vacuous records, in order; a record that passed or has
    # no status (a table row) is only counted
    unpassed: list[dict] = field(default_factory=list, init=False)

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
        failed = sum(r["status"] == "fail" for r in self.unpassed)
        vacuous = len(self.unpassed) - failed
        return {
            "checks": self.checks,
            "failed": failed,
            "vacuous": vacuous,
            "exit_code": 1 if failed else 2 if vacuous else 0,
        }

    def lines(self, records: Iterable[dict]) -> Iterator[str]:
        """The JSONL report one newline-terminated line at a time: the
        header, one line per record, then the summary.

        The first record is made before the header is yielded, so a first
        record that raises yields nothing; each later record is made after
        the line before it is out, and none is kept but the unpassed."""
        records = iter(records)
        first = next(records, None)
        yield self.to_jsonl({"header": self.header()})
        if first is not None:
            for record in itertools.chain((first,), records):
                self.checks += 1
                if record.get("status") in ("fail", "vacuous"):
                    self.unpassed.append(record)
                yield self.to_jsonl({"record": record})
        yield self.to_jsonl({"summary": self.summary()})

    def to_jsonl(self, obj) -> str:
        """One report line: `obj` with sorted keys and no spaces."""
        return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"

    def human_summary(self) -> str:
        lines = [f"suite {self.suite}: {self.checks} checks"]
        for r in self.unpassed:
            lines.append(f"  {r['check']}: {r['status'].upper()} {r}")
        s = self.summary()
        lines.append(
            f"  failed={s['failed']} vacuous={s['vacuous']} exit={s['exit_code']}"
        )
        return "\n".join(lines)


def params_hash(params: dict) -> str:
    canonical = json.dumps(params, sort_keys=True, separators=(",", ":"))
    return _sha256(canonical.encode()).hexdigest()


# the "a/b" strings a coefficient may be: no sign on b, no spaces, and none
# of the decimal or exponent forms Fraction also reads, whose size it does
# not bound ("1e1000000" is a million-digit integer)
_RATIONAL = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")


def _is_integer(value) -> bool:
    """Whether a JSON value is an integer: true and false are not."""
    return isinstance(value, int) and not isinstance(value, bool)


def _parse_rational(value, where: str) -> int | Fraction:
    if _is_integer(value):
        return value
    if isinstance(value, str) and _RATIONAL.fullmatch(value):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise PelInputError(f"{where}: bad rational {value!r}: {exc}") from None
    raise PelInputError(f"{where}: expected integer or 'a/b' string, got {value!r}")


def _parse_coefficients(coeffs: list, n: int, degree: int, where: str) -> list:
    """The coefficients read so far, in order, with each that is not an
    int parsed by `_parse_rational`, whose error names its location: the
    list itself when every one is an int."""
    if set(map(type, coeffs)) <= {int}:
        return coeffs
    out = []
    for index, c in enumerate(coeffs):
        if type(c) is not int:
            entry, t = divmod(index, degree)
            c = _parse_rational(c, f"{where}[{entry // n}][{entry % n}][{t}]")
        out.append(c)
    return out


def _parse_gram(field_obj: CycloField, raw, where: str) -> HermitianModule:
    """The gram as (n, n, phi(m)) numerators over the least common
    denominator of its coefficients, checked skew-Hermitian on that array.

    The coefficients are gathered in one pass over the entries and checked
    as ints in one more; only those that are not ints are parsed one by
    one.  A shape error is reported after any refused coefficient before
    it, so the first error in reading order is the one reported."""
    if not isinstance(raw, list) or not raw:
        raise PelInputError(f"{where}: expected a nonempty matrix")
    n, degree = len(raw), field_obj.degree
    coeffs = []
    for i, row in enumerate(raw):
        if not isinstance(row, list) or len(row) != n:
            _parse_coefficients(coeffs, n, degree, where)
            raise PelInputError(f"{where}[{i}]: matrix must be square")
        for j, entry in enumerate(row):
            if not isinstance(entry, list) or len(entry) != degree:
                _parse_coefficients(coeffs, n, degree, where)
                raise PelInputError(f"{where}[{i}][{j}]: expected {degree} coefficients")
            coeffs += entry
    parsed = _parse_coefficients(coeffs, n, degree, where)
    den = 1
    if parsed is not coeffs:  # some are Fractions
        den = lcm(*(c.denominator for c in parsed if type(c) is Fraction))
        parsed = [c * den if type(c) is int else c.numerator * (den // c.denominator) for c in parsed]
    nums = integer_array(parsed).reshape(n, n, degree)
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
    except RecursionError:  # arrays or objects nested past the parser's stack
        raise PelInputError(f"{path}: nested too deeply") from None
    if not isinstance(doc, dict):
        raise PelInputError(f"{path}: top level must be an object")
    required = ["m", "n", "phi0", "phin", "gram0", "gram1", "p", "l"]
    for key in required:
        if key not in doc:
            raise PelInputError(f"{path}: missing key {key!r}")
    for key in ("m", "n", "p", "l"):
        if not _is_integer(doc[key]):
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
        if not isinstance(members, list) or not all(map(_is_integer, members)):
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
        input_hash=_sha256(raw_bytes).hexdigest(),
    )
