"""Command-line front end: lemma-verification suites, tables, and the
smooth-model hypothesis checker.

Exit codes: 0 pass, 1 failure (with witness in the report), 2 vacuous
run (hypotheses unmet), 64 usage error (bad argv or environment), 65
input error (bad or unreadable `.pel` file), 74 output error (stdout
closed by its reader, from the `pelwedge` script).
"""

from __future__ import annotations

import argparse
import cmath
import math
import os
import random
import sys
from collections.abc import Iterator
from dataclasses import dataclass

from . import __version__
from .cyclofield import (
    PRIME_LIMIT,
    CMType,
    RamifiedPrimeError,
    _totient,
    check_spadesuit,
    cyclo_field,
    degree_excess,
    is_conductor,
    is_prime,
)
from .domains import anticommutation_witness, satake_matrix
from .hodge import (
    DEFAULT_PREC_BITS,
    EmbeddingCase,
    SingularAtEmbedding,
    binom,
    signature_at,
    verify_type11,
    wedge_weights,
)
from .instances import SamplingExhausted, rand_perfect_pair
from .pairings import DegenerateForm, input_valuations, verify_prinz
from .reporting import (
    PelInputError,
    ReportDocument,
    load_pel_input,
    params_hash,
)
from .serretate import block_identities, generators

EXIT_USAGE = 64
EXIT_INPUT = 65
EXIT_SOFTWARE = 70
EXIT_IOERR = 74

VERIFY_SUITES = ("data", "prinz", "vdrei", "vzehn", "embedding", "all")
TABLE_KINDS = ("signatures", "traces", "weights", "embedding-matrix")


@dataclass(frozen=True)
class Entry:
    """What one verify suite or mode, table kind or command reads: each
    option with its default (None: none), the options it requires, the
    least and the largest --n, the range k_span[0] <= --k <= n + k_span[1],
    and the largest rank C(n, n/2) * phi(m) of an exterior power it may
    build, of --n and --m or of the `.pel` it reads (phi(m) = 1 when it
    reads no m), and the largest n^2 times the sum of phi(m) over the --m
    values, or times the phi(m) of the `.pel` it reads.  Every --m and
    every `.pel` also keep phi(m) <= `DEGREE_MAX`."""

    defaults: dict
    required: tuple[str, ...] = ()
    n_min: int = 1
    n_max: int | None = None
    k_span: tuple[int, int] = (1, 0)
    rank_max: int | None = None
    embeddings_max: int | None = None


_HEADER = {"seed": 0}  # every verify header records it
_CSV = {"format": "csv"}

ENTRIES = {
    # about n^2 / 2 records per m, each over the phi(m) embeddings: n = 200
    # takes 2.0 s and prints 5.5 MB with the default m; at phi(m) = 546,
    # n = 100 takes 11.5 s, so n = 200 at phi(m) = 16 bounds the embeddings
    "verify data": Entry(
        {"n": 4, "m": (4, 5, 8), **_HEADER}, n_max=200, embeddings_max=200**2 * 16
    ),
    # a random trial builds and certifies a trace form of up to that rank,
    # with rank^2 entries: 560 is m=16, n=8
    "verify prinz": Entry(
        {"n": 4, "m": (4, 5), "p": (3, 5, 7, 13), "trials": 200, **_HEADER}, rank_max=560
    ),
    # the same bound, on the n and m of the `.pel`
    "verify prinz --input": Entry(
        {"input": None, "k": None, **_HEADER}, ("input",), k_span=(0, 0), rank_max=560
    ),
    # C(n, n/2) is the most rows a block has; blocks and compounds keep only
    # their C(n-1, k-1) + (k+1) * C(n-1, k) nonzero entries, but the one
    # level walk of the suite's largest block, which every block is read
    # off, visits up to 2^n row prefixes: 2000 keeps n <= 13
    "verify vdrei": Entry({"n": 7, "k": None, **_HEADER}, rank_max=2000),
    # heights b = 1 .. n-1: the same walk, of the n x n block
    "verify vzehn": Entry({"n": 7, "k": None, **_HEADER}, n_min=2, rank_max=2000),
    # a point's matrix has C(n-1, k-1) * C(n-1, k) <= C(n, n/2)^2 entries:
    # 1716 keeps n <= 13
    "verify embedding": Entry(
        {"n": 6, "k": None, **_HEADER}, n_min=2, k_span=(1, -1), rank_max=1716
    ),
    "verify all": Entry({"n": None, "trials": None, **_HEADER}),
    # n + 1 rows of binomials with up to 0.3 * n digits: n = 2000 prints
    # 1.7 MB in 0.2 s, and n = 4000 7 MB in 1.6 s
    "table traces": Entry({"n": None, **_CSV}, ("n",), n_max=2000),
    # C(n, k) is printed as a decimal, which CPython refuses past 4300
    # digits (n of about 14,300); n = 10000 takes 2 ms
    "table weights": Entry(
        {"n": None, "k": None, "case": None, **_CSV}, ("n", "k", "case"), k_span=(0, 0),
        n_max=10000,
    ),
    # the Berkowitz minors take about n^4 * phi(m)^2 coefficient products:
    # in a fresh process on a shared 2-vCPU machine, at n^2 * phi(m) = 8192
    # a random gram took 1.6-2.8 s (m=3, n=64 and m=16, n=32) and 32
    # hyperbolic planes at m=3 took 2.4-4.7 s; at about twice that (m=3,
    # n=90 and m=16, n=45) a random gram took 6-8 s
    "table signatures": Entry({"input": None, **_CSV}, ("input",), embeddings_max=64**2 * 2),
    "table embedding-matrix": Entry(
        {"n": None, "k": None, "x": None, **_CSV}, ("n", "k", "x"), n_min=2, k_span=(1, -1),
        rank_max=1716,
    ),
    "spadesuit": Entry({"input": None}, ("input",)),
}

# argparse keywords of the options that are not integers
_OPTION_KWARGS = {
    "input": {},
    "x": {},
    "case": {"choices": [c.value for c in EmbeddingCase]},
    "format": {"choices": ["csv", "records"]},
}


def _usage_error(message: str):
    print(f"error: {message}", file=sys.stderr)
    raise SystemExit(EXIT_USAGE)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        _usage_error(message)


def _entry_name(args) -> str:
    if args.command == "verify":
        if args.suite == "prinz" and args.input is not None:
            return "verify prinz --input"
        return f"verify {args.suite}"
    if args.command == "table":
        return f"table {args.kind}"
    return args.command


def _ball_point(text: str, n: int) -> tuple[complex, ...]:
    try:
        coords = [complex(part) for part in text.split(",")]
    except ValueError:
        _usage_error(f"--x must be comma-separated complex numbers, got {text!r}")
    if len(coords) != n - 1:
        _usage_error(f"--x needs n-1 = {n - 1} coordinates, got {len(coords)}")
    if not all(map(cmath.isfinite, coords)):
        _usage_error(f"--x must be finite, got {text!r}")
    return tuple(coords)


def _rank_excess(name: str, rank_max: int, n: int, m: int | None) -> str | None:
    """Why `name` refuses an exterior power of rank C(n, n/2) * phi(m)
    (phi(m) = 1 when m is None), or None when it is within rank_max."""
    degree = 1 if m is None else _totient(m)
    # C(n, n/2) > 2^n / (n + 1) passes every bound long before n = 64
    rank = math.comb(n, n // 2) * degree if n < 64 else math.inf
    if rank <= rank_max:
        return None
    bound, got = ("C(n, n/2)", f"n={n}") if m is None else (
        "C(n, n/2) * phi(m)", f"n={n} and phi({m}) = {degree}")
    return f"{name} takes {bound} <= {rank_max}, got {got}"


def resolve(args) -> argparse.Namespace:
    """Check every option of the chosen entry against `ENTRIES` and fill in
    its defaults, exiting 64 on the first bad one before any check runs.
    --m and --p become tuples of candidates, --x a tuple of coordinates,
    and --input the loaded `.pel` (`pel`, None without --input)."""
    name = _entry_name(args)
    entry = ENTRIES[name]
    given = {
        option: value
        for option, value in vars(args).items()
        if value is not None and option not in ("command", "suite", "kind")
    }
    for option in given:
        if option not in entry.defaults:
            _usage_error(f"{name} does not read --{option}")
    for option in entry.required:
        if option not in given:
            _usage_error(f"{name} requires --{option}")
    opts = entry.defaults | given
    for option in ("m", "p"):
        if option in given:
            opts[option] = (given[option],)

    for option, low in (("n", entry.n_min), ("trials", 1)):
        value = opts.get(option)
        if value is not None and value < low:
            _usage_error(f"--{option} must be at least {low}, got {value}")
    if entry.n_max is not None and opts["n"] > entry.n_max:
        _usage_error(f"--n must be at most {entry.n_max}, got {opts['n']}")
    for p in opts["p"] if "p" in given else ():  # the default primes need no check
        if p < 2:
            _usage_error(f"--p must be at least 2, got {p}")
        if p >= PRIME_LIMIT:
            _usage_error(f"--p must be below 2^64, got {p}")
        if not is_prime(p):
            _usage_error(f"--p must be a prime, got {p}")
    for m in opts.get("m", ()):
        if not is_conductor(m):
            _usage_error(f"--m must be at least 3 and not 2 mod 4, got {m}")
        excess = degree_excess(m)
        if excess:
            _usage_error(f"{name} takes {excess}")
        if "p" in opts and all(math.gcd(p, m) != 1 for p in opts["p"]):
            _usage_error(f"no --p value is coprime to m={m}")
    if entry.embeddings_max is not None and "m" in opts:
        degrees = sum(map(_totient, opts["m"]))
        if opts["n"] ** 2 * degrees > entry.embeddings_max:
            _usage_error(
                f"{name} takes n^2 * (sum of phi(m)) <= {entry.embeddings_max}, "
                f"got n={opts['n']} and a sum of phi(m) of {degrees}"
            )
    if entry.rank_max is not None and "n" in opts:
        m = max(opts.get("m", ()), key=_totient, default=None)
        excess = _rank_excess(name, entry.rank_max, opts["n"], m)
        if excess:
            _usage_error(excess)
    if opts.get("x") is not None:
        opts["x"] = _ball_point(opts["x"], opts["n"])

    opts["pel"] = None
    if opts.get("input") is not None:
        try:
            opts["pel"] = load_pel_input(opts["input"])
        except OSError as exc:
            raise PelInputError(f"{opts['input']}: {exc.strerror}") from None
        if entry.rank_max is not None:
            excess = _rank_excess(name, entry.rank_max, opts["pel"].n, opts["pel"].field.m)
            if excess:
                raise PelInputError(f"{opts['input']}: {excess}")
        if entry.embeddings_max is not None:
            n, field = opts["pel"].n, opts["pel"].field
            if n**2 * field.degree > entry.embeddings_max:
                raise PelInputError(
                    f"{opts['input']}: {name} takes n^2 * phi(m) <= {entry.embeddings_max}, "
                    f"got n={n} and phi({field.m}) = {field.degree}"
                )
    if opts.get("k") is not None:
        n = opts["pel"].n if opts["pel"] is not None else opts["n"]
        low, high = entry.k_span[0], n + entry.k_span[1]
        if not low <= opts["k"] <= high:
            _usage_error(f"{name} with n={n} needs {low} <= --k <= {high}, got {opts['k']}")
    return argparse.Namespace(**opts)


def _case_representatives(field) -> tuple[int, list]:
    """The number of ordered pairs of distinct CM types of `field`, and the
    first such pair of each set of embedding cases that occurs, in the
    order of `all_cm_types`.

    On each conjugate pair {u, m-u} of embeddings two CM types either
    agree, which gives the cases BOTH and NEITHER, or disagree, which gives
    ONLY0 and ONLYN; distinct types disagree somewhere.  So a pair of
    distinct types meets either these two cases (phin = conj(phi0)) or all
    four.  t0 takes the smaller residue u < m/2 of every pair, t1 flips
    the first pair of t0 and conj(t0) flips them all: the first pair,
    (t0, t1), meets all four cases unless there is only one conjugate
    pair, and (t0, conj(t0)) is the first pair of conjugate types."""
    m = field.m
    smaller = [u for u in field.units if 2 * u < m]
    h = 2 ** len(smaller)  # the number of CM types
    t0 = CMType(field, frozenset(smaller))
    conj0 = t0.conjugate()
    if h == 2:  # t1 is conj(t0)
        return 2, [(t0, conj0)]
    t1 = CMType(field, t0.members ^ {smaller[0], m - smaller[0]})
    return h * (h - 1), [(t0, t1), (t0, conj0)]


def _suite_data(m_list, n_max: int) -> Iterator[dict]:
    """One record per (m, n, k) over all ordered pairs of distinct CM types.

    `verify_type11` checks each embedding from its `EmbeddingCase` alone,
    so a pair passes iff every case it meets passes, and one pair per case
    set decides all pairs with that set.  The witness is the first failing
    pair in pair order: the first pair of the first case set that fails."""
    for m in m_list:
        field = cyclo_field(m)
        pairs, representatives = _case_representatives(field)
        for n in range(1, n_max + 1):
            for k in range(n + 1):
                witness = None
                for phi0, phin in representatives:
                    report = verify_type11(n, k, phi0, phin)
                    if not report.ok:
                        witness = {
                            "phi0": sorted(phi0.members),
                            "phin": sorted(phin.members),
                            "weights": {
                                str(r): {str(pq): mult for pq, mult in ws.items()}
                                for r, ws in report.weights.items()
                            },
                        }
                        break
                rec = {
                    "check": f"data m={m} n={n} k={k}",
                    "m": m,
                    "n": n,
                    "k": k,
                    "pairs": pairs,
                    "status": "pass" if witness is None else "fail",
                }
                if witness is not None:
                    rec["witness"] = witness
                yield rec


def _suite_blocks(n_max: int, k_only: int | None, sizes) -> Iterator[tuple[int, int, tuple | None]]:
    """(size, k, witness) of each block size of a suite and each k up to it
    (--k alone when given), from one walk of the n_max x n_max block of c1
    and the row c2..c(n_max) in Z[c1..c(n_max)] (see `block_identities`)."""
    c1, *row = generators(*(f"c{i}" for i in range(1, n_max + 1)))
    ks = range(1, n_max + 1) if k_only is None else [k_only]
    for size, witnesses in block_identities(c1, row, ks, sizes):
        for k, witness in witnesses.items():
            yield size, k, witness


def _suite_vdrei(n_max: int, k_only: int | None) -> Iterator[dict]:
    for n, k, witness in _suite_blocks(n_max, k_only, range(1, n_max + 1)):
        rec = {
            "check": f"vdrei n={n} k={k}",
            "n": n,
            "k": k,
            "status": "pass" if witness is None else "fail",
        }
        if witness is not None:
            i, j, got, expected = witness
            rec["witness"] = {
                "row": i,
                "col": j,
                "got": str(got),
                "expected": str(expected),
            }
        yield rec


def _suite_vzehn(n_max: int, k_only: int | None) -> Iterator[dict]:
    # heights b = 1 .. n-1: blocks of sizes 2 .. n
    for size, k, witness in _suite_blocks(n_max, k_only, range(2, n_max + 1)):
        status = "pass" if witness is None else "fail"
        yield {"check": f"vzehn b={size - 1} k={k}", "b": size - 1, "k": k, "status": status}


def _suite_prinz_random(trials: int, seed: int, m_list, p_list, n_max: int) -> Iterator[dict]:
    rng = random.Random(seed)
    for trial in range(trials):
        m = rng.choice(m_list)
        p = rng.choice([p for p in p_list if math.gcd(p, m) == 1])
        n = rng.randint(1, n_max)
        k = rng.randint(0, n)
        field = cyclo_field(m)
        module0, module1 = rand_perfect_pair(field, n, p, rng)
        report = verify_prinz(module0, module1, k, p)
        yield {
            "check": f"prinz trial={trial}",
            "trial": trial,
            "m": m,
            "n": n,
            "k": k,
            "p": p,
            "input_valuations": list(report.input_valuations),
            "output_valuation": report.output_valuation,
            "status": "pass" if report.implication_holds and report.hypotheses_met else "fail",
        }


def _suite_prinz_input(pel, k_only: int | None) -> Iterator[dict]:
    ks = [k_only] if k_only is not None else range(pel.n + 1)
    # valued once for every k, and before the first record, so an input that
    # raises leaves stdout empty
    valuations = input_valuations(pel.gram0, pel.gram1, pel.p)
    for k in ks:
        report = verify_prinz(pel.gram0, pel.gram1, k, pel.p, valuations)
        if not report.hypotheses_met:
            status = "vacuous"
        elif report.output_valuation == 0:
            status = "pass"
        else:
            status = "fail"
        yield {
            "check": f"prinz k={k}",
            "k": k,
            "p": pel.p,
            "input_valuations": list(report.input_valuations),
            "output_valuation": report.output_valuation,
            "status": status,
        }


def _suite_embedding(n_max: int, k_only: int | None) -> Iterator[dict]:
    for n in range(2, n_max + 1):
        ks = [k_only] if k_only is not None else range(1, n)
        for k in ks:
            if not 1 <= k <= n - 1:
                continue
            witness = anticommutation_witness(n, k)
            rec = {
                "check": f"embedding n={n} k={k}",
                "n": n,
                "k": k,
                "status": "pass" if witness is None else "fail",
            }
            if witness is not None:
                rec["witness"] = witness
            yield rec


def _suite_all(n: int | None, trials: int | None, seed: int) -> Iterator[dict]:
    def capped(default: int, cap: int) -> int:
        return default if n is None else min(n, cap)

    yield from _suite_data((4, 5, 8), capped(4, 6))
    yield from _suite_vdrei(capped(5, 7), None)
    yield from _suite_vzehn(capped(5, 7), None)
    yield from _suite_prinz_random(20 if trials is None else trials, seed, (4, 5), (3, 5, 7, 13), 3)
    yield from _suite_embedding(capped(4, 6), None)


def cmd_verify(args, opts) -> int:
    params = {"suite": args.suite} | {o: getattr(args, o) for o in ("n", "k", "m", "p", "trials")}
    doc = ReportDocument(
        suite=args.suite, seed=opts.seed, precision_bits=DEFAULT_PREC_BITS, params=params
    )
    pel = opts.pel
    doc.input_hash = pel.input_hash if pel else params_hash(params | {"seed": opts.seed})

    if args.suite == "data":
        records = _suite_data(opts.m, opts.n)
    elif args.suite == "vdrei":
        records = _suite_vdrei(opts.n, opts.k)
    elif args.suite == "vzehn":
        records = _suite_vzehn(opts.n, opts.k)
    elif args.suite == "prinz" and pel is not None:
        records = _suite_prinz_input(pel, opts.k)
    elif args.suite == "prinz":
        records = _suite_prinz_random(opts.trials, opts.seed, opts.m, opts.p, opts.n)
    elif args.suite == "embedding":
        records = _suite_embedding(opts.n, opts.k)
    else:
        records = _suite_all(opts.n, opts.trials, opts.seed)
    return _write_report(doc, records)


def _write_report(doc: ReportDocument, records) -> int:
    """Write the report's lines to stdout as its records are made, then its
    human summary to stderr; the summary's exit code."""
    sys.stdout.writelines(doc.lines(records))
    print(doc.human_summary(), file=sys.stderr)
    return doc.summary()["exit_code"]


def _emit_table(rows) -> None:
    """Print the rows, an iterable of dicts, as CSV, each as it is made.  The
    header comes from the first row, so nothing is printed before that row
    exists and a first row that raises leaves stdout empty."""
    header = None
    for row in rows:
        if header is None:
            header = list(row)
            print(",".join(header))
        print(",".join(str(row[k]) for k in header))


def cmd_table(kind: str, opts) -> int:
    if kind == "traces":
        n = opts.n
        rows = (
            {"k": k, "coeff_phi0": binom(n - 1, k), "coeff_phin": binom(n - 1, k - 1)}
            for k in range(n + 1)
        )
    elif kind == "weights":
        ws = wedge_weights(EmbeddingCase(opts.case), opts.n, opts.k)
        rows = [
            {"p": p, "q": q, "multiplicity": mult}
            for (p, q), mult in sorted(ws.items())
        ]
    elif kind == "signatures":
        rows = []
        for residue in opts.pel.field.units:
            pos, neg = signature_at(opts.pel.gram1, residue)
            rows.append({"embedding": residue, "p": pos, "q": neg})
    else:
        mat = satake_matrix(opts.x, opts.n, opts.k)
        rows = (
            {"row": i, **{f"c{j}": _fmt_complex(mat[i, j]) for j in range(mat.shape[1])}}
            for i in range(mat.shape[0])
        )
    if opts.format == "csv":
        _emit_table(rows)
    else:
        sys.stdout.writelines(ReportDocument(suite="table").lines(rows))
    return 0


def _fmt_complex(z: complex) -> str:
    z = complex(z)  # the repr of a numpy scalar depends on the numpy version
    return repr(z.real) if z.imag == 0 else repr(z)


def cmd_spadesuit(opts) -> int:
    pel = opts.pel
    if pel.phi0.members == pel.phin.members:
        raise PelInputError(f"{opts.input}: phi0 and phin must differ")
    report = check_spadesuit(pel.phi0, pel.phin, pel.p, pel.l, pel.gram0, pel.gram1)
    doc = ReportDocument(
        suite="spadesuit",
        input_hash=pel.input_hash,
        params={"m": pel.field.m, "n": pel.n, "p": pel.p, "l": pel.l},
    )
    bullets = {
        "perfect_at_p": report.perfect_at_p,
        "coprime_level": report.coprime_level,
        "orbit_aligned": report.orbit_aligned,
        "distinct_primes": report.distinct_primes,
    }
    records = [{"check": name, "status": "pass" if ok else "fail"} for name, ok in bullets.items()]
    records.append({
        "check": "derived",
        "status": "pass" if report.all_hold else "fail",
        "pi": [list(o) for o in report.pi] if report.pi else None,
        "pi_star": [list(o) for o in report.pi_star] if report.pi_star else None,
        "r": report.r,
        "num_primes": report.num_primes,
    })
    return _write_report(doc, records)


def build_parser() -> _Parser:
    """One subparser per command, declaring exactly the options that some
    entry of that command in `ENTRIES` reads."""
    parser = _Parser(prog="pelwedge")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {
        "verify": ("suite", VERIFY_SUITES),
        "table": ("kind", TABLE_KINDS),
        "spadesuit": (None, ()),
    }
    for command, (positional, choices) in commands.items():
        cmd = sub.add_parser(command, allow_abbrev=False)
        if positional:
            cmd.add_argument(positional, choices=choices)
        options = {}
        for name, entry in ENTRIES.items():
            if name.split()[0] == command:
                options.update(entry.defaults)
        for option in options:
            cmd.add_argument(f"--{option}", **_OPTION_KWARGS.get(option, {"type": int}))
    return parser


# parsing leaves no state in the parser, so every call shares one
_PARSER = build_parser()


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        opts = resolve(args)
        if args.command == "verify":
            return cmd_verify(args, opts)
        if args.command == "table":
            return cmd_table(args.kind, opts)
        return cmd_spadesuit(opts)
    except (PelInputError, RamifiedPrimeError, DegenerateForm, SingularAtEmbedding) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except SamplingExhausted as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_SOFTWARE


def entry() -> None:
    """The `pelwedge` script: `main`, with a stdout that its reader closed
    ending the run with exit 74 and no traceback."""
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # the flush at exit would raise again on the closed pipe
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        sys.exit(EXIT_IOERR)
    sys.exit(code)
