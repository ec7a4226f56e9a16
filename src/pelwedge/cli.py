"""Command-line front end: lemma-verification suites, tables, and the
smooth-model hypothesis checker.

Exit codes: 0 pass, 1 failure (with witness in the report), 2 vacuous
run (hypotheses unmet), 64 usage error, 65 input/parse error.
"""

from __future__ import annotations

import argparse
import math
import os
import random
import sys

import sympy

from . import __version__
from .cyclofield import (
    DEFAULT_PREC_BITS,
    RamifiedPrimeError,
    all_cm_types,
    check_spadesuit,
    cyclo_field,
)
from .domains import embedding_trial_stats, satake_matrix, BallPoint
from .exterior import wedge_gram
from .hodge import (
    EmbeddingCase,
    SingularAtEmbedding,
    binom,
    signature_at,
    verify_type11,
    wedge_weights,
)
from .instances import rand_perfect_pair
from .pairings import DegenerateForm, verify_prinz
from .reporting import (
    PelInputError,
    ReportDocument,
    load_pel_input,
    params_hash,
)
from .serretate import DeformationParams, verify_vdrei, verify_vzehn

EXIT_USAGE = 64
EXIT_INPUT = 65

VERIFY_SUITES = ("data", "prinz", "vdrei", "vzehn", "embedding", "all")
TABLE_KINDS = ("signatures", "traces", "weights", "embedding-matrix")


def _usage_error(message: str):
    print(f"error: {message}", file=sys.stderr)
    raise SystemExit(EXIT_USAGE)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        _usage_error(message)


def default_precision() -> int:
    env = os.environ.get("PELWEDGE_PRECISION")
    if env:
        try:
            return int(env)
        except ValueError:
            pass
    return DEFAULT_PREC_BITS


def _suite_data(doc: ReportDocument, m_list, n_max: int) -> None:
    for m in m_list:
        field = cyclo_field(m)
        types = all_cm_types(field)
        for n in range(1, n_max + 1):
            for k in range(n + 1):
                pairs = fails = 0
                witness = None
                for phi0 in types:
                    for phin in types:
                        if phi0.members == phin.members:
                            continue
                        pairs += 1
                        report = verify_type11(n, k, phi0, phin)
                        if not report.ok:
                            fails += 1
                            if witness is None:
                                witness = {
                                    "phi0": sorted(phi0.members),
                                    "phin": sorted(phin.members),
                                    "weights": {
                                        str(r): {str(pq): mult for pq, mult in ws.items()}
                                        for r, ws in report.weights.items()
                                    },
                                }
                rec = {
                    "check": f"data m={m} n={n} k={k}",
                    "m": m,
                    "n": n,
                    "k": k,
                    "pairs": pairs,
                    "status": "pass" if fails == 0 else "fail",
                }
                if witness is not None:
                    rec["witness"] = witness
                doc.add(**rec)


def _suite_vdrei(doc: ReportDocument, n_max: int, k_only: int | None) -> None:
    for n in range(1, n_max + 1):
        ks = [k_only] if k_only is not None else range(1, n + 1)
        for k in ks:
            if not 1 <= k <= n:
                continue
            report = verify_vdrei(n, k)
            rec = {
                "check": f"vdrei n={n} k={k}",
                "n": n,
                "k": k,
                "status": "pass" if report.ok else "fail",
            }
            if report.witness is not None:
                i, j, got, expected = report.witness
                rec["witness"] = {
                    "row": i,
                    "col": j,
                    "got": str(got),
                    "expected": str(expected),
                }
            doc.add(**rec)


def _suite_vzehn(doc: ReportDocument, n_max: int, k_only: int | None) -> None:
    for b in range(1, n_max):
        phi = DeformationParams(
            1, b, (tuple(sympy.symbols(f"p1:{b + 1}")),) if b else ((),)
        )
        ks = [k_only] if k_only is not None else range(1, b + 2)
        for k in ks:
            if not 1 <= k <= b + 1:
                continue
            ok = verify_vzehn(b, k, phi)
            doc.add(
                check=f"vzehn b={b} k={k}",
                b=b,
                k=k,
                status="pass" if ok else "fail",
            )


def _suite_prinz_random(
    doc: ReportDocument, trials: int, seed: int, m_list, p_list, n_max: int
) -> None:
    rng = random.Random(seed)
    for trial in range(trials):
        m = rng.choice(m_list)
        candidates = [p for p in p_list if math.gcd(p, m) == 1]
        if not candidates:
            _usage_error(f"no --p value is coprime to m={m}")
        p = rng.choice(candidates)
        n = rng.randint(1, n_max)
        k = rng.randint(0, n)
        field = cyclo_field(m)
        module0, module1 = rand_perfect_pair(field, n, p, rng)
        report = verify_prinz(module0, module1, k, p)
        doc.add(
            check=f"prinz trial={trial}",
            trial=trial,
            m=m,
            n=n,
            k=k,
            p=p,
            input_valuations=list(report.input_valuations),
            output_valuation=report.output_valuation,
            status="pass" if report.implication_holds and report.hypotheses_met else "fail",
        )


def _suite_prinz_input(doc: ReportDocument, pel, k_only: int | None) -> None:
    ks = [k_only] if k_only is not None else range(pel.n + 1)
    for k in ks:
        report = verify_prinz(pel.gram0, pel.gram1, k, pel.p)
        if not report.hypotheses_met:
            status = "vacuous"
        elif report.output_valuation == 0:
            status = "pass"
        else:
            status = "fail"
        doc.add(
            check=f"prinz k={k}",
            k=k,
            p=pel.p,
            input_valuations=list(report.input_valuations),
            output_valuation=report.output_valuation,
            status=status,
        )


def _suite_embedding(doc: ReportDocument, n_max: int, k_only: int | None, trials: int, seed: int) -> None:
    for n in range(2, n_max + 1):
        ks = [k_only] if k_only is not None else range(1, n)
        for k in ks:
            if not 1 <= k <= n - 1:
                continue
            # derive a per-configuration seed so shards are independent
            config_seed = [seed, n, k]
            stats = embedding_trial_stats(n, k, trials, _fold_seed(config_seed))
            doc.add(
                check=f"embedding n={n} k={k}",
                n=n,
                k=k,
                trials=trials,
                failures=stats["failures"],
                max_norm_ratio=stats["max_norm_ratio"],
                status="pass" if stats["failures"] == 0 else "fail",
            )


def _fold_seed(parts) -> int:
    acc = 0
    for part in parts:
        acc = (acc * 1000003 + int(part)) % (2**63)
    return acc


def cmd_verify(args) -> int:
    precision = args.precision or default_precision()
    params = {
        "suite": args.suite,
        "n": args.n,
        "k": args.k,
        "m": args.m,
        "p": args.p,
        "trials": args.trials,
    }
    doc = ReportDocument(
        suite=args.suite,
        seed=args.seed,
        precision_bits=precision,
        params=params,
    )
    pel = None
    if args.input:
        pel = load_pel_input(args.input)
        doc.input_hash = pel.input_hash
    else:
        doc.input_hash = params_hash(params | {"seed": args.seed})

    if args.suite == "data":
        _suite_data(doc, [args.m] if args.m else [4, 5, 8], args.n or 4)
    elif args.suite == "vdrei":
        _suite_vdrei(doc, args.n or 7, args.k)
    elif args.suite == "vzehn":
        _suite_vzehn(doc, args.n or 7, args.k)
    elif args.suite == "prinz":
        if pel is not None:
            _suite_prinz_input(doc, pel, args.k)
        else:
            _suite_prinz_random(
                doc,
                args.trials or 200,
                args.seed,
                [args.m] if args.m else [4, 5],
                [args.p] if args.p else [3, 5, 7, 13],
                args.n or 4,
            )
    elif args.suite == "embedding":
        _suite_embedding(doc, args.n or 6, args.k, args.trials or 1000, args.seed)
    elif args.suite == "all":
        _suite_data(doc, [4, 5, 8], min(args.n or 4, 6))
        _suite_vdrei(doc, min(args.n or 5, 7), None)
        _suite_vzehn(doc, min(args.n or 5, 7), None)
        _suite_prinz_random(doc, args.trials or 20, args.seed, [4, 5], [3, 5, 7, 13], 3)
        _suite_embedding(doc, min(args.n or 4, 6), None, args.trials or 200, args.seed)

    sys.stdout.write(doc.to_jsonl())
    print(doc.human_summary(), file=sys.stderr)
    return doc.exit_code()


def _emit_table(rows: list[dict], fmt: str) -> None:
    if fmt == "csv":
        if rows:
            keys = list(rows[0].keys())
            print(",".join(keys))
            for row in rows:
                print(",".join(str(row[k]) for k in keys))
    else:
        doc = ReportDocument(suite="table")
        for row in rows:
            doc.add(**row)
        sys.stdout.write(doc.to_jsonl())


def _require(args, *options) -> None:
    for option in options:
        if getattr(args, option) in (None, ""):
            _usage_error(f"table {args.kind} requires --{option}")


def cmd_table(args) -> int:
    fmt = args.format or "csv"
    if args.kind == "traces":
        _require(args, "n")
        n = args.n
        rows = [
            {"k": k, "coeff_phi0": binom(n - 1, k), "coeff_phin": binom(n - 1, k - 1)}
            for k in range(n + 1)
        ]
    elif args.kind == "weights":
        _require(args, "n", "k", "case")
        case = EmbeddingCase(args.case)
        ws = wedge_weights(case, args.n, args.k)
        rows = [
            {"p": p, "q": q, "multiplicity": mult}
            for (p, q), mult in sorted(ws.items())
        ]
    elif args.kind == "signatures":
        _require(args, "input")
        pel = load_pel_input(args.input)
        precision = args.precision or default_precision()
        rows = []
        for residue in pel.field.units:
            pos, neg = signature_at(pel.gram1, residue, precision)
            rows.append({"embedding": residue, "p": pos, "q": neg})
    elif args.kind == "embedding-matrix":
        _require(args, "n", "k", "x")
        coords = [complex(part) for part in args.x.split(",")]
        point = BallPoint.of(coords, require_in_ball=False)
        mat = satake_matrix(point, args.n, args.k)
        rows = [
            {"row": i, **{f"c{j}": _fmt_complex(mat[i, j]) for j in range(mat.shape[1])}}
            for i in range(mat.shape[0])
        ]
    else:
        raise SystemExit(EXIT_USAGE)
    _emit_table(rows, fmt)
    return 0


def _fmt_complex(z: complex) -> str:
    if z.imag == 0:
        return repr(z.real)
    return repr(z)


def cmd_spadesuit(args) -> int:
    pel = load_pel_input(args.input)
    report = check_spadesuit(pel.phi0, pel.phin, pel.p, pel.l, pel.gram0, pel.gram1)
    doc = ReportDocument(
        suite="spadesuit",
        input_hash=pel.input_hash,
        params={"m": pel.field.m, "n": pel.n, "p": pel.p, "l": pel.l},
    )
    bullets = [
        ("perfect_at_p", report.perfect_at_p),
        ("coprime_level", report.coprime_level),
        ("orbit_aligned", report.orbit_aligned),
        ("distinct_primes", report.distinct_primes),
    ]
    for name, verdict in bullets:
        doc.add(check=name, status="pass" if verdict else "fail")
    doc.add(
        check="derived",
        status="pass" if report.all_hold else "fail",
        pi=[list(o) for o in report.pi] if report.pi else None,
        pi_star=[list(o) for o in report.pi_star] if report.pi_star else None,
        r=report.r,
        num_primes=report.num_primes,
    )
    sys.stdout.write(doc.to_jsonl())
    print(doc.human_summary(), file=sys.stderr)
    return 0 if report.all_hold else 1


def build_parser() -> _Parser:
    parser = _Parser(prog="pelwedge")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--n", type=int)
        p.add_argument("--k", type=int)
        p.add_argument("--m", type=int)
        p.add_argument("--p", type=int)
        p.add_argument("--l", type=int, default=3)
        p.add_argument("--trials", type=int)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--precision", type=int)
        p.add_argument("--format", choices=["csv", "records"])
        p.add_argument("--input")

    verify = sub.add_parser("verify")
    verify.add_argument("suite", choices=VERIFY_SUITES)
    common(verify)

    table = sub.add_parser("table")
    table.add_argument("kind", choices=TABLE_KINDS)
    table.add_argument("--case", choices=[c.value for c in EmbeddingCase])
    table.add_argument("--x")
    common(table)

    spade = sub.add_parser("spadesuit")
    common(spade)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.p is not None and args.p < 2:
        parser.error(f"--p must be at least 2, got {args.p}")
    try:
        if args.command == "verify":
            return cmd_verify(args)
        if args.command == "table":
            return cmd_table(args)
        if args.command == "spadesuit":
            if not args.input:
                print("error: spadesuit requires --input", file=sys.stderr)
                return EXIT_USAGE
            return cmd_spadesuit(args)
    except PelInputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (RamifiedPrimeError, DegenerateForm, SingularAtEmbedding, ValueError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    return EXIT_USAGE


def entry() -> None:
    sys.exit(main())
