"""One workload in one fresh process: set up, run the timed phase, and for
a traced run replay the same rounds under the tracer.

Prints one JSON object on stdout for `run.py`.  Usage:

    python3 -m perfbench.worker --workload NAME --seed N --seconds S
        --trace 0|1 --workdir DIR [--setup-only]
"""

import time

T0 = time.perf_counter()  # set-up time counts from here: imports included

import argparse
import contextlib
import io
import json
import os
import resource
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _import_program():
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"  # before numpy loads: one thread, like the load
    sys.path.insert(0, str(ROOT / "src"))
    import pelwedge
    import pelwedge.cli

    if Path(pelwedge.__file__).resolve().parent != ROOT / "src" / "pelwedge":
        raise ImportError(f"pelwedge imported from {pelwedge.__file__}, not from this checkout")
    return pelwedge.cli


@dataclass(slots=True)
class Result:
    request: object
    exit_code: object
    stdout: str
    seconds: float
    error: str | None  # traceback of an exception main() raised


def call(cli, request) -> Result:
    """One closed-loop request: `main(argv)` with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    error = None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(request.argv))
    except SystemExit as exc:
        code = exc.code
    except Exception:  # a crash is a failed request, not a failed run
        code, error = None, traceback.format_exc()
    seconds = time.perf_counter() - start
    return Result(request, code, out.getvalue(), seconds, error)


def timed_phase(cli, rounds, seconds):
    """Whole rounds, stopping at the round boundary nearest `seconds`."""
    results = []
    start = time.perf_counter()
    done = 0
    while True:
        for request in rounds[done % len(rounds)]:
            results.append(call(cli, request))
        done += 1
        elapsed = time.perf_counter() - start
        if elapsed + 0.5 * elapsed / done >= seconds:
            return results, elapsed, done


def verify(results) -> int:
    """Check every output with its oracle and identical argv for identical
    stdout bytes; return the number of failed requests."""
    from perfbench.oracles import check, expected_signatures

    signatures = {}
    first_stdout = {}
    failed = 0
    for res in results:
        req = res.request
        if req.pel is not None and req.pel not in signatures:
            pel = json.loads(Path(req.pel).read_text())
            signatures[req.pel] = (pel["n"], expected_signatures(pel))
        reason = res.error or check(req, res.exit_code, res.stdout, signatures)
        if reason is None and first_stdout.setdefault(req.argv, res.stdout) != res.stdout:
            reason = "stdout differs from an earlier run of the same argv"
        if reason is not None:
            failed += 1
            if failed <= 5:
                print(f"perfbench: FAILED {' '.join(req.argv)}: {reason}", file=sys.stderr)
    return failed


def field_probes(seed: int) -> dict:
    """Microseconds per CycloElement multiply and inverse on seeded
    random elements, the median of five batches."""
    import random
    import statistics

    from pelwedge.cyclofield import cyclo_field
    from pelwedge.instances import rand_element

    rng = random.Random(f"field-probes:{seed}")

    def per_op_us(fn, items):
        batches = []
        for _ in range(5):
            start = time.perf_counter()
            for item in items:
                fn(item)
            batches.append((time.perf_counter() - start) / len(items) * 1e6)
        return statistics.median(batches)

    out = {}
    for m in (5, 8, 16):
        field = cyclo_field(m)
        pairs = [(rand_element(field, rng), rand_element(field, rng)) for _ in range(64)]
        out[f"cyclofield.mul_us.m{m}"] = (per_op_us(lambda ab: ab[0] * ab[1], pairs), "us")
    field = cyclo_field(16)
    units = [x for x in (rand_element(field, rng) for _ in range(40)) if x][:32]
    out["cyclofield.inverse_us.m16"] = (per_op_us(lambda x: x.inverse(), units), "us")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench.worker")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    cli = _import_program()
    from perfbench import stats
    from perfbench.oracles import count_records
    from perfbench.tracer import Tracer
    from perfbench.workloads import WORKLOADS

    workdir = Path(args.workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    plan = WORKLOADS[args.workload](args.seed, workdir)
    warmup = call(cli, plan.warmup)
    setup_s = time.perf_counter() - T0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "attempted": 1, "failed": verify([warmup])}))
        return 0

    seconds = args.seconds / 2 if args.trace else args.seconds
    timed, wall_s, rounds_done = timed_phase(cli, plan.rounds, seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    latencies_ms = [res.seconds * 1e3 for res in timed]
    p50_ms = stats.p50(latencies_ms)
    p90_ms = stats.p90(latencies_ms)

    results = [warmup] + timed + [call(cli, plan.warmup)]
    if args.trace:
        metrics = field_probes(args.seed)
        tracer = Tracer()
        tracer.install()
        traced = []
        try:
            for i in range(rounds_done):
                for request in plan.rounds[i % len(plan.rounds)]:
                    tracer.request = len(traced)
                    traced.append(call(cli, request))
        finally:
            tracer.uninstall()
        results += traced
        metrics.update(tracer.metrics(len(traced)))
        metrics["reporting.stdout_bytes"] = (
            sum(len(res.stdout.encode()) for res in traced) / len(traced), "B")
        metrics["trace.overhead_ratio"] = (
            stats.p50([res.seconds * 1e3 for res in traced]) / p50_ms, "ratio")
        tracer.write_spans(ROOT / ".perfbench" / f"spans-{args.workload}.csv")
    else:
        metrics = {
            "request_ms_p50": (p50_ms, "ms"),
            "checks_per_s": (sum(count_records(res.stdout) for res in timed) / wall_s, "1/s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }

    failed = verify(results)
    if args.trace:
        metrics["error_rate"] = (failed / len(results), "ratio")
    print(json.dumps({
        "setup_s": setup_s,
        "attempted": len(results),
        "failed": failed,
        "requests": len(timed),
        "rounds": rounds_done,
        "p90_ms": p90_ms,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
