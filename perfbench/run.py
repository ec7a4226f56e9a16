"""Benchmark of the pelwedge CLI: one workload, one seed, one JSON result.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout.  Each workload runs in fresh worker
processes (`perfbench/worker.py`) that call `pelwedge.cli.main(argv)`
in-process from one closed-loop client and check every output.  With
`--trace 0` the last stdout line holds the end-to-end metrics; set-up
is measured in three fresh processes and reported as their median.  With
`--trace 1` it holds the per-layer metrics of a traced replay.  Progress
and failures go to stderr.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench.workloads import WORKLOADS  # noqa: E402

SETUP_RUNS = 3
WORKER_TIMEOUT_S = 150


def run_worker(args, workdir: Path, setup_only: bool) -> dict:
    cmd = [sys.executable, "-m", "perfbench.worker", "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--workdir", str(workdir)]
    if setup_only:
        cmd.append("--setup-only")
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "pelwedge" / "cli.py").is_file():
        print(f"perfbench: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    scratch = ROOT / ".perfbench"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    try:
        setups = [] if args.trace else [
            run_worker(args, workdir / f"setup{i}", setup_only=True)
            for i in range(SETUP_RUNS - 1)
        ]
        result = run_worker(args, workdir / "run", setup_only=False)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, IndexError) as exc:
        print(f"perfbench: {args.workload} did not complete: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    metrics = result["metrics"]
    if not args.trace:
        metrics["setup_s"] = (
            statistics.median([result["setup_s"]] + [s["setup_s"] for s in setups]), "s")
    attempted = result["attempted"] + sum(s["attempted"] for s in setups)
    failed = result["failed"] + sum(s["failed"] for s in setups)

    print(f"{args.workload} seed={args.seed} trace={args.trace}: {result['requests']} "
          f"requests in {result['rounds']} rounds, {failed}/{attempted} failed", file=sys.stderr)
    if result["p90_ms"] is not None:
        print(f"  {'request_ms_p90':40s} {result['p90_ms']:.4f} ms", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"  {name:40s} {value:.6g} {unit}", file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
