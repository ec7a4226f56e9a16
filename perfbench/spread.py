"""Run the benchmark over several seeds and report each metric's median and
quartile spread ((Q3 - Q1) / median) per workload.

    python3 perfbench/spread.py [--workloads A,B] [--seeds 1-10] [--trace 0|1]
        [--json FILE] [--baseline perfbench/baseline.json]

Runs are sequential, one workload after another, each for BENCHMARK.json's
`run_seconds`.  `--json` also writes every run's metrics and the summary
to FILE; `--baseline` merges each metric's median, unit and spread into
the `workloads` of a baseline file.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench.stats import p50, quartile_spread  # noqa: E402


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(prog="perfbench/spread.py")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--json")
    parser.add_argument("--baseline")
    args = parser.parse_args(argv)

    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    runs, summary, units = {}, {}, {}
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {}
        runs[workload] = []
        for seed in args.seeds:
            proc = subprocess.run(
                [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                 "--trace", str(args.trace)],
                cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit {proc.returncode}", file=sys.stderr)
                return 1
            result = json.loads(proc.stdout.splitlines()[-1])
            runs[workload].append({"seed": seed, **result})
            if not result["correct"]:
                print(f"{workload} seed {seed}: {result['failed']} failed", file=sys.stderr)
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
                units[name] = metric["unit"]
        summary[workload] = {}
        for name, vals in values.items():
            median = p50(vals)
            spread = quartile_spread(vals) if len(vals) >= 2 and median else None
            summary[workload][name] = {"value": median, "unit": units[name], "spread": spread}
            bound = bounds.get(name)
            flag = ""
            if spread is not None and bound is not None and name != "setup_s":
                flag = "ok" if spread < bound / 3 else ("WIDE" if spread < bound else "OVER")
            shown = "-" if spread is None else f"{spread:.4f}"
            print(f"{workload:16s} {name:40s} median {median:12.6g} spread {shown:>8s} {flag}")
    if args.json:
        Path(args.json).write_text(json.dumps({"runs": runs, "summary": summary}, indent=1))
    if args.baseline:
        path = Path(args.baseline)
        baseline = json.loads(path.read_text())
        for workload, metrics in summary.items():
            baseline["workloads"].setdefault(workload, {})[f"trace{args.trace}"] = {
                "seeds": f"{args.seeds[0]}-{args.seeds[-1]}",
                "seconds": spec["run_seconds"],
                "metrics": metrics,
            }
        path.write_text(json.dumps(baseline, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
