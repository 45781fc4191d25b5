"""Record a baseline: every workload over several seeds, plus one traced run.

Usage, from the repository root::

    python3 perfbench/baseline.py --seeds 1-10 --traced-seed 7 \
        --out perfbench/baseline.json

Runs ``perfbench/run.py`` for ``run_seconds`` from ``BENCHMARK.json``, once
per workload and seed with tracing off, then once per workload with tracing
on, one run at a time.  The JSON it writes
holds every run (its environment line and metrics), and per workload and
end-to-end metric the median and the quartile spread, (Q3 - Q1) / median
with the quartiles of ``statistics.quantiles(values, n=4)``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench.workloads import WORKLOADS  # noqa: E402


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed",
         str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True,
    )
    lines = done.stdout.strip().splitlines()
    words = lines[0].split()
    return {
        "seed": seed,
        "trace": trace,
        "environment": dict(zip(words[::2], words[1::2])),
        "lines": lines[1:-1],
        **json.loads(lines[-1]),
    }


def summarise(runs: list[dict]) -> dict:
    out = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        q1, _, q3 = statistics.quantiles(values, n=4)
        median = statistics.median(values)
        out[name] = {"median": median, "spread": (q3 - q1) / median, "n": len(values)}
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(prog="perfbench/baseline.py")
    p.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    p.add_argument("--traced-seed", type=int, default=7)
    p.add_argument("--out", required=True)
    args = p.parse_args(argv)
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]

    record = {"seeds": args.seeds, "traced_seed": args.traced_seed,
              "seconds": seconds, "workloads": {}}
    for workload in WORKLOADS:
        runs = []
        for seed in _seeds(args.seeds):
            runs.append(run_once(workload, seed, seconds, 0))
            print(workload, seed, runs[-1]["failed"],
                  {k: round(m["value"], 4) for k, m in runs[-1]["metrics"].items()},
                  flush=True)
        traced = run_once(workload, args.traced_seed, seconds, 1)
        record["workloads"][workload] = {
            "summary": summarise(runs),
            "runs": runs,
            "traced": traced,
        }
    Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
