"""One workload in one fresh process: repeat the study for the time budget.

Usage (from the repository root, with ``src`` on PYTHONPATH)::

    python3 -m perfbench.worker --workload <name> --seed <n> \
        --seconds <s> --trace <0|1> --out <dir>

Studies repeat until the next one would end past ``--seconds`` (at least
two run, so the CSVs of two runs can be compared byte for byte).  With
``--trace 1`` untraced and traced studies alternate, starting untraced; the
per-layer metrics come from the traced ones, and each traced study's spans
are written to ``<out>/spans-study<k>.json``.  The last stdout line is a
JSON object for ``run.py``.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import sys
import time
import tracemalloc
from pathlib import Path

from perfbench import tracer as tracing
from perfbench.workloads import WORKLOADS, criterion_checks, make_config, run_study

MIN_STUDIES = 2


def _args(argv):
    p = argparse.ArgumentParser(prog="perfbench.worker")
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", required=True)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = _args(argv)
    import boxflow

    out = Path(args.out)
    src = (Path.cwd() / "src").resolve()
    checks = [("boxflow_from_checkout", Path(boxflow.__file__).resolve().is_relative_to(src))]
    workload = WORKLOADS[args.workload]
    cfg = make_config(workload, args.seed)

    untraced, traced, layer = [], [], []
    reference_csvs = None
    start = time.perf_counter()
    while True:
        k = len(untraced) + len(traced)
        study_dir = out / f"study{k}"
        if args.trace and k % 2 == 1:
            tracer = tracing.Tracer(f"{args.workload}-seed{args.seed}-study{k}")
            tracemalloc.start()
            try:
                with tracer:
                    outcome = run_study(workload, cfg, study_dir, tracer.span("bench.study"))
            finally:
                tracemalloc.stop()
            tracer.dump(out / f"spans-study{k}.json")
            layer.append(tracing.layer_metrics(tracer.spans))
            traced.append(outcome.study_s)
        else:
            outcome = run_study(workload, cfg, study_dir)
            untraced.append(outcome.study_s)
        shutil.rmtree(study_dir)

        checks += [(f"study{k}.{name}", ok) for name, ok in criterion_checks(workload, outcome)]
        if reference_csvs is None:
            reference_csvs = outcome.csvs
        else:
            checks.append((f"study{k}.csv_bytes_match_study0", outcome.csvs == reference_csvs))

        elapsed = time.perf_counter() - start
        if k + 1 >= MIN_STUDIES and elapsed + statistics.median(untraced + traced) > args.seconds:
            break

    result = {
        "study_s": untraced,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "checks": checks,
    }
    if args.trace:
        for name in tracing.EXACT_COUNTS:
            values = {m[name] for m in layer}
            checks.append((f"exact_count_repeats.{name}", len(values) == 1))
        metrics = tracing.median_metrics(layer)
        metrics["trace.study_s"] = statistics.median(traced)
        # the first study of a process is cold; compare with warm ones if any
        warm = untraced[1:] or untraced
        metrics["trace.overhead_s"] = metrics["trace.study_s"] - statistics.median(warm)
        result["layer"] = metrics
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
