#!/usr/bin/env python3
"""The repository benchmark: the paper's PageRank, SSSP and SUMMA, timed
end to end, with per-layer timing taken from outside the program.

Run from the repository root:

    python3 perfbench/run.py                  # every workload, end-to-end metrics
    python3 perfbench/run.py --trace 1        # every workload, per-layer metrics
    python3 perfbench/run.py --seed 1000       # hold-out seed: 1000 or more
    python3 perfbench/run.py --workload pagerank --seed 3 --seconds 25 --trace 0

With ``--workload`` it runs that one workload in this process and prints,
as its last line, one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  Without it, it runs each workload in a fresh
process (so peak memory and the leak check are per workload) and prints
a summary.  The exit code is 0 only when every result was correct, no
thread or process leaked and, for traced runs, the wrapper self-check
passed.  Full results (environment, every metric, sample counts) go to
``perfbench/out/``; traced runs also write their spans there.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

WORKLOAD_NAMES = ("pagerank", "pagerank_process", "sssp_updates", "summa_nosync")

#: The end-to-end metrics of the last output line, present on every
#: workload.  ``job_ms.p50`` is the workload's closed-loop operation: a
#: job to its checked result, or on sssp_updates one ``update(batch)``
#: call (printed there as ``update_ms.p50`` as well).
JSON_END_TO_END = ("setup_s", "job_ms.p50", "peak_rss_mb")


def _args(argv: list) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0, help="workload seed: inputs are made from it")
    parser.add_argument("--seconds", type=float, default=25.0, help="measured time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics from a traced run")
    return parser.parse_args(argv)


def run_one(args: argparse.Namespace) -> int:
    # fixed worker counts that fit 2 cores: the program's own threads and
    # processes, and one BLAS thread each
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    sys.path.insert(0, SRC)
    import layers
    import runner
    import workloads

    workload = workloads.WORKLOADS[args.workload]()
    run = runner.Run(workload, args.seed, args.seconds, bool(args.trace))
    run.execute()
    env = runner.environment(ROOT, workload, args.seed, args.seconds, bool(args.trace))
    print("env " + json.dumps(env, sort_keys=True))

    end_to_end = run.end_to_end()
    for name, (value, unit, samples) in end_to_end.items():
        print(f"{workload.name:17} {name:16} {value:14.6f} {unit:5} samples={samples}")
    correct = run.failed == 0
    record = {"env": env, "attempted": run.attempted, "failed": run.failed,
              "problems": run.problems, "end_to_end": end_to_end,
              "samples": {"setup_s": run.setup_s, "op_s": run.op_s, "traced_op_s": run.traced_op_s}}
    os.makedirs(OUT, exist_ok=True)
    stem = os.path.join(OUT, f"{workload.name}-seed{args.seed}-trace{args.trace}")

    if args.trace:
        per_layer = run.per_layer()
        problems = layers.self_check(workload.name, per_layer)
        for problem in problems:
            print(f"SELF-CHECK {problem}", file=sys.stderr)
        correct = correct and not problems
        if workload.runtime == "process":
            print(f"{workload.name:17} (child-side layers of worker processes show only in "
                  "process.* and JobResult counts)")
        for name, unit, _, moves in layers.PER_LAYER:
            print(f"{workload.name:17} {name:28} {per_layer[name]:16.6f} {unit:6} moves: {moves}")
        metrics = {name: {"value": per_layer[name], "unit": unit} for name, unit, _, _ in layers.PER_LAYER}
        record["per_layer"] = per_layer
        record["self_check"] = problems
        run.rec.write(stem + ".spans.jsonl")
    else:
        values = {
            "setup_s": end_to_end["setup_s"],
            "job_ms.p50": end_to_end[f"{workload.op_metric}.p50"],
            "peak_rss_mb": end_to_end["peak_rss_mb"],
        }
        metrics = {name: {"value": values[name][0], "unit": values[name][1]} for name in JSON_END_TO_END}

    with open(stem + ".json", "w") as out:
        json.dump(record, out, indent=1, sort_keys=True, default=str)
    print(json.dumps({"correct": correct, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0 if correct else 1


def run_all(args: argparse.Namespace) -> int:
    status = 0
    summary = []
    for name in WORKLOAD_NAMES:
        command = [sys.executable, os.path.abspath(__file__), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        try:
            done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                                  timeout=4 * args.seconds + 300)
        except subprocess.TimeoutExpired as exc:
            print(exc.stdout or "", end="")
            print(f"{name}: timed out", file=sys.stderr)
            status = 1
            continue
        print(done.stdout, end="")
        lines = done.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
        if done.returncode != 0 or result is None or not result["correct"]:
            status = 1
        summary.append((name, result))
    print(f"\nsummary (seed {args.seed})")
    for name, result in summary:
        if result is None:
            print(f"  {name:17} no result")
            continue
        fail_ratio = result["failed"] / max(1, result["attempted"])
        shown = "  ".join(f"{k}={v['value']:.4f}{v['unit']}" for k, v in result["metrics"].items()
                          if k in JSON_END_TO_END or k == "bench.trace_overhead")
        print(f"  {name:17} correct={result['correct']} fail_ratio={fail_ratio:.4f} {shown}")
    return status


def main(argv: list) -> int:
    args = _args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"run.py: the program source is missing ({SRC}/repro); "
              "run from a full checkout of the repository", file=sys.stderr)
        return 2
    return run_one(args) if args.workload else run_all(args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
