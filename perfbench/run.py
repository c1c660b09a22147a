"""Benchmark command.

    python3 perfbench/run.py --workload descent --seed 1 --seconds 30 --trace 0

Prints every metric by name with its unit, then one detail line, then as
its last line a JSON object with the keys correct, attempted, failed and
metrics.  ``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` makes a separate traced run and reports the per-layer
metrics.  Exit status: 0 on success, 1 when an output check fails, 2 when
the package cannot be loaded from ``src/`` beside this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("descent", "scaling", "sweep"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        print("error: --seed and --seconds must be nonnegative", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT))
    import perfbench

    perfbench.pin_threads()
    from perfbench import runner
    from perfbench.workloads import FULL, WORKLOADS, CheckError

    workload = WORKLOADS[args.workload]
    src = ROOT / "src"
    out = HERE / "out"
    workdir = out / f"{args.workload}-{args.seed}-{os.getpid()}"
    correct = True
    try:
        if args.trace:
            spans = out / f"spans-{args.workload}-{args.seed}.csv"
            metrics, detail, runs = runner.measure_traced(
                workload, src, args.seed, args.seconds, FULL, workdir, spans
            )
        else:
            metrics, detail, run = runner.measure(
                workload, src, args.seed, args.seconds, FULL, workdir
            )
            runs = [run]
    except ImportError as err:
        print(f"error: cannot load the package from {src}: {err}", file=sys.stderr)
        return 2
    except CheckError as err:
        print(f"check failed: {err}", file=sys.stderr)
        correct = False
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if not correct:
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1

    detail = {"workload": args.workload, "seed": args.seed, **detail}
    detail["environment"] = runner.environment()
    for name, metric in metrics.items():
        print(f"{name:<48} {metric['value']:>16.6g} {metric['unit']}")
    print("detail " + json.dumps(detail, sort_keys=True))
    result = {
        "correct": True,
        "attempted": sum(run.attempted for run in runs),
        "failed": sum(run.failed for run in runs),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
