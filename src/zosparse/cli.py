"""Command line entry point.

Subcommands: ``run`` executes an experiment file, ``verify`` recomputes
the analysis constants, ``scaling`` measures query growth on planted
sparse linear objectives, ``graph-info`` sanity-checks an edge list.

Exit status: 0 on success, 1 when work completed but something failed
(a failed run, a failed check), 2 for unusable input.
"""

from __future__ import annotations

import argparse
import os
import sys
from collections import deque
from pathlib import Path

from .blackbox import GraphParseError, load_graph
from .harness import (
    ExperimentSpecError,
    parse_spec,
    query_scaling_probe,
    run_experiment,
    scaling_correlation,
    write_scaling_csv,
)
from .theory import verify_theory

__all__ = ["main"]


def _positive_int(text: str) -> int:
    if not text.isdigit() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"need an integer >= 1, got {text!r}")
    return int(text)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zosparse",
        description="Query-efficient sparse-gradient optimization experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run the sweep described by an experiment file")
    run.add_argument("spec_file", help="experiment file (INI format)")
    run.add_argument(
        "--jobs", type=_positive_int, default=os.cpu_count(), help="worker processes"
    )
    run.add_argument("--output", default=None, help="output directory (overrides the file)")

    sub.add_parser("verify", help="recompute the analysis constants and identities")

    scaling = sub.add_parser("scaling", help="measure query growth over a (d, s) grid")
    scaling.add_argument(
        "--d", type=_positive_int, nargs="+", default=[256, 1024, 4096, 16384], help="dimensions"
    )
    scaling.add_argument(
        "--s", type=_positive_int, nargs="+", default=[4, 8, 16, 32], help="sparsity levels"
    )
    scaling.add_argument(
        "--repeats", type=_positive_int, default=5, help="estimates per grid point"
    )
    scaling.add_argument("--output", default=None, help="also write the rows to this CSV file")

    graph_info = sub.add_parser("graph-info", help="summarize an adjacency edge list")
    graph_info.add_argument("edge_list", help="edge list file")
    return parser


def _cmd_run(args) -> int:
    spec_path = Path(args.spec_file)
    spec = parse_spec(spec_path.read_text(encoding="utf-8"))
    # Relative graph paths are resolved against the experiment file.
    graph = spec.family_params.get("graph")
    if graph is not None and not Path(graph).is_absolute():
        spec.family_params["graph"] = str(spec_path.parent / graph)
    # os.cpu_count() may be None, which means one worker.
    result = run_experiment(spec, output_dir=args.output, jobs=args.jobs or 1)
    print(f"{result.num_runs} runs, {result.num_failures} failed")
    print(f"wrote {result.trace_path}, {result.runs_path}, {result.summary_path}")
    return 1 if result.num_failures else 0


def _cmd_verify() -> int:
    report = verify_theory()
    print(report.render())
    return 0 if report.all_passed else 1


def _cmd_scaling(args) -> int:
    usable = sum(1 for d in args.d for s in args.s if d > 2 * s)
    if usable < 2:
        print(f"error: the correlation needs 2 points with d/s > 2, got {usable}", file=sys.stderr)
        return 2
    rows = query_scaling_probe(args.d, args.s, repeats=args.repeats)
    print(f"{'d':>8} {'s':>6} {'mean-queries':>14} {'predictor':>12}")
    for d, s, mean_queries, predictor in rows:
        print(f"{d:>8} {s:>6} {mean_queries:>14.1f} {predictor:>12.4f}")
    correlation = scaling_correlation(rows)
    print(f"correlation with s*loglog(d/s): {correlation:.4f}")
    if args.output is not None:
        write_scaling_csv(rows, args.output)
        print(f"wrote {args.output}")
    return 0


def _cmd_graph_info(args) -> int:
    graph = load_graph(Path(args.edge_list).read_text(encoding="utf-8"))
    degrees = graph.degrees
    seen = {1}
    frontier = deque([1])
    while frontier:
        vertex = frontier.popleft()
        for neighbor in (graph.adjacency[vertex - 1].nonzero()[0] + 1).tolist():
            if neighbor not in seen:
                seen.add(neighbor)
                frontier.append(neighbor)
    connected = len(seen) == graph.n
    print(f"vertices: {graph.n}")
    print(f"edges: {graph.num_edges}")
    print(
        f"degree min/mean/max: {int(degrees.min())}"
        f"/{float(degrees.mean()):.2f}/{int(degrees.max())}"
    )
    print(f"connected: {'yes' if connected else 'no'}")
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "verify":
            return _cmd_verify()
        if args.command == "scaling":
            return _cmd_scaling(args)
        return _cmd_graph_info(args)
    except (ExperimentSpecError, GraphParseError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
