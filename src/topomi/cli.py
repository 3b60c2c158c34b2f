"""Batch front-end: analyze scenario files, run suites, query graphs and codes.

Exit codes: 0 on success, 1..255 = number of failed scenarios (capped),
64 on usage errors.  JSON output is byte-identical across runs; timings
only appear in the human-readable summary.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import engine
from .engine import CssFamily, entanglement_vector
from .errors import TopomiError
from .model import EntropyModel
from .scenarios import (
    evaluate_scenario,
    gallery_dir,
    load_scenario,
    run_scenario,
    run_suite,
    scenario_css,
    suite_paths,
)

USAGE_EXIT = 64


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(USAGE_EXIT)


def _dump_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _model_from_args(args) -> EntropyModel:
    return EntropyModel(quantum_dimension=args.dimension, log_base=args.log_base)


def _add_model_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--log-base", choices=("e", "2"), default="e",
                        help="units for reported entropies (default: e)")
    parser.add_argument("--dimension", type=float, default=2.0,
                        help="total quantum dimension D (default: 2)")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="topomi",
                     description="multipartite information of planar subsystem collections")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="run a single scenario file")
    p.add_argument("file", type=Path)
    _add_model_options(p)
    p.add_argument("--csv", type=Path, default=None,
                   help="write the per-subset J table as CSV (analytic payloads)")

    p = sub.add_parser("suite", help="run every scenario in a directory")
    p.add_argument("dir", type=Path, nargs="?", default=None,
                   help="scenario directory (default: the built-in gallery)")

    p = sub.add_parser("rho", help="induced-subgraph invariant of a graph file")
    p.add_argument("file", type=Path)

    p = sub.add_parser("stabilizer", help="exact code oracle on a lattice scenario")
    p.add_argument("file", type=Path)

    p = sub.add_parser("vector", help="entanglement vector of an annular family directory")
    p.add_argument("dir", type=Path)
    _add_model_options(p)

    for p in sub.choices.values():
        p.add_argument("--json", action="store_true", help="emit a JSON report")
    return parser


def _print_result(result, as_json: bool) -> None:
    if as_json:
        payload = {"schema": engine.SCHEMA, **result.to_json_dict(), "report": result.report}
        sys.stdout.write(_dump_json(payload))
        return
    status = "PASS" if result.passed else "FAIL"
    print(f"{status} {result.name} [{result.kind}] ({result.elapsed * 1000:.1f} ms)")
    for c in result.checks:
        mark = "ok " if c.passed else "FAIL"
        print(f"  {mark} {c.label}: {c.detail}")


def _cmd_analyze(args) -> int:
    scn = load_scenario(args.file)
    result, analysis = evaluate_scenario(scn, _model_from_args(args))
    if args.csv is not None:
        if scn.kind != "analytic":
            print("--csv applies to analytic scenarios only", file=sys.stderr)
        elif analysis is None:
            print("no CSV written: the grid did not parse", file=sys.stderr)
        else:
            from .masks import write_subset_table_csv

            j_table = analysis.tables.j_table  # TooManySubsystems before any file is opened
            with open(args.csv, "w", encoding="utf-8", newline="") as fh:
                write_subset_table_csv(j_table, fh)
    _print_result(result, args.json)
    return 0 if result.passed else 1


def _cmd_suite(args) -> int:
    directory = args.dir if args.dir is not None else gallery_dir()
    suite = run_suite(directory)
    if args.json:
        sys.stdout.write(_dump_json(suite.to_json_dict()))
    else:
        width = max((len(r.name) for r in suite.results), default=4)
        for r in suite.results:
            status = "PASS" if r.passed else "FAIL"
            print(f"{status} {r.name:<{width}} [{r.kind}] ({r.elapsed * 1000:7.1f} ms)")
            if not r.passed:
                for c in r.failures():
                    print(f"      FAIL {c.label}: {c.detail}")
        print(f"{len(suite.results) - suite.n_failed}/{len(suite.results)} scenarios passed")
    return min(suite.n_failed, 255)


def _cmd_rho(args) -> int:
    result = run_scenario(load_scenario(args.file, "graph"))
    if not result.passed:
        _print_result(result, args.json)
        return 1
    report = result.report
    if args.json:
        sys.stdout.write(_dump_json({key: report[key] for key in ("schema", "v", "edges", "rho")}))
    else:
        print(f"rho = {report['rho']} (v = {report['v']}, edges = {len(report['edges'])})")
    return 0


def _cmd_stabilizer(args) -> int:
    result = run_scenario(load_scenario(args.file, "stabilizer"))
    _print_result(result, args.json)
    return 0 if result.passed else 1


def _cmd_vector(args) -> int:
    model = _model_from_args(args)
    paths = suite_paths(args.dir)
    if not paths:
        print(f"error: no grid files found in {args.dir}", file=sys.stderr)
        return 1
    members = tuple(scenario_css(load_scenario(p, "analytic")) for p in paths)
    members = tuple(sorted(members, key=lambda css: css.n_subsystems))
    family = CssFamily(members)
    vec = entanglement_vector(model, family)
    if args.json:
        sys.stdout.write(_dump_json({
            "schema": engine.SCHEMA,
            "sizes": list(range(3, family.max_n + 1)),
            "magnitudes": list(vec.magnitudes),
            "normalized": list(vec.normalized),
            "is_zero": vec.is_zero,
        }))
    else:
        print("p:         ", "  ".join(str(p) for p in range(3, family.max_n + 1)))
        print("normalized:", "  ".join(f"{x:.6f}" for x in vec.normalized))
        if vec.is_zero:
            print("all magnitudes zero (trivial phase); vector left unnormalized")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "analyze": _cmd_analyze,
        "suite": _cmd_suite,
        "rho": _cmd_rho,
        "stabilizer": _cmd_stabilizer,
        "vector": _cmd_vector,
    }
    try:
        return handlers[args.command](args)
    except TopomiError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:  # the --csv output file
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
