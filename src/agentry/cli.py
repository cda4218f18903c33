"""Command line entry points, ``agentry run`` and ``agentry validate``, on
the standard library's argparse. Exit codes: 0 clean quiescence, 1
golden-trace mismatch, 2 tick budget exceeded, 3 validation failure or
usage error. The golden comparison only applies when the run actually uses
the scenario's own seed; overriding the seed changes latency draws, so
comparing would only measure the override.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path
from typing import NoReturn, Optional, Union

from .errors import ScenarioError, TickBudgetExceeded
from .scenario import (
    _parse_file,
    _resolve,
    build_platform,
    effective_seed,
    first_divergence,
    render_trace,
    validate_scenario,
)

EXIT_OK = 0
EXIT_GOLDEN_MISMATCH = 1
EXIT_TICK_BUDGET = 2
EXIT_INVALID = 3

TRACE_DIR_ENV = "AGENTRY_TRACE_DIR"


def run_scenario(
    path: Union[str, Path],
    *,
    seed: Optional[int] = None,
    trace_out: Optional[Union[str, Path]] = None,
    until: Optional[int] = None,
) -> int:
    """Run one scenario file to tick ``until``, or to quiescence when it is
    None, and return the process exit code.

    The trace file is written before the golden comparison, so a scenario
    whose ``expected`` points at its own ``--trace`` output establishes the
    golden on the first verified run.
    """
    path = Path(path)
    try:
        doc = _parse_file(path)
        platform = build_platform(doc, seed=seed, base_dir=path.parent)
    except ScenarioError as exc:
        for problem in exc.problems:
            print(problem, file=sys.stderr)
        return EXIT_INVALID
    code = EXIT_OK
    try:
        platform.run(until)
    except TickBudgetExceeded as exc:
        print(f"tick budget exceeded: {exc}", file=sys.stderr)
        code = EXIT_TICK_BUDGET
    text = render_trace(platform)
    if trace_out is not None:
        out = Path(trace_out)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_bytes(text.encode())  # no newline translation on any OS
    same_seed = effective_seed(doc, seed) == effective_seed(doc)
    if code == EXIT_OK and doc.get("expected") and same_seed:
        golden_path = _resolve(doc["expected"], path.parent)
        golden = ""
        if golden_path.exists():
            # Bytes, not read_text(): universal newlines would read a CRLF
            # golden as the LF trace it is not.
            golden = golden_path.read_bytes().decode("utf-8", errors="replace")
        report = first_divergence(text, golden)
        if report is not None:
            if not golden_path.exists():
                print(f"golden trace file not found: {golden_path}", file=sys.stderr)
            print(report, file=sys.stderr)
            code = EXIT_GOLDEN_MISMATCH
    return code


class _Parser(argparse.ArgumentParser):
    """Exits EXIT_INVALID on a usage error, not argparse's 2 (the tick-budget code)."""

    def error(self, message: str) -> NoReturn:
        self.exit(EXIT_INVALID, f"{self.prog}: error: {message}\n")


def main() -> None:
    """Deterministic multi-location agent simulations."""
    parser = _Parser(prog="agentry", description=main.__doc__, allow_abbrev=False)
    commands = parser.add_subparsers(dest="command", required=True)
    run = commands.add_parser("run", allow_abbrev=False, help="Build the scenario's world and run it.")
    run.add_argument("scenario")
    run.add_argument("--seed", type=int, help="Override the scenario's seed.")
    run.add_argument("--trace", help="Write the run's trace to this file.")
    run.add_argument("--until", default="quiescent", help="Stop at this tick, or run to quiescence (default: quiescent).")
    validate = commands.add_parser("validate", allow_abbrev=False, help="Check a scenario file and report every problem found.")
    validate.add_argument("scenario")
    args = parser.parse_args()
    if args.command == "run":
        try:
            tick = None if args.until == "quiescent" else int(args.until)
        except ValueError:
            tick = -1
        if tick is not None and tick < 0:
            run.exit(EXIT_INVALID, f"--until must be a non-negative tick count or 'quiescent', got {args.until!r}\n")
        if args.seed is not None and args.seed < 0:  # SimConfig's rule for a seed
            run.exit(EXIT_INVALID, f"--seed must be an integer of at least 0, got {args.seed}\n")
        trace_out = args.trace
        if trace_out is None and os.environ.get(TRACE_DIR_ENV):
            trace_out = str(Path(os.environ[TRACE_DIR_ENV]) / (Path(args.scenario).stem + ".trace.jsonl"))
        sys.exit(run_scenario(args.scenario, seed=args.seed, trace_out=trace_out, until=tick))
    problems = validate_scenario(args.scenario)
    for problem in problems:
        print(problem, file=sys.stderr)
    if problems:
        sys.exit(EXIT_INVALID)
    print("ok")


if __name__ == "__main__":
    main()
