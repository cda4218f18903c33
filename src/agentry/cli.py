"""Command line entry points: ``agentry run`` and ``agentry validate``.

Exit codes: 0 clean quiescence, 1 golden-trace mismatch, 2 tick budget
exceeded, 3 validation failure. The golden comparison only applies when the
run actually uses the scenario's own seed; overriding the seed changes
latency draws, so comparing would only measure the override.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path
from typing import Optional, Union

import click

from .errors import ScenarioError, TickBudgetExceeded
from .scenario import (
    _resolve,
    build_platform,
    effective_seed,
    first_divergence,
    load_scenario,
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
    until: Union[int, str] = "quiescent",
) -> int:
    """Run one scenario file and return the process exit code.

    The trace file is written before the golden comparison, so a scenario
    whose ``expected`` points at its own ``--trace`` output establishes the
    golden on the first verified run.
    """
    path = Path(path)
    try:
        doc = load_scenario(path)
    except ScenarioError as exc:
        for problem in exc.problems:
            print(problem, file=sys.stderr)
        return EXIT_INVALID
    platform = build_platform(doc, seed=seed, base_dir=path.parent)
    code = EXIT_OK
    try:
        platform.run(None if until == "quiescent" else int(until))
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


@click.group()
def main() -> None:
    """Deterministic multi-location agent simulations."""


@main.command()
@click.argument("scenario", type=click.Path())
@click.option("--seed", type=int, default=None, help="Override the scenario's seed.")
@click.option("--trace", "trace_out", type=click.Path(), default=None, help="Write the run's trace to this file.")
@click.option("--until", default="quiescent", show_default=True, help="Stop at this tick, or run to quiescence.")
def run(scenario: str, seed: Optional[int], trace_out: Optional[str], until: str) -> None:
    """Build the scenario's world and run it."""
    if until != "quiescent":
        try:
            tick = int(until)
        except ValueError:
            tick = -1
        if tick < 0:
            click.echo(f"--until must be a non-negative tick count or 'quiescent', got {until!r}", err=True)
            sys.exit(EXIT_INVALID)
        until = tick  # type: ignore[assignment]
    if trace_out is None and os.environ.get(TRACE_DIR_ENV):
        trace_out = str(Path(os.environ[TRACE_DIR_ENV]) / (Path(scenario).stem + ".trace.jsonl"))
    sys.exit(run_scenario(scenario, seed=seed, trace_out=trace_out, until=until))


@main.command()
@click.argument("scenario", type=click.Path())
def validate(scenario: str) -> None:
    """Check a scenario file and report every problem found."""
    problems = validate_scenario(scenario)
    if problems:
        for problem in problems:
            click.echo(problem, err=True)
        sys.exit(EXIT_INVALID)
    click.echo("ok")


if __name__ == "__main__":
    main()
