"""agentry benchmark: one workload, one seed, a fixed measuring time.

    python3 bench/run.py --workload fanin --seed 0 --seconds 30 --trace 0

Each run generates a world from the seed (see ``worlds.py``), then repeats,
until ``--seconds`` have passed: validate and build it through
``agentry.scenario``, run it to quiescence on ``SimPlatform``, render the
JSONL trace and hash it. Only calls into agentry's public functions are
timed. ``--trace 0`` reports the end-to-end metrics of untraced runs;
``--trace 1`` alternates untraced runs with runs under ``probes.Probe`` and
reports the per-layer metrics plus the tracing overhead.

Every run is checked: it must not raise (``run(None)`` raises
``TickBudgetExceeded`` unless the world reaches quiescence within its tick
budget), must render the same bytes as every other run of the seed (and, at
``DEFAULT_SEED``, the recorded digest), and the trace must satisfy the
workload's invariants, which are checked by streaming the JSONL once the
world is released, so the check adds nothing to the peak RSS.
A run that fails any check counts in ``failed``. The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.

Times are host seconds at a reference host speed. A shared host can slow a
whole process down by up to 1.7x for seconds to tens of seconds at a time,
and no median over one run removes that. So every run is bracketed by a
fixed pure-Python calibration loop, and its times are multiplied by
``CALIBRATION_S`` / (the loop's mean time around that run): a slow phase
stretches both alike. The second loop runs once the finished world and its
trace are released. The summary lines before the JSON also show the raw
(unscaled) medians of every time metric.

agentry is imported from the ``src`` directory next to this one, whatever
the working directory is.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import resource
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, Optional

from worlds import WORKLOADS

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
SPANS_DIR = BENCH / "out"

DEFAULT_SEED = 0
# sha256 of the rendered trace at DEFAULT_SEED. A speed-only change keeps them.
RECORDED_DIGESTS = {
    "fanin": "eb9cf8b5e647315c6c6c1cee6fd7360afca23bfedab20a1797dc6ec2f204efb9",
    "fleet": "beef6c1323c660d3cc845372a31215c52a6fa218adcf4b378c22580a84b25b80",
    "fsm_mesh": "973a20a6fcc829c59761595766bb6a9f076edeee407c8ea47b45e1e9a8b76c9f",
}

END_TO_END_UNITS = {
    "setup_s": "s",
    "run_s": "s",
    "total_s": "s",
    "events_per_s": "1/s",
    "peak_rss_mb": "MB",
    "sim_ticks": "ticks",
}
COUNTED_UNITS = ("count", "bytes")

# The calibration loop's fastest time on the reference host (a 2-vCPU VM,
# Python 3.11.7), so scaled times read as seconds on that host when quiet.
CALIBRATION_S = 0.0223


def per_layer_units() -> dict[str, str]:
    from probes import KINDS

    units = {
        "simulator.self_s": "s",
        "simulator.self_share": "fraction",
        "simulator.wake_checks": "count",
        "simulator.wake_checks_per_step": "ratio",
        "simulator.active_ticks": "count",
        "model.serialize_calls": "count",
        "model.serialize_s": "s",
        "model.deserialize_calls": "count",
        "model.deserialize_s": "s",
        "model.blob_bytes": "bytes",
        "model.deserialize_share": "fraction",
        "behavior.steps": "count",
        "behavior.step_s": "s",
        "behavior.idle_steps": "count",
        "behavior.idle_step_ratio": "fraction",
        "trace.events": "count",
        "trace.emit_s": "s",
        "trace.render_s": "s",
        "trace.bytes": "bytes",
        "scenario.validate_s": "s",
        "scenario.build_s": "s",
        "bench.tracing_overhead_s": "s",
    }
    for kind in KINDS:
        units[f"behavior.{kind}.steps"] = "count"
        units[f"behavior.{kind}.self_s"] = "s"
    return units


def use_repo_src() -> None:
    """Make ``import agentry`` resolve to this checkout's ``src``."""
    if not (SRC / "agentry" / "__init__.py").is_file():
        raise SystemExit(f"agentry sources not found at {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import agentry

    if Path(agentry.__file__).resolve().parent != SRC / "agentry":
        raise SystemExit(f"imported agentry from {agentry.__file__}, expected {SRC}")


class _Slot:
    __slots__ = ("done", "tick")

    def __init__(self, tick: int) -> None:
        self.done = False
        self.tick = tick


class _Record:
    __slots__ = ("status", "slots")

    def __init__(self, i: int) -> None:
        self.status = i % 3
        self.slots = [_Slot(i), _Slot(i + 1)]


def calibrate() -> float:
    """Seconds taken by a fixed pure-Python loop shaped like the simulator's
    scans: build a dict of 8000 records holding slot lists, then walk it 24
    times, reading attributes and making isinstance checks. The collector is
    off meanwhile, so whatever is left on the heap does not count."""
    records = 8000
    gc.disable()
    try:
        start = time.perf_counter()
        table = {}
        for i in range(records):
            table[(i * 7919) % records] = _Record(i)
        total = 0
        for _ in range(24):
            for record in table.values():
                if record.status:
                    for slot in record.slots:
                        if not slot.done and isinstance(slot.tick, int):
                            total += slot.tick
        return time.perf_counter() - start
    finally:
        gc.enable()


@dataclass
class Run:
    setup_s: float
    run_s: float
    total_s: float
    events: int
    ticks: int
    digest: str
    trace_bytes: int
    event_ticks: set[int]
    text: str  # the rendered trace; emptied once verified
    scale: float = 1.0  # CALIBRATION_S / the calibration time around this run


def set_up(doc: dict, span: Callable[..., Any]) -> Any:
    """Validate and build the world; the platform is ready to run."""
    from agentry.scenario import build_platform, validate_scenario_doc

    problems = span("validate", validate_scenario_doc, doc)
    if problems:
        raise ValueError(f"generated world is invalid: {problems[:3]}")
    return span("build", build_platform, doc)


def one_run(doc: dict, span: Callable[..., Any]) -> Run:
    """Set up, run to quiescence, render and hash one world.
    ``span(name, fn, *args)`` calls ``fn``; a Probe's span also records it."""
    from agentry.scenario import render_trace

    t0 = time.perf_counter()
    platform = set_up(doc, span)
    t1 = time.perf_counter()
    span("run", platform.run, None)
    t2 = time.perf_counter()
    text = span("render", render_trace, platform)
    data = text.encode()
    digest = hashlib.sha256(data).hexdigest()
    t3 = time.perf_counter()
    trace = platform.trace()
    ticks = {event.tick for event in trace}
    return Run(t1 - t0, t2 - t1, t3 - t0, len(trace), platform.now(), digest, len(data), ticks, text)


def _untraced_span(name: str, fn: Callable[..., Any], *args: Any) -> Any:
    return fn(*args)


def execute(doc: dict, probe: Any) -> Optional[Run]:
    """One run, under ``probe`` if given; None when agentry raised. The
    finished world is released on return; only its trace text is kept."""
    try:
        if probe is None:
            return one_run(doc, _untraced_span)
        probe.install()
        try:
            return one_run(doc, probe.span)
        finally:
            probe.uninstall()
    except Exception as exc:  # any failure of the program counts; the benchmark goes on
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return None


def trace_events(text: str) -> Iterator[dict]:
    """The events of a rendered trace, parsed one line at a time; the first
    line is the header."""
    start = text.index("\n") + 1
    while start < len(text):
        end = text.find("\n", start)
        if end < 0:
            end = len(text)
        yield json.loads(text[start:end])
        start = end + 1


class Verifier:
    """Judges each run of one world: byte-identical to the first run (and to
    the recorded digest at the default seed), and, checked once on that first
    trace, the workload's invariants."""

    def __init__(self, doc: dict, check: Callable[[dict, Iterable[dict]], list[str]], expected: Optional[str]):
        self.doc = doc
        self.check = check
        self.expected = expected
        self.reference: Optional[tuple[str, int, int]] = None
        self.broken: list[str] = []

    def __call__(self, run: Run) -> list[str]:
        problems = []
        key = (run.digest, run.events, run.ticks)
        if self.reference is None:
            self.reference = key
            self.broken = self.check(self.doc, trace_events(run.text))
            if self.expected is not None and run.digest != self.expected:
                self.broken.append(f"trace digest {run.digest} differs from the recorded {self.expected}")
        elif key != self.reference:
            problems.append("trace, event count or ticks differ from the first run of this seed")
        return problems + self.broken


def measured(doc: dict, probe: Any, verify: Verifier) -> tuple[Optional[Run], list[str]]:
    """One run between two calibration loops, verified. Returns the run (its
    text emptied, its ``scale`` set) and its problems. The second loop starts
    once nothing of the run but its numbers is left."""
    gc.collect()
    before = calibrate()
    run = execute(doc, probe)
    problems = ["raised"] if run is None else verify(run)
    if run is not None:
        run.text = ""
    after = calibrate()
    if run is not None:
        run.scale = CALIBRATION_S / ((before + after) / 2)
    return run, problems


def benchmark(workload: str, seed: int, seconds: float, traced: bool) -> dict:
    """Measure one workload; return the result object (see module docstring).

    Untraced, runs repeat until ``seconds`` have passed (at least two, so
    determinism is checked). Traced, a first run counts wake checks, then
    untraced runs alternate with timed-probe runs."""
    from probes import COUNT_WAKES, TIMED, Probe

    generate, check = WORKLOADS[workload]
    doc = generate(seed)
    verify = Verifier(doc, check, RECORDED_DIGESTS[workload] if seed == DEFAULT_SEED else None)
    units = per_layer_units()
    plain: list[Run] = []
    probed: list[tuple[Run, dict]] = []
    wake_checks: Optional[int] = None
    last_probe: Optional[Probe] = None
    attempted = failed = 0
    deadline = time.perf_counter() + seconds
    while True:
        if traced and attempted == 0:
            probe = Probe(COUNT_WAKES)
        elif traced and len(probed) < len(plain):
            probe = Probe(TIMED)
        else:
            probe = None
        attempted += 1
        run, problems = measured(doc, probe, verify)
        if not problems and probe is not None and probe.groups == TIMED:
            layer = probe.metrics(wake_checks, run.event_ticks, run.trace_bytes, run.events)
            if probed and layer_counts(layer, units) != layer_counts(probed[0][1], units):
                problems.append("layer counts differ between traced runs")
        for problem in problems[:5]:
            print(f"run {attempted}: {problem}", file=sys.stderr)
        if problems:
            failed += 1
        elif probe is None:
            plain.append(run)
        elif probe.groups == COUNT_WAKES:
            wake_checks = None if "wake" in probe.missing else probe.wake_checks
        else:
            probed.append((run, layer))
            last_probe = probe
        enough = len(plain) >= (1 if traced else 2) and (not traced or bool(probed))
        if time.perf_counter() >= deadline and (enough or failed):
            break

    metrics: dict[str, Any] = {}
    if traced and plain and probed:
        metrics = per_layer_metrics(plain, probed, units)
        write_spans(last_probe, workload, seed)
    elif not traced and plain:
        metrics = end_to_end_metrics(plain)
    return {
        "correct": failed == 0 and bool(metrics),
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "samples": {
            "untraced": len(plain),
            "traced": len(probed),
            "raw": {
                name: statistics.median(getattr(r, name) for r in plain) if plain else None
                for name in ("setup_s", "run_s", "total_s", "scale")
            },
        },
    }


def layer_counts(layer: dict, units: dict[str, str]) -> dict:
    """The metrics of one traced run that must repeat exactly."""
    return {name: value for name, value in layer.items() if units[name] in COUNTED_UNITS}


def end_to_end_metrics(runs: list[Run]) -> dict[str, dict]:
    median = statistics.median
    values = {
        "setup_s": median([r.setup_s * r.scale for r in runs]),
        "run_s": median([r.run_s * r.scale for r in runs]),
        "total_s": median([r.total_s * r.scale for r in runs]),
        "events_per_s": median([r.events / (r.run_s * r.scale) for r in runs]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "sim_ticks": runs[0].ticks,
    }
    return {name: {"value": value, "unit": END_TO_END_UNITS[name]} for name, value in values.items()}


def per_layer_metrics(plain: list[Run], probed: list[tuple[Run, dict]], units: dict[str, str]) -> dict[str, dict]:
    """Counts from the first traced run (they repeat exactly), medians of
    everything else. Absent metrics are left out."""
    first = probed[0][1]
    values: dict[str, float] = {}
    for name, value in first.items():
        if value is None:
            continue
        if units[name] in COUNTED_UNITS:
            values[name] = value
        else:
            scaled = units[name] == "s"
            values[name] = statistics.median(layer[name] * (r.scale if scaled else 1.0) for r, layer in probed)
    values["bench.tracing_overhead_s"] = statistics.median(r.total_s * r.scale for r, _ in probed) - statistics.median(
        r.total_s * r.scale for r in plain
    )
    return {name: {"value": value, "unit": units[name]} for name, value in values.items()}


def write_spans(probe: Any, workload: str, seed: int) -> None:
    """Write the last traced run's spans, one JSON array per line:
    [name, start, end, parent index]."""
    SPANS_DIR.mkdir(exist_ok=True)
    path = SPANS_DIR / f"spans-{workload}-seed{seed}.jsonl"
    with path.open("w") as out:
        for span in probe.spans:
            out.write(json.dumps(span) + "\n")


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    use_repo_src()
    result = benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    samples = result.pop("samples")
    print(
        f"{args.workload} seed={args.seed} trace={args.trace}: {samples['untraced']} untraced and "
        f"{samples['traced']} traced runs, failed_frac={result['failed'] / result['attempted']:.3f} "
        f"({result['failed']}/{result['attempted']})"
    )
    raw = samples["raw"]
    if raw["scale"] is not None:
        print(
            f"  untraced raw medians: setup_s {raw['setup_s']:.6g} s, run_s {raw['run_s']:.6g} s, "
            f"total_s {raw['total_s']:.6g} s; speed scale median {raw['scale']:.4f}"
        )
    units = per_layer_units() if args.trace else END_TO_END_UNITS
    for name in units:
        metric = result["metrics"].get(name)
        if metric is None:
            shown = "absent"
        else:
            value = metric["value"]
            shown = f"{value:.6g} {metric['unit']}" if isinstance(value, float) else f"{value} {metric['unit']}"
        print(f"  {name:34} {shown}")
    print(json.dumps(result))
    return 0 if result["metrics"] else 1


if __name__ == "__main__":
    sys.exit(main())
