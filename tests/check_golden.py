"""The shipped golden trace, checked with the standard library alone.

Builds ``scenarios/push_exam.json`` through ``build_platform``, runs it to
quiescence and compares ``render_trace`` byte for byte with
``scenarios/push_exam.golden.jsonl``. The run happens in a fresh temporary
working directory, which the scenario's report store writes into, so a
second run starts from the same empty store and the caller's directory is
left as it was. It needs neither pytest nor click, so any interpreter the
package supports can run it, with the package importable:

    PYTHONPATH=src python tests/check_golden.py

It exits 0 when the bytes match, and otherwise prints the first divergence
and exits 1. Pytest does not collect it (its name does not start with
``test_``); tier-1 checks the same golden through the CLI.
"""

from __future__ import annotations

import os
import sys
import tempfile
from pathlib import Path

from agentry.scenario import _parse_file, build_platform, first_divergence, render_trace

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def golden_divergence(scenario: Path = SCENARIOS / "push_exam.json") -> str | None:
    """None when the scenario's run renders its golden's bytes; otherwise
    the first-divergence report."""
    doc = _parse_file(scenario)
    golden = (scenario.parent / doc["expected"]).read_bytes()
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as scratch:
        os.chdir(scratch)
        try:
            platform = build_platform(doc, base_dir=scenario.parent)
            platform.run()
            text = render_trace(platform)
        finally:
            os.chdir(cwd)
    if text.encode() == golden:
        return None
    return first_divergence(text, golden.decode("utf-8", errors="replace")) or "the bytes differ"


def main() -> int:
    report = golden_divergence()
    version = ".".join(map(str, sys.version_info[:3]))
    if report is None:
        print(f"golden trace matches on Python {version}")
        return 0
    print(f"golden trace differs on Python {version}:\n{report}")
    return 1


if __name__ == "__main__":
    sys.exit(main())
