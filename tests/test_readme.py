"""README.md's quick start runs and prints what its prose says."""

import json
import re
from pathlib import Path

README = Path(__file__).parent.parent / "README.md"


def test_the_readme_quick_start_prints_the_trace_its_prose_describes(capsys):
    block = re.search(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    exec(compile(block.group(1), str(README), "exec"), {})
    events = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    ticks = {event["kind"]: event["tick"] for event in events}
    assert (ticks["migrate_start"], ticks["migrate_end"], ticks["objective_reached"]) == (0, 2, 5)
    reached = next(event for event in events if event["kind"] == "objective_reached")
    assert reached["detail"]["class"] == "early"
