"""One harness for the seeded differential generators.

Each generator builds an input from a seed and runs it through two pieces of
code that must agree on it. ``GENERATORS`` registers each one once: a check
``(seed) -> list of problems``, its tier-1 seeds and the further seeds that
``python tests/test_differential.py`` runs (CI does, once). The check and its
tier-1 seeds live beside the generator, in the module whose test runs the
check on each tier-1 seed. The script prints the failing seeds per generator
and exits 1 if any seed fails.

Why each generator exists:

* ``sim_mock``: ``MockPlatform`` is a deliberately naive second runtime, so
  the simulator's scheduling shortcuts are checked against it on random
  worlds of sends, timers, AnyOf wakes, migrations, spawns, attaches and a
  pause, under fixed latencies that may be zero. Each trace must also keep
  ``check_trace``'s rules and render the runtime's own events through their
  templates.
* ``outside_calls``: the same, driven only by calls from outside (runs to
  past or present ticks, spawns, attaches, sends, moves), where the two
  runtimes' bookkeeping between runs must also agree.
* ``fsm_wait``: an ``Fsm`` waits in the step that entered its state; a
  polling ``Fsm`` is the reference for its trace and states.
* ``document_fuzz``: validation and the build read a scenario document the
  same way, so a clean document builds and runs and a broken one raises
  exactly the problems validation lists. A clean one, with its latencies
  fixed, also runs the same on the mock. Its module imports only the
  standard library and agentry, so CI also runs it alone, with ``python -S``,
  on every interpreter.
* ``route_decode``: ``Route.from_jsonable``'s fast path against the
  per-objective reference decode, diagnostics included.
* ``decode_exact``: every decoder uses each value it accepts as written, on
  behaviors, messages and shells taken from running worlds and on a sample
  of each record outside grading, with one field replaced by junk, deleted
  or wrapped.
* ``construct_round_trip``: a constructor accepts exactly what its decoder
  accepts, so a record (its classes and fields taken from the columns), or
  ``Route`` or ``DelayEstimator``, which read by hand, built with one
  argument set to JSON junk, either raises where it is built or reads back
  equal after a trip through JSON.
* ``config_accepts``: a latency model or ``SimConfig`` accepts exactly the
  config fields scenario validation accepts, so a spec with one field set to
  JSON junk raises where it is built exactly when validation reports its
  path, and otherwise builds the config the scenario reads.
* ``render_templates``: ``TraceLog.to_jsonl`` renders the runtime's own
  detail shapes through templates, which must give the bytes ``_json_line``
  gives, on exact shapes, near misses and strings that need escaping. Its
  module imports only the standard library and agentry, so CI also runs it
  alone, with ``python -S``, on every interpreter.
* ``blob_text``: ``serialize_shell`` writes a blob as text from the records'
  columns, which must give the bytes of the shell's dict form through
  ``canonical_json``, or its error, on nested trees of every behavior kind,
  hand-written and subclassed behaviors, junk stored after construction,
  escape-heavy strings, big ints, refused states and trees, and stop tasks
  whose params change after a write. Its module imports only the standard
  library and agentry, so CI also runs it alone, with ``python -S``, on
  every interpreter.

To register a generator, write beside it a check that calls it on a seed and
lists what disagrees, a range of tier-1 seeds from 0 and a test parametrized
over them that asserts the check lists nothing; then add one entry here with
the CI seeds that continue them.
"""

import sys
from typing import Callable, NamedTuple

import blob_text
import document_fuzz
import render_templates
import test_composites
import test_itinerary
import test_model
import test_simulator


class Generator(NamedTuple):
    check: Callable[[int], list]
    tier1: range
    ci: range


GENERATORS = {
    "sim_mock": Generator(test_simulator.generated_worlds_agree, test_simulator.GENERATED_WORLD_SEEDS, range(120, 1620)),
    "outside_calls": Generator(test_simulator.outside_calls_agree, test_simulator.OUTSIDE_CALLS_SEEDS, range(150, 2150)),
    "fsm_wait": Generator(test_composites.fsm_rules_agree, test_composites.FSM_WAIT_SEEDS, range(200, 2200)),
    "document_fuzz": Generator(document_fuzz.document_holds, document_fuzz.TIER1_SEEDS, document_fuzz.CI_SEEDS),
    "route_decode": Generator(test_itinerary.route_decodes_as_the_reference, test_itinerary.ROUTE_SEEDS, range(200, 2200)),
    "decode_exact": Generator(test_model.decodes_as_written, test_model.DECODE_SEEDS, range(200, 2200)),
    "construct_round_trip": Generator(test_model.constructs_round_trip, test_model.CONSTRUCT_SEEDS, range(200, 2200)),
    "config_accepts": Generator(test_model.config_accepts, test_model.CONFIG_SEEDS, range(200, 2200)),
    "render_templates": Generator(render_templates.templates_render_as_json_line, render_templates.TIER1_SEEDS, render_templates.CI_SEEDS),
    "blob_text": Generator(blob_text.blob_text_holds, blob_text.TIER1_SEEDS, blob_text.CI_SEEDS),
}


def main(generators=GENERATORS):
    """Check every generator on its CI seeds. Print each generator's failing
    seeds, with the first one's problems, and return 1 if any seed failed."""
    failed = False
    for name, generator in generators.items():
        failures = {}
        for seed in generator.ci:
            try:
                problems = generator.check(seed)
            except Exception as exc:
                problems = [f"{type(exc).__name__}: {exc}"]
            if problems:
                failures[seed] = problems
        seeds = f"seeds {generator.ci.start}-{generator.ci.stop - 1}"
        if failures:
            failed = True
            first = next(iter(failures))
            print(f"{name}: {len(failures)} of {len(generator.ci)} {seeds} fail: {list(failures)}")
            print(f"  seed {first}: {'; '.join(failures[first])}")
        else:
            print(f"{name}: {seeds} hold")
    return 1 if failed else 0


def test_the_ci_seeds_continue_the_tier_1_seeds():
    for g in GENERATORS.values():
        assert g.tier1.start == 0 and g.ci.start == g.tier1.stop
        assert not set(g.tier1) & set(g.ci)
    covered = {name: sorted([*g.tier1, *g.ci]) for name, g in GENERATORS.items()}
    assert covered == {
        "sim_mock": list(range(1620)),
        "outside_calls": list(range(2150)),
        "fsm_wait": list(range(2200)),
        "document_fuzz": list(range(2200)),
        "route_decode": list(range(2200)),
        "decode_exact": list(range(2200)),
        "construct_round_trip": list(range(2200)),
        "config_accepts": list(range(2200)),
        "render_templates": list(range(2200)),
        "blob_text": list(range(2200)),
    }


def test_the_report_names_each_failing_generator_and_its_seeds(capsys):
    def fails_on_3_and_7(seed):
        if seed == 7:
            raise RuntimeError("boom")
        return ["wrong"] if seed == 3 else []

    holds = Generator(lambda seed: [], range(0), range(10))
    assert main({"holds": holds, "fake": Generator(fails_on_3_and_7, range(0), range(10))}) == 1
    assert capsys.readouterr().out.splitlines() == [
        "holds: seeds 0-9 hold",
        "fake: 2 of 10 seeds 0-9 fail: [3, 7]",
        "  seed 3: wrong",
    ]
    assert main({"holds": holds}) == 0


if __name__ == "__main__":
    sys.exit(main())
