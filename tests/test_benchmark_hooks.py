"""The benchmark's hooks into the package still resolve and still trace.

``perfbench/tracing.py`` patches ``(module, attribute)`` pairs of the package
and ``perfbench/run.py`` calls ``uavplace.cli`` names directly, so a rename
in the package would otherwise surface only when the benchmark runs.
"""

import importlib.util
from pathlib import Path

import uavplace.cli as cli

from test_cli import BASE_SCENARIO

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_simulate_records_spans(tmp_path, capsys):
    scenario = tmp_path / "s.ini"
    scenario.write_text(BASE_SCENARIO.replace("trials = 3", "trials = 1"))
    tracer = load_tracing().Tracer()
    with tracer.installed():
        code = cli.main(["simulate", "--scenario", str(scenario), "--out", str(tmp_path / "out")])
    assert code == 0
    totals = tracer.totals()
    assert totals["cli.main"]["calls"] == 1
    assert totals["placement.solve_exact"]["calls"] > 0
    assert callable(cli.altitude_bracket)  # the benchmark's setup probe calls it
    assert callable(cli.load_scenario) and callable(cli.run_trials)
