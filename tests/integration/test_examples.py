"""Smoke tests: every shipped example must run clean, end to end.

Examples are documentation that executes; a broken example is a broken
README.  Each test imports the script as a module and calls its
``main()``, capturing stdout to assert it told its story.
"""

import importlib.util
import sys
from pathlib import Path


EXAMPLES_DIR = Path(__file__).resolve().parents[2] / "examples"


def run_example(name, capsys):
    path = EXAMPLES_DIR / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"example_{name}", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
        module.main()
    finally:
        sys.modules.pop(spec.name, None)
    return capsys.readouterr().out


def test_quickstart(capsys):
    out = run_example("quickstart", capsys)
    assert "Final metrics" in out
    assert "Budget check" in out


def test_ahp_walkthrough(capsys):
    out = run_example("ahp_walkthrough", capsys)
    assert "Consistency ratio" in out
    assert "0.648" in out


def test_task_selection_demo(capsys):
    out = run_example("task_selection_demo", capsys)
    assert "brute-force" in out
    assert "DP matches brute force" in out


def test_noise_mapping(capsys):
    out = run_example("noise_mapping", capsys)
    assert "starved tasks" in out
    assert "on-demand" in out


def test_mechanism_comparison(capsys):
    out = run_example("mechanism_comparison", capsys)
    assert "fig6a" in out
    assert "steered" in out


def test_budget_recycling(capsys):
    out = run_example("budget_recycling", capsys)
    assert "adaptive" in out
    assert "peak price" in out


def test_event_sensing(capsys):
    out = run_example("event_sensing", capsys)
    assert "Event day" in out
    assert "adaptive" in out


def test_city_scale(capsys):
    out = run_example("city_scale", capsys)
    assert "distances=float32" in out
    assert "replay agrees: True" in out


def test_policy_rollout(capsys):
    out = run_example("policy_rollout", capsys)
    assert "session == simulate" in out
    assert "best constant action" in out
    assert "tuned policy" in out


def test_every_example_has_a_smoke_test():
    """Adding an example without a smoke test should fail loudly here."""
    examples = {p.stem for p in EXAMPLES_DIR.glob("*.py")}
    tested = {
        name[len("test_"):]
        for name, obj in globals().items()
        if name.startswith("test_") and callable(obj)
    }
    assert examples <= tested, f"untested examples: {sorted(examples - tested)}"
