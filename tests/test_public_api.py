"""Public-API stability: what `import repro` promises.

Downstream code imports from the top-level package; this test pins that
surface so an accidental rename shows up as a failing test, not a user's
broken script.
"""

import ast
from pathlib import Path

import repro


EXPECTED_EXPORTS = {
    # simulation
    "SimulationConfig", "SimulationEngine", "simulate",
    # metrics
    "MetricsSummary",
    # core
    "OnDemandMechanism", "FixedMechanism", "SteeredMechanism",
    "ProportionalDemandMechanism", "create_mechanism",
    "PairwiseComparisonMatrix", "DemandWeights", "DemandCalculator",
    "DemandLevels", "RewardSchedule",
    # selection
    "DynamicProgrammingSelector", "GreedySelector", "GreedyTwoOptSelector",
    "BruteForceSelector", "create_selector",
    # world / geometry
    "World", "WorldGenerator", "SensingTask", "MobileUser",
    "Point", "RectRegion",
    # sessions / envs / server
    "open_session", "SimulationSession", "SessionObservation",
    "round_fingerprint", "result_fingerprint",
    "make_env", "IncentiveEnv", "PolicyMechanism",
    "connect", "ServerClient",
}


def test_session_quickstart_from_readme():
    """The README's session/env quickstart must actually run."""
    from repro import SimulationConfig, open_session, result_fingerprint, simulate

    config = SimulationConfig(n_users=10, n_tasks=4, rounds=3,
                              required_measurements=2, area_side=1200.0,
                              budget=100.0, seed=7)
    with open_session(config) as session:
        while not session.finished:
            session.step()
        stepped = session.result()
    assert result_fingerprint(stepped) == result_fingerprint(simulate(config))


def test_all_expected_exports_present():
    missing = EXPECTED_EXPORTS - set(repro.__all__)
    assert not missing, f"missing from repro.__all__: {sorted(missing)}"


def test_every_export_resolves():
    for name in repro.__all__:
        assert getattr(repro, name, None) is not None, name


def test_version_is_pep440ish():
    parts = repro.__version__.split(".")
    assert len(parts) >= 2
    assert all(part.isdigit() for part in parts[:2])


def test_quickstart_snippet_from_readme():
    """The README's quickstart must actually run."""
    from repro import MetricsSummary, SimulationConfig, simulate

    result = simulate(SimulationConfig(
        n_users=10, n_tasks=4, rounds=4, required_measurements=2,
        area_side=1200.0, budget=100.0, seed=42,
    ))
    summary = MetricsSummary.from_result(result)
    assert 0.0 <= summary.coverage <= 1.0


def _imported_modules(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module or ""


def test_library_never_imports_the_test_tree():
    """Test helpers (fault injectors, oracles) live under tests/; the
    library must run without them."""
    root = Path(repro.__file__).parent
    sources = sorted(root.rglob("*.py"))
    assert len(sources) > 50
    offenders = [
        f"{path.relative_to(root)}: {module}"
        for path in sources
        for module in _imported_modules(ast.parse(path.read_text(), str(path)))
        if module == "tests" or module.startswith("tests.")
    ]
    assert not offenders, offenders
