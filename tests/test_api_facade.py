"""The repro.api facade: the one blessed import surface.

Everything the README and examples use must be reachable from
``repro.api``; the facade's convenience entry points (scenario-aware
``simulate``, ``build_config``, ``summarize``, registry-backed
``create_*``) are pinned here.
"""

import pytest

from repro import api


FACADE_ESSENTIALS = {
    # run
    "simulate", "build_config", "make_engine", "summarize",
    "SimulationConfig", "SimulationResult",
    # scenarios
    "ScenarioSpec", "PRESETS", "get_preset", "load_scenario", "save_spec",
    # factories
    "create_mechanism", "create_selector",
    "MECHANISM_NAMES", "SELECTOR_NAMES",
    # experiments / io / metrics
    "run_experiment", "experiment_ids", "render_table", "render_experiment",
    "RoundStreamWriter", "read_events_jsonl", "MetricsSummary", "coverage",
    # world / geometry / selection
    "World", "MobileUser", "SensingTask", "Point", "RectRegion",
    "Selection", "TaskSelectionProblem",
    # stepwise sessions + fingerprints
    "open_session", "SimulationSession", "SessionObservation",
    "round_fingerprint", "result_fingerprint",
    # policy environment + wrapped policies
    "make_env", "IncentiveEnv", "PolicyMechanism", "POLICIES",
    "apply_incentive_action",
    # server client
    "connect", "ServerClient",
}


def test_facade_names_present_and_resolving():
    missing = FACADE_ESSENTIALS - set(api.__all__)
    assert not missing, f"missing from repro.api.__all__: {sorted(missing)}"
    for name in api.__all__:
        assert getattr(api, name, None) is not None, name


def test_facade_reexported_from_package_root():
    import repro

    assert repro.api is api
    assert "api" in repro.__all__


class TestSimulate:
    def test_scenario_by_name(self):
        result = api.simulate(scenario="paper-2018", n_users=12, n_tasks=4,
                              rounds=2, seed=0)
        assert result.rounds_played == 2

    def test_config_object(self):
        # The campaign may finish early once every task completes, so
        # assert it ran, not that it exhausted the horizon.
        config = api.SimulationConfig(n_users=10, n_tasks=4, rounds=2,
                                      required_measurements=2, seed=1)
        result = api.simulate(config)
        assert 1 <= result.rounds_played <= 2
        assert result.total_measurements > 0

    def test_overrides_only(self):
        result = api.simulate(n_users=10, n_tasks=4, rounds=2,
                              required_measurements=2, seed=1)
        assert 1 <= result.rounds_played <= 2

    def test_config_and_scenario_conflict(self):
        with pytest.raises(ValueError, match="scenario"):
            api.simulate(api.SimulationConfig(), scenario="paper-2018")


class TestBuildConfig:
    def test_scenario_plus_overrides(self):
        config = api.build_config(scenario="city-2k", n_users=50, seed=3)
        assert config.n_users == 50
        assert config.distance_dtype == "float32"  # from the preset

    def test_defaults_when_no_scenario(self):
        assert api.build_config().n_users == 100


class TestFactories:
    def test_create_selector(self):
        selector = api.create_selector("greedy")
        assert type(selector).__name__ == "GreedySelector"

    def test_create_mechanism(self):
        mechanism = api.create_mechanism("fixed")
        assert type(mechanism).__name__ == "FixedMechanism"

    def test_names_match_registries(self):
        assert "dp" in api.SELECTOR_NAMES
        assert "on-demand" in api.MECHANISM_NAMES


class TestOpenSession:
    def test_scenario_surface_matches_simulate(self):
        kwargs = dict(scenario="paper-2018", n_users=12, n_tasks=4,
                      rounds=2, seed=0)
        direct = api.simulate(**kwargs)
        with api.open_session(**kwargs) as session:
            stepped = session.run()
        assert api.result_fingerprint(direct) == api.result_fingerprint(stepped)

    def test_config_and_scenario_conflict(self):
        with pytest.raises(ValueError, match="scenario"):
            api.open_session(api.SimulationConfig(), scenario="paper-2018")


class TestMakeEnv:
    def test_env_from_scenario(self):
        env = api.make_env(scenario="paper-2018", n_users=12, n_tasks=4,
                           rounds=2)
        try:
            observation, info = env.reset(seed=0)
            assert env.observation_space.contains(observation)
            assert info["rounds_total"] == 2
        finally:
            env.close()

    def test_config_and_scenario_conflict(self):
        with pytest.raises(ValueError, match="scenario"):
            api.make_env(api.SimulationConfig(), scenario="paper-2018")


class TestConnect:
    def test_import_leaves_the_job_service_unloaded(self):
        """Simulating never needs ``repro.server`` (asyncio, the app,
        queue and supervisor), so ``import repro`` must not load it; the
        client is imported on first use."""
        import os
        import subprocess
        import sys
        from pathlib import Path

        import repro

        src = str(Path(repro.__file__).resolve().parent.parent)
        env = dict(os.environ)
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        code = (
            "import sys, repro\n"
            "loaded = sorted(m for m in sys.modules if m.startswith('repro.server'))\n"
            "assert not loaded, loaded\n"
            "client = repro.api.ServerClient\n"
            "assert 'repro.server' in sys.modules\n"
        )
        subprocess.run([sys.executable, "-c", code], env=env, check=True)

    def test_server_client_resolves_to_the_client_class(self):
        import repro
        from repro.server.client import ServerClient

        assert "ServerClient" in api.__all__
        assert api.ServerClient is ServerClient
        assert repro.ServerClient is ServerClient
        assert isinstance(api.connect("somehost:9100"), ServerClient)
        with pytest.raises(AttributeError):
            api.NoSuchName  # noqa: B018

    def test_host_port(self):
        client = api.connect("somehost:9100")
        assert (client.host, client.port) == ("somehost", 9100)

    def test_url(self):
        client = api.connect("http://10.1.2.3:8080")
        assert (client.host, client.port) == ("10.1.2.3", 8080)

    def test_directory_without_server_file_raises(self, tmp_path):
        from repro.server.client import ServerUnavailable

        with pytest.raises(ServerUnavailable):
            api.connect(tmp_path)


def test_summarize_returns_metrics_summary():
    result = api.simulate(n_users=10, n_tasks=4, rounds=2,
                          required_measurements=2, seed=1)
    summary = api.summarize(result)
    assert isinstance(summary, api.MetricsSummary)
    assert 0.0 <= summary.coverage <= 1.0


def test_examples_import_only_the_facade():
    """Examples are facade-only: `from repro.api import ...` (or nothing)."""
    import re
    from pathlib import Path

    examples = Path(__file__).resolve().parent.parent / "examples"
    pattern = re.compile(
        r"^\s*(?:from\s+(repro[.\w]*)\s+import|import\s+(repro[.\w]*))",
        re.MULTILINE,
    )
    for script in sorted(examples.glob("*.py")):
        for match in pattern.finditer(script.read_text()):
            module = match.group(1) or match.group(2)
            assert module in ("repro", "repro.api"), (
                f"{script.name} imports {module}; examples must import "
                f"from repro.api only"
            )
