"""City-scale sensing with scenarios: the array-backed engine at work.

Loads the ``city-2k`` preset (2 000 users, 200 Poisson-arriving tasks,
float32 distance pipeline, streamed rounds), runs it while streaming the full round
history to an events JSONL — memory stays bounded no matter the run
length — and prints the final metrics plus a replay check.  Swap the
scenario name for ``city-50k`` for the full-size stress run, or point it
at your own ``.toml`` spec.

Run:  python examples/city_scale.py [scenario]
"""

import sys
import tempfile
from pathlib import Path

from repro.api import (
    load_scenario,
    make_engine,
    read_events_jsonl,
    render_table,
    RoundStreamWriter,
    summarize,
)


def main(scenario_name: str = "city-2k") -> None:
    spec = load_scenario(scenario_name)
    config = spec.to_config(seed=7)
    print(f"{spec.name}: {spec.description}\n")
    print(f"{config.n_users} users, {config.n_tasks} tasks, "
          f"{config.rounds} rounds, distances={config.distance_dtype}, "
          f"streaming={config.stream_rounds}\n")

    events_path = Path(tempfile.mkdtemp()) / f"{spec.name}-events.jsonl"
    engine = make_engine(config)
    with RoundStreamWriter(events_path, engine.world) as stream:
        engine.observers.append(stream)
        result = engine.run()

    summary = summarize(result)
    rows = [[name, value] for name, value in summary.as_dict().items()]
    print(render_table(["metric", "value"], rows, precision=4))

    replay = read_events_jsonl(events_path)
    print(f"\nStreamed {len(replay.rounds)} rounds to {events_path} "
          f"({events_path.stat().st_size / 2**20:.1f} MiB); replay agrees: "
          f"{replay.total_measurements == result.total_measurements}")


if __name__ == "__main__":
    main(*sys.argv[1:2])
