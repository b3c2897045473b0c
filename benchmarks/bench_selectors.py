"""Selector benchmarks: runtime and profit gap, DP vs greedy vs 2-opt.

The paper motivates the greedy by the DP's O(m^2 2^m) cost (Theorems
2-3).  These benches measure what that trade actually buys on instances
drawn from the paper's own round-2 distribution: per-call latency for
each solver and the share of the optimal profit greedy/2-opt capture.
"""

import numpy as np
from conftest import RESULTS_DIR

from repro.api import create_selector
from repro.geometry.point import Point
from repro.io.tables import render_table
from repro.selection import CandidateTask, TaskSelectionProblem


def random_problem(rng, n_candidates, budget=1800.0):
    """An instance shaped like one user's round: uniform tasks, Eq. 7 prices."""
    positions = rng.uniform(-1800.0, 1800.0, size=(n_candidates, 2))
    rewards = rng.choice([0.5, 1.0, 1.5, 2.0, 2.5], size=n_candidates)
    candidates = [
        CandidateTask(task_id=i, location=Point(float(x), float(y)), reward=float(r))
        for i, ((x, y), r) in enumerate(zip(positions, rewards))
    ]
    return TaskSelectionProblem.build(
        origin=Point(0.0, 0.0), candidates=candidates,
        max_distance=budget, cost_per_meter=0.002,
    )


def _problems(count=20, n_candidates=20, seed=0):
    rng = np.random.default_rng(seed)
    return [random_problem(rng, n_candidates) for _ in range(count)]


def test_dp_selector_speed(benchmark):
    problems = _problems()
    dp = create_selector("dp")

    def solve_all():
        return [dp.select(p) for p in problems]

    selections = benchmark(solve_all)
    assert all(s.distance <= 1800.0 + 1e-6 for s in selections)


def test_reference_dp_selector_speed(benchmark):
    """The scalar DP the vectorized one replaced — the speedup baseline."""
    problems = _problems()
    reference = create_selector("reference-dp")
    selections = benchmark(lambda: [reference.select(p) for p in problems])
    assert all(s.distance <= 1800.0 + 1e-6 for s in selections)


def test_branch_and_bound_selector_speed(benchmark):
    problems = _problems()
    bnb = create_selector("branch-and-bound")
    selections = benchmark(lambda: [bnb.select(p) for p in problems])
    assert all(s.distance <= 1800.0 + 1e-6 for s in selections)


def test_greedy_selector_speed(benchmark):
    problems = _problems()
    greedy = create_selector("greedy")
    selections = benchmark(lambda: [greedy.select(p) for p in problems])
    assert all(s.distance <= 1800.0 + 1e-6 for s in selections)


def test_two_opt_selector_speed(benchmark):
    problems = _problems()
    two_opt = create_selector("greedy-2opt")
    selections = benchmark(lambda: [two_opt.select(p) for p in problems])
    assert all(s.distance <= 1800.0 + 1e-6 for s in selections)


def test_profit_gap_report(benchmark):
    """Greedy and 2-opt profit as a fraction of the DP optimum."""
    problems = _problems(count=40)
    dp = create_selector("dp")
    greedy = create_selector("greedy")
    two_opt = create_selector("greedy-2opt")

    def gaps():
        rows = []
        for problem in problems:
            optimal = dp.select(problem).profit
            if optimal <= 0:
                continue
            rows.append(
                (optimal, greedy.select(problem).profit, two_opt.select(problem).profit)
            )
        return rows

    rows = benchmark.pedantic(gaps, rounds=1, iterations=1)
    optima = np.array([r[0] for r in rows])
    greedy_ratio = float(np.mean([r[1] / r[0] for r in rows]))
    two_opt_ratio = float(np.mean([r[2] / r[0] for r in rows]))
    table = render_table(
        ["solver", "mean profit", "share of optimum"],
        [
            ["dp (optimal)", float(optima.mean()), 1.0],
            ["greedy-2opt", float(np.mean([r[2] for r in rows])), two_opt_ratio],
            ["greedy", float(np.mean([r[1] for r in rows])), greedy_ratio],
        ],
        precision=3,
    )
    print()
    print(table)
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "selector_profit_gap.txt").write_text(table + "\n")
    assert 0.5 <= greedy_ratio <= 1.0 + 1e-9
    assert greedy_ratio - 1e-9 <= two_opt_ratio <= 1.0 + 1e-9
