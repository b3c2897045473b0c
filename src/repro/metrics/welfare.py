"""Platform welfare: the Section III-B objective, made explicit.

The paper states the platform wants each task complete before its
deadline *and* "the welfare of the platform should be as large as
possible", then evaluates welfare only through its proxy, the average
reward per measurement (Fig. 9(b)).  This module computes the welfare
itself under the standard linear value model:

.. math::
    W = v \\cdot M_{on\\text{-}time} - \\sum \\text{payments}

where :math:`M_{on\\text{-}time}` counts measurements received by their
task's deadline and v is the platform's value per on-time measurement.
Late measurements earn nothing but were still paid for — exactly the
asymmetry that makes deadline-blind mechanisms (steered) lose welfare
even when they buy plenty of data.
"""

from __future__ import annotations

from repro.simulation.events import SimulationResult


def on_time_measurements(result: SimulationResult) -> int:
    """Measurements received by their task's deadline, over the whole run."""
    tasks = result.world.tasks
    return int(tasks.received_by(tasks.deadline).sum())


def platform_welfare(
    result: SimulationResult, value_per_measurement: float = 2.5
) -> float:
    """Linear platform welfare: v x on-time measurements - total payments.

    Args:
        value_per_measurement: the platform's value v for one on-time
            measurement.  The default equals the paper's maximum
            per-measurement reward (2.5 $ at the Section VI constants) —
            the largest price the platform was *designed* to be willing
            to pay, so welfare is non-negative whenever every purchase
            was on time.

    Raises:
        ValueError: for a negative value rate.
    """
    if value_per_measurement < 0:
        raise ValueError(
            f"value_per_measurement must be non-negative, got {value_per_measurement}"
        )
    return value_per_measurement * on_time_measurements(result) - result.total_paid


def welfare_margin(result: SimulationResult, value_per_measurement: float = 2.5) -> float:
    """Welfare per dollar spent (0 spend ⇒ 0 margin): efficiency view."""
    spent = result.total_paid
    if spent == 0.0:
        return 0.0
    return platform_welfare(result, value_per_measurement) / spent
