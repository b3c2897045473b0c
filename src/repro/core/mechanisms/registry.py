"""The incentive-mechanism registry: every mechanism, addressable by name.

The :data:`MECHANISMS` registry is the blessed construction surface —
``MECHANISMS.create(name, **kwargs)`` / ``MECHANISMS.available()`` —
used by the config layer (:meth:`SimulationConfig.mechanism_arguments`),
the CLI, the experiment harness, and the job service.
"""

from __future__ import annotations

from repro.core.mechanisms.adaptive import AdaptiveBudgetMechanism
from repro.core.mechanisms.base import IncentiveMechanism
from repro.core.mechanisms.fixed import FixedMechanism
from repro.core.mechanisms.on_demand import OnDemandMechanism
from repro.core.mechanisms.policy import PolicyMechanism
from repro.core.mechanisms.proportional import ProportionalDemandMechanism
from repro.core.mechanisms.steered import SteeredMechanism
from repro.dynamics.online import IncentMeMechanism, OMGOnlineMechanism
from repro.registry import Registry

#: The incentive-mechanism registry (the blessed construction surface).
MECHANISMS: Registry[IncentiveMechanism] = Registry("mechanism")
for _cls in (
    OnDemandMechanism,
    FixedMechanism,
    SteeredMechanism,
    ProportionalDemandMechanism,
    AdaptiveBudgetMechanism,
    OMGOnlineMechanism,
    IncentMeMechanism,
    PolicyMechanism,
):
    MECHANISMS.register(_cls)

#: The registered mechanism names, in a stable presentation order.
MECHANISM_NAMES = MECHANISMS.available()
