"""The task-selector registry: every solver, addressable by short name.

Mirrors :mod:`repro.core.mechanisms.registry`; the CLI and experiment
configs refer to selectors by these names.  The :data:`SELECTORS`
registry is the blessed construction surface
(``SELECTORS.create(name, **kwargs)`` / ``SELECTORS.available()``).
"""

from __future__ import annotations

from repro.registry import Registry
from repro.selection.base import Selector
from repro.selection.branch_and_bound import BranchAndBoundSelector
from repro.selection.brute_force import BruteForceSelector
from repro.selection.dp import DynamicProgrammingSelector
from repro.selection.greedy import GreedySelector
from repro.selection.reference_dp import ReferenceDPSelector
from repro.selection.two_opt import GreedyTwoOptSelector
from repro.selection.watchdog import TimeBoundedSelector

#: The task-selector registry (the blessed construction surface).
SELECTORS: Registry[Selector] = Registry("selector")
for _cls in (
    DynamicProgrammingSelector,
    ReferenceDPSelector,
    BranchAndBoundSelector,
    GreedySelector,
    GreedyTwoOptSelector,
    BruteForceSelector,
    TimeBoundedSelector,
):
    SELECTORS.register(_cls)

#: Registered selector names in presentation order.
SELECTOR_NAMES = SELECTORS.available()
