"""Distributed task selection: Section V of the paper.

Each round, each user solves (Eq. 1)

.. math::
    \\max_{S} \\; \\sum_{t \\in S} r_t - C(S)
    \\quad \\text{s.t.} \\quad \\Gamma_S \\le B_u

where :math:`C(S)` is the movement cost of the shortest origin-anchored
path through the selected task locations and :math:`\\Gamma_S` the
corresponding travel time.  The problem is NP-hard (orienteering,
Theorem 1), so the package offers:

- :class:`~repro.selection.dp.DynamicProgrammingSelector` — exact bitmask
  DP over (subset, last-task) states (the paper's Eq. 11–12), explored
  label-setting style so subsets unreachable within the travel budget are
  never expanded, with each cardinality layer expanded as one batch of
  numpy arrays (the hot path of every simulated round).
- :class:`~repro.selection.reference_dp.ReferenceDPSelector` — the same
  recurrence as a pure-Python loop; the vectorized selector's
  equivalence oracle.
- :class:`~repro.selection.greedy.GreedySelector` — the paper's
  :math:`O(m^2)` marginal-profit greedy.
- :class:`~repro.selection.two_opt.GreedyTwoOptSelector` — extension:
  greedy + 2-opt path improvement + opportunistic re-insertion.
- :class:`~repro.selection.brute_force.BruteForceSelector` — exhaustive
  permutation search, the test oracle for small instances.
"""

from repro.selection.base import CandidateTask, Selection, SelectionColumns, Selector
from repro.selection.problem import ProblemBlock, TaskSelectionProblem
from repro.selection.dp import DynamicProgrammingSelector
from repro.selection.reference_dp import ReferenceDPSelector
from repro.selection.greedy import GreedySelector
from repro.selection.brute_force import BruteForceSelector
from repro.selection.two_opt import GreedyTwoOptSelector, improve_order
from repro.selection.watchdog import TimeBoundedSelector
from repro.selection.registry import SELECTORS, SELECTOR_NAMES

__all__ = [
    "CandidateTask",
    "Selection",
    "SelectionColumns",
    "Selector",
    "TaskSelectionProblem",
    "ProblemBlock",
    "DynamicProgrammingSelector",
    "ReferenceDPSelector",
    "GreedySelector",
    "BruteForceSelector",
    "GreedyTwoOptSelector",
    "TimeBoundedSelector",
    "improve_order",
    "SELECTORS",
    "SELECTOR_NAMES",
]
