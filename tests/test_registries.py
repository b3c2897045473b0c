"""The unified component registries.

Mechanisms and selectors construct through one :class:`repro.registry.
Registry` surface: by name, with kwargs forwarded, and an unknown name
raises an error listing the valid ones.
"""

import pytest

from repro.core.mechanisms import MECHANISMS
from repro.core.mechanisms.base import IncentiveMechanism
from repro.registry import Registry
from repro.selection import SELECTORS
from repro.selection.base import Selector


class TestRegistrySurface:
    def test_selector_names_available(self):
        names = SELECTORS.available()
        for name in ("dp", "branch-and-bound", "greedy", "brute-force"):
            assert name in names

    def test_mechanism_names_available(self):
        names = MECHANISMS.available()
        for name in ("on-demand", "fixed"):
            assert name in names

    def test_create_builds_instances(self):
        assert isinstance(SELECTORS.create("greedy"), Selector)
        assert isinstance(MECHANISMS.create("fixed"), IncentiveMechanism)

    def test_create_forwards_kwargs(self):
        selector = SELECTORS.create("dp", max_exact_tasks=9)
        assert selector.max_exact_tasks == 9

    def test_unknown_name_lists_valid(self):
        with pytest.raises(ValueError, match="greedy"):
            SELECTORS.create("oracle")
        with pytest.raises(ValueError, match="on-demand"):
            MECHANISMS.create("telepathy")

    def test_reregistering_same_class_is_noop(self):
        registry = Registry("widget")

        class Widget:
            name = "w"

        registry.register(Widget)
        registry.register(Widget)  # module reloads must stay harmless
        assert registry.available() == ("w",)

    def test_name_collision_between_classes_rejected(self):
        registry = Registry("widget")

        class First:
            name = "w"

        class Second:
            name = "w"

        registry.register(First)
        with pytest.raises(ValueError, match="already registered"):
            registry.register(Second)


class TestFacadeRoundTrip:
    """Every registry entry must construct through the api facade."""

    def test_every_mechanism_builds_via_api(self):
        from repro import api

        for name in MECHANISMS.available():
            mechanism = api.create_mechanism(name)
            assert isinstance(mechanism, IncentiveMechanism), name
            assert mechanism.name == name
            assert MECHANISMS.get(name) is type(mechanism)

    def test_every_selector_builds_via_api(self):
        from repro import api

        for name in SELECTORS.available():
            selector = api.create_selector(name)
            assert isinstance(selector, Selector), name
            assert selector.name == name
            assert SELECTORS.get(name) is type(selector)
