"""One registry pattern for every pluggable component.

The library grew three hand-rolled name→class maps (incentive
mechanisms, task selectors, mobility policies), each with its own
``make_*`` function and its own unknown-name error wording.  This module
replaces them with a single :class:`Registry`:

- ``register(cls, name=...)`` — add a class (usable as a decorator),
- ``create(name, **kwargs)`` — instantiate by name, forwarding kwargs,
- ``available()`` — the registered names, in registration order,
- ``get(name)`` — the class itself (for introspection and subclassing).

Unknown names always raise a :class:`ValueError` that lists the valid
names, so a typo in a config file or CLI flag is a one-glance fix.
"""

from __future__ import annotations

from typing import Callable, Dict, Generic, Iterable, Optional, Tuple, Type, TypeVar

T = TypeVar("T")


class Registry(Generic[T]):
    """A name→class registry for one kind of pluggable component.

    Args:
        kind: what the registry holds ("mechanism", "selector", ...);
            used in error messages, so keep it singular and lowercase.

    >>> registry = Registry("greeter")
    >>> @registry.register(name="hello")
    ... class Hello:
    ...     def __init__(self, who="world"): self.who = who
    >>> registry.create("hello", who="there").who
    'there'
    >>> registry.available()
    ('hello',)
    """

    def __init__(self, kind: str):
        if not kind:
            raise ValueError("registry kind must be a non-empty string")
        self.kind = kind
        self._classes: Dict[str, Type[T]] = {}

    def register(
        self, cls: Optional[Type[T]] = None, *, name: Optional[str] = None
    ) -> Callable[[Type[T]], Type[T]]:
        """Register a class, by explicit ``name`` or its ``name`` attribute.

        Usable directly (``registry.register(Cls)``) or as a decorator
        (``@registry.register`` / ``@registry.register(name="alias")``).

        Raises:
            ValueError: if no name can be derived, or the name is taken
                by a *different* class (re-registering the same class is
                a no-op, which keeps module reloads harmless).
        """

        def _add(klass: Type[T]) -> Type[T]:
            key = name if name is not None else getattr(klass, "name", None)
            if not key or not isinstance(key, str):
                raise ValueError(
                    f"cannot register {klass!r} as a {self.kind}: pass "
                    f"name=... or give the class a 'name' attribute"
                )
            existing = self._classes.get(key)
            if existing is not None and existing is not klass:
                raise ValueError(
                    f"{self.kind} name {key!r} is already registered to "
                    f"{existing.__name__}; unregister it first or pick "
                    f"another name"
                )
            self._classes[key] = klass
            return klass

        if cls is not None:
            return _add(cls)
        return _add

    def create(self, name: str, **kwargs) -> T:
        """Instantiate the class registered under ``name``.

        Keyword arguments forward to the constructor, so e.g.
        ``MECHANISMS.create("on-demand", budget=2000.0)`` works.

        Raises:
            ValueError: for an unknown name (message lists valid names).
        """
        return self.get(name)(**kwargs)

    def get(self, name: str) -> Type[T]:
        """The class registered under ``name``.

        Raises:
            ValueError: for an unknown name (message lists valid names).
        """
        try:
            return self._classes[name]
        except KeyError:
            valid = ", ".join(sorted(self._classes))
            raise ValueError(
                f"unknown {self.kind} {name!r}; valid: {valid}"
            ) from None

    def available(self) -> Tuple[str, ...]:
        """Registered names, in registration order."""
        return tuple(self._classes)

    def __contains__(self, name: object) -> bool:
        return name in self._classes

    def __len__(self) -> int:
        return len(self._classes)

    def __iter__(self) -> Iterable[str]:
        return iter(self._classes)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Registry(kind={self.kind!r}, names={list(self._classes)})"
