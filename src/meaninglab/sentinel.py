"""Named singleton markers for "no value" answers.

Several results are either a value or a named reason there is none: no
path within a BFS cap, no pair at a requested distance, a bound outside
its regime, an empty heat-map cell. Each reason is a subclass of
:class:`Sentinel` with exactly one instance, so callers test it with
``is``. Pickling rebuilds that same instance, so the test still holds for
values returned from worker processes.
"""

from __future__ import annotations


class Sentinel:
    """Base of the singleton markers; ``class X(Sentinel, name="X")`` defines one.

    Calling the subclass returns its one instance, whose repr is ``name``.
    """

    _name: str
    _instance: "Sentinel"

    def __init_subclass__(cls, *, name: str, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._name = name
        cls._instance = object.__new__(cls)

    def __new__(cls):
        return cls._instance

    def __repr__(self) -> str:
        return self._name

    def __reduce__(self):
        return (type(self), ())
