"""The component metrics registry: an index of plain counters.

Every :class:`Simulator` owns a :class:`MetricsRegistry`.  A component
keeps each of its counts in a plain attribute (``self.reads += 1``) and
lists those attributes once, in its constructor, with
:meth:`MetricsRegistry.expose`.  The registry stores no values: it is a
list of ``(component, field) -> (object, attribute)`` sources, and
:meth:`MetricsRegistry.snapshot` reads each attribute when it is
called.  Counting therefore costs the data path no call at all.

Snapshots are plain nested dicts with sorted keys, so two identical
runs produce byte-identical snapshots — a property the determinism
tests rely on.  Like the tracer, the registry observes the simulation
and never participates in it.
"""

from __future__ import annotations

import weakref
from typing import Optional

__all__ = ["MetricsRegistry"]


class MetricsRegistry:
    """Every exposed counter of one simulator, keyed (component, field).

    Sources are held weakly: a component points at its simulator,
    which owns this registry, and a strong reference back would keep a
    dropped stack's disks and media alive until the cyclic collector
    runs.  A collected component's counts leave the snapshot.  With
    ``retain`` (an :func:`repro.obs.observe` session) the registry
    keeps every source alive instead, so the session can read them
    after the run.
    """

    __slots__ = ("_sources", "_retained")

    def __init__(self, retain: bool = False):
        #: (component, field) -> (unit, weak refs to the objects whose
        #: attribute ``field`` holds a share of the value).
        self._sources: dict[tuple[str, str], tuple[str, list]] = {}
        self._retained: Optional[list] = [] if retain else None

    def expose(self, component: str, source: object,
               fields: dict[str, str]) -> None:
        """List ``source``'s attributes ``fields`` (name -> unit) under
        ``component``.  Sources that share a key are summed."""
        ref = weakref.ref(source)
        sources = self._sources
        for field, unit in fields.items():
            sources.setdefault((component, field), (unit, []))[1].append(ref)
        if self._retained is not None:
            self._retained.append(source)

    def __len__(self) -> int:
        return len(self._sources)

    def snapshot(self) -> dict:
        """Nested ``{component: {field: {"value", "unit"}}}``, sorted."""
        out: dict[str, dict] = {}
        for key in sorted(self._sources):
            component, field = key
            unit, refs = self._sources[key]
            value = 0
            for ref in refs:
                source = ref()
                if source is not None:
                    value += getattr(source, field)
            out.setdefault(component, {})[field] = {"value": value,
                                                    "unit": unit}
        return out
