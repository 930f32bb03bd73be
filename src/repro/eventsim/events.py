"""Event scheduling for unit-delay interpreted simulation.

With every gate delay equal to one time unit, a full event queue is
overkill: an event scheduled at time ``t`` can only spawn events at
``t + 1``.  The classic structure is therefore a two-slot *time wheel*:
the set of gates to evaluate now, and the set being accumulated for the
next instant.  :class:`TimeWheel` implements exactly that, with
deduplication so a gate fed by several changed nets is evaluated once.
The multi-delay simulator (:mod:`repro.eventsim.multidelay`) keeps its
own value wheel.
"""

from __future__ import annotations

__all__ = ["TimeWheel"]


class TimeWheel:
    """Two-phase scheduler for unit-delay simulation.

    Gates are identified by dense integer ids.  ``schedule`` enqueues a
    gate for the *next* time step; ``advance`` swaps phases and returns
    the gates due now.
    """

    __slots__ = ("_current", "_next", "_pending_now", "_pending_next", "time")

    def __init__(self, num_gates: int) -> None:
        self._current: list[int] = []
        self._next: list[int] = []
        self._pending_now = bytearray(num_gates)
        self._pending_next = bytearray(num_gates)
        #: The time step of the slot returned by the last ``advance``.
        self.time = 0

    def schedule(self, gate_id: int) -> None:
        """Enqueue ``gate_id`` for evaluation at the next time step."""
        if not self._pending_next[gate_id]:
            self._pending_next[gate_id] = 1
            self._next.append(gate_id)

    def advance(self) -> list[int]:
        """Move to the next time step; return gates due for evaluation."""
        self._current, self._next = self._next, self._current
        self._pending_now, self._pending_next = (
            self._pending_next,
            self._pending_now,
        )
        for gate_id in self._next:
            self._pending_next[gate_id] = 0
        self._next.clear()
        self.time += 1
        return self._current

    @property
    def has_events(self) -> bool:
        return bool(self._next)

    def clear(self) -> None:
        for gate_id in self._next:
            self._pending_next[gate_id] = 0
        self._next.clear()
        for gate_id in self._current:
            self._pending_now[gate_id] = 0
        self._current.clear()
        self.time = 0

