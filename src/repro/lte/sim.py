"""Discrete-event simulation kernel for the LTE radio-layer substrate.

The LTE MAC operates on a 1 ms TTI (transmission time interval) grid, but
simulating every TTI of a multi-minute capture in pure Python would be
prohibitively slow.  The kernel therefore combines two mechanisms:

* an **event queue** for sparse protocol events (packet arrivals, RRC
  timers, paging, handover triggers), and
* a **TTI loop** that the eNodeB scheduler drives *only while at least one
  UE has backlogged data*, skipping idle air time in O(1).

All simulation time is measured in integer **microseconds** to avoid
floating-point drift in timer comparisons; helpers convert to/from
seconds and milliseconds at the API boundary.

While :meth:`SimClock.run_until` (or :meth:`SimClock.run`) fires
events, the clock holds its **bound**: the end time of that call
(unbounded for ``run``).  :meth:`SimClock.run_ahead` lets the callback
being fired move the clock forward inline, but never past the bound, so
a callback can only do work that the running call would have fired
anyway.  Outside those two calls (a bare :meth:`SimClock.step`) there
is no bound to run to, and ``run_ahead`` refuses.

:meth:`SimClock.defer` hands the running call work to do once, just
before it returns: each eNodeB airs the grants it buffered during the
call that way (:mod:`repro.lte.engine`).  Each ``run_until``/``run``
call, nested ones included, fires the callbacks deferred while it was
the innermost running call.  Outside both calls there is nothing to
wait for, and ``defer`` calls the callback at once.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Callable, List, Optional

#: Number of microseconds in one LTE TTI (1 ms).
TTI_US = 1_000

#: Number of microseconds in one second.
SECOND_US = 1_000_000


def seconds(value: float) -> int:
    """Convert seconds to integer simulation microseconds."""
    return int(round(value * SECOND_US))


def milliseconds(value: float) -> int:
    """Convert milliseconds to integer simulation microseconds."""
    return int(round(value * 1_000))


def to_seconds(us: int) -> float:
    """Convert integer simulation microseconds to float seconds."""
    return us / SECOND_US


#: Slots of a heap entry ``[time_us, sequence, callback]``.  Entries are
#: plain lists so heap pushes and pops compare them in C; the sequence
#: is unique, so ``(time_us, sequence)`` orders them with FIFO ties and
#: the callback is never compared.  A cancelled entry's callback is
#: ``None``.
_TIME, _CALLBACK = 0, 2


class EventHandle:
    """Handle returned by :meth:`SimClock.schedule`; allows cancellation."""

    __slots__ = ("_entry",)

    def __init__(self, entry: list) -> None:
        self._entry = entry

    def cancel(self) -> None:
        """Cancel the event.  Safe to call more than once or after firing."""
        self._entry[_CALLBACK] = None

    @property
    def cancelled(self) -> bool:
        return self._entry[_CALLBACK] is None


class SimClock:
    """Priority-queue simulation clock.

    Events scheduled for the same instant fire in scheduling order
    (FIFO), which keeps protocol handshakes deterministic.
    """

    def __init__(self, start_us: int = 0) -> None:
        self._now_us = start_us
        self._queue: list[list] = []
        self._sequence = itertools.count()
        #: End time of the running ``run_until``/``run``; -inf outside
        #: them, so a callback fired by a bare ``step`` cannot run ahead.
        self._bound_us: float = float("-inf")
        #: Callbacks deferred to the end of the innermost running
        #: ``run_until``/``run``; ``None`` outside them.
        self._deferred: Optional[List[Callable[[], None]]] = None

    @property
    def now_us(self) -> int:
        """Current simulation time in microseconds."""
        return self._now_us

    @property
    def now_s(self) -> float:
        """Current simulation time in seconds."""
        return to_seconds(self._now_us)

    def schedule(self, delay_us: int, callback: Callable[[], None]) -> EventHandle:
        """Schedule ``callback`` to fire ``delay_us`` microseconds from now."""
        if delay_us < 0:
            raise ValueError(f"cannot schedule in the past (delay_us={delay_us})")
        entry = [self._now_us + delay_us, next(self._sequence), callback]
        heapq.heappush(self._queue, entry)
        return EventHandle(entry)

    def schedule_at(self, time_us: int, callback: Callable[[], None]) -> EventHandle:
        """Schedule ``callback`` at an absolute simulation time."""
        return self.schedule(time_us - self._now_us, callback)

    def peek_next_time(self) -> Optional[int]:
        """Time of the next pending (non-cancelled) event, or ``None``."""
        while self._queue and self._queue[0][_CALLBACK] is None:
            heapq.heappop(self._queue)
        return self._queue[0][_TIME] if self._queue else None

    def step(self) -> bool:
        """Fire the next pending event.  Returns ``False`` if queue is empty."""
        while self._queue:
            time_us, _, callback = heapq.heappop(self._queue)
            if callback is None:
                continue
            self._now_us = time_us
            callback()
            return True
        return False

    def run_ahead(self, time_us: int,
                  inline: Callable[[Callable[[], None]], bool]) -> bool:
        """Move the clock to ``time_us`` from inside a firing callback.

        Fires, in heap order and with the clock at their times, the
        pending events due at or before ``time_us`` whose callbacks
        ``inline`` accepts, then sets the clock to ``time_us`` and
        returns ``True``.  Returns ``False`` — with the clock at the
        last event it fired — when ``time_us`` lies past the bound of
        the running :meth:`run_until`/:meth:`run`, or when an event due
        by then is one ``inline`` rejects; that event stays queued for
        the running call to fire.  The events fired are exactly those
        the running call would fire next, in the same order.
        """
        if time_us > self._bound_us:
            return False
        queue = self._queue
        while queue:
            due_us, _, callback = queue[0]
            if callback is None:
                heapq.heappop(queue)
                continue
            if due_us > time_us:
                break
            if not inline(callback):
                return False
            heapq.heappop(queue)
            self._now_us = due_us
            callback()
        self._now_us = time_us
        return True

    def clear(self) -> None:
        """Drop every pending event without firing it.

        A scheduled callback holds the object that scheduled it, which
        holds this clock; clearing the queue once a simulation is over
        breaks those reference cycles.
        """
        self._queue.clear()

    def defer(self, callback: Callable[[], None]) -> None:
        """Call ``callback`` once, just before the running call returns.

        Inside :meth:`run_until`/:meth:`run` the callback waits for the
        innermost running call to return; callbacks fire in the order
        they were deferred, after the clock reaches the call's end
        time.  With no such call running it is called at once.
        """
        if self._deferred is None:
            callback()
        else:
            self._deferred.append(callback)

    def _bounded(self, bound_us: float, fire: Callable[[], None]) -> None:
        """Run ``fire`` under ``bound_us``, then the callbacks it deferred."""
        outer = self._bound_us, self._deferred
        self._bound_us, self._deferred = bound_us, []
        try:
            fire()
        finally:
            deferred = self._deferred
            self._bound_us, self._deferred = outer
            for callback in deferred:
                callback()

    def run_until(self, end_us: int) -> None:
        """Fire every event scheduled strictly before or at ``end_us``.

        ``end_us`` is the bound :meth:`run_ahead` may not pass.  The
        clock is left at ``end_us`` even if the queue drained early, so
        successive calls observe monotonically increasing time.
        """
        def fire() -> None:
            while True:
                next_time = self.peek_next_time()
                if next_time is None or next_time > end_us:
                    break
                self.step()
            self._now_us = max(self._now_us, end_us)

        self._bounded(end_us, fire)

    def run(self) -> None:
        """Fire every pending event until the queue is empty (no bound)."""
        def fire() -> None:
            while self.step():
                pass

        self._bounded(float("inf"), fire)

    def pending_count(self) -> int:
        """Number of non-cancelled events still queued (for tests)."""
        return sum(1 for entry in self._queue
                   if entry[_CALLBACK] is not None)
