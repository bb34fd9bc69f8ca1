"""A finished capture frees its simulation by reference counting.

The deployment a capture builds (clock callbacks, eNodeB contexts,
sniffer sinks) is full of back-references.  If they formed cycles
when the capture ends, every per-capture object would wait for a
generation-2 collection, and peak memory would depend on when one
happens to run.
"""

import gc
from contextlib import contextmanager

from repro import runtime
from repro.core.dataset import collect_pair, collect_traces
from repro.lte.city import CityScenario, run_city
from repro.operators import get_profile

#: Classes a capture creates that must never be left in a cycle.
CAPTURE_TYPES = (
    "RNTIActivity", "TraceBuilder", "ENodeB", "SimClock", "LTENetwork",
    "CellSniffer", "DCIDecoder", "OWLTracker", "UEContext", "_Retransmit",
)


@contextmanager
def cyclic_garbage():
    """Collects what the block leaves in reference cycles."""
    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    garbage = []
    try:
        yield garbage
        gc.collect()
        garbage.extend(gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        if was_enabled:
            gc.enable()


def capture_objects(garbage):
    """Capture instances, and functions or methods of capture classes
    (sinks, observers, scheduled lambdas), among ``garbage``."""
    names = set()
    for obj in garbage:
        name = getattr(getattr(obj, "__func__", obj), "__qualname__", "")
        if type(obj).__name__ in CAPTURE_TYPES:
            names.add(type(obj).__name__)
        elif callable(obj) and name.split(".")[0] in CAPTURE_TYPES:
            names.add(name)
    return sorted(names)


def test_collect_traces_leaves_no_capture_cycles():
    with cyclic_garbage() as garbage:
        with runtime.overrides(cache_enabled=False, workers=1):
            traces = collect_traces(["YouTube", "Skype"],
                                    operator=get_profile("T-Mobile"),
                                    traces_per_app=2, duration_s=10, seed=0)
    assert len(traces) == 4
    assert capture_objects(garbage) == []


def test_collect_pair_leaves_no_capture_cycles():
    with cyclic_garbage() as garbage:
        with runtime.overrides(cache_enabled=False, workers=1):
            legs = collect_pair("WhatsApp", "chat", duration_s=10, seed=1)
    assert len(legs) == 2
    assert capture_objects(garbage) == []


def test_city_epochs_leave_no_capture_cycles():
    with cyclic_garbage() as garbage:
        result = run_city(CityScenario(n_cells=2, epochs=2, seed=3))
    assert result.total_records > 0
    assert capture_objects(garbage) == []
