"""Traced peak memory of one call, for the tests that bound it."""

import tracemalloc


def traced_peak(fn, *args, **kwargs):
    """(result, peak bytes) of ``fn(*args, **kwargs)``, as ``tracemalloc``
    counts them from the call's start; numpy registers its array buffers."""
    tracemalloc.start()
    try:
        result = fn(*args, **kwargs)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
