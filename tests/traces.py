"""Shared test helper: a trace's records as plain tuples."""


def record_rows(trace):
    """The records of ``trace`` as ``(time_s, rnti, direction, tbs_bytes)``.

    Read from the columns through ``.tolist()``, so each value is the
    Python ``float``/``int`` the column holds.
    """
    return list(zip(trace.times_s.tolist(), trace.rntis.tolist(),
                    trace.directions.tolist(), trace.tbs_bytes.tolist()))
