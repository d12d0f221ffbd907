"""Self-time arithmetic on a hand-built span tree."""

import pytest

from e2ebench.spans import Recorder, Span, self_time_by_name, self_times


def test_self_time_subtracts_the_union_of_children():
    spans = [
        Span("trial", "t0", 0.0, 10.0),
        Span("routes", "t0", 1.0, 3.0, parent=0),
        Span("routes", "t0", 2.0, 4.0, parent=0),  # overlaps its sibling
        Span("alloc", "t0", 6.0, 9.0, parent=0),
        Span("inner", "t0", 7.0, 8.0, parent=3),
        Span("trial", "t1", 20.0, 21.0),
        Span("aux", "aux", 30.0, 35.0),
    ]
    assert self_times(spans) == pytest.approx([4.0, 2.0, 2.0, 2.0, 1.0, 1.0, 5.0])
    by_name = self_time_by_name(spans, "trial")
    assert by_name == pytest.approx({"trial": 5.0, "routes": 4.0, "alloc": 2.0, "inner": 1.0})
    # Self times add up to the trial durations (11 s) plus the second
    # both overlapping siblings claim (1 s).
    assert sum(by_name.values()) == pytest.approx(12.0)


def test_recorder_nests_and_shares_run_ids():
    rec = Recorder(True)
    with rec.span("trial", "t0"):
        with rec.span("routes"):
            pass
    with rec.span("trial", "t1"):
        pass
    names = [(s.name, s.parent, s.run_id) for s in rec.spans]
    assert names == [("trial", None, "t0"), ("routes", 0, "t0"), ("trial", None, "t1")]
    assert all(s.end >= s.start for s in rec.spans)


def test_disabled_recorder_records_nothing():
    rec = Recorder(False)
    with rec.span("trial", "t0"):
        pass
    rec.add("serve.request", "r0", 0.0, 1.0)
    assert rec.spans == []
