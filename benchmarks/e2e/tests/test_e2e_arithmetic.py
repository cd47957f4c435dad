"""The benchmark's own arithmetic: percentiles, spans, Zipf, page sizes."""

import random

import pytest

from benchmarks.e2e.check import canonical_rows, expected_page_rows
from benchmarks.e2e.recorder import Span, SpanRecorder, self_times
from benchmarks.e2e.stats import (
    geomean,
    percentile,
    relative_difference,
    steady_windows,
    tail_percentile,
)
from benchmarks.e2e.workloads import ZipfSampler


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert percentile(values, 50) == 50
    assert percentile(values, 95) == 95
    assert percentile(values, 100) == 100
    assert percentile([7.0], 99) == 7.0
    with pytest.raises(ValueError):
        percentile([], 50)


@pytest.mark.parametrize(
    "samples, expected",
    [
        (5, 50.0),  # too few for any tail: lowest candidate
        (20, 50.0),  # 10 samples beyond the median, 5 beyond p75
        (40, 75.0),
        (100, 90.0),
        (200, 95.0),
        (999, 95.0),  # 9.99 samples beyond p99 is not ten
        (1000, 99.0),
        (9_999, 99.0),
        (10_000, 99.9),
    ],
)
def test_tail_percentile_needs_ten_samples_beyond(samples, expected):
    assert tail_percentile(samples) == expected


def test_relative_difference_and_geomean():
    assert relative_difference(0.0, 0.0) == 0.0
    assert relative_difference(90.0, 110.0) == pytest.approx(0.2)
    assert geomean([1.0, 100.0]) == pytest.approx(10.0)
    assert geomean([]) == 0.0


def test_self_time_is_duration_minus_child_coverage():
    spans = [
        Span("request", 0.0, 10.0, -1, 0),
        Span("a", 1.0, 4.0, 0, 0),
        Span("b", 3.0, 6.0, 0, 0),  # overlaps a: 3..4 is covered once
        Span("c", 9.0, 12.0, 0, 0),  # clipped to the parent's end
        Span("a.inner", 1.5, 2.0, 1, 0),
    ]
    own = self_times(spans)
    assert own[0] == pytest.approx(10.0 - (3.0 + 2.0 + 1.0))
    assert own[1] == pytest.approx(3.0 - 0.5)
    assert own[2] == pytest.approx(3.0)
    assert own[4] == pytest.approx(0.5)


def test_recorder_nests_spans_and_shares_the_request_id():
    recorder = SpanRecorder()
    with recorder.span("request", 7):
        with recorder.span("layer"):
            recorder.child("reported", 1.0, 0.25)
    request, layer, reported = recorder.spans
    assert (request.parent, layer.parent, reported.parent) == (-1, 0, 1)
    assert {span.request_id for span in recorder.spans} == {7}
    assert reported.duration == pytest.approx(0.25)
    assert request.start <= layer.start <= layer.end <= request.end


def test_zipf_sampler_is_deterministic_and_skewed():
    first = ZipfSampler(1000, 1.1, random.Random(5))
    second = ZipfSampler(1000, 1.1, random.Random(5))
    draws = [first.draw() for _ in range(5000)]
    assert draws == [second.draw() for _ in range(5000)]
    assert all(0 <= rank < 1000 for rank in draws)
    assert draws.count(0) > draws.count(9) > draws.count(99)
    assert [ZipfSampler(1, 1.1, random.Random(1)).draw() for _ in range(3)] == [0, 0, 0]


def test_page_row_count_rule():
    assert expected_page_rows(total=250, limit=100, offset=0) == 100
    assert expected_page_rows(total=250, limit=100, offset=200) == 50
    assert expected_page_rows(total=250, limit=100, offset=300) == 0


def test_canonical_rows_ignore_order_but_not_multiplicity():
    one = b'{"head":{"vars":["x"]},"results":{"bindings":[{"x":{"type":"literal","value":"a"}},{"x":{"type":"literal","value":"b"}}]}}'
    two = b'{"head":{"vars":["x"]},"results":{"bindings":[{"x":{"value":"b","type":"literal"}},{"x":{"type":"literal","value":"a"}}]}}'
    assert canonical_rows(one, "json") == canonical_rows(two, "json")
    assert canonical_rows(b"x\r\na\r\nb\r\n", "csv") == canonical_rows(b"x\r\nb\r\na\r\n", "csv")
    assert canonical_rows(b"x\r\na\r\na\r\n", "csv") != canonical_rows(b"x\r\na\r\n", "csv")


def test_steady_windows_drop_interfered_seconds_but_keep_half():
    quiet = [(second + fraction, 0.0010) for second in range(10) for fraction in (0.1, 0.5, 0.9)]
    assert steady_windows(quiet, 10.0) == [(float(n), float(n + 1)) for n in range(10)]
    # Seconds 3 and 4 ran 5x slower: dropped; the rest kept.
    disturbed = [(at, 0.0050 if 3 <= at < 5 else cpu) for at, cpu in quiet]
    kept = steady_windows(disturbed, 10.0)
    assert (3.0, 4.0) not in kept and (4.0, 5.0) not in kept and len(kept) == 8
    # Every second different: still the faster half, never one lucky second.
    ramp = [(second + 0.5, 0.0010 * (1.0 + second)) for second in range(10)]
    assert len(steady_windows(ramp, 10.0)) == 5
    assert steady_windows([], 10.0) == [(0.0, 10.0)]
    # A replay shorter than a slice is one slice of its own length.
    assert steady_windows([(0.2, 0.001), (0.4, 0.001)], 0.6) == [(0.0, 0.6)]
