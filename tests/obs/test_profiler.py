"""Engine-profiler tests: event counting, labels, hotspot ranking."""

from __future__ import annotations

from repro.obs.profiler import EngineProfiler, event_name
from repro.sim.engine import Engine


def test_profiler_counts_events_by_label():
    engine = Engine()
    engine.profiler = EngineProfiler()
    for t in (1.0, 2.0, 3.0):
        engine.schedule_at(t, lambda: None, label="tick")
    engine.schedule_at(4.0, lambda: None, label="other")
    engine.run(until=10.0)
    profiler = engine.profiler
    assert profiler.counts["tick"] == 3
    assert profiler.counts["other"] == 1
    assert profiler.total_events == 4
    assert profiler.seconds["tick"] >= 0.0


def test_unlabeled_events_fall_back_to_callback_name():
    engine = Engine()
    engine.profiler = EngineProfiler()

    def heartbeat():
        pass

    engine.schedule_at(1.0, heartbeat)
    engine.run(until=2.0)
    (label,) = engine.profiler.counts
    assert "heartbeat" in label


def test_event_name_prefers_label():
    assert event_name("x", lambda: None) == "x"
    assert "lambda" in event_name("", lambda: None)


def test_hotspots_ranked_and_bounded():
    profiler = EngineProfiler()
    engine = Engine()
    engine.profiler = profiler
    for i in range(5):
        engine.schedule_at(float(i + 1), lambda: None, label=f"ev-{i}")
    engine.run(until=10.0)
    top = profiler.hotspots(top=3)
    assert len(top) == 3
    seconds = [entry[2] for entry in top]
    assert seconds == sorted(seconds, reverse=True)


def test_profiler_exceptions_still_accounted():
    profiler = EngineProfiler()

    def boom():
        raise RuntimeError("boom")

    try:
        profiler.record("boom", boom)
    except RuntimeError:
        pass
    assert profiler.counts["boom"] == 1
    assert profiler.seconds["boom"] >= 0.0


def test_peak_rss_bytes_is_plausible():
    # normalized to bytes on every platform: a live CPython process is
    # bigger than 4 MiB (would fail if Linux KiB were mistaken for bytes)
    # and smaller than 1 TiB (would fail on a bytes->KiB double scaling)
    from repro.obs.profiler import peak_rss_bytes

    rss = peak_rss_bytes()
    assert rss > 4 * 1024 * 1024
    assert rss < 1 << 40


def test_profiler_peak_rss_property_matches_helper():
    from repro.obs.profiler import peak_rss_bytes

    profiler = EngineProfiler()
    # both read the same monotone high-water mark
    assert abs(profiler.peak_rss_bytes - peak_rss_bytes()) < 16 * 1024 * 1024
