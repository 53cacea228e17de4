import io
import json
import math
import re

import pytest
from hypothesis import given, settings, strategies as st

from grtc import (
    GrtcError,
    OperatorPolicy,
    StrategySet,
    TaskSchedule,
    TraceConfig,
    WorkerEvent,
    build_initial_state,
    generate_trace,
    read_trace,
    run_rotation,
    write_trace,
)
from grtc.errors import ConsistencyError, OrderError, ParseError

from conftest import json_values


def roundtrip(initial, events):
    buf = io.StringIO()
    write_trace(buf, initial, events)
    buf.seek(0)
    return read_trace(buf)


class TestGenerate:
    def test_no_arrivals_no_departures(self):
        config = TraceConfig(seed=1, duration=50, arrival_rate=0.0,
                             departure_rate=0.0, initial_workers=4)
        roster, events = generate_trace(config)
        assert roster == ["w1", "w2", "w3", "w4"]
        assert events == []

    def test_deterministic_under_seed(self):
        config = TraceConfig(seed=123, duration=200, arrival_rate=0.7,
                             departure_rate=0.05, initial_workers=6)
        assert generate_trace(config) == generate_trace(config)
        other = TraceConfig(seed=124, duration=200, arrival_rate=0.7,
                            departure_rate=0.05, initial_workers=6)
        assert generate_trace(other) != generate_trace(config)

    def test_time_ordered_and_consistent(self):
        config = TraceConfig(seed=5, duration=300, arrival_rate=1.0,
                             departure_rate=0.2, initial_workers=5)
        roster, events = generate_trace(config)
        times = [e.t for e in events]
        assert times == sorted(times)
        present = set(roster)
        seen = set(roster)
        for e in events:
            if e.op == "arrive":
                assert e.worker not in seen  # tokens never reused
                present.add(e.worker)
                seen.add(e.worker)
            else:
                assert e.worker in present
                present.discard(e.worker)

    def test_arrival_count_concentrates(self):
        # Poisson(lambda * T): mean 300, sd ~17.3; 4 sigma is generous for
        # a spot check (the acceptance suite does the 3-sigma census)
        config = TraceConfig(seed=99, duration=300, arrival_rate=1.0,
                             departure_rate=0.1, initial_workers=4)
        _, events = generate_trace(config)
        arrivals = sum(1 for e in events if e.op == "arrive")
        assert abs(arrivals - 300) < 4 * math.sqrt(300)

    def test_departures_truncated_at_duration(self):
        config = TraceConfig(seed=2, duration=10, arrival_rate=0.3,
                             departure_rate=2.0, initial_workers=5)
        _, events = generate_trace(config)
        assert all(0 < e.t <= 10 for e in events)


class TestWorkerEvent:
    def test_fields_repr_and_dict(self):
        ev = WorkerEvent(1.5, "arrive", "w7")
        assert ev == WorkerEvent(t=1.5, op="arrive", worker="w7")
        assert (ev.t, ev.op, ev.worker) == (1.5, "arrive", "w7")
        assert repr(ev) == "WorkerEvent(t=1.5, op='arrive', worker='w7')"
        assert ev.to_dict() == {"t": 1.5, "op": "arrive", "worker": "w7"}

    def test_equal_events_hash_alike(self):
        a, b = WorkerEvent(2.0, "depart", "w1"), WorkerEvent(2.0, "depart", "w1")
        assert a is not b and hash(a) == hash(b)
        assert len({a, b, WorkerEvent(2.0, "arrive", "w1")}) == 2


# what json.dumps writes in its own way: signed zero, the smallest and
# large floats, NaN and the infinities; quotes, backslashes, control,
# non-ASCII and astral characters
TIMES = st.integers() | st.floats() | st.sampled_from(
    [0, -0.0, 5e-324, 1e16, math.nan, math.inf, -math.inf])
TOKENS = st.text() | st.sampled_from(
    ["arrive", "depart", '"', "\\", "\x00\x1f\x7f", "\n\t\r", "é", " ", "\U0001f600"])


class TestIO:
    def test_roundtrip_exact(self):
        config = TraceConfig(seed=77, duration=500, arrival_rate=2.0,
                             departure_rate=0.1, initial_workers=8)
        roster, events = generate_trace(config)
        assert len(events) > 500
        assert roundtrip(roster, events) == (roster, events)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.text(), max_size=3),
           st.lists(st.builds(WorkerEvent, TIMES, TOKENS, TOKENS), max_size=6))
    def test_writer_bytes_are_json_dumps(self, initial, events):
        buf = io.StringIO()
        write_trace(buf, initial, events)
        header = {"format": "grtc-trace", "v": 1, "initial": initial}
        assert buf.getvalue() == json.dumps(header) + "\n" + "".join(
            json.dumps(e.to_dict()) + "\n" for e in events)

    @settings(max_examples=50, deadline=None)
    @given(st.builds(TraceConfig, seed=st.integers(0, 2**64),
                     duration=st.floats(1, 60), arrival_rate=st.floats(0, 3),
                     departure_rate=st.floats(0, 1), initial_workers=st.integers(2, 8)))
    def test_generated_traces_roundtrip(self, config):
        roster, events = generate_trace(config)
        assert roundtrip(roster, events) == (roster, events)

    def test_full_precision_timestamps(self):
        events = [WorkerEvent(0.1 + 0.2, "arrive", "x1"),
                  WorkerEvent(1 / 3, "depart", "w1")]
        # 1/3 > 0.30000000000000004 would be out of order; keep input sorted
        events.sort(key=lambda e: e.t)
        _, got = roundtrip(["w1", "w2"], events)
        assert [e.t for e in got] == [e.t for e in events]

    def test_departure_of_absent_worker(self):
        buf = io.StringIO(
            '{"format": "grtc-trace", "v": 1, "initial": ["w1"]}\n'
            '{"t": 1.0, "op": "depart", "worker": "w9"}\n')
        with pytest.raises(ConsistencyError) as exc:
            read_trace(buf)
        assert exc.value.line == 2

    def test_out_of_order_timestamps(self):
        buf = io.StringIO(
            '{"format": "grtc-trace", "v": 1, "initial": ["w1", "w2"]}\n'
            '{"t": 2.0, "op": "depart", "worker": "w1"}\n'
            '{"t": 1.0, "op": "depart", "worker": "w2"}\n')
        with pytest.raises(OrderError) as exc:
            read_trace(buf)
        assert exc.value.line == 3

    def test_reused_token_rejected(self):
        buf = io.StringIO(
            '{"format": "grtc-trace", "v": 1, "initial": ["w1", "w2"]}\n'
            '{"t": 1.0, "op": "depart", "worker": "w1"}\n'
            '{"t": 2.0, "op": "arrive", "worker": "w1"}\n')
        with pytest.raises(ConsistencyError):
            read_trace(buf)

    def test_garbage_line_number(self):
        buf = io.StringIO(
            '{"format": "grtc-trace", "v": 1, "initial": []}\n'
            'not json\n')
        with pytest.raises(ParseError) as exc:
            read_trace(buf)
        assert exc.value.line == 2

    def test_wrong_format_header(self):
        with pytest.raises(ParseError):
            read_trace(io.StringIO('{"format": "something-else", "v": 1}\n'))

    @pytest.mark.parametrize("version, text", [
        ("2", "unsupported version 2"), ("true", "unsupported version True"),
        ("1.0", "unsupported version 1.0"), ('"1"', "unsupported version '1'"),
    ], ids=["two", "true", "float", "string"])
    def test_version_is_checked_not_coerced(self, version, text):
        header = '{"format": "grtc-trace", "v": %s, "initial": ["w1", "w2"]}\n' % version
        with pytest.raises(ParseError, match=re.escape(text)) as exc:
            read_trace(io.StringIO(header))
        assert exc.value.line == 1

    @pytest.mark.parametrize("event, text", [
        ('{"t": -1.0, "op": "arrive", "worker": "x1"}', "event time -1.0 is not"),
        ('{"t": 0.0, "op": "arrive", "worker": "x1"}', "event time 0.0 is not"),
        ('{"t": NaN, "op": "arrive", "worker": "x1"}', "event time nan is not"),
        ('{"t": Infinity, "op": "arrive", "worker": "x1"}', "event time inf is not"),
        ('{"t": "0.7", "op": "arrive", "worker": "x1"}', "event time '0.7' is not"),
        ('{"t": true, "op": "arrive", "worker": "x1"}', "event time True is not"),
        ('{"t": 1.5, "op": "arrive", "worker": 7}', "worker 7 is not a string"),
        ('{"t": 1.5, "op": ["arrive"], "worker": "x1"}', "unknown op ['arrive']"),
        ('[1.5, "arrive", "x1"]', "malformed event"),
    ], ids=["negative", "zero", "nan", "infinite", "time-string", "time-bool",
            "worker-number", "op-array", "not-an-object"])
    def test_event_fields_are_checked_not_coerced(self, event, text):
        buf = io.StringIO(
            '{"format": "grtc-trace", "v": 1, "initial": ["w1", "w2"]}\n'
            + event + '\n{"t": 2.5, "op": "depart", "worker": "w1"}\n')
        with pytest.raises(ParseError, match=re.escape(text)) as exc:
            read_trace(buf)
        assert exc.value.line == 2

    EVENT = '{"t": 2.0, "op": "arrive", "worker": "x1"}'
    PARSED = [WorkerEvent(1.0, "depart", "w1"), WorkerEvent(2.0, "arrive", "x1")]

    @pytest.mark.parametrize("line, want", [
        ("", PARSED[:1]),
        (" \t ", PARSED[:1]),
        ("  " + EVENT, PARSED),
        (EVENT + " \t", PARSED),
        ("\ufeff" + EVENT, "Unexpected UTF-8 BOM (decode using utf-8-sig)"),
        (EVENT + " " + EVENT, "Extra data"),
        (EVENT + EVENT, "Extra data"),
        ('{"t": 1' + "0" * 4300 + ', "op": "arrive", "worker": "x1"}',
         "Exceeds the limit (4300 digits) for integer string conversion: value has "
         "4301 digits; use sys.set_int_max_str_digits() to increase the limit"),
        (EVENT[:-1], "Expecting ',' delimiter"),
        (EVENT[:-1] + ",}", "Expecting property name enclosed in double quotes"),
        ("nul", "Expecting value"),
        ('"x1"', "malformed event '\"x1\"'"),
    ], ids=["blank", "whitespace", "leading-space", "trailing-space", "bom", "two-values",
            "two-values-unspaced", "digit-limit", "unclosed", "trailing-comma", "not-json",
            "a-string"])
    def test_line_shapes(self, line, want):
        # the C scanner reads a bare event; every other line goes through json.loads
        buf = io.StringIO('{"format": "grtc-trace", "v": 1, "initial": ["w1", "w2"]}\n'
                          '{"t": 1.0, "op": "depart", "worker": "w1"}\n' + line + "\n")
        if isinstance(want, list):
            assert read_trace(buf) == (["w1", "w2"], want)
            return
        with pytest.raises(ParseError) as exc:
            read_trace(buf)
        assert str(exc.value) == f"line 3: {want}" and exc.value.line == 3

    def test_integer_time_reads_as_float(self):
        buf = io.StringIO(
            '{"format": "grtc-trace", "v": 1, "initial": ["w1", "w2"]}\n'
            '{"t": 2, "op": "arrive", "worker": "x1"}\n')
        _, [event] = read_trace(buf)
        assert type(event.t) is float and event.t == 2.0


# -- edited trace files: only a GrtcError may escape ------------------------

def trace_lines() -> list[str]:
    """A short trace with arrivals and departures, one JSON text a line."""
    buf = io.StringIO()
    write_trace(buf, *generate_trace(TraceConfig(seed=3, duration=12, arrival_rate=0.8,
                                                 departure_rate=0.15, initial_workers=5)))
    return buf.getvalue().splitlines()


LINES = trace_lines()
TRACE_NAMES = ["t", "op", "worker", "arrive", "depart", "w1", "w2", "w9", "format",
               "grtc-trace", "v", "initial"]
TRACE_VALUES = json_values(TRACE_NAMES)


@st.composite
def edited_traces(draw) -> str:
    """The trace with one line deleted, replaced, or with one key of its
    object deleted or set to any JSON value."""
    lines = list(LINES)
    k = draw(st.integers(0, len(lines) - 1))
    how = draw(st.sampled_from(["delete", "text", "value", "key"]))
    if how == "delete":
        del lines[k]
    elif how == "text":
        lines[k] = draw(st.text(max_size=12))
    elif how == "value":
        lines[k] = json.dumps(draw(TRACE_VALUES))
    else:
        obj = json.loads(lines[k])
        key = draw(st.sampled_from(TRACE_NAMES))
        if draw(st.booleans()):
            obj.pop(key, None)
        else:
            obj[key] = draw(TRACE_VALUES)
        lines[k] = json.dumps(obj)
    return "\n".join(lines) + "\n"


@settings(max_examples=200, deadline=None)
@given(edited_traces())
def test_edited_trace_raises_only_grtc_errors(text):
    policy = OperatorPolicy(d=2)
    try:
        roster, events = read_trace(io.StringIO(text))
        run_rotation(build_initial_state(roster, policy), policy,
                     StrategySet.seeded("balanced", "pred-first", 0),
                     TaskSchedule.periodic(1.0, 12), events)
    except GrtcError:
        pass
