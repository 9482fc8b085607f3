#!/usr/bin/env python3
"""Summarize and validate Chrome-trace + heartbeat output from geogossip.

parallel_sweep --trace=FILE (like every experiment driver) writes Chrome
trace-event JSON: one complete ("ph":"X") event per recorded span, with
counter totals and the dropped-event count under "otherData".  This tool
reads one such file and prints

  - per-phase wall totals: sum/count/mean of every span name
  - the top-k slowest "replicate" spans with their (cell, replicate) args
  - counter totals and dropped-event count

Validation (--validate) checks the structural promises the telemetry
subsystem makes for sweep traces:

  - at least one "replicate" span exists and each carries cell/replicate
    args
  - every replicate span is time-enclosed by a "cell" envelope span for
    its cell (the synthetic tid-0 lane)
  - at least one "graph_build" and one "routing_mirror" span nest inside
    a replicate span (same tid, time containment)

A heartbeat file (--heartbeat FILE) holds one JSON object, the writer's
latest beat: it must parse, be a "heartbeat" record carrying every schema
key, and report completed <= total; --expect-complete additionally
requires completed == total.

Exit codes: 0 ok, 1 validation failure, 2 usage/IO error.

Self-test: `trace_summary.py --self-test` runs the built-in unit tests
(no files or arguments needed); CI and ctest invoke it that way.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from pathlib import Path

HEARTBEAT_KEYS = (
    "record", "scenario", "shard_index", "shard_count", "completed",
    "total", "cell", "replicate", "rss_kb", "flush_unix_ms", "seq",
)


def load_trace(path, err):
    """Returns (events, other_data) or None on IO/parse failure."""
    try:
        doc = json.loads(Path(path).read_text())
    except (OSError, ValueError) as exc:
        print(f"error: {path}: {exc}", file=err)
        return None
    if not isinstance(doc, dict) or "traceEvents" not in doc:
        print(f"error: {path}: not a Chrome trace (no traceEvents)", file=err)
        return None
    events = [
        e for e in doc["traceEvents"]
        if isinstance(e, dict) and e.get("ph") == "X"
    ]
    return events, doc.get("otherData", {})


def encloses(outer, inner):
    """Time containment with half-open tolerance at equal endpoints."""
    o_start, o_end = outer["ts"], outer["ts"] + outer.get("dur", 0)
    i_start, i_end = inner["ts"], inner["ts"] + inner.get("dur", 0)
    return o_start <= i_start and i_end <= o_end


def phase_table(events):
    """name -> [total_us, count]."""
    table = {}
    for event in events:
        entry = table.setdefault(event.get("name", "?"), [0.0, 0])
        entry[0] += event.get("dur", 0)
        entry[1] += 1
    return table


def summarize(events, other, top_k, out):
    table = phase_table(events)
    if table:
        print("phase totals (wall time attributed per span name):", file=out)
        width = max(len(name) for name in table)
        for name, (total, count) in sorted(
            table.items(), key=lambda item: -item[1][0]
        ):
            mean = total / count
            print(
                f"  {name:<{width}}  total {total / 1000.0:10.3f} ms"
                f"  count {count:6d}  mean {mean / 1000.0:9.3f} ms",
                file=out,
            )
    replicates = [e for e in events if e.get("name") == "replicate"]
    slowest = sorted(replicates, key=lambda e: -e.get("dur", 0))[:top_k]
    if slowest:
        print(f"top {len(slowest)} slowest replicates:", file=out)
        for event in slowest:
            args = event.get("args", {})
            print(
                f"  cell {args.get('cell', '?'):>4} "
                f"replicate {args.get('replicate', '?'):>4}  "
                f"{event.get('dur', 0) / 1000.0:9.3f} ms",
                file=out,
            )
    dropped = other.get("droppedEvents", 0)
    counters = other.get("counters", {})
    if dropped:
        print(f"dropped events: {dropped}", file=out)
    if counters:
        print("counters:", file=out)
        width = max(len(name) for name in counters)
        for name in sorted(counters):
            print(f"  {name:<{width}}  {counters[name]}", file=out)


def validate_trace(events, err):
    """Returns a list of failure strings (empty = valid)."""
    failures = []
    replicates = [e for e in events if e.get("name") == "replicate"]
    cells = [e for e in events if e.get("name") == "cell"]
    if not replicates:
        failures.append("no replicate spans")
    for event in replicates:
        args = event.get("args", {})
        if "cell" not in args or "replicate" not in args:
            failures.append(
                f"replicate span at ts={event.get('ts')} lacks "
                "cell/replicate args"
            )
            break
    # Every replicate must sit inside a cell envelope for ITS cell: the
    # envelopes are synthesized from per-task min/max times, so a
    # violation means the Runner recorded inconsistent task times.
    for event in replicates:
        cell_index = event.get("args", {}).get("cell")
        if cell_index is None:
            continue
        if not any(
            c.get("args", {}).get("cell") == cell_index and encloses(c, event)
            for c in cells
        ):
            failures.append(
                f"replicate span (cell {cell_index}, "
                f"ts={event.get('ts')}) not enclosed by its cell span"
            )
            break
    for phase in ("graph_build", "routing_mirror"):
        nested = any(
            e.get("name") == phase
            and any(
                r.get("tid") == e.get("tid") and encloses(r, e)
                for r in replicates
            )
            for e in events
        )
        if not nested:
            failures.append(f"no {phase} span nested inside a replicate span")
    for failure in failures:
        print(f"trace validation: {failure}", file=err)
    return failures


def heartbeat_failure(path, expect_complete):
    """The first thing wrong with a heartbeat file, or None."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        return f"{path}: {exc}"
    if not text.strip():
        return f"{path}: empty heartbeat file"
    try:
        beat = json.loads(text)
    except ValueError:
        return f"{path}: not one JSON object"
    if not isinstance(beat, dict) or beat.get("record") != "heartbeat":
        return f"{path}: record != heartbeat"
    missing = [key for key in HEARTBEAT_KEYS if key not in beat]
    if missing:
        return f"{path}: missing keys: {', '.join(missing)}"
    if beat["completed"] > beat["total"]:
        return f"{path}: completed {beat['completed']} > total {beat['total']}"
    if expect_complete and beat["completed"] != beat["total"]:
        return (f"{path}: beat reports {beat['completed']}/{beat['total']}"
                " — sweep did not complete")
    return None


def validate_heartbeat(path, expect_complete, err):
    """Returns a list of failure strings (empty = valid)."""
    failure = heartbeat_failure(path, expect_complete)
    if failure is None:
        return []
    print(f"heartbeat validation: {failure}", file=err)
    return [failure]


def run(args, out, err):
    loaded = load_trace(args.trace, err)
    if loaded is None:
        return 2
    events, other = loaded
    summarize(events, other, args.top, out)
    failed = False
    if args.validate:
        failed |= bool(validate_trace(events, err))
    if args.heartbeat:
        failed |= bool(
            validate_heartbeat(args.heartbeat, args.expect_complete, err)
        )
    if failed:
        return 1
    if args.validate or args.heartbeat:
        print("validation: ok", file=out)
    return 0


def build_parser():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("trace", nargs="?", help="Chrome trace JSON file")
    parser.add_argument("--top", type=int, default=10,
                        help="slowest replicates to list (default 10)")
    parser.add_argument("--validate", action="store_true",
                        help="check span structure (cell/replicate nesting)")
    parser.add_argument("--heartbeat",
                        help="also validate this heartbeat file")
    parser.add_argument("--expect-complete", action="store_true",
                        help="require the heartbeat to report completion")
    parser.add_argument("--self-test", action="store_true",
                        help="run built-in unit tests and exit")
    return parser


# --------------------------------------------------------------- self-test ---


def _span(name, ts, dur, tid=1, **args):
    event = {"name": name, "ph": "X", "pid": 1, "tid": tid,
             "ts": ts, "dur": dur}
    if args:
        event["args"] = args
    return event


def _trace(events, dropped=0, counters=None):
    return json.dumps(
        {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "otherData": {
                "droppedEvents": dropped,
                "counters": counters or {},
            },
        }
    )


def _beat(seq, completed, total, **overrides):
    record = {
        "record": "heartbeat", "scenario": "s", "shard_index": 0,
        "shard_count": 1, "completed": completed, "total": total,
        "cell": 0, "replicate": 0, "rss_kb": 1000,
        "flush_unix_ms": 1700000000000 + seq, "seq": seq,
    }
    record.update(overrides)
    return json.dumps(record)


def _valid_events():
    return [
        _span("cell", 0, 1000, tid=0, cell=0, n=64),
        _span("replicate", 0, 450, tid=1, cell=0, replicate=0),
        _span("graph_build", 10, 100, tid=1, n=64),
        _span("routing_mirror", 120, 50, tid=1, n=64),
        _span("replicate", 500, 400, tid=1, cell=0, replicate=1),
        _span("graph_build", 510, 90, tid=1, n=64),
        _span("routing_mirror", 610, 40, tid=1, n=64),
    ]


def _run(argv, trace_text, heartbeat_text=None):
    """Runs run() on temp files; returns (exit_code, stdout, stderr)."""
    import io

    with tempfile.TemporaryDirectory() as tmp:
        trace_path = Path(tmp) / "trace.json"
        trace_path.write_text(trace_text)
        full_argv = [str(trace_path)] + argv
        if heartbeat_text is not None:
            hb_path = Path(tmp) / "heartbeat.jsonl"
            hb_path.write_text(heartbeat_text)
            full_argv += ["--heartbeat", str(hb_path)]
        args = build_parser().parse_args(full_argv)
        out, err = io.StringIO(), io.StringIO()
        code = run(args, out, err)
        return code, out.getvalue(), err.getvalue()


def self_test():
    failures = []

    def check(name, condition):
        if not condition:
            failures.append(name)
            print(f"FAIL {name}")
        else:
            print(f"ok   {name}")

    # A structurally sound trace summarizes and validates clean.
    valid = _trace(_valid_events(), counters={"routing.hops": 42})
    code, out, _ = _run(["--validate", "--top", "1"], valid)
    check("valid_trace_ok", code == 0 and "validation: ok" in out)
    check("phase_totals_listed", "graph_build" in out and "cell" in out)
    check("counters_listed", "routing.hops" in out)
    slow_rows = [
        ln for ln in out.splitlines()
        if ln.startswith("  cell ") and " replicate " in ln
    ]
    check("top_k_respected", len(slow_rows) == 1)

    # Replicate span outside its cell envelope fails containment.
    events = _valid_events()
    events[4]["ts"] = 2000  # beyond the cell span's [0, 1000]
    code, _, err = _run(["--validate"], _trace(events))
    check("escaped_replicate_fails", code == 1 and "not enclosed" in err)

    # Missing phase spans fail validation.
    events = [e for e in _valid_events() if e["name"] != "routing_mirror"]
    code, _, err = _run(["--validate"], _trace(events))
    check("missing_phase_fails", code == 1 and "routing_mirror" in err)

    # Replicate spans without args fail validation.
    events = _valid_events()
    del events[1]["args"]
    del events[4]["args"]
    code, _, err = _run(["--validate"], _trace(events))
    check("argless_replicate_fails", code == 1 and "args" in err)

    # No replicate spans at all fails validation.
    code, _, err = _run(["--validate"], _trace([_span("cell", 0, 10, tid=0)]))
    check("no_replicates_fails", code == 1 and "no replicate" in err)

    # Not-a-trace input is a usage error, not a crash.
    code, _, err = _run([], "{}")
    check("not_a_trace", code == 2 and "traceEvents" in err)
    code, _, err = _run([], "not json")
    check("unparsable_trace", code == 2)

    # A healthy beat validates; --expect-complete distinguishes a
    # finished sweep from a merely alive one.
    healthy = _beat(2, 4, 4) + "\n"
    code, out, _ = _run([], valid, heartbeat_text=healthy)
    check("heartbeat_ok", code == 0 and "validation: ok" in out)
    code, _, _ = _run(["--expect-complete"], valid, heartbeat_text=healthy)
    check("complete_ok", code == 0)
    alive = _beat(1, 2, 4) + "\n"
    code, _, err = _run(["--expect-complete"], valid, heartbeat_text=alive)
    check("incomplete_fails", code == 1 and "did not complete" in err)

    # Schema violations: torn object, missing key, count overflow.
    torn = _beat(1, 2, 4)[:15] + "\n"
    code, _, err = _run([], valid, heartbeat_text=torn)
    check("torn_beat_fails", code == 1 and "not one JSON object" in err)
    missing_key = json.dumps({"record": "heartbeat", "seq": 0}) + "\n"
    code, _, err = _run([], valid, heartbeat_text=missing_key)
    check("missing_keys_fail", code == 1 and "missing keys" in err)
    over = _beat(0, 9, 4) + "\n"
    code, _, err = _run([], valid, heartbeat_text=over)
    check("overflow_fails", code == 1 and ">" in err)
    code, _, err = _run([], valid, heartbeat_text="")
    check("empty_heartbeat_fails", code == 1 and "empty" in err)

    if failures:
        print(f"{len(failures)} self-test failure(s)", file=sys.stderr)
        return 1
    print("all self-tests passed")
    return 0


def main(argv=None):
    args = build_parser().parse_args(argv)
    if args.self_test:
        return self_test()
    if args.trace is None:
        print("error: no trace file (or --self-test)", file=sys.stderr)
        return 2
    return run(args, sys.stdout, sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
