#!/usr/bin/env python3
"""Validate an a4nn trace file (--trace-out / A4NN_TRACE output).

Checks, in order:
  1. The file parses as JSON and has the Chrome-trace shape: a
     "traceEvents" list whose entries are complete spans ("ph":"X"),
     instants ("ph":"i"), or metadata ("ph":"M").
  2. Spans on each (pid, tid) lane nest properly: two spans on one lane
     either don't overlap or one fully contains the other. A partial
     overlap means a clock went backwards or a lane id is being shared.
  3. The embedded metrics block agrees with the span arguments:
     scheduler retries / wasted seconds summed off the virtual-timeline
     job spans equal the "sched.*" counters, per-record accounting
     instants equal the "nas.*" counters, and their engine-overhead args
     sum to the "penguin.engine_overhead_seconds" counter. These are the
     same numbers RunSummary derives from the registry, so a mismatch
     means the trace and the summary disagree about what the run did.

Usage: check_trace.py TRACE_JSON

Exits 0 and prints a one-line summary per check on success; prints the
failure and exits 1 otherwise.
"""

import json
import sys

HOST_PID = 1
VIRTUAL_PID = 2
CLUSTER_PID = 3
STREAM_PID = 4

# Every cluster counter increments alongside exactly one pid-3 trace event
# (Master::note / the job.remote completion span), so trace and metrics
# must agree event-for-event, not just in aggregate.
CLUSTER_PAIRS = [
    ("cluster.remote_results", "job.remote", "X"),
    ("cluster.local_fallbacks", "job.local_fallback", "i"),
    ("cluster.dispatches", "job.dispatch", "i"),
    ("cluster.redispatches", "job.redispatch", "i"),
    ("cluster.worker_failures", "worker.failure", "i"),
    ("cluster.worker_quarantines", "worker.quarantine", "i"),
    ("cluster.heartbeat_timeouts", "worker.heartbeat_timeout", "i"),
    ("cluster.stale_results", "result.stale", "i"),
    ("cluster.corrupt_frames", "frame.corrupt", "i"),
    ("cluster.corrupt_results", "result.corrupt", "i"),
    ("cluster.worker_connects", "worker.connect", "i"),
    ("cluster.worker_rejects", "worker.reject", "i"),
    ("cluster.injected_partitions", "fault.partition", "i"),
    ("cluster.injected_torn_frames", "fault.torn_frame", "i"),
]
# Every stream counter increments alongside exactly one pid-4 instant
# (Supervisor::note / StreamScenario::note fire both at the same point),
# so the streaming loop's self-reported counts are held to the trace.
STREAM_PAIRS = [
    ("stream.windows", "drift.window"),
    ("stream.triggers_fired", "trigger.fired"),
    ("stream.triggers_acked", "trigger.acked"),
    ("stream.triggers_completed", "trigger.completed"),
    ("stream.triggers_shed", "trigger.shed"),
    ("stream.corrupt_frames", "frame.corrupt_drop"),
    ("stream.child_restarts", "child.restart"),
    ("stream.child_crashes", "child.crash"),
    ("stream.watchdog_stalls", "child.stall"),
    ("stream.degraded_entries", "child.degraded"),
]
# Hardware-aware objective instants live on the host lane (pid 1): every
# latency probe bumps its counter at the same point it emits the instant,
# so the two must agree one-for-one.
HARDWARE_PAIRS = [
    ("latency.probes", "latency.probe"),
]
# Everything crossing JSON is an IEEE-754 round-trippable double, so the
# sums should match exactly; the epsilon only absorbs the associativity of
# Python summing in event order vs C++ summing in placement order.
REL_EPS = 1e-9


def fail(message):
    print(f"check_trace: FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def close(a, b):
    return abs(a - b) <= REL_EPS * max(1.0, abs(a), abs(b))


def check_shape(doc):
    if not isinstance(doc, dict) or "traceEvents" not in doc:
        fail("document is not an object with a traceEvents key")
    events = doc["traceEvents"]
    if not isinstance(events, list) or not events:
        fail("traceEvents is empty")
    for i, e in enumerate(events):
        for key in ("name", "ph", "pid", "tid"):
            if key not in e:
                fail(f"event {i} is missing {key!r}: {e}")
        if e["ph"] == "X":
            if "ts" not in e or "dur" not in e:
                fail(f"complete span {i} is missing ts/dur: {e}")
            if e["dur"] < 0:
                fail(f"span {e['name']!r} has negative duration {e['dur']}")
        elif e["ph"] == "i":
            if "ts" not in e:
                fail(f"instant {i} is missing ts: {e}")
        elif e["ph"] != "M":
            fail(f"event {i} has unknown phase {e['ph']!r}")
    return events


def check_nesting(events):
    lanes = {}
    for e in events:
        if e["ph"] == "X":
            lanes.setdefault((e["pid"], e["tid"]), []).append(e)
    checked = 0
    for (pid, tid), spans in lanes.items():
        # Sort by start, widest first, so a parent precedes its children.
        spans.sort(key=lambda e: (e["ts"], -e["dur"]))
        stack = []
        for e in spans:
            start, end = e["ts"], e["ts"] + e["dur"]
            while stack and start >= stack[-1] - 1e-6:
                stack.pop()
            if stack and end > stack[-1] + 1e-6:
                fail(
                    f"span {e['name']!r} on lane pid={pid} tid={tid} "
                    f"([{start}, {end}]) partially overlaps its enclosing "
                    f"span (ends at {stack[-1]})"
                )
            stack.append(end)
            checked += 1
    print(f"check_trace: ok: {checked} spans nest on {len(lanes)} lanes")


def check_metrics_agreement(doc, events):
    counters = doc.get("metrics", {}).get("counters")
    if counters is None:
        print("check_trace: ok: no embedded metrics block (skipping cross-check)")
        return

    span_retries = 0
    span_wasted = 0.0
    fault_events = 0
    accounting = 0
    overhead = 0.0
    for e in events:
        args = e.get("args", {})
        if (
            e["ph"] == "X"
            and e["pid"] == VIRTUAL_PID
            and e.get("cat") == "sched"
        ):
            span_retries += int(args["retries"])
            span_wasted += args["wasted_seconds"]
        if e["name"] in ("fault.transient", "fault.crash"):
            fault_events += 1
        if e["name"] == "record.accounting":
            accounting += 1
            overhead += args["engine_overhead_seconds"]

    expectations = [
        ("sched.retries", span_retries, "job-span retries args"),
        ("sched.wasted_virtual_seconds", span_wasted, "job-span wasted args"),
        (
            "sched.transient_faults+sched.job_crashes",
            fault_events,
            "fault events",
        ),
        ("nas.evaluations", accounting, "record.accounting instants"),
        (
            "penguin.engine_overhead_seconds",
            overhead,
            "record.accounting overhead args",
        ),
    ]
    for counter_name, observed, source in expectations:
        expected = sum(counters.get(part, 0.0) for part in counter_name.split("+"))
        if not close(expected, observed):
            fail(
                f"{source} sum to {observed} but the {counter_name} "
                f"counter says {expected}"
            )
        print(f"check_trace: ok: {source} match {counter_name} = {expected}")


def check_cluster_agreement(doc, events):
    """Cross-check pid-3 (cluster master) lanes against cluster.* counters.

    Passes trivially for solo runs: with no cluster counters and no pid-3
    events there is nothing to disagree about.
    """
    counters = doc.get("metrics", {}).get("counters", {})
    cluster_events = [e for e in events if e["pid"] == CLUSTER_PID]
    has_counters = any(name.startswith("cluster.") for name in counters)
    if not cluster_events and not has_counters:
        print("check_trace: ok: no cluster activity (skipping pid-3 cross-check)")
        return

    by_name = {}
    for e in cluster_events:
        by_name.setdefault((e["name"], e["ph"]), []).append(e)

    checked = 0
    for counter_name, event_name, phase in CLUSTER_PAIRS:
        expected = counters.get(counter_name, 0.0)
        observed = len(by_name.get((event_name, phase), []))
        if not close(expected, observed):
            fail(
                f"pid-3 {event_name!r} events number {observed} but the "
                f"{counter_name} counter says {expected}"
            )
        checked += 1
    # Remote completions must also balance the scheduler's view: every
    # sched.remote_job the scheduler handed out came back as a result.
    if "sched.remote_jobs" in counters:
        if not close(
            counters["sched.remote_jobs"],
            counters.get("cluster.remote_results", 0.0),
        ):
            fail(
                "sched.remote_jobs "
                f"({counters['sched.remote_jobs']}) disagrees with "
                f"cluster.remote_results "
                f"({counters.get('cluster.remote_results', 0.0)})"
            )
    print(
        f"check_trace: ok: {len(cluster_events)} pid-3 events match "
        f"{checked} cluster counters"
    )


def check_stream_agreement(doc, events):
    """Cross-check pid-4 (streaming loop) instants against stream.* counters.

    Passes trivially when the stream scenario never ran: no stream
    counters and no pid-4 events means nothing to disagree about.
    """
    counters = doc.get("metrics", {}).get("counters", {})
    stream_events = [e for e in events if e["pid"] == STREAM_PID]
    has_counters = any(name.startswith("stream.") for name in counters)
    if not stream_events and not has_counters:
        print("check_trace: ok: no stream activity (skipping pid-4 cross-check)")
        return

    by_name = {}
    for e in stream_events:
        if e["ph"] == "i":
            by_name.setdefault(e["name"], []).append(e)

    checked = 0
    for counter_name, event_name in STREAM_PAIRS:
        expected = counters.get(counter_name, 0.0)
        observed = len(by_name.get(event_name, []))
        if not close(expected, observed):
            fail(
                f"pid-4 {event_name!r} instants number {observed} but the "
                f"{counter_name} counter says {expected}"
            )
        checked += 1
    # The trigger ladder only moves forward: a trigger must be fired
    # before it is acked, and acked before it completes.
    fired = counters.get("stream.triggers_fired", 0.0)
    acked = counters.get("stream.triggers_acked", 0.0)
    completed = counters.get("stream.triggers_completed", 0.0)
    if not (fired >= acked >= completed):
        fail(
            f"trigger ladder runs backwards: fired={fired} "
            f"acked={acked} completed={completed}"
        )
    print(
        f"check_trace: ok: {len(stream_events)} pid-4 events match "
        f"{checked} stream counters"
    )


def check_hardware_agreement(doc, events):
    """Cross-check latency.* counters against their host instants.

    Passes trivially for flops-objective runs, which probe no latency: no
    hardware counters and no matching instants means nothing to disagree
    about.
    """
    counters = doc.get("metrics", {}).get("counters", {})
    names = {event_name for _, event_name in HARDWARE_PAIRS}
    instants = [
        e
        for e in events
        if e["pid"] == HOST_PID and e["ph"] == "i" and e["name"] in names
    ]
    has_counters = any(name.startswith("latency.") for name in counters)
    if not instants and not has_counters:
        print(
            "check_trace: ok: no hardware-objective activity "
            "(skipping latency cross-check)"
        )
        return

    by_name = {}
    for e in instants:
        by_name.setdefault(e["name"], []).append(e)

    checked = 0
    for counter_name, event_name in HARDWARE_PAIRS:
        expected = counters.get(counter_name, 0.0)
        observed = len(by_name.get(event_name, []))
        if not close(expected, observed):
            fail(
                f"{event_name!r} instants number {observed} but the "
                f"{counter_name} counter says {expected}"
            )
        checked += 1
    print(
        f"check_trace: ok: {len(instants)} hardware-objective instants "
        f"match {checked} counters"
    )


def main():
    if len(sys.argv) != 2:
        print(__doc__, file=sys.stderr)
        sys.exit(2)
    try:
        with open(sys.argv[1], encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        fail(f"cannot read {sys.argv[1]}: {e}")

    events = check_shape(doc)
    real = [e for e in events if e["ph"] != "M"]
    print(f"check_trace: ok: {len(real)} events parse as Chrome trace format")
    check_nesting(events)
    check_metrics_agreement(doc, real)
    check_cluster_agreement(doc, real)
    check_stream_agreement(doc, real)
    check_hardware_agreement(doc, real)
    print("check_trace: PASS")


if __name__ == "__main__":
    main()
