#!/usr/bin/env python3
"""Summarize a khop Chrome trace (khop.trace v1, as written by
obs::Tracer::write_chrome_json) into the tables a slow run needs:

* per span name: count, total time and self time (total minus the time of
  the spans nested directly inside it on the same thread);
* per thread: busy time (the union of its top-level spans) and utilization
  (busy over the trace's wall time);
* overall utilization, sum of busy time over (wall time x threads);
* the TOP span names by self time.

Usage:
    python3 perfbench/trace_summary.py TRACE.json
"""

import argparse
import json
import sys
from collections import defaultdict

TOP = 15


def load_spans(path):
    """Complete ("X") events as (tid, start_us, dur_us, name) tuples."""
    with open(path, encoding="utf-8") as f:
        doc = json.load(f)
    events = doc["traceEvents"] if isinstance(doc, dict) else doc
    return [(e["tid"], float(e["ts"]), float(e["dur"]), e["name"])
            for e in events if e.get("ph") == "X"]


def summarize(spans):
    """Aggregates spans; times in the result are in milliseconds."""
    by_name = defaultdict(lambda: {"count": 0, "total_ms": 0.0, "self_ms": 0.0})
    busy_us = defaultdict(float)
    by_thread = defaultdict(list)
    for tid, ts, dur, name in spans:
        by_thread[tid].append((ts, dur, name))

    for tid, events in by_thread.items():
        # Outer spans first at equal start, so a parent precedes its children.
        events.sort(key=lambda e: (e[0], -e[1]))
        stack = []  # [end_us, name, dur_us, child_us] of the open spans
        busy_end = float("-inf")

        def close(entry):
            _, name, dur, child = entry
            by_name[name]["self_ms"] += (dur - child) / 1e3

        for ts, dur, name in events:
            while stack and stack[-1][0] <= ts:
                close(stack.pop())
            if stack:
                stack[-1][3] += dur
            else:
                # Top-level span: extend the thread's busy union.
                start = max(ts, busy_end)
                if ts + dur > start:
                    busy_us[tid] += ts + dur - start
                busy_end = max(busy_end, ts + dur)
            stats = by_name[name]
            stats["count"] += 1
            stats["total_ms"] += dur / 1e3
            stack.append([ts + dur, name, dur, 0.0])
        while stack:
            close(stack.pop())

    if spans:
        t0 = min(ts for _, ts, _, _ in spans)
        t1 = max(ts + dur for _, ts, dur, _ in spans)
        wall_ms = (t1 - t0) / 1e3
    else:
        wall_ms = 0.0
    threads = {
        str(tid): {
            "busy_ms": busy_us[tid] / 1e3,
            "utilization": (busy_us[tid] / 1e3 / wall_ms) if wall_ms else 0.0,
        }
        for tid in sorted(by_thread)
    }
    total_busy = sum(t["busy_ms"] for t in threads.values())
    return {
        "wall_ms": wall_ms,
        "threads": threads,
        "utilization": (total_busy / (wall_ms * len(threads))
                        if wall_ms and threads else 0.0),
        "spans": dict(by_name),
    }


def format_summary(summary):
    lines = [f"trace summary: wall {summary['wall_ms']:.1f} ms, "
             f"{len(summary['threads'])} threads, utilization "
             f"{summary['utilization']:.3f}"]
    lines.append(f"  {'thread':>8} {'busy_ms':>12} {'util':>7}")
    for tid, t in summary["threads"].items():
        lines.append(f"  {tid:>8} {t['busy_ms']:12.1f} {t['utilization']:7.3f}")
    ranked = sorted(summary["spans"].items(), key=lambda kv: -kv[1]["self_ms"])
    lines.append(f"  top {min(TOP, len(ranked))} spans by self time:")
    lines.append(f"  {'span':<28} {'count':>9} {'total_ms':>12} {'self_ms':>12}")
    for name, s in ranked[:TOP]:
        lines.append(f"  {name:<28} {s['count']:9d} {s['total_ms']:12.1f} "
                     f"{s['self_ms']:12.1f}")
    return "\n".join(lines)


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("trace")
    args = parser.parse_args(argv)
    print(format_summary(summarize(load_spans(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
