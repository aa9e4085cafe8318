#!/usr/bin/env python3
"""CI gates for the EVC_TRACE telemetry pipeline. Stdlib only.

Subcommands:

  validate TRACE.json --schema tools/trace_schema.json \
      [--require-span NAME ...] [--require-counter NAME ...] \
      [--check-links] [--require-chain NAME,NAME,...]
    Structural check of a Chrome trace-event file against the checked-in
    schema (required top-level keys; per-ph required fields and types), plus
    presence checks for the span/counter names the control stack is
    supposed to emit. --check-links additionally verifies the causal-tracing
    invariant: every span's parent_span_id resolves to a span_id recorded
    under the same trace_id (no dangling parents). --require-chain demands
    at least one trace id whose spans cover every name in the comma list —
    i.e. one request whose full submit→…→fsync chain was captured end to
    end. Exit 1 with a per-problem report on any violation.

  promlint METRICS.txt
    Lint a Prometheus text-exposition (version 0.0.4) scrape: every sample
    line must parse (name, optional {labels}, numeric value), belong to a
    family declared by a preceding # TYPE line (declared exactly once), and
    counter families must carry the _total suffix.

  explain TRACE.json [TRACE_ID]
    Explain one request from its trace alone: its spans as a parent->child
    tree, each with its duration, its self time (duration minus the part
    its children cover) and every arg, then its instants (a shed records
    the remaining budget as its value), then the sum of the self times
    against the root span's duration. Without TRACE_ID, explains the
    earliest request whose spans include svc.step. Exit 1 when no span
    carries the id.

  overhead OFF.json ON.json [--max-regression 0.03]
    Compare two google-benchmark JSON reports (same benchmark, run with the
    tracer disabled vs enabled) and fail when the median real_time regresses
    by more than --max-regression (fractional). Uses the `median` aggregate
    when repetitions produced one, the sole run otherwise.
"""

import argparse
import json
import re
import sys

TYPE_CHECKS = {
    "string": lambda v: isinstance(v, str),
    "number": lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
    "integer": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "object": lambda v: isinstance(v, dict),
}


def cmd_validate(args):
    with open(args.schema) as f:
        schema = json.load(f)
    with open(args.trace) as f:
        trace = json.load(f)

    problems = []
    for key in schema["required_top_level"]:
        if key not in trace:
            problems.append(f"missing top-level key '{key}'")
    unit = schema.get("display_time_unit")
    if unit and trace.get("displayTimeUnit") != unit:
        problems.append(
            f"displayTimeUnit is {trace.get('displayTimeUnit')!r}, "
            f"expected {unit!r}")

    events = trace.get("traceEvents", [])
    if not events:
        problems.append("traceEvents is empty — the tracer recorded nothing")

    kinds = schema["event_kinds"]
    seen_spans, seen_counters = set(), set()
    for i, ev in enumerate(events):
        ph = ev.get("ph")
        spec = kinds.get(ph)
        if spec is None:
            problems.append(f"event {i}: unknown ph {ph!r}")
            continue
        for field in spec["required"]:
            if field not in ev:
                problems.append(
                    f"event {i} ({ph} {ev.get('name')!r}): missing '{field}'")
        for field, expected in spec["types"].items():
            if field in ev and not TYPE_CHECKS[expected](ev[field]):
                problems.append(
                    f"event {i} ({ph} {ev.get('name')!r}): '{field}' is "
                    f"{type(ev[field]).__name__}, expected {expected}")
        if ph == "X":
            seen_spans.add(ev.get("name"))
        elif ph == "C":
            seen_counters.add(ev.get("name"))
        if len(problems) > 50:
            problems.append("... (truncated)")
            break

    for name in args.require_span:
        if name not in seen_spans:
            problems.append(f"required span '{name}' never recorded "
                            f"(spans present: {sorted(seen_spans)})")
    for name in args.require_counter:
        if name not in seen_counters:
            problems.append(f"required counter '{name}' never recorded "
                            f"(counters present: {sorted(seen_counters)})")

    chains = 0
    if args.check_links or args.require_chain:
        # trace_id -> {span_id -> name} and the parent edges to resolve.
        spans_by_trace, edges = {}, []
        for ev in events:
            if ev.get("ph") != "X":
                continue
            tid = ev.get("args", {}).get("trace_id")
            if not tid:
                continue  # untraced span: no causal claims to check
            sid = ev.get("args", {}).get("span_id")
            parent = ev.get("args", {}).get("parent_span_id", 0)
            spans_by_trace.setdefault(tid, {})[sid] = ev.get("name")
            if parent:
                edges.append((tid, ev.get("name"), sid, parent))

        if args.check_links:
            # The per-thread rings overwrite oldest-first, so a long run
            # legitimately truncates old traces (their roots are gone). A
            # dangling parent only indicates a propagation bug in a trace
            # whose root span (parent_span_id == 0) is still present; rootless
            # traces are ring truncation, counted but not failed.
            rooted = set()
            for ev in events:
                if ev.get("ph") != "X":
                    continue
                a = ev.get("args", {})
                if a.get("trace_id") and not a.get("parent_span_id", 0):
                    rooted.add(a["trace_id"])
            truncated = len(set(spans_by_trace) - rooted)
            dangling = 0
            for tid, name, sid, parent in edges:
                if tid not in rooted:
                    continue
                if parent not in spans_by_trace.get(tid, {}):
                    dangling += 1
                    if dangling <= 10:
                        problems.append(
                            f"span '{name}' (trace {tid}, span {sid}) has "
                            f"parent {parent} with no recorded span")
            if dangling > 10:
                problems.append(f"... and {dangling - 10} more dangling "
                                f"parent links")
            if not rooted:
                problems.append("--check-links: no rooted trace in the file "
                                "— was the request path traced?")
            if truncated:
                print(f"note: {truncated} trace(s) truncated by the ring "
                      f"(no root span); links checked on {len(rooted)} "
                      f"rooted trace(s)")

        if args.require_chain:
            want = set(args.require_chain.split(","))
            chains = sum(1 for spans in spans_by_trace.values()
                         if want.issubset(set(spans.values())))
            if chains == 0:
                union = set()
                for spans in spans_by_trace.values():
                    union.update(spans.values())
                problems.append(
                    f"no trace contains the full chain "
                    f"{sorted(want)} (traced span names seen: "
                    f"{sorted(union)})")

    if problems:
        print(f"FAIL: {args.trace}: {len(problems)} problem(s)")
        for p in problems:
            print(f"  - {p}")
        return 1
    extra = f", {chains} complete chain(s)" if args.require_chain else ""
    print(f"OK: {args.trace}: {len(events)} events, "
          f"{len(seen_spans)} span names, {len(seen_counters)} counter names"
          f"{extra}")
    return 0


# Prometheus text exposition 0.0.4: metric names, label pairs, and sample
# values (including the spelled-out non-finites).
PROM_NAME = r"[a-zA-Z_:][a-zA-Z0-9_:]*"
PROM_LABEL = re.compile(
    r'[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\]|\\.)*"')
PROM_SAMPLE = re.compile(
    rf"^({PROM_NAME})(\{{(.*)\}})? "
    rf"(-?(?:[0-9]*\.)?[0-9]+(?:[eE][+-]?[0-9]+)?|[+-]Inf|NaN)"
    rf"( -?[0-9]+)?$")


def cmd_promlint(args):
    with open(args.metrics) as f:
        lines = f.read().splitlines()

    problems = []
    declared = {}  # family -> type
    samples = 0
    for i, line in enumerate(lines, 1):
        if not line.strip():
            continue
        if line.startswith("#"):
            parts = line.split()
            if len(parts) >= 2 and parts[1] == "TYPE":
                if len(parts) != 4:
                    problems.append(f"line {i}: malformed TYPE: {line!r}")
                    continue
                _, _, family, kind = parts
                if kind not in ("counter", "gauge", "summary", "histogram",
                                "untyped"):
                    problems.append(f"line {i}: unknown type {kind!r}")
                if family in declared:
                    problems.append(
                        f"line {i}: duplicate TYPE for '{family}'")
                if kind == "counter" and not family.endswith("_total"):
                    problems.append(
                        f"line {i}: counter family '{family}' must end in "
                        f"_total")
                declared[family] = kind
            # HELP and other comments pass through.
            continue

        m = PROM_SAMPLE.match(line)
        if not m:
            problems.append(f"line {i}: unparseable sample: {line!r}")
            continue
        samples += 1
        name, _, labels, _, _ = m.groups()
        if labels:
            for pair in labels.split(","):
                if not PROM_LABEL.fullmatch(pair):
                    problems.append(
                        f"line {i}: bad label pair {pair!r}")
        # The sample must follow its family's TYPE header. Summary series
        # add _sum/_count to the family name.
        base_candidates = [name]
        for suffix in ("_sum", "_count"):
            if name.endswith(suffix):
                base_candidates.append(name[: -len(suffix)])
        if not any(c in declared for c in base_candidates):
            problems.append(
                f"line {i}: sample '{name}' precedes its TYPE header (or "
                f"family never declared)")

    if samples == 0:
        problems.append("no samples — empty scrape")
    if problems:
        print(f"FAIL: {args.metrics}: {len(problems)} problem(s)")
        for p in problems:
            print(f"  - {p}")
        return 1
    print(f"OK: {args.metrics}: {samples} samples across "
          f"{len(declared)} families")
    return 0


# Causal ids: the tree shows them, so explain does not list them as args.
LINK_ARGS = ("trace_id", "span_id", "parent_span_id")


def covered_us(start, end, intervals):
    """Length of the union of `intervals` clipped to [start, end]."""
    total, reach = 0.0, start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def cmd_explain(args):
    with open(args.trace) as f:
        events = json.load(f).get("traceEvents", [])
    by_trace = {}
    for ev in events:
        tid = ev.get("args", {}).get("trace_id")
        if tid and ev.get("ph") in ("X", "i"):
            by_trace.setdefault(tid, []).append(ev)

    tid = args.trace_id
    if tid is None:
        stepped = [t for t, evs in by_trace.items()
                   if any(e["ph"] == "X" and e.get("name") == "svc.step"
                          for e in evs)]
        if not stepped:
            print(f"FAIL: {args.trace}: no request's spans include svc.step")
            return 1
        tid = min(stepped, key=lambda t: min(e["ts"] for e in by_trace[t]))
    spans = [e for e in by_trace.get(tid, []) if e["ph"] == "X"]
    instants = [e for e in by_trace.get(tid, []) if e["ph"] == "i"]
    if not spans:
        print(f"FAIL: {args.trace}: no span carries trace id {tid}")
        return 1

    ids = {e["args"].get("span_id") for e in spans}
    children, roots = {}, []
    for e in sorted(spans, key=lambda e: e["ts"]):
        parent = e["args"].get("parent_span_id", 0)
        if parent in ids:
            children.setdefault(parent, []).append(e)
        else:
            roots.append(e)  # the request's root, or a ring-truncated orphan

    def fmt_args(a):
        return " ".join(f"{k}={v:g}" for k, v in a.items()
                        if k not in LINK_ARGS)

    t0 = min(e["ts"] for e in spans)
    self_sum = 0.0

    def show(e, depth):
        nonlocal self_sum
        kids = children.get(e["args"].get("span_id"), [])
        end = e["ts"] + e["dur"]
        self_us = e["dur"] - covered_us(
            e["ts"], end, [(k["ts"], k["ts"] + k["dur"]) for k in kids])
        self_sum += self_us
        label = "  " * depth + e["name"]
        print(f"  {label:<32} at +{e['ts'] - t0:10.1f} us  "
              f"dur {e['dur']:10.1f} us  self {self_us:10.1f} us  "
              f"{fmt_args(e['args'])}".rstrip())
        for k in kids:
            show(k, depth + 1)

    print(f"trace {tid}: {len(spans)} span(s), {len(instants)} instant(s)")
    for root in roots:
        show(root, 0)
    for e in sorted(instants, key=lambda e: e["ts"]):
        print(f"  instant {e['name']} at +{e['ts'] - t0:.1f} us  "
              f"{fmt_args(e['args'])}".rstrip())
    root = roots[0]
    extent = max(e["ts"] + e["dur"] for e in spans) - t0
    print(f"self times sum to {self_sum:.1f} us; root span {root['name']} "
          f"lasts {root['dur']:.1f} us; the request's spans run "
          f"{extent:.1f} us from first start to last end")
    return 0


def median_real_times(path):
    """benchmark name -> median real_time from a google-benchmark report."""
    with open(path) as f:
        report = json.load(f)
    medians, singles = {}, {}
    for b in report.get("benchmarks", []):
        if b.get("aggregate_name") == "median":
            medians[b["run_name"]] = b["real_time"]
        elif b.get("run_type", "iteration") == "iteration":
            singles[b.get("run_name", b["name"])] = b["real_time"]
    return medians or singles


def cmd_overhead(args):
    off = median_real_times(args.off)
    on = median_real_times(args.on)
    common = sorted(set(off) & set(on))
    if not common:
        print(f"FAIL: no common benchmarks between {args.off} and {args.on}")
        return 1
    worst = 0.0
    failed = False
    for name in common:
        regression = (on[name] - off[name]) / off[name]
        worst = max(worst, regression)
        status = "ok"
        if regression > args.max_regression:
            status = "FAIL"
            failed = True
        print(f"  {name}: off={off[name]:.1f} on={on[name]:.1f} "
              f"({regression:+.2%}) {status}")
    limit = f"{args.max_regression:.0%}"
    if failed:
        print(f"FAIL: tracer-on overhead exceeds {limit} "
              f"(worst {worst:+.2%})")
        return 1
    print(f"OK: worst tracer-on overhead {worst:+.2%} within {limit}")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    v = sub.add_parser("validate", help="validate a Chrome trace file")
    v.add_argument("trace")
    v.add_argument("--schema", required=True)
    v.add_argument("--require-span", action="append", default=[])
    v.add_argument("--require-counter", action="append", default=[])
    v.add_argument("--check-links", action="store_true",
                   help="every parent_span_id must resolve within its trace")
    v.add_argument("--require-chain", default="",
                   help="comma list of span names one trace must cover")
    v.set_defaults(func=cmd_validate)

    p = sub.add_parser("promlint",
                       help="lint a Prometheus text-exposition scrape")
    p.add_argument("metrics")
    p.set_defaults(func=cmd_promlint)

    e = sub.add_parser("explain",
                       help="explain one request's spans from a trace")
    e.add_argument("trace")
    e.add_argument("trace_id", nargs="?", type=int, default=None)
    e.set_defaults(func=cmd_explain)

    o = sub.add_parser("overhead", help="compare tracer-off vs tracer-on")
    o.add_argument("off")
    o.add_argument("on")
    o.add_argument("--max-regression", type=float, default=0.03)
    o.set_defaults(func=cmd_overhead)

    args = parser.parse_args()
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
