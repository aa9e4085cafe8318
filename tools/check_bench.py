#!/usr/bin/env python3
"""Perf-regression gate over BENCH_solver.json, the paper gate, and the
code-layout check for perfbench builds.

Compares a fresh bench_solver_perf run against the committed baseline
(bench/baselines/BENCH_solver.baseline.json) and fails when a watched bench
regresses by more than --max-regression after host normalization.

Host normalization: CI machines differ in absolute speed from the machine
that recorded the baseline, so absolute ns thresholds are useless. Instead,
each bench's ratio current/baseline is computed, and the *median* ratio over
all benches is taken as the host factor (how much slower/faster this machine
is overall). A watched bench fails only when its own ratio exceeds the host
factor by more than the allowed regression — i.e. it got slower *relative to
the rest of the suite*, which is what a code regression looks like. A
uniformly slow CI host shifts every ratio equally and passes.

The paper gate holds a bench_paper run (Fig. 6/7/8 and Table I, every cell
as JSON) against the golden bench/baselines/PAPER_results.json. Per cell
(the five drive profiles at 35 C; ECE_EUDC at 43, 35, 32, 21, 10 and 0 C):
  (a) the MPC's dSoH improvement over On/Off and over fuzzy is at least the
      golden's minus 0.25 points;
  (b) the MPC's HVAC power saving over On/Off and over fuzzy is at least the
      golden's minus 0.5 points;
  (c) the MPC's comfort: no time outside the comfort zone, max |Tz - target|
      at most 0.5 C, RMS error at most the golden's plus 0.1 C;
  (d) in Fig. 6's cell (ECE_EUDC at 35 C), the MPC's corr(motor, HVAC) is at
      most the golden's and its corr(motor, dTz/dt) at least the golden's.

The layout check reads, with `nm -C`, the addresses of the code whose
placement moves perfbench's headlines on its own: the two host-probe
kernels (HostProbe::sample_here, WakeProbe::serve) and the sparse solver
kernel SparseRows::gemv_t. It prints each address and the address mod 64.
Two builds whose offsets mod 64 differ can read different end-to-end
numbers for the same work, so record both sides' offsets beside every A/B.

Usage:
  check_bench.py compare BASELINE CURRENT [--max-regression 0.10]
                 [--bench NAME ...]
  check_bench.py update BASELINE CURRENT
  check_bench.py paper GOLDEN CURRENT
  check_bench.py layout BINARY [PARENT_BINARY]

`compare` exits 1 on regression (or malformed input). `update` rewrites the
baseline file from a current run — do this deliberately, in its own commit,
when an intentional perf change moves the floor. `paper` exits 1 when any
cell misses a tolerance; record a new golden only for a change that is
meant to move the science, as `bench_paper --out X` reformatted with
`python3 -m json.tool --indent 1`. `layout` only prints for one binary;
given two, it exits 1 when any watched offset mod 64 differs or a symbol is
missing from either.
"""

import argparse
import json
import subprocess
import sys

# Benches gated by default: the end-to-end hot-path measurements plus the
# condensed path's warm resolve kernel — every row bench_solver_perf writes.
DEFAULT_WATCHED = [
    "mpc_plan_step_warm",
    "sqp_mpc_window_h12",
    "dense_active_set_resolve",
]

SCHEMA = "evclimate-solver-bench-v1"
PAPER_SCHEMA = "evclimate-paper-v1"

# The paper gate's tolerances (see the module docstring).
DSOH_SLACK_POINTS = 0.25
HVAC_SLACK_POINTS = 0.5
MAX_ABS_ERROR_C = 0.5
RMS_SLACK_C = 0.1
FIG6_CELL = ("ECE_EUDC", 35.0)

# The layout check's symbols (see the module docstring) and alignment.
LAYOUT_SYMBOLS = ("HostProbe::sample_here", "WakeProbe::serve",
                  "SparseRows::gemv_t")
LAYOUT_ALIGN = 64


def load_benches(path):
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if doc.get("schema") != SCHEMA:
        sys.exit(f"{path}: expected schema '{SCHEMA}', got {doc.get('schema')!r}")
    out = {}
    for bench in doc.get("benches", []):
        name = bench.get("name")
        ns = bench.get("ns_per_rep")
        if not name or not isinstance(ns, (int, float)) or ns <= 0:
            sys.exit(f"{path}: bench entry missing name/ns_per_rep: {bench}")
        out[name] = float(ns)
    if not out:
        sys.exit(f"{path}: no benches")
    return out


def median(values):
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2 == 1:
        return ordered[mid]
    return 0.5 * (ordered[mid - 1] + ordered[mid])


def cmd_compare(args):
    baseline = load_benches(args.baseline)
    current = load_benches(args.current)

    common = sorted(set(baseline) & set(current))
    if not common:
        sys.exit("no benches in common between baseline and current")
    ratios = {name: current[name] / baseline[name] for name in common}
    host_factor = median(ratios.values())

    watched = args.bench or DEFAULT_WATCHED
    missing = [name for name in watched if name not in ratios]
    if missing:
        sys.exit(f"watched benches missing from run: {', '.join(missing)}")

    print(f"host factor (median ratio over {len(common)} benches): "
          f"{host_factor:.3f}")
    print(f"{'bench':<28} {'baseline':>12} {'current':>12} "
          f"{'ratio':>7} {'norm':>7}")
    failures = []
    for name in common:
        norm = ratios[name] / host_factor
        gated = name in watched
        verdict = ""
        if gated:
            if norm > 1.0 + args.max_regression:
                verdict = "  REGRESSION"
                failures.append((name, norm))
            else:
                verdict = "  ok"
        print(f"{name:<28} {baseline[name]:>12.0f} {current[name]:>12.0f} "
              f"{ratios[name]:>7.3f} {norm:>7.3f}{verdict}")

    if failures:
        for name, norm in failures:
            print(f"FAIL: {name} is {(norm - 1.0) * 100:.1f}% slower than "
                  f"baseline after host normalization "
                  f"(limit {args.max_regression * 100:.0f}%)",
                  file=sys.stderr)
        return 1
    print("perf gate passed")
    return 0


def cmd_update(args):
    load_benches(args.current)  # validate before overwriting
    with open(args.current, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    with open(args.baseline, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    print(f"baseline {args.baseline} updated from {args.current}")
    return 0


def load_paper(path):
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if doc.get("schema") != PAPER_SCHEMA:
        sys.exit(f"{path}: expected schema '{PAPER_SCHEMA}', "
                 f"got {doc.get('schema')!r}")
    cells = {}
    for cell in doc.get("cells", []):
        runs = cell.get("controllers", {})
        if not all(k in runs for k in ("onoff", "fuzzy", "mpc")):
            sys.exit(f"{path}: cell missing a controller: {cell}")
        cells[(cell["cycle"], float(cell["ambient_c"]))] = runs
    if not cells:
        sys.exit(f"{path}: no cells")
    return cells


def improvement(baseline, ours):
    """Percent improvement of `ours` over `baseline` (positive = lower)."""
    return (baseline - ours) / baseline * 100.0


def paper_checks(golden, current):
    """Yield (name, value, bound, ok) for every tolerance of one cell."""
    mpc, gold = current["mpc"], golden["mpc"]
    for quantity, slack, label in (
            ("delta_soh_percent", DSOH_SLACK_POINTS, "dSoH impr"),
            ("avg_hvac_power_w", HVAC_SLACK_POINTS, "HVAC saving")):
        for base in ("onoff", "fuzzy"):
            value = improvement(current[base][quantity], mpc[quantity])
            bound = improvement(golden[base][quantity], gold[quantity]) - slack
            yield (f"{label} vs {base} [%]", value, f">= {bound:.3f}",
                   value >= bound)
    yield ("time outside zone", mpc["fraction_outside"], "== 0",
           mpc["fraction_outside"] == 0.0)
    yield ("max |error| [C]", mpc["max_abs_error_c"],
           f"<= {MAX_ABS_ERROR_C}", mpc["max_abs_error_c"] <= MAX_ABS_ERROR_C)
    bound = gold["rms_error_c"] + RMS_SLACK_C
    yield ("RMS error [C]", mpc["rms_error_c"], f"<= {bound:.3f}",
           mpc["rms_error_c"] <= bound)


def fig6_checks(golden, current):
    mpc, gold = current["mpc"], golden["mpc"]
    yield ("corr(motor, HVAC)", mpc["corr_motor_hvac"],
           f"<= {gold['corr_motor_hvac']:.3f}",
           mpc["corr_motor_hvac"] <= gold["corr_motor_hvac"])
    yield ("corr(motor, dTz/dt)", mpc["corr_motor_dtz"],
           f">= {gold['corr_motor_dtz']:.3f}",
           mpc["corr_motor_dtz"] >= gold["corr_motor_dtz"])


def cmd_paper(args):
    golden = load_paper(args.golden)
    current = load_paper(args.current)
    missing = sorted(set(golden) - set(current))
    if missing:
        sys.exit(f"cells missing from run: {missing}")

    failures = 0
    for key in golden:
        checks = list(paper_checks(golden[key], current[key]))
        if key == FIG6_CELL:
            checks += list(fig6_checks(golden[key], current[key]))
        print(f"{key[0]} @ {key[1]:g} C")
        for name, value, bound, ok in checks:
            print(f"  {name:<24} {value:>9.4f}  {bound:<10} "
                  f"{'ok' if ok else 'FAIL'}")
            failures += 0 if ok else 1
    if failures:
        print(f"FAIL: {failures} paper tolerance(s) missed", file=sys.stderr)
        return 1
    print(f"paper gate passed ({len(golden)} cells)")
    return 0


def symbol_addresses(binary):
    """Address of each watched function in `binary`; .cold clones skipped."""
    try:
        listing = subprocess.run(["nm", "-C", binary], check=True, text=True,
                                 capture_output=True).stdout
    except (OSError, subprocess.CalledProcessError) as err:
        sys.exit(f"{binary}: nm failed: {err}")
    found = {}
    for line in listing.splitlines():
        fields = line.split(maxsplit=2)
        if len(fields) != 3 or fields[1] not in ("T", "t"):
            continue
        address, _, name = fields
        for symbol in LAYOUT_SYMBOLS:
            if ("::" + symbol + "(") in name and "[clone" not in name:
                found.setdefault(symbol, int(address, 16))
    return found


def cmd_layout(args):
    builds = [symbol_addresses(args.binary)]
    if args.parent:
        builds.append(symbol_addresses(args.parent))
    failures = 0
    for symbol in LAYOUT_SYMBOLS:
        addresses = [build.get(symbol) for build in builds]
        line = f"{symbol:<24}"
        for address in addresses:
            line += (f"  {'not found':<22}" if address is None else
                     f"  {address:#10x} mod {LAYOUT_ALIGN} = "
                     f"{address % LAYOUT_ALIGN:>2}")
        if len(builds) == 2:
            offsets = {None if a is None else a % LAYOUT_ALIGN
                       for a in addresses}
            same = len(offsets) == 1 and None not in offsets
            line += "  same" if same else "  DIFFERS"
            failures += 0 if same else 1
        print(line)
    if failures:
        print(f"FAIL: {failures} offset(s) mod {LAYOUT_ALIGN} differ from "
              f"{args.parent}", file=sys.stderr)
        return 1
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    compare = sub.add_parser("compare", help="gate current run vs baseline")
    compare.add_argument("baseline")
    compare.add_argument("current")
    compare.add_argument("--max-regression", type=float, default=0.10,
                         help="allowed slowdown of watched benches after "
                              "host normalization (default 0.10 = 10%%)")
    compare.add_argument("--bench", action="append",
                         help="bench name to gate (repeatable; default: "
                              + ", ".join(DEFAULT_WATCHED) + ")")
    compare.set_defaults(fn=cmd_compare)

    update = sub.add_parser("update", help="rewrite baseline from a run")
    update.add_argument("baseline")
    update.add_argument("current")
    update.set_defaults(fn=cmd_update)

    paper = sub.add_parser("paper", help="gate a bench_paper run vs golden")
    paper.add_argument("golden")
    paper.add_argument("current")
    paper.set_defaults(fn=cmd_paper)

    layout = sub.add_parser("layout", help="print (and compare) the code "
                            "offsets perfbench's headlines depend on")
    layout.add_argument("binary")
    layout.add_argument("parent", nargs="?", metavar="parent_binary")
    layout.set_defaults(fn=cmd_layout)

    args = parser.parse_args()
    sys.exit(args.fn(args))


if __name__ == "__main__":
    main()
