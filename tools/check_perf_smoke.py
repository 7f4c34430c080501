#!/usr/bin/env python3
"""Perf-smoke regression gate for the execution backends.

Compares a fresh `bench_micro --json` run against the committed
BENCH_batch.json baseline and fails (exit 1) if any (instance, adversary)
cell's batched-over-scalar speedup regressed by more than the tolerance
(default: fresh speedup < 0.75x the baseline speedup).

Speedup ratios are compared rather than absolute ns/node-round because CI
machines differ in clock speed. bench_micro times each cell in interleaved
pairs of one scalar and one batched pass and records the median per-pair
ratio ("speedup") with its quartiles ("speedup_q1", "speedup_q3"): a slow
phase of the host hits both passes of a pair, so a shrinking ratio means the
batched kernels specifically got slower. A failing cell prints its IQR.

Also gates exact allocation counts: every fresh cell's
"scalar_allocs_per_node_round" and "batch_allocs_per_node_round" (heap
allocations over the timed passes, counted by bench_micro's replacement
operator new) must stay at or below MAX_ALLOCS_PER_NODE_ROUND. A count
depends on the code, not on the host's speed or load, so this gate cannot
flake; the ceiling sits below one allocation per execution-round on every
instance.

Also gates the "aggregation" memory section: the sketch-mode fold of the
synthetic million-cell sweep must peak below --max-rss-ratio (default 0.10)
of the exact-mode fold, net of the probe child's load-time RSS floor. A
baseline that has the section but a fresh run that lacks it fails loudly
(the bench silently losing the probe is itself a regression).

Also gates the "synthesis" section (written by `bench_synthesis --json`):
each parallel-engine mode's speedup over the single-threaded incremental
baseline must stay within the same ratio tolerance of its recorded value.
Speedups are host-relative (both engines run on the same machine in the
same process), so the ratio comparison is robust to CI machine changes.
The section's "baseline_conflicts" must equal the recorded value exactly:
the single-threaded incremental run is deterministic (one solver, one
config) and runs learned-clause reduction, so any change in its conflict
count means the CDCL search itself drifted. A fresh mode with cube_depth 0
must report "conflicts" equal to the same run's "baseline_conflicts": its
one cube is scanned by config 0 first, and at budget 0 that single solve of
the uncubed instance is the baseline's search.

Usage: check_perf_smoke.py BASELINE.json FRESH.json [--tolerance 0.75]
                           [--max-rss-ratio 0.10]
"""

import argparse
import json
import sys

# Heap allocations per node-round allowed on either backend of any cell. One
# allocation per round of an execution adds 1/(N - f) per node-round: at least
# 1/29 = 0.034 on the N=36 tower and more on the smaller instances, so any
# per-round allocation fails. What stays is per-run set-up (states, adversary,
# result), which read at most 0.015 when the gate was introduced.
MAX_ALLOCS_PER_NODE_ROUND = 0.03


def fail(message):
    print(f"check_perf_smoke: {message}", file=sys.stderr)
    sys.exit(2)


def need(mapping, key, where):
    """dict lookup with a readable diagnostic instead of a KeyError trace."""
    if not isinstance(mapping, dict) or key not in mapping:
        fail(f"{where} has no \"{key}\" field -- not a bench_micro --json file, "
             f"or produced by an older bench_micro?")
    return mapping[key]


def load(path):
    try:
        with open(path) as f:
            return json.load(f)
    except OSError as e:
        fail(f"cannot read {path}: {e.strerror or e}")
    except json.JSONDecodeError as e:
        fail(f"{path} is not valid JSON ({e}) -- truncated bench run?")


def cells(doc, path):
    """(instance, adversary) -> the cell's result record, "speedup" checked."""
    out = {}
    for i, inst in enumerate(need(doc, "instances", path)):
        where = f"{path} instances[{i}]"
        name = need(inst, "instance", where)
        for j, r in enumerate(need(inst, "results", where)):
            rwhere = f"{where} ({name}) results[{j}]"
            need(r, "speedup", rwhere)
            out[(name, need(r, "adversary", rwhere))] = r
    return out


def iqr_note(record):
    """The per-pair ratio's quartiles, when the run recorded them."""
    if "speedup_q1" in record and "speedup_q3" in record:
        return (f" [per-pair IQR {record['speedup_q1']:.2f}x-"
                f"{record['speedup_q3']:.2f}x]")
    return ""


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("baseline")
    ap.add_argument("fresh")
    ap.add_argument("--tolerance", type=float, default=0.75,
                    help="minimum fresh/baseline speedup ratio (default 0.75)")
    ap.add_argument("--max-rss-ratio", type=float, default=0.10,
                    help="maximum sketch/exact net peak-RSS ratio for the "
                         "aggregation section (default 0.10)")
    args = ap.parse_args()

    base_doc = load(args.baseline)
    fresh_doc = load(args.fresh)
    base = cells(base_doc, args.baseline)
    fresh = cells(fresh_doc, args.fresh)

    failed = False
    for key, base_record in sorted(base.items()):
        instance, adversary = key
        if key not in fresh:
            print(f"MISSING  {instance} / {adversary}: cell absent from fresh run")
            failed = True
            continue
        base_speedup = base_record["speedup"]
        fresh_speedup = fresh[key]["speedup"]
        ratio = fresh_speedup / base_speedup
        regressed = ratio < args.tolerance
        verdict = "REGRESSED" if regressed else "ok"
        print(f"{verdict:9s}{instance} / {adversary}: "
              f"speedup {base_speedup:.2f}x -> {fresh_speedup:.2f}x "
              f"({ratio:.2f} of baseline)"
              + (iqr_note(fresh[key]) if regressed else ""))
        if regressed:
            failed = True

    for key in sorted(set(fresh) - set(base)):
        print(f"new      {key[0]} / {key[1]}: speedup {fresh[key]['speedup']:.2f}x "
              f"(no baseline)")

    # Exact allocation gate: fresh counts against a fixed ceiling, so it needs
    # no baseline, and a count does not move with the host's speed or load.
    for key, record in sorted(fresh.items()):
        instance, adversary = key
        where = f"{args.fresh} ({instance} / {adversary})"
        counts = {side: need(record, f"{side}_allocs_per_node_round", where)
                  for side in ("scalar", "batch")}
        over = any(c > MAX_ALLOCS_PER_NODE_ROUND for c in counts.values())
        verdict = "ALLOCS" if over else "ok"
        print(f"{verdict:9s}{instance} / {adversary}: allocations per node-round "
              f"{counts['scalar']:.4f} scalar, {counts['batch']:.4f} batched "
              f"(ceiling {MAX_ALLOCS_PER_NODE_ROUND})")
        if over:
            failed = True

    # Aggregation memory gate: recorded, not recomputed, so the committed
    # BENCH_batch.json is the auditable record of the sketch's memory win.
    if "aggregation" in base_doc:
        if "aggregation" not in fresh_doc:
            print("MISSING  aggregation: section absent from fresh run "
                  "(bench lost its RSS probe?)")
            failed = True
        else:
            agg = fresh_doc["aggregation"]
            where = f"{args.fresh} aggregation"
            ratio = need(agg, "rss_ratio", where)
            exact_kb = need(agg, "exact_peak_rss_kb", where)
            sketch_kb = need(agg, "sketch_peak_rss_kb", where)
            verdict = "ok" if ratio < args.max_rss_ratio else "REGRESSED"
            print(f"{verdict:9s}aggregation: sketch peak RSS {sketch_kb} KiB vs "
                  f"exact {exact_kb} KiB, net ratio {ratio:.3f} "
                  f"(limit {args.max_rss_ratio})")
            if ratio >= args.max_rss_ratio:
                failed = True
    elif "aggregation" in fresh_doc:
        agg = fresh_doc["aggregation"]
        print(f"new      aggregation: net RSS ratio "
              f"{agg.get('rss_ratio', float('nan')):.3f} (no baseline)")

    # Synthesis engine gate: per-mode speedup over the incremental baseline
    # (same host, same process -> the ratio is the search strategy's win).
    def synth_modes(doc, path):
        out = {}
        section = doc.get("synthesis")
        if section is None:
            return out
        for i, m in enumerate(need(section, "modes", f"{path} synthesis")):
            where = f"{path} synthesis modes[{i}]"
            out[need(m, "mode", where)] = need(m, "speedup", where)
        return out

    base_synth = synth_modes(base_doc, args.baseline)
    fresh_synth = synth_modes(fresh_doc, args.fresh)
    for mode, base_speedup in sorted(base_synth.items()):
        if mode not in fresh_synth:
            print(f"MISSING  synthesis / {mode}: mode absent from fresh run "
                  f"(bench_synthesis --json not run after bench_micro?)")
            failed = True
            continue
        ratio = fresh_synth[mode] / base_speedup
        verdict = "ok" if ratio >= args.tolerance else "REGRESSED"
        print(f"{verdict:9s}synthesis / {mode}: "
              f"speedup {base_speedup:.2f}x -> {fresh_synth[mode]:.2f}x "
              f"({ratio:.2f} of baseline)")
        if ratio < args.tolerance:
            failed = True
    for mode in sorted(set(fresh_synth) - set(base_synth)):
        print(f"new      synthesis / {mode}: speedup {fresh_synth[mode]:.2f}x "
              f"(no baseline)")

    # Search-drift gate: the deterministic single-thread run's conflicts.
    base_conflicts = (base_doc.get("synthesis") or {}).get("baseline_conflicts")
    if base_conflicts is not None:
        fresh_conflicts = (fresh_doc.get("synthesis") or {}).get("baseline_conflicts")
        if fresh_conflicts is None:
            print("MISSING  synthesis / baseline_conflicts: absent from fresh run")
            failed = True
        else:
            verdict = "ok" if fresh_conflicts == base_conflicts else "DRIFTED"
            print(f"{verdict:9s}synthesis / baseline_conflicts: "
                  f"{base_conflicts} -> {fresh_conflicts} (must be equal: "
                  f"the single-thread search is deterministic)")
            if fresh_conflicts != base_conflicts:
                failed = True

    # Exact-count gate: the depth-0 mode repeats the baseline's search.
    fresh_section = fresh_doc.get("synthesis") or {}
    for i, m in enumerate(fresh_section.get("modes", [])):
        where = f"{args.fresh} synthesis modes[{i}]"
        if need(m, "cube_depth", where) != 0:
            continue
        conflicts = need(m, "conflicts", where)
        baseline = need(fresh_section, "baseline_conflicts", f"{args.fresh} synthesis")
        verdict = "ok" if conflicts == baseline else "DRIFTED"
        print(f"{verdict:9s}synthesis / {need(m, 'mode', where)}: {conflicts} conflicts "
              f"(must equal this run's baseline_conflicts {baseline}: the same search)")
        if conflicts != baseline:
            failed = True

    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
