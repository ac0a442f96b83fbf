#!/usr/bin/env python3
"""Run one workload of the repository benchmark and print its metrics.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all       # every workload, untraced
    python3 perfbench/run.py --record-expected    # rewrite expected.json

Run from the repository root. The script builds perfbench/bench.exe with
dune into .bench_build, runs it, checks every simulated result against
references the code under test did not produce (perfbench/expected.json and
the committed BENCH_hotpath.json cells), writes the full record to
.bench_out/ and prints, as its last line, one JSON object with the keys
correct, attempted, failed and metrics. --trace 0 reports the end-to-end
metrics, --trace 1 the per-layer ones. README.md describes both.
"""

import argparse
import datetime
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = ".bench_build"
OUT_DIR = ".bench_out"
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "bench.exe")
WORKLOADS = ["mem-bound", "dispatch-bound", "jit-storm", "observed"]
NAMED = ["mem-bound", "dispatch-bound", "observed"]
BENCH_TIMEOUT_S = 170

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "sim_mips": "Minstr/s",
    "sim_cycles": "cycles",
    "prefetch_speedup": "x",
    "peak_rss_mb": "MB",
    "ok_frac": "frac",
}

SHARES = ["minijava", "jit", "strideprefetch", "vm", "memsim", "telemetry",
          "profile", "monitor", "observers_in_run", "unattributed"]
PER_LAYER = dict([
    ("minijava.compile_s", "s"),
    ("minijava.kb_per_s", "KiB/s"),
    ("jit.passes_s", "s"),
    ("jit.us_per_method", "us"),
    ("jit.methods_compiled", "count"),
    ("spf.pass_s", "s"),
    ("spf.compile_overhead", "frac"),
    ("spf.inspection_steps", "count"),
    ("spf.loops_inspected", "count"),
    ("spf.prefetch_actions", "count"),
    ("vm.exec_s", "s"),
    ("vm.ns_per_step", "ns"),
    ("vm.alloc_words_per_step", "words"),
    ("vm.steps", "count"),
    ("vm.gc_count", "count"),
    ("vm.gc_sim_cycles", "cycles"),
    ("memsim.replay_s", "s"),
    ("memsim.ns_per_load", "ns"),
    ("memsim.share", "frac"),
    ("memsim.loads_per_step", "loads"),
    ("memsim.l1_misses", "count"),
    ("memsim.l2_misses", "count"),
    ("memsim.dtlb_misses", "count"),
    ("memsim.sw_prefetches", "count"),
    ("memsim.hw_prefetches", "count"),
    ("observe.slowdown", "x"),
    ("telemetry.events", "count"),
    ("telemetry.dropped", "count"),
    ("monitor.windows", "count"),
    ("memsim.prefetch_accuracy", "frac"),
    ("memsim.prefetch_coverage", "frac"),
    ("trace.overhead", "x"),
    ("trace.wall_s", "s"),
] + [("share." + s, "frac") for s in SHARES])


def fail(msg, code=2):
    print("run.py: " + msg, file=sys.stderr)
    sys.exit(code)


def build():
    if not (os.path.isfile(os.path.join(ROOT, "dune-project"))
            and os.path.isdir(os.path.join(ROOT, "lib"))):
        fail("no dune-project and lib/ next to perfbench/: run from the "
             "repository root")
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        r = subprocess.run(
            ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR,
             "--display", "quiet", "./perfbench/bench.exe"],
            cwd=ROOT, env=env, timeout=800)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("build failed: %s" % e, 3)
    if r.returncode != 0:
        fail("build failed", 3)


def bench(args):
    try:
        r = subprocess.run([os.path.join(ROOT, EXE)] + args, cwd=ROOT,
                           stdout=subprocess.PIPE, timeout=BENCH_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("bench.exe: %s" % e, 4)
    if r.returncode != 0:
        fail("bench.exe exited with %d" % r.returncode, 4)
    return json.loads(r.stdout.decode().strip().splitlines()[-1])


def load_json(*parts):
    with open(os.path.join(ROOT, *parts)) as f:
        return json.load(f)


def hotpath_cycles():
    """(workload, machine, mode) -> cycles of the committed plain closure
    cells of BENCH_hotpath.json."""
    return {(c["workload"], c["machine"], c["mode"]): c["cycles"]
            for c in load_json("BENCH_hotpath.json")["cells"]
            if c["engine"] == "closure" and not (
                c["telemetry"] or c["profile"] or c.get("monitor"))}


def check_references(doc):
    """Check every cell's first result against the committed references;
    return the runs that fail only here, with reasons."""
    if doc["workload"] not in NAMED:
        return 0, []
    expected = load_json("perfbench", "expected.json")["cells"]
    hotpath = hotpath_cycles() if doc["workload"] == "mem-bound" else None
    failed, why = 0, []
    for c in doc["cells"]:
        ref = expected.get(c["label"])
        problems = []
        if ref is None:
            problems.append("no committed reference")
        elif "cycles" in c:
            if c["cycles"] != ref["cycles"]:
                problems.append("cycles %d, expected %d"
                                % (c["cycles"], ref["cycles"]))
            if c["output_md5"] != ref["output_md5"]:
                problems.append("output digest differs from expected")
        if hotpath is not None:
            hot = hotpath.get((c["workload"], c["machine"], c["mode"]))
            if hot is None or c.get("cycles") != hot:
                problems.append("cycles %s, BENCH_hotpath.json has %s"
                                % (c.get("cycles"), hot))
        if problems:
            failed += c["runs"] - c["failed"]
            why.append("%s: %s" % (c["label"], "; ".join(problems)))
    return failed, why


def geomean(xs):
    return math.exp(sum(math.log(x) for x in xs) / len(xs)) if xs else 0.0


def prefetch_speedup(doc):
    """Geomean of BASELINE / INTER+INTRA cycles over the workload's
    INTER+INTRA cells. The BASELINE side is the measured twin cell where the
    workload runs one (mem-bound), the set-up twin for jit-storm, and the
    committed BASELINE cycles otherwise."""
    cells = {c["label"]: c for c in doc["cells"]}
    expected = (load_json("perfbench", "expected.json")["cells"]
                if doc["workload"] in NAMED else {})
    ratios = []
    for c in doc["cells"]:
        if c["mode"] != "INTER+INTRA" or "cycles" not in c:
            continue
        twin = cells.get("%s/%s/BASELINE" % (c["workload"], c["machine"]))
        if twin is not None and "cycles" in twin:
            base = twin["cycles"]
        elif "baseline_cycles" in c:
            base = c["baseline_cycles"]
        else:
            base = expected.get(c["label"], {}).get("baseline_cycles")
        if base:
            ratios.append(base / c["cycles"])
    return geomean(ratios)


def tail(values):
    """The highest percentile with at least ten samples beyond it, as
    (percentile, value), or None below eleven samples."""
    n = len(values)
    if n < 11:
        return None
    k = n - 11
    return (100.0 * k / (n - 1), sorted(values)[k])


def end_to_end(doc):
    """Timings at the calibration kernel's reference speed: each raw time is
    scaled by reference / the kernel sample taken just before it. wall_s is
    the median pass estimated cell by cell: the sum over cells of each
    cell's median time across the passes."""
    ref = doc["kernel_reference_s"]
    passes = [[t * ref / k for t, k in zip(ts, ks)]
              for ts, ks in zip(doc["pass_cell_s"], doc["pass_kernel_s"])]
    wall = sum(statistics.median(cell) for cell in zip(*passes))
    insns = statistics.median(doc["pass_insns"])
    samples = {
        "setup_s": [t * ref / k
                    for t, k in zip(doc["setup_s"], doc["setup_kernel_s"])],
        "wall_s": [sum(p) for p in passes],
        "sim_mips": [i / sum(p) / 1e6
                     for i, p in zip(doc["pass_insns"], passes)],
        "sim_cycles": doc["pass_sim_cycles"],
    }
    values = {
        "setup_s": statistics.median(samples["setup_s"]),
        "wall_s": wall,
        "sim_mips": insns / wall / 1e6,
        "sim_cycles": statistics.median(doc["pass_sim_cycles"]),
        "prefetch_speedup": prefetch_speedup(doc),
        "peak_rss_mb": doc["peak_rss_mb"],
    }
    return values, samples


def raw_timings(doc):
    """Medians of the unscaled host seconds and kernel times behind the
    end-to-end timings, kept in the record."""
    return {
        "setup_s": statistics.median(doc["setup_s"]),
        "setup_kernel_s": statistics.median(doc["setup_kernel_s"]),
        "pass_wall_s": statistics.median(
            sum(ts) for ts in doc["pass_cell_s"]),
        "pass_kernel_s": statistics.median(
            k for ks in doc["pass_kernel_s"] for k in ks),
    }


def per_layer(doc):
    passes = doc["traced"]
    names = list(passes[0].keys()) if passes else []
    samples = {k: [p[k] for p in passes] for k in names}
    return {k: statistics.median(v) for k, v in samples.items()}, samples


def read_commit():
    """The checked-out commit, read from .git without running git (the
    benchmark may run in a plain copy of the tree)."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as f:
            ref = f.read().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = os.path.join(ROOT, ".git", name)
        if os.path.isfile(loose):
            with open(loose) as f:
                return f.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs")) as f:
            for line in f:
                if line.strip().endswith(" " + name):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def source_digest():
    """sha256 over the simulator's and the benchmark's sources, so results
    from a plain copy of the tree still name the code they measured."""
    h = hashlib.sha256()
    for top in ("lib", "perfbench"):
        for d, dirs, files in os.walk(os.path.join(ROOT, top)):
            dirs.sort()
            for name in sorted(files):
                if name.endswith((".ml", ".mli", "dune", ".py", ".json")):
                    p = os.path.join(d, name)
                    h.update(os.path.relpath(p, ROOT).encode())
                    with open(p, "rb") as f:
                        h.update(f.read())
    return h.hexdigest()[:16]


def run_workload(workload, seed, seconds, trace):
    os.makedirs(os.path.join(ROOT, OUT_DIR), exist_ok=True)
    stem = "%s-seed%d-trace%d" % (workload, seed, trace)
    spans = os.path.join(OUT_DIR, stem + ".spans.jsonl")
    doc = bench(["--workload", workload, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", str(trace)]
                + (["--spans", spans] if trace else []))
    ref_failed, ref_why = check_references(doc)
    attempted = sum(c["runs"] for c in doc["cells"])
    failed = sum(c["failed"] for c in doc["cells"]) + ref_failed
    why = ref_why + ["%s: %s" % (c["label"], "; ".join(c["why"]))
                     for c in doc["cells"] if c["failed"]]
    if trace:
        values, samples = per_layer(doc)
        unit_of = PER_LAYER
    else:
        values, samples = end_to_end(doc)
        values["ok_frac"] = 1.0 - failed / attempted if attempted else 0.0
        unit_of = END_TO_END
    if set(values) != set(unit_of):
        fail("bench.exe reported %s, expected %s"
             % (sorted(values), sorted(unit_of)), 5)
    metrics = {k: {"value": v, "unit": unit_of[k]} for k, v in values.items()}
    meta = {
        "workload": workload,
        "seed": seed,
        "cells": len(doc["cells"]),
        "trace": trace,
        "commit": read_commit(),
        "source_digest": source_digest(),
        "ocaml_version": doc["ocaml_version"],
        "date": datetime.datetime.now(datetime.timezone.utc).isoformat(
            timespec="seconds"),
        "nproc": os.cpu_count(),
        "samples": {"setups": len(doc["setup_s"]),
                    "passes": len(doc["pass_cell_s"]),
                    "traced_passes": len(doc["traced"])},
    }
    raw = raw_timings(doc)
    record = {"meta": meta, "metrics": metrics, "samples": samples,
              "raw_median_s": raw,
              "attempted": attempted, "failed": failed, "why": why,
              "cells": doc["cells"], "ledger": doc["ledger"]}
    with open(os.path.join(ROOT, OUT_DIR, stem + ".json"), "w") as f:
        json.dump(record, f, indent=1)
    print("# " + json.dumps(meta, sort_keys=True))
    print("# raw medians: " + ", ".join(
        "%s %.6g s" % kv for kv in sorted(raw.items())))
    for reason in why:
        print("# FAILED " + reason)
    for k in sorted(metrics):
        s = samples.get(k, [metrics[k]["value"]])
        t = tail(s)
        print("# %-26s median %-14.6g %-8s n=%-3d %s" % (
            k, metrics[k]["value"], metrics[k]["unit"], len(s),
            "p%.0f %.6g" % t if t else "(no percentile with 10 beyond)"))
    return {"correct": failed == 0 and attempted > 0,
            "attempted": attempted, "failed": failed, "metrics": metrics}


def record_expected():
    cells = {}
    for w in NAMED:
        for label, ref in bench(["--workload", w, "--reference"])["cells"].items():
            cells[label] = ref
    doc = {
        "about": "Simulated results of every named-workload cell, recorded "
                 "with `python3 perfbench/run.py --record-expected` from "
                 "Harness.run. The benchmark fails a run whose cycles or "
                 "output digest differ.",
        "cells": cells,
    }
    with open(os.path.join(HERE, "expected.json"), "w") as f:
        json.dump(doc, f, indent=1, sort_keys=True)
        f.write("\n")


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=WORKLOADS + ["all"], default="all")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--record-expected", action="store_true")
    a = p.parse_args()
    build()
    if a.record_expected:
        record_expected()
        return
    if a.workload != "all":
        print(json.dumps(run_workload(a.workload, a.seed, a.seconds,
                                      a.trace)))
        return
    results = {w: run_workload(w, a.seed, a.seconds, 0) for w in WORKLOADS}
    print("%-20s" % "metric" + "".join("%16s" % w for w in WORKLOADS))
    for k, unit in END_TO_END.items():
        print("%-20s" % ("%s [%s]" % (k, unit)) + "".join(
            "%16.6g" % results[w]["metrics"][k]["value"] for w in WORKLOADS))
    print("%-20s" % "failed/attempted" + "".join(
        "%16s" % ("%d/%d" % (results[w]["failed"], results[w]["attempted"]))
        for w in WORKLOADS))
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {"%s.%s" % (w, k): m for w, r in results.items()
                    for k, m in r["metrics"].items()},
    }))


if __name__ == "__main__":
    main()
