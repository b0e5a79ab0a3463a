#!/usr/bin/env python3
"""Build and run the WattDB benchmark.

One workload (run from the repository root; the last line of standard
output is the JSON result):

    python3 perfbench/run.py --workload oltp-steady --seed 1 --seconds 30 --trace 0

`--trace 0` reports the end-to-end metrics of one untraced run. `--trace 1`
runs the workload untraced and then traced, at the same seed with the same
build, and reports the per-layer metrics of the traced run, its tracing
overhead against the untraced one, and whether the two runs' determinism
fingerprints agree.

Every workload, each run in a process of its own: twice untraced at the
same seed and once traced, with every end-to-end metric printed by name and
unit, the determinism verdict over the three runs and the tracing overhead;
exits 1 if any check failed:

    python3 perfbench/run.py --all [--seed 7919]

Each workload runs a fixed sim-time horizon, sized to take about 30 host
seconds on a 2-core machine; `--seconds` is that expected length, and a
measured run that takes longer says so. The simulator is built from source
with cargo into $CARGO_TARGET_DIR (default perfbench/target); traced runs
write their spans under <target>/perfbench/.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["oltp-steady", "diurnal-elastic", "skew-scaleout"]
# Seed kept out of every tuning run, for confirming later claims.
HELD_OUT_SEED = 7919
# Untraced runs per workload in --all, compared for determinism.
REPEATS = 2
# Set-ups per batch; a batch is timed before and after the measured run,
# each in a fresh process. About 2 s of host time per batch.
SETUPS = {"oltp-steady": 15, "diurnal-elastic": 40, "skew-scaleout": 15}
# Every run of the binary after the build must end within this many
# seconds in total, so that one invocation ends within 180 s once built.
RUN_BUDGET_S = 170


def target_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target"))


def build():
    """Build the benchmark binary; cargo's output goes to stderr."""
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
    if done.returncode != 0:
        sys.exit(f"run.py: build failed ({done.returncode})")
    return os.path.join(target_dir(), "release", "wattdb-perfbench")


def run_binary(binary, workload, seed, flags, deadline, echo=True):
    """Run the binary on one workload in its own process, killed at
    `deadline` (time.monotonic()); return its JSON report."""
    cmd = [binary, "--workload", workload, "--seed", str(seed)] + flags
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
                              timeout=max(deadline - time.monotonic(), 1))
    except subprocess.TimeoutExpired:
        sys.exit(f"run.py: {workload} did not finish within {RUN_BUDGET_S} s")
    lines = done.stdout.rstrip("\n").split("\n")
    if done.returncode != 0 or not lines[-1].startswith("{"):
        sys.stdout.write(done.stdout)
        sys.exit(f"run.py: {workload} exited with {done.returncode} and no report")
    if echo:
        for line in lines[:-1]:
            print(line)
    return json.loads(lines[-1])


def measured(binary, workload, seed, seconds, deadline):
    """One untraced run. Its `setup_s` becomes the median over its own
    set-up and a batch of set-ups timed before and one after it, so the
    set-ups sample the machine's speed across the whole run."""
    def batch():
        flags = ["--setups", str(SETUPS[workload])]
        return run_binary(binary, workload, seed, flags, deadline, echo=False)["setups"]

    before = batch()
    started = time.monotonic()
    report = run_binary(binary, workload, seed, ["--trace", "0"], deadline)
    took = time.monotonic() - started
    if took > seconds:
        print(f"note: the measured run took {took:.1f} s, longer than --seconds {seconds:g}")
    setup = report["e2e"]["setup_s"]
    times = before + [setup["value"]] + batch()
    setup["value"] = statistics.median(times)
    print(f"  setup_s {setup['value']:.6f} s: the median of {len(times)} set-ups")
    return report


def traced(binary, workload, seed, untraced, deadline):
    """The traced run. Its overhead is its wall_per_sim_s minus the median
    over `untraced`, runs of the same build and seed."""
    report = run_binary(binary, workload, seed,
                        ["--trace", "1", "--out", os.path.join(target_dir(), "perfbench")],
                        deadline)
    base = statistics.median(r["e2e"]["wall_per_sim_s"]["value"] for r in untraced)
    overhead = report["e2e"]["wall_per_sim_s"]["value"] - base
    report["layers"]["trace.overhead_wall_per_sim_s"] = {"value": overhead, "unit": "s/s"}
    print(f"tracing overhead: wall_per_sim_s {base + overhead:.6f} traced, {base:.6f} untraced")
    return report


def determinism(workload, seed, reports):
    """Print whether the runs' fingerprints agree; return True if so."""
    fps = [r["fingerprint"] for r in reports]
    agree = all(fp == fps[0] for fp in fps)
    print(f"determinism: {workload} seed {seed}: {len(fps)} runs "
          + ("agree" if agree else "DIFFER" + "".join(f"\n  {fp}" for fp in fps)))
    return agree


def failures(report):
    """Names of the output checks this run failed."""
    failed = [c["name"] for c in report["checks"] if not c["ok"]]
    failed += [f"finite:{n}" for n in report["nonfinite"]]
    failed += [f"positive:{n}" for n, m in report["e2e"].items() if not m["value"] > 0]
    return failed


def one(args):
    binary = build()
    deadline = time.monotonic() + RUN_BUDGET_S
    if args.trace:
        base = run_binary(binary, args.workload, args.seed, ["--trace", "0"], deadline)
        report = traced(binary, args.workload, args.seed, [base], deadline)
        # A differing fingerprint is a defect of the program: reported
        # here, and a failure of --all, but not an incorrect output.
        determinism(args.workload, args.seed, [base, report])
        metrics = report["layers"]
        failed = failures(base) + failures(report)
    else:
        report = measured(binary, args.workload, args.seed, args.seconds, deadline)
        metrics = report["e2e"]
        failed = failures(report)
    for name in failed:
        print(f"check FAILED: {name}")
    print(json.dumps({"correct": not failed, "attempted": report["attempted"],
                      "failed": report["failed"], "metrics": metrics}))


def all_workloads(args):
    binary = build()
    reports, problems = {}, []
    for w in WORKLOADS:
        runs = []
        for i in range(REPEATS):
            print(f"== {w} seed {args.seed} run {i + 1}/{REPEATS}", flush=True)
            runs.append(measured(binary, w, args.seed, args.seconds,
                                 time.monotonic() + RUN_BUDGET_S))
            problems += [f"{w}: check {n}" for n in failures(runs[-1])]
        print(f"== {w} seed {args.seed} traced", flush=True)
        trace = traced(binary, w, args.seed, runs, time.monotonic() + RUN_BUDGET_S)
        problems += [f"{w}: check {n} (traced)" for n in failures(trace)]
        agree = determinism(w, args.seed, runs + [trace])
        if not agree:
            problems.append(f"{w}: determinism ({REPEATS + 1} runs differ)")
        reports[w] = (runs[0], trace, agree)

    print(f"\nend-to-end metrics, seed {args.seed}, first untraced run")
    first = reports[WORKLOADS[0]][0]["e2e"]
    print(f"{'metric':<22} {'unit':<6}" + "".join(f"{w:>18}" for w in WORKLOADS))
    for n, m in first.items():
        print(f"{n:<22} {m['unit']:<6}"
              + "".join(f"{reports[w][0]['e2e'][n]['value']:>18.6g}" for w in WORKLOADS))
    samples = "".join(f"{int(reports[w][1]['layers']['txn.response_samples']['value']):>18}"
                      for w in WORKLOADS)
    print(f"{'response samples':<22} {'count':<6}{samples}")
    print(f"{'determinism':<22} {'':<6}" + "".join(
        f"{('agree' if reports[w][2] else 'DIFFER') + f' ({REPEATS + 1})':>18}" for w in WORKLOADS))
    overheads = "".join(
        f"{reports[w][1]['layers']['trace.overhead_wall_per_sim_s']['value']:>18.6f}"
        for w in WORKLOADS)
    print(f"{'trace overhead':<22} {'s/s':<6}{overheads}")
    for p in problems:
        print(f"FAILED: {p}")
    print("all checks passed" if not problems else f"{len(problems)} failure(s)")
    return 1 if problems else 0


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--all", action="store_true", help="every workload, repeated and traced")
    p.add_argument("--seed", type=int, default=HELD_OUT_SEED)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args()
    if args.all == bool(args.workload):
        p.error("give exactly one of --workload and --all")
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    if args.all:
        sys.exit(all_workloads(args))
    one(args)


if __name__ == "__main__":
    main()
