"""Benchmark entry point: one workload, one seed, one run.

    python3 bench/run.py --workload recognize --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the program is imported from ./src and
nothing is installed.  Times are scaled by a host-speed reference (see
hostspeed.py).  With --trace 0 the last line of stdout is a JSON object
with the end-to-end metrics; with --trace 1 it holds the per-layer metrics of
a traced run instead (see README.md).  Instance files, results and traces go
to .bench_out/.  Exits 1 without a result if the run fails or a workload
process outlives its time limit, and 2 if the program's sources are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import hostspeed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("recognize", "split-v2", "split-long")

# Set-up is timed on this many fresh workload processes (the last one then
# does the work) and reported as their median.  Each start is scaled by the
# host-speed reference timed here just before and just after it.
SETUP_PROCESSES = 11

# A workload process that has not finished after this long is killed; a run
# must end within 180 s.
WORKER_TIMEOUT_S = 160.0

def start_worker() -> tuple[subprocess.Popen, float]:
    """Start a workload process; return it with its time to "ready"."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "workload.py"), ROOT],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        text=True,
    )
    line = proc.stdout.readline()
    ready = time.perf_counter() - start
    if line.strip() != "ready":
        stop(proc)
        raise RuntimeError(f"workload process did not start: {line!r}")
    return proc, ready


def talk(proc: subprocess.Popen, message: str, timeout: float) -> str | None:
    """Send one line, wait for the process to end; kill it after timeout."""
    try:
        stdout, _ = proc.communicate(message + "\n", timeout=timeout)
    except subprocess.TimeoutExpired:
        stop(proc)
        return None
    return stdout


def stop(proc: subprocess.Popen) -> None:
    proc.kill()
    proc.communicate()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "clawsplit", "cli.py")):
        print("bench: no clawsplit sources under ./src; run from a checkout", file=sys.stderr)
        return 2
    out_dir = os.path.join(ROOT, ".bench_out", f"{args.workload}-seed{args.seed}-trace{args.trace}")
    os.makedirs(out_dir, exist_ok=True)

    reference = hostspeed.Reference()
    ref_before = reference.time_s()
    setup, unscaled_setup = [], []
    starts = 1 if args.trace else SETUP_PROCESSES
    for k in range(starts):
        proc, ready = start_worker()
        ref_after = reference.time_s()  # the new process waits on stdin meanwhile
        setup.append(hostspeed.scaled(ready, ref_before, ref_after))
        unscaled_setup.append(ready)
        ref_before = ref_after
        if k < starts - 1:
            talk(proc, "quit", 30)
    job = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
           "trace": args.trace, "out": out_dir}
    stdout = talk(proc, json.dumps(job), WORKER_TIMEOUT_S)
    if stdout is None:
        print(f"bench: workload process passed {WORKER_TIMEOUT_S:.0f} s and was killed", file=sys.stderr)
        return 1
    lines = stdout.splitlines()
    if proc.returncode != 0 or not lines or not lines[-1].startswith("RESULT "):
        print(f"bench: workload process failed (exit {proc.returncode})", file=sys.stderr)
        return 1
    result = json.loads(lines[-1][len("RESULT "):])
    result["setup_samples_s"] = setup
    result["unscaled_setup_samples_s"] = unscaled_setup
    with open(os.path.join(out_dir, "result.json"), "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)

    print(f"workload {args.workload} seed {args.seed} rounds {result['rounds']} "
          f"list {result['list']} answers, {result['no_answers']} no")
    for failure in result["failures"]:
        print(f"FAILED {failure}")
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    if args.trace:
        for key, sites in result["layer_sites"].items():
            print(f"wrapped {key} at {', '.join(sites)}")
        missing = [m["name"] for m in spec["per_layer"] if result["layers"][m["name"]] is None]
        if missing:
            # A layer that was never reached has no figure to report: the
            # workload no longer covers it, which is an error of the run.
            print(f"bench: wrappers never fired for {', '.join(missing)}", file=sys.stderr)
            return 1
        metrics = {}
        for m in spec["per_layer"]:
            name, unit = m["name"], m["unit"]
            value = result["layers"][name]
            print(f"layer {name} {value:.6g} {unit}")
            metrics[name] = {"value": value, "unit": unit}
        answer_s = result["layers"]["trace.answer_s"]
        self_sum = sum(result["layers"][f"{layer}.self_s"]
                       for layer in ("cli", "recognition", "intervals", "encoding", "solver"))
        print(f"layer self times sum to {self_sum:.4f} s per answer; traced answer "
              f"{answer_s:.4f} s; tracing overhead "
              f"{100 * (result['layers']['trace.overhead_ratio'] - 1):+.1f}% against untraced")
        print(f"spans written to {os.path.relpath(result['spans'], ROOT)}")
    else:
        values = {
            "setup_s": statistics.median(setup),
            "answers_per_s": result["answers_per_s"],
            "answer_p50_s": result["answer_p50_s"],
            "peak_rss_mb": result["peak_rss_mb"],
        }
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in spec["end_to_end"]}
        for name, m in metrics.items():
            print(f"metric {name} {m['value']:.6g} {m['unit']}")
        print(f"unscaled: setup_s {statistics.median(unscaled_setup):.6g}, answers_per_s "
              f"{result['unscaled_answers_per_s']:.6g}, answer_p50_s "
              f"{result['unscaled_answer_p50_s']:.6g}; reference median "
              f"{result['reference_p50_s']:.6g} s against {hostspeed.NOMINAL_S} s nominal")
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
