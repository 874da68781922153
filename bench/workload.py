"""One workload process: answers a seeded list through clawsplit.cli.main.

Started as `python3 bench/workload.py <repo root>`.  It imports clawsplit,
prints "ready" and waits on stdin for a job (one JSON line) or "quit"; the
time from start to "ready" is the set-up the parent measures.  A job writes
the workload's instance files, answers the list in whole rounds until the
next round would end after `seconds`, checks every answer with checkers.py
and prints "RESULT <json>" as its last line.

Each untraced answer is followed by a timing of the host-speed reference
(see hostspeed.py), and its time is scaled by the mean of the reference
timings just before and just after it.

With trace set, each answer runs three times in a row: untraced, timed and
counted (see tracer.py).  So the tracing overhead is measured on the same
answer, moments apart, in the same process.
"""

from __future__ import annotations

import io
import json
import os
import resource
import statistics
import sys
import time


def run_answer(argv: list[str]) -> tuple[float, int | None, str, str | None]:
    """Time one call of main, from the call to the returned exit code."""
    buf = io.StringIO()
    real = sys.stdout
    sys.stdout = buf
    error = None
    code = None
    start = time.perf_counter()
    try:
        code = clawsplit.cli.main(argv)
    except (Exception, SystemExit) as exc:  # a crash is a failed answer, never a "no"
        error = f"{type(exc).__name__}: {exc}"
    finally:
        elapsed = time.perf_counter() - start
        sys.stdout = real
    return elapsed, code, buf.getvalue(), error


def check(answer, code: int, output: str) -> list[str]:
    command = answer.argv[0]
    try:
        if command == "check":
            return checkers.check_check(answer.pairs, code, output)
        if command == "represent":
            return checkers.check_represent(answer.pairs, code, output)
        return checkers.check_partition(answer.pairs, int(answer.argv[3]), code, output)
    except (ValueError, IndexError, KeyError) as exc:
        return [f"output does not parse: {type(exc).__name__}: {exc}"]


def main(job: dict) -> None:
    out_dir = job["out"]
    inputs = os.path.join(out_dir, "inputs")
    os.makedirs(inputs, exist_ok=True)
    answers = instances.answers(job["workload"], job["seed"])
    argvs = []
    for answer in answers:
        path = os.path.join(inputs, f"{answer.name}.txt")
        instances.write(path, answer.pairs)
        argvs.append([path if a == "{file}" else a for a in answer.argv])

    tracer = Tracer() if job["trace"] else None
    modes = (None, "timed", "counted") if tracer is not None else (None,)
    times = {mode: [] for mode in modes}  # tracer mode -> answer times
    reference = hostspeed.Reference()
    ref_times = [reference.time_s()]
    scaled = []  # untraced answer times scaled to the reference
    log = []  # (round, answer name, command, tracer mode, seconds)
    failures: list[str] = []
    wrong = 0
    decided_no: list[int] = []
    rounds = 0
    start = time.perf_counter()
    while True:
        for k, (answer, argv) in enumerate(zip(answers, argvs)):
            for mode in modes:
                if mode is not None:
                    tracer.install(mode)
                try:
                    elapsed, code, output, error = run_answer(argv)
                finally:
                    if mode is not None:
                        tracer.uninstall()
                times[mode].append(elapsed)
                log.append((rounds, answer.name, argv[0], mode, elapsed))
                if mode is None:
                    ref_times.append(reference.time_s())
                    scaled.append(hostspeed.scaled(elapsed, ref_times[-2], ref_times[-1]))
                if error is not None:
                    failures.append(f"{answer.name} {argv[0]}: {error}")
                    continue
                problems = check(answer, code, output)
                if problems:
                    wrong += 1
                    failures.append(f"{answer.name} {argv[0]}: {'; '.join(problems)}")
                elif rounds == 0 and mode is None and argv[0] == "partition" and code == 1:
                    decided_no.append(k)
        rounds += 1
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / rounds > job["seconds"]:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    # A "no" has no witness to check.  The mirror image x -> M - x has the
    # same graph, so the program must answer "no" on it as well.
    for k in decided_no:
        answer = answers[k]
        path = os.path.join(inputs, f"{answer.name}.mirror.txt")
        instances.write(path, checkers.mirror(answer.pairs))
        argv = [path if a == "{file}" else a for a in answer.argv]
        _, code, output, error = run_answer(argv)
        keys, _ = checkers.parse(output)
        if error is not None or code != 1 or keys.get("decision") != "no":
            wrong += 1
            failures.append(f"{answer.name}: no, but its mirror image answered "
                            f"{keys.get('decision')!r} (exit {code}, {error})")

    untraced = times[None]
    result = {
        "workload": job["workload"],
        "seed": job["seed"],
        "rounds": rounds,
        "list": len(answers),
        "no_answers": len(decided_no),
        "attempted": sum(len(t) for t in times.values()),
        "failed": len(failures),
        "correct": wrong == 0,
        "failures": failures[:20],
        "answers_per_s": len(scaled) / sum(scaled),
        "answer_p50_s": statistics.median(scaled),
        "unscaled_answers_per_s": len(untraced) / sum(untraced),
        "unscaled_answer_p50_s": statistics.median(untraced),
        "reference_p50_s": statistics.median(ref_times),
        "peak_rss_mb": peak_rss_mb,
        "answer_times": log,
    }
    if tracer is not None:
        traced = times["timed"]
        result["layers"] = tracer.metrics()
        result["layers"]["trace.answer_s"] = sum(traced) / len(traced)
        # Each answer's timed time over its untraced time, taken moments apart.
        result["layers"]["trace.overhead_ratio"] = statistics.median(
            t / u for t, u in zip(traced, untraced)
        )
        result["layer_sites"] = tracer.sites
        spans = os.path.join(out_dir, "spans.jsonl")
        tracer.write_spans(spans)
        result["spans"] = spans
    print("RESULT " + json.dumps(result), flush=True)


if __name__ == "__main__":
    sys.path.insert(0, os.path.join(sys.argv[1], "src"))
    import clawsplit.cli  # set-up ends once this import is done

    print("ready", flush=True)
    line = sys.stdin.readline().strip()
    if line and line != "quit":
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        import checkers
        import hostspeed
        import instances
        from tracer import Tracer

        main(json.loads(line))
