"""Per-layer spans and counts, recorded from outside the program.

Tracer.install wraps functions of clawsplit's modules at every site that
holds them: the defining module and each module that imported the name (for
example clawsplit.cli.sweepline and clawsplit.recognition.sweepline).
uninstall puts the originals back.

The tracer is installed in one of two modes for each run of an answer.  A
"timed" run wraps the public functions in TIMED and records a span (name,
start, end, parent) per call; a span's self time is its duration minus the
time its child spans cover.  A "counted" run counts the calls of the hot
private helpers and of encoding.extend (COUNTED), and the distinct inputs of
extend, without timing anything.  Keeping the counters out of the timed run
keeps their cost out of the layer times.  Functions called thousands
of times per answer (HOT) keep one aggregate record per parent span instead
of one record per call, so the spans of a run fit in memory until it ends.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict

# (module, function) for every timed function.  Its layer is the module it
# lives in; cli.main is the root span of an answer.
TIMED = (
    ("clawsplit.cli", "main"),
    ("clawsplit.cli", "load_instance"),
    ("clawsplit.cli", "cmd_check"),
    ("clawsplit.cli", "cmd_represent"),
    ("clawsplit.cli", "cmd_partition"),
    ("clawsplit.recognition", "sweepline"),
    ("clawsplit.recognition", "maximal_cliques"),
    ("clawsplit.recognition", "vertebrate_representation"),
    ("clawsplit.intervals", "graph_claw_number"),
    ("clawsplit.intervals", "mid_relation"),
    ("clawsplit.encoding", "extend"),
    ("clawsplit.solver", "solve"),
    ("clawsplit.solver", "compute_groups"),
    ("clawsplit.solver", "verify_partition"),
)
COUNTED = (
    ("clawsplit.intervals", "_max_disjoint_meeting"),
    ("clawsplit.encoding", "_profile"),
    ("clawsplit.encoding", "extend"),
)
HOT = {"encoding.extend", "intervals.mid_relation"}
LAYERS = ("cli", "recognition", "intervals", "encoding", "solver")


def _short(module: str, name: str) -> str:
    return f"{module.rsplit('.', 1)[1]}.{name}"


class Tracer:
    """Wrappers, their spans and counts; install before and uninstall after."""

    def __init__(self) -> None:
        self.patched: list[tuple[object, str, object]] = []
        self.sites: dict[str, list[str]] = {}
        self.answers = {"timed": 0, "counted": 0}
        self.calls: dict[str, int] = defaultdict(int)
        self.total: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.spans: list[tuple] = []
        self.hot: dict[tuple, list] = {}
        self.cliques_found = 0
        self.states_total = 0
        self.states_max_stage = 0
        self.counts: dict[str, int] = defaultdict(int)
        self.extend_distinct = 0
        self._extend_seen: set = set()
        self._stack: list[list] = []
        self._next_id = 0

    # -- installation ---------------------------------------------------

    def install(self, mode: str) -> None:
        """Wrap for one round; mode is "timed" or "counted"."""
        if mode == "timed":
            wrappers = {target: self._timed for target in TIMED}
        else:
            wrappers = {target: self._counted for target in COUNTED}
            wrappers[("clawsplit.cli", "main")] = self._counted_root
        modules = [mod for name, mod in sorted(sys.modules.items())
                   if mod is not None and (name == "clawsplit" or name.startswith("clawsplit."))]
        for (module, name), make in wrappers.items():
            original = getattr(sys.modules[module], name)
            key = _short(module, name)
            wrapper = make(key, original)
            sites = []
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self.patched.append((mod, attr, original))
                        sites.append(f"{mod.__name__}.{attr}")
            self.sites[f"{mode} {key}"] = sites

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self.patched):
            setattr(mod, attr, original)
        self.patched.clear()

    # -- wrappers ---------------------------------------------------------

    def _counted_root(self, key: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.answers["counted"] += 1
            self._extend_seen.clear()
            return fn(*args, **kwargs)

        return wrapper

    def _counted(self, key: str, fn):
        counts = self.counts
        see = self._see_extend if key == "encoding.extend" else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            if see is not None:
                see(args, kwargs)
            return fn(*args, **kwargs)

        return wrapper

    def _timed(self, key: str, fn):
        stack = self._stack
        hot = key in HOT
        after = {
            "recognition.maximal_cliques": self._after_cliques,
            "solver.solve": self._after_solve,
        }.get(key)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not stack:
                self.answers["timed"] += 1
            frame = [key, 0.0, self._next_id]
            self._next_id += 1
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                self._close(frame, start, end, hot)
            if after is not None:
                after(result)
            return result

        return wrapper

    def _close(self, frame: list, start: float, end: float, hot: bool) -> None:
        key, child_time, span_id = frame
        duration = end - start
        self.calls[key] += 1
        self.total[key] += duration
        self.self_time[key] += duration - child_time
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[1] += duration
        parent_id = parent[2] if parent is not None else None
        answer = self.answers["timed"]
        if hot:
            record = self.hot.setdefault((answer, parent_id, key), [start, end, 0, 0.0])
            record[1] = end
            record[2] += 1
            record[3] += duration
        else:
            self.spans.append((answer, span_id, parent_id, key, start, end))

    def _see_extend(self, args, kwargs) -> None:
        # extend(p_prev, q_prev, F, C, D, s_prev, s, v): the profile work
        # depends on (s_prev, s, F) only.
        if len(args) >= 7:
            F, s_prev, s = args[2], args[5], args[6]
        else:
            F, s_prev, s = kwargs["F"], kwargs["s_prev"], kwargs["s"]
        key = (s_prev, s, tuple((iv.lo, iv.hi) for iv in F))
        if key not in self._extend_seen:
            self._extend_seen.add(key)
            self.extend_distinct += 1

    def _after_cliques(self, arrangement) -> None:
        self.cliques_found += len(arrangement.cliques)

    def _after_solve(self, result) -> None:
        counts = result.stage_state_counts
        self.states_total += sum(counts)
        self.states_max_stage = max(self.states_max_stage, max(counts, default=0))

    # -- results ----------------------------------------------------------

    def metrics(self) -> dict[str, float | None]:
        """Per-answer figures; None where the wrapper behind it never fired."""
        n = self.answers["timed"]
        nc = self.answers["counted"]

        def per(key: str, table) -> float | None:
            return table[key] / n if self.calls[key] else None

        def counted(key: str) -> float | None:
            return self.counts[key] / nc if self.counts[key] else None

        extend_calls = self.counts["encoding.extend"]
        solved = self.calls["solver.solve"]
        out = {
            "cli.load_s": per("cli.load_instance", self.total),
            "recognition.sweepline_s": per("recognition.sweepline", self.total),
            "recognition.maximal_cliques_s": per("recognition.maximal_cliques", self.total),
            "recognition.representation_self_s": per("recognition.vertebrate_representation", self.self_time),
            "recognition.cliques_found": self.cliques_found / n if self.calls["recognition.maximal_cliques"] else None,
            "intervals.graph_claw_number_s": per("intervals.graph_claw_number", self.total),
            "intervals.greedy_calls": counted("intervals._max_disjoint_meeting"),
            "intervals.mid_relation_s": per("intervals.mid_relation", self.total),
            "intervals.mid_relation_calls": per("intervals.mid_relation", self.calls),
            "encoding.extend_s": per("encoding.extend", self.total),
            "encoding.extend_calls": counted("encoding.extend"),
            "encoding.extend_distinct_inputs": self.extend_distinct / nc if extend_calls else None,
            "encoding.extend_distinct_share": self.extend_distinct / extend_calls if extend_calls else None,
            "encoding.profile_calls": counted("encoding._profile"),
            "solver.solve_s": per("solver.solve", self.total),
            "solver.dp_self_s": per("solver.solve", self.self_time),
            "solver.states_total": self.states_total / n if solved else None,
            "solver.states_max_stage": float(self.states_max_stage) if solved else None,
            "solver.compute_groups_s": per("solver.compute_groups", self.total),
            "solver.verify_partition_s": per("solver.verify_partition", self.total),
            "solver.verify_partition_calls": per("solver.verify_partition", self.calls),
        }
        for layer in LAYERS:
            keys = [k for k in self.self_time if k.startswith(layer + ".")]
            out[f"{layer}.self_s"] = sum(self.self_time[k] for k in keys) / n if keys else None
        return out

    def write_spans(self, path: str) -> None:
        """One JSON object per line: single spans, then per-parent aggregates."""
        with open(path, "w", encoding="utf-8") as fh:
            for answer, span_id, parent_id, key, start, end in self.spans:
                fh.write(json.dumps({"answer": answer, "id": span_id, "parent": parent_id,
                                     "name": key, "start": start, "end": end}) + "\n")
            for (answer, parent_id, key), (start, end, count, total) in self.hot.items():
                fh.write(json.dumps({"answer": answer, "parent": parent_id, "name": key,
                                     "first_start": start, "last_end": end,
                                     "count": count, "total_s": total}) + "\n")
