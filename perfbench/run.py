"""Seeded teamseq benchmark: one workload per process.

    python3 perfbench/run.py --workload decide --seed 1 --seconds 20 --trace 0

With `--trace 0` the run times a closed loop (one caller, next op after the
previous one returns) that cycles over the workload's seeded inputs for
`--seconds`, and reports the end-to-end metrics.  With `--trace 1` it makes
three passes over a fixed prefix of the inputs (untraced, traced,
untraced again) and reports per-layer metrics from the spans of the
traced pass; counts then repeat exactly for a seed.  Either way every
output is checked against its reference outside the timed phase, and the
last line of stdout is the JSON result.  A result file with the
environment and the spread of the run goes to perfbench/results/.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import hashlib
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import types
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
WORK = HERE / "work"

sys.path.insert(0, str(HERE))

from tracing import FIELDS, WRAPPED, Tracer, function_names  # noqa: E402
from workloads import (WORKLOADS, derivation_nodes, digest_text,  # noqa: E402
                       seeded_rng)

SETUP_SAMPLES = 5
LAYERS = tuple(WRAPPED)

END_TO_END = {"ops_per_s": "1/s", "op_p50_ms": "ms", "op_tail_ms": "ms",
              "setup_s": "s", "peak_rss_mb": "MB"}
COUNTS = ("semantics.team_space", "semantics.cover_transforms",
          "prover.derivation_nodes", "prover.lgd_nodes", "prover.rgd_nodes",
          "prover.countermodels", "calculus.checked_nodes",
          "transforms.eliminate_cuts.nodes_out",
          "transforms.normalize.nodes_out",
          "transforms.resolve_derivation.nodes_out",
          "interpolation.interpolant_symbols")


def per_layer_units() -> dict:
    units = {}
    for name in function_names():
        units.update({f"{name}.{f}": "count" if f == "calls" else "s"
                      for f in FIELDS})
    units.update({f"{layer}.self_s": "s" for layer in LAYERS})
    units.update({c: "count" for c in COUNTS})
    units.update({"interpolation.oracle_checked_frac": "frac",
                  "bench.self_s": "s", "bench.spans": "count",
                  "bench.ops": "count", "bench.failed_frac": "frac",
                  "bench.traced_s": "s", "bench.untraced_s": "s",
                  "bench.trace_overhead": "ratio"})
    return units


class OpError:
    """An op that raised; it counts as failed."""

    def __init__(self, exc: Exception):
        self.message = f"{type(exc).__name__}: {exc}"


def load_library():
    if not (SRC / "teamseq" / "__init__.py").is_file():
        raise SystemExit(f"run.py: no teamseq sources under {SRC}")
    sys.path.insert(0, str(SRC))
    return types.SimpleNamespace(**{m: importlib.import_module(f"teamseq.{m}")
                                    for m in LAYERS})


def spread(values) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            name = ref[5:]
            loose = ROOT / ".git" / name
            if loose.is_file():
                return loose.read_text().strip()
            for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
                if line.endswith(" " + name):
                    return line.split()[0]
            return "unknown"
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def environment() -> dict:
    return {"commit": commit(), "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "platform": platform.platform(), "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "cpu_control": "none: no CPU pinning or frequency control"}


# ---------------------------------------------------------------------------
# set-up

def build(tq, workload, seed: int, workdir: Path):
    items = workload.build(tq, seeded_rng(workload, seed), str(workdir))
    digest = hashlib.sha256(digest_text(workload, items).encode()).hexdigest()
    return items, digest


def setup_only(args) -> int:
    """Child process: import, generate, report ready, clean up."""
    workdir = WORK / f"{args.workload}-{os.getpid()}"
    try:
        tq = load_library()
        _, digest = build(tq, WORKLOADS[args.workload], args.seed, workdir)
        print(f"ready {digest}", flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


def sample_setups(args) -> tuple[list[float], list[float], set]:
    """Time process start through import and input generation to the
    point where the first op could run, in fresh processes.  A
    calibration burst runs before each process and after the last, while
    this process waits and nothing else of the run executes; each sample
    is scaled by the bursts on either side of it.  Returns the scaled and
    the measured samples."""
    measured, starts, digests = [], [], set()
    cal = Calibration()
    cal.burst()
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed)]
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True) as proc:
            line = proc.stdout.readline()
            ready = time.perf_counter()
            proc.stdout.read()
            if proc.wait(timeout=120) != 0 or not line.startswith("ready "):
                raise RuntimeError("set-up process failed")
        cal.burst()
        measured.append(ready - start)
        starts.append(start)
        digests.add(line.split()[1])
    scaled = [m * cal.local_scale(a) for m, a in zip(measured, starts)]
    return scaled, measured, digests


# ---------------------------------------------------------------------------
# ops

class Outcomes:
    """First output of each input, and how every op compared with it."""

    def __init__(self, workload):
        self.workload = workload
        self.first = {}      # input index -> output
        self.summary = {}    # input index -> summary of the first output
        self.runs = {}       # input index -> ops run on it
        self.repeat_diff = {}  # input index -> ops that differed from first

    def record(self, i, out):
        w = self.workload
        s = ("error", out.message) if isinstance(out, OpError) else w.summary(out)
        self.runs[i] = self.runs.get(i, 0) + 1
        if i not in self.summary:
            self.summary[i] = s
            self.first[i] = out
        elif s != self.summary[i]:
            self.repeat_diff[i] = self.repeat_diff.get(i, 0) + 1

    def check(self, tq, items) -> tuple[int, list[str]]:
        """Reference-check each first output; count failed ops."""
        failed, notes = 0, []
        for i, out in self.first.items():
            if isinstance(out, OpError):
                reason = out.message
            else:
                try:
                    reason = self.workload.reference(tq, items[i], out)
                except Exception as e:  # a crashing check is a failed op
                    reason = f"reference check raised {type(e).__name__}: {e}"
            if reason is not None:
                failed += self.runs[i]
                notes.append(f"input {i}: {reason}")
            elif i in self.repeat_diff:
                failed += self.repeat_diff[i]
                notes.append(f"input {i}: a repeat differed from the first op")
        return failed, notes


def run_op(workload, tq, item):
    try:
        return workload.op(tq, item)
    except Exception as e:  # counted as a failed op, the loop goes on
        return OpError(e)


def calibration_rep() -> int:
    """A fixed piece of pure-Python work that does not touch the library:
    dict traffic on a small table, then allocating and sorting a few
    thousand tuples by a string key, in about equal shares of time."""
    d = {}
    for i in range(10000):
        k = (i * 7919) % 1000
        d[k] = d.get(k, 0) + len(str(k))
    ts = [(x % 97, str(x)) for x in ((i * 7919) % 10007 for i in range(6000))]
    ts.sort(key=lambda t: t[1])
    return len(d) + len(dict((b, a) for a, b in ts))


class Calibration:
    """Host speed, sampled in short bursts around the measured work.

    The CPU speed of a shared host drifts and jumps, by up to a factor of
    two within seconds, and every timing moves with it.  The time of
    `calibration_rep` in the bursts on either side of a measured interval
    tracks that speed; a time scaled by `REFERENCE_S / rep time` is in
    nominal units of a host on which one rep takes REFERENCE_S.  The
    garbage collector is off during a burst, so the size of the library's
    heap does not leak into the reference.
    """

    REFERENCE_S = 7.5e-3
    BURST = 2
    EVERY_S = 0.25

    def __init__(self):
        self.samples = []  # every rep time
        self.ends = []     # end of each burst
        self.levels = []   # median rep time of each burst

    def burst(self) -> float:
        clock = time.perf_counter
        begin = clock()
        reps = []
        enabled = gc.isenabled()
        gc.disable()
        try:
            for _ in range(self.BURST):
                a = clock()
                calibration_rep()
                reps.append(clock() - a)
        finally:
            if enabled:
                gc.enable()
        self.samples.extend(reps)
        self.levels.append(statistics.median(reps))
        self.ends.append(clock())
        return clock() - begin

    def scale(self) -> float:
        """Factor from measured to nominal time, over every burst."""
        return self.REFERENCE_S / statistics.median(self.samples)

    def local_scale(self, start: float) -> float:
        """Factor for an interval that starts at `start` and runs no burst:
        from the last burst before it and the next burst, if any."""
        j = bisect.bisect_right(self.ends, start) - 1
        near = self.levels[max(j, 0):j + 2]
        return self.REFERENCE_S / statistics.fmean(near)


def timed_loop(workload, tq, items, seconds: float, outcomes: Outcomes,
               cal: Calibration):
    """Closed loop over `items`, cycling, until ops have taken `seconds`
    (and at least two ops ran), with a calibration burst first, last and
    after the op that passes each Calibration.EVERY_S."""
    stamps = []
    clock = time.perf_counter
    n = len(items)
    begin = clock()
    paused = cal.burst()
    next_cal = clock() + cal.EVERY_S
    i = 0
    while True:
        k = i % n
        a = clock()
        out = run_op(workload, tq, items[k])
        b = clock()
        stamps.append((a, b))
        outcomes.record(k, out)
        i += 1
        if b >= next_cal:
            paused += cal.burst()
            next_cal = clock() + cal.EVERY_S
        if i >= 2 and clock() - begin - paused >= seconds:
            elapsed = clock() - begin - paused
            cal.burst()
            return stamps, elapsed


def one_pass(workload, tq, items, outcomes: Outcomes) -> float:
    clock = time.perf_counter
    begin = clock()
    for k, item in enumerate(items):
        outcomes.record(k, run_op(workload, tq, item))
    return clock() - begin


def end_to_end(workload, stamps, elapsed, setups, cal) -> tuple[dict, dict]:
    """Each op's latency is scaled by the calibration bursts on either
    side of it, and the timed phase by the ops' mean scale; `setups`
    holds the set-up samples, scaled and as measured."""
    raw_ms = [(b - a) * 1e3 for a, b in stamps]
    lat_ms = [ms * cal.local_scale(a) for ms, (a, _) in zip(raw_ms, stamps)]
    scale = sum(lat_ms) / sum(raw_ms)

    def tail(xs):
        return statistics.quantiles(xs, n=100)[workload.tail_pct - 1]

    raw = {"ops_per_s": len(stamps) / elapsed,
           "op_p50_ms": statistics.median(raw_ms),
           "op_tail_ms": tail(raw_ms)}
    metrics = {"ops_per_s": len(stamps) / (elapsed * scale),
               "op_p50_ms": statistics.median(lat_ms),
               "op_tail_ms": tail(lat_ms)}
    metrics["setup_s"] = statistics.median(setups[0])
    raw["setup_s"] = statistics.median(setups[1])
    metrics["peak_rss_mb"] = \
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    detail = {"measured": raw,
              "scale": scale,
              "calibration_s": spread(cal.samples),
              "latency_ms": spread(lat_ms),
              "tail_percentile": workload.tail_pct,
              "samples_beyond_tail": sum(x > metrics["op_tail_ms"]
                                         for x in lat_ms),
              "setup_s_samples": setups[0],
              "setup_s_measured": setups[1]}
    return metrics, detail


# ---------------------------------------------------------------------------
# traced run

def _formula_nodes(tq, formulas, kind):
    seen, stack = set(), list(formulas)
    while stack:
        f = stack.pop()
        if isinstance(f, kind):
            seen.add(f)
        stack.extend(tq.syntax.children(f))
    return seen


def count_metrics(tq, tracer: Tracer) -> dict:
    c = dict.fromkeys(COUNTS, 0)
    Derivation = tq.calculus.Derivation
    for idx, args, out in tracer.io:
        name = tracer.names[tracer.spans[idx][0]]
        if name == "semantics.sequent_valid":
            s = args[0]
            c["semantics.team_space"] += 2 ** (2 ** len(s.props()))
            goals = s.ant + (tq.semantics.big_or(s.suc),)
            c["semantics.cover_transforms"] += len(
                _formula_nodes(tq, goals, tq.syntax.Or))
        elif name == "prover.prove_or_countermodel":
            if not isinstance(out, Derivation):
                c["prover.countermodels"] += 1
                continue
            stack = [out]
            while stack:
                node = stack.pop()
                c["prover.derivation_nodes"] += 1
                c["prover.lgd_nodes"] += node.rule.rule == "LGd"
                c["prover.rgd_nodes"] += node.rule.rule == "RGd"
                stack.extend(node.premises)
        elif name == "calculus.check_derivation":
            c["calculus.checked_nodes"] += derivation_nodes(args[0])
        elif name == "transforms.resolve_derivation":
            c[f"{name}.nodes_out"] += sum(derivation_nodes(d)
                                          for d in out.branches.values())
        elif name.startswith("transforms."):
            c[f"{name}.nodes_out"] += derivation_nodes(out)
        elif name == "interpolation.interpolate_partition":
            c["interpolation.interpolant_symbols"] += \
                tq.syntax.symbol_count(out.interpolant)
    return {k: (v, "count") for k, v in c.items()}


TRACE_BURSTS = 3


def traced_run(workload, tq, items):
    """Cold untraced, traced and warm untraced passes over a prefix.
    Layer times are in the nominal seconds of `Calibration`, from bursts
    taken around the traced pass; their shares of the traced wall time
    go to the result file only."""
    prefix = items[:workload.trace_ops]
    cold, traced, warm = (Outcomes(workload) for _ in range(3))
    one_pass(workload, tq, prefix, cold)
    cal = Calibration()
    for _ in range(TRACE_BURSTS):
        cal.burst()
    tracer = Tracer()
    tracer.install()
    try:
        traced_s = one_pass(workload, tq, prefix, traced)
    finally:
        tracer.uninstall()
    for _ in range(TRACE_BURSTS):
        cal.burst()
    untraced_s = one_pass(workload, tq, prefix, warm)
    scale = cal.scale()
    times = tracer.layer_times(traced_s)
    layer = {k: (v * scale, "s") if u == "s" else (v, u)
             for k, (v, u) in times.items()}
    layer.update(count_metrics(tq, tracer))
    layer["interpolation.oracle_checked_frac"] = \
        (tracer.oracle_checked_frac(), "frac")
    layer["bench.ops"] = (len(prefix), "count")
    layer["bench.traced_s"] = (traced_s * scale, "s")
    layer["bench.untraced_s"] = (untraced_s * scale, "s")
    layer["bench.trace_overhead"] = (traced_s / untraced_s, "ratio")
    same = cold.summary == traced.summary == warm.summary
    detail = {"passes_agree": same, "scale": scale,
              "calibration_s": spread(cal.samples),
              "share_of_traced_s": {k: v / traced_s for k, (v, u)
                                    in times.items() if u == "s"}}
    return cold, layer, detail, tracer


# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.setup_only:
        return setup_only(args)

    tq = load_library()
    workload = WORKLOADS[args.workload]
    if not args.trace:
        *setups, child_digests = sample_setups(args)
    workdir = WORK / f"{args.workload}-{os.getpid()}"
    try:
        items, digest = build(tq, workload, args.seed, workdir)
        print(f"{workload.name} seed={args.seed} inputs={len(items)} "
              f"sha256={digest}", flush=True)
        notes = []
        if args.trace:
            outcomes, metrics, detail, tracer = traced_run(workload, tq,
                                                           items)
            same = detail["passes_agree"]
            attempted = 3 * len(outcomes.runs)
            if not same:
                notes.append("traced and untraced passes differ")
        else:
            if child_digests != {digest}:
                notes.append("set-up processes generated different inputs")
            outcomes = Outcomes(workload)
            cal = Calibration()
            stamps, elapsed = timed_loop(workload, tq, items, args.seconds,
                                         outcomes, cal)
            values, detail = end_to_end(workload, stamps, elapsed, setups,
                                        cal)
            metrics = {k: (v, END_TO_END[k]) for k, v in values.items()}
            attempted = len(stamps)
        failed, ref_notes = outcomes.check(tq, items)
        if args.trace:
            # each input ran once per pass, and the passes must agree
            failed = 3 * failed if same else attempted
            metrics["bench.failed_frac"] = (failed / attempted, "frac")
        notes.extend(ref_notes)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    correct = failed == 0 and not notes
    detail.update({"distinct_inputs_run": len(outcomes.runs),
                   "inputs": len(items), "sha256": digest,
                   "failed_frac": failed / attempted})
    record = {"workload": workload.name, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "environment": environment(), "correct": correct,
              "attempted": attempted, "failed": failed, "notes": notes[:20],
              "detail": detail,
              "metrics": {k: {"value": v, "unit": u}
                          for k, (v, u) in metrics.items()}}
    RESULTS.mkdir(exist_ok=True)
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    (RESULTS / f"{stem}.json").write_text(json.dumps(record, indent=1))
    if args.trace:
        (RESULTS / f"{stem}-spans.json").write_text(
            json.dumps(tracer.span_table()))
    for note in notes[:5]:
        print("note:", note)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
