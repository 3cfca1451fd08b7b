"""Self-checks of the benchmark itself.

    python3 perfbench/selfcheck.py

Checks that BENCHMARK.json keeps to its format and limits and names
exactly the metrics run.py reports; that a tiny run of every workload,
untraced and traced, prints a well-formed result with no failed op; that
two traced runs with seed 1 generate the same inputs and the same
count-type metrics; and that run.py fails, without printing a result,
when the library sources are absent.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"

sys.path.insert(0, str(HERE))
from run import END_TO_END, WORK, per_layer_units  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
PATH = re.compile(r"[A-Za-z0-9_./-]{1,200}")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
SEED = 1


def check_spec(spec: dict, raw: bytes) -> list[str]:
    errs = []
    if len(raw) > 64 * 1024:
        errs.append("BENCHMARK.json is larger than 64 KiB")
    if set(spec) != {"command", "paths", "run_seconds", "workloads",
                     "end_to_end", "per_layer"}:
        errs.append(f"top-level keys are {sorted(spec)}")
    if not 1 <= len(spec["paths"]) <= 16 or not all(
            PATH.fullmatch(p) and not p.startswith("/") and ".." not in p
            for p in spec["paths"]):
        errs.append("bad paths")
    cmd = spec["command"]
    if not 1 <= len(cmd) <= 32 or any(len(c) > 200 or c.startswith("/")
                                      or ".." in c for c in cmd):
        errs.append("bad command")
    rs = spec["run_seconds"]
    if not isinstance(rs, int) or not 1 <= rs <= 60:
        errs.append("run_seconds must be a whole number from 1 to 60")
    if not 2 <= len(spec["workloads"]) <= 8:
        errs.append("2 to 8 workloads")
    for w in spec["workloads"]:
        if set(w) != {"name", "why"} or len(w["why"]) > 200 \
                or "\n" in w["why"]:
            errs.append(f"bad workload entry {w.get('name')}")
    e2e, layer = spec["end_to_end"], spec["per_layer"]
    if not 1 <= len(e2e) <= 16:
        errs.append(f"{len(e2e)} end-to-end metrics; the limit is 16")
    if not 1 <= len(layer) <= 128:
        errs.append(f"{len(layer)} per-layer metrics; the limit is 128")
    for m in e2e:
        if set(m) != {"name", "unit", "better", "bound"} or \
                not 0 < m["bound"] <= 0.25:
            errs.append(f"bad end-to-end entry {m.get('name')}")
    for m in layer:
        if set(m) != {"name", "unit", "better"}:
            errs.append(f"bad per-layer entry {m.get('name')}")
    setup = [m for m in e2e if m["name"] == "setup_s"]
    if not setup or setup[0]["unit"] != "s" or setup[0]["better"] != "lower":
        errs.append("setup_s must be an end-to-end metric in s, lower better")
    elif setup[0]["bound"] < max(m["bound"] for m in e2e):
        errs.append("setup_s must have the largest bound")
    names = [x["name"] for x in spec["workloads"] + e2e + layer]
    for n in names:
        if not NAME.fullmatch(n):
            errs.append(f"bad name {n!r}")
    if len(set(names)) != len(names):
        errs.append("a name is used twice")
    for m in e2e + layer:
        if not UNIT.fullmatch(m["unit"]) or m["better"] not in ("lower",
                                                                "higher"):
            errs.append(f"bad unit or direction for {m['name']}")
    if {m["name"]: m["unit"] for m in e2e} != END_TO_END:
        errs.append("end_to_end differs from what run.py reports")
    if {m["name"]: m["unit"] for m in layer} != per_layer_units():
        errs.append("per_layer differs from what run.py reports")
    return errs


def run(cwd: Path, workload: str, trace: int):
    """A one-second run with seed SEED."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(SEED), "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=180)


def check_result(proc, expected_units: dict) -> tuple[list[str], dict]:
    if proc.returncode != 0:
        return [f"exit {proc.returncode}: {proc.stderr[-500:]}"], {}
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    errs = []
    if set(result) != RESULT_KEYS:
        errs.append(f"result keys {sorted(result)}")
    if result["correct"] is not True or result["failed"] != 0 \
            or result["attempted"] < 1:
        errs.append(f"correct={result['correct']} failed={result['failed']} "
                    f"attempted={result['attempted']}")
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != expected_units:
        errs.append(f"metrics differ: missing {sorted(set(expected_units) - set(got))}, "
                    f"extra {sorted(set(got) - set(expected_units))}")
    for k, v in result["metrics"].items():
        if not isinstance(v["value"], (int, float)) or isinstance(v["value"], bool):
            errs.append(f"{k} is not a number")
    return errs, result


def check_bare() -> list[str]:
    """run.py must fail without a result next to no library sources."""
    bare = WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        (bare / "perfbench").mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for f in HERE.glob("*.py"):
            shutil.copy(f, bare / "perfbench")
        proc = run(bare, "decide", 0)
        last = (proc.stdout.strip().splitlines() or [""])[-1]
        if proc.returncode == 0 or last.startswith("{"):
            return ["run.py succeeded without the library sources"]
        return []
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    raw = (ROOT / "BENCHMARK.json").read_bytes()
    spec = json.loads(raw)
    failures = [f"BENCHMARK.json: {e}" for e in check_spec(spec, raw)]
    layer_units = per_layer_units()
    for w in (x["name"] for x in spec["workloads"]):
        errs, _ = check_result(run(ROOT, w, 0), END_TO_END)
        failures += [f"{w} untraced: {e}" for e in errs]
        counts = []
        for attempt in range(2):
            errs, result = check_result(run(ROOT, w, 1),
                                        layer_units)
            failures += [f"{w} traced: {e}" for e in errs]
            if errs:
                break
            detail = json.loads((RESULTS / f"{w}-seed{SEED}-trace1.json")
                                .read_text())["detail"]
            counts.append((detail["sha256"], {
                k: v["value"] for k, v in result["metrics"].items()
                if v["unit"] == "count"}))
        if len(counts) == 2 and counts[0] != counts[1]:
            failures.append(f"{w}: two traced runs with seed {SEED} "
                            f"differ in inputs or counts")
        print(f"{w}: checked", flush=True)
    failures += check_bare()
    for f in failures:
        print("FAIL", f)
    print("self-check", "failed" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
