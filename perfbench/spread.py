"""Run the benchmark over several seeds and report the spread.

    python3 perfbench/spread.py --seeds 1-10 --label a
    python3 perfbench/spread.py --seeds 1-10 --label b --compare a

Each run is a fresh `run.py` process of BENCHMARK.json's `run_seconds`.
For every workload and end-to-end metric this prints the median, the
quartiles (`statistics.quantiles`, n=4, the definition run.py uses too)
and the interquartile range as a share of the median, checks that
share against a third of the metric's bound in BENCHMARK.json (setup_s
excepted), and with `--compare` checks that no median is worse than the
earlier label's by more than the bound.  The summary, with the
environment, goes to perfbench/results/spread-<label>.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"

sys.path.insert(0, str(HERE))
from run import environment  # noqa: E402


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n"
                           f"{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(values) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "iqr_share": (q3 - q1) / med if med else float("nan"),
            "values": values}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workloads", nargs="*",
                    default=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--label", required=True)
    ap.add_argument("--compare", help="label of an earlier summary")
    args = ap.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    earlier = None
    if args.compare:
        earlier = json.loads(
            (RESULTS / f"spread-{args.compare}.json").read_text())
    summary = {"environment": environment(), "seeds": args.seeds,
               "seconds": spec["run_seconds"], "workloads": {}}
    ok = True
    for w in args.workloads:
        runs = [run_once(w, s, spec["run_seconds"])
                for s in seed_range(args.seeds)]
        rows = {}
        for name in bounds:
            rows[name] = summarize([r["metrics"][name]["value"] for r in runs])
        summary["workloads"][w] = {
            "runs": len(runs),
            "all_correct": all(r["correct"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "metrics": rows}
        ok &= all(r["correct"] for r in runs)
        print(f"{w}: {len(runs)} runs, correct={all(r['correct'] for r in runs)}")
        for name, row in rows.items():
            flags = []
            bound = bounds[name]
            if name != "setup_s" and row["iqr_share"] > bound / 3:
                flags.append(f"SPREAD>{bound / 3:.3f}")
            if earlier:
                before = earlier["workloads"][w]["metrics"][name]["median"]
                worse = (row["median"] - before) / before
                if better[name] == "higher":
                    worse = -worse
                row["worse_than_" + args.compare] = worse
                if worse > bound:
                    flags.append(f"WORSE {worse:+.3f}")
            ok &= not any(f.startswith("WORSE") for f in flags)
            print(f"  {name:<40} median {row['median']:<12.6g} "
                  f"q1 {row['q1']:<12.6g} q3 {row['q3']:<12.6g} "
                  f"iqr/med {row['iqr_share']:.4f} {' '.join(flags)}")
    RESULTS.mkdir(exist_ok=True)
    out = RESULTS / f"spread-{args.label}.json"
    out.write_text(json.dumps(summary, indent=1))
    print(f"wrote {out}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
