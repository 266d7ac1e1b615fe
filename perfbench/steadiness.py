"""Steadiness report: run the benchmark over many seeds, then compare two
sets of runs metric by metric.

    python3 perfbench/steadiness.py collect --workload W --seeds 1-10 --out a.json
    python3 perfbench/steadiness.py report a.json [b.json]

``collect`` runs ``perfbench/run.py`` once per seed, one after another,
and keeps each run's result line.  ``report`` prints, for every metric,
each side's median and quartiles (``statistics.quantiles(values, n=4)``)
and the spread: the distance between the quartiles as a share of the
median.  An end-to-end metric whose spread exceeds its bound in
BENCHMARK.json is flagged, ``setup_s`` included; with two sets, a metric
whose second median differs from the first by more than the bound, in
either direction, is flagged as disagreeing.  The exit code is 1 when
anything is flagged or a run failed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List

ROOT = Path.cwd()


def _seeds(text: str) -> List[int]:
    out: List[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def collect(args) -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or declared["run_seconds"]
    runs = []
    for seed in _seeds(args.seeds):
        cmd = declared["command"] + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(args.trace),
        ]
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        wall = time.perf_counter() - t0
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
        runs.append({"seed": seed, "exit": proc.returncode, "wall_s": wall,
                     "result": result, "stderr": proc.stderr[-2000:]})
        print(f"seed {seed}: exit {proc.returncode} in {wall:.1f}s", file=sys.stderr)
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    Path(args.out).write_text(json.dumps(
        {"workload": args.workload, "trace": args.trace, "seconds": seconds,
         "runs": runs}, indent=2))
    return 0 if all(r["exit"] == 0 for r in runs) else 1


def _values(doc: Dict[str, Any]) -> Dict[str, List[float]]:
    values: Dict[str, List[float]] = {}
    for run in doc["runs"]:
        if run["result"] is None:
            continue
        for name, entry in run["result"]["metrics"].items():
            values.setdefault(name, []).append(float(entry["value"]))
    return values


def summary(values: List[float]) -> Dict[str, float]:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else float("inf")}


def worse_by(a: float, b: float, better: str) -> float:
    """How much worse ``b`` is than ``a``, as a share of ``a``."""
    if a == 0:
        return 0.0
    return (b - a) / a if better == "lower" else (a - b) / a


def report(args) -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in declared["end_to_end"] + declared["per_layer"]}
    docs = [json.loads(Path(p).read_text()) for p in args.sets]
    sides = [_values(d) for d in docs]
    failed_runs = sum(r["exit"] != 0 for d in docs for r in d["runs"])
    flagged = failed_runs > 0
    print(f"workload {docs[0]['workload']}, trace {docs[0]['trace']}, "
          f"{' vs '.join(str(len(d['runs'])) for d in docs)} runs, "
          f"{failed_runs} failed")
    head = f"{'metric':34} " + "  ".join(
        f"{'median':>11} {'q1':>11} {'q3':>11} {'spread':>7}" for _ in docs
    ) + f" {'bound':>6}  verdict"
    print(head)
    for name, vals in sides[0].items():
        if len(vals) < 2 or any(name not in s or len(s[name]) < 2 for s in sides):
            continue
        meta = metrics.get(name, {})
        bound = meta.get("bound")
        stats = [summary(s[name]) for s in sides]
        notes = []
        if bound is not None:
            for i, st in enumerate(stats):
                if st["spread"] > bound:
                    notes.append(f"SPREAD of set {i + 1} > bound")
        if bound is not None and len(stats) == 2:
            drift = worse_by(stats[0]["median"], stats[1]["median"], meta["better"])
            if abs(drift) > bound:
                notes.append(f"DISAGREE ({drift:+.3f} worse)")
            else:
                notes.append("agree")
        if any(n != "agree" for n in notes):
            flagged = True
        cols = "  ".join(
            f"{st['median']:11.5g} {st['q1']:11.5g} {st['q3']:11.5g} {st['spread']:7.3f}"
            for st in stats
        )
        print(f"{name:34} {cols} {bound if bound is not None else '-':>6}  "
              f"{'; '.join(notes)}")
    return 1 if flagged else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="cmd", required=True)
    p = sub.add_parser("collect", help="run the benchmark once per seed")
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,7")
    p.add_argument("--seconds", type=int, default=None,
                   help="run length (default: run_seconds of BENCHMARK.json)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=collect)
    p = sub.add_parser("report", help="spread of one set, or agreement of two")
    p.add_argument("sets", nargs="+", help="one or two files written by collect")
    p.set_defaults(func=report)
    args = parser.parse_args(argv)
    if args.cmd == "report" and len(args.sets) > 2:
        parser.error("report takes one or two sets")
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
