"""The repository benchmark: one command, five workloads, checked outputs.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  ``--trace 0`` measures the end-to-end
metrics of BENCHMARK.json with no instrumentation; ``--trace 1`` drives
the same work through the layer entry points with spans around every call
and reports the per-layer metrics.  Human-readable lines (every metric by
name and unit, the host record, failed checks) come first; the last line
of standard output is the JSON result.  The exit code is non-zero when an
output check fails or the program cannot be run.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import re
import shutil
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict

sys.path.insert(0, str(Path(__file__).resolve().parent))

import common  # noqa: E402

@dataclass
class Context:
    workload: str
    cfg: Dict[str, Any]
    seed: int
    seconds: float
    trace: bool
    work: Path
    probe: common.HostProbe


#: The module of perfbench/ that runs each workload.
WORKLOAD_MODULES = {
    "tester-accept": "tester",
    "tester-skewed": "tester",
    "campaign-grid": "campaign",
    "monitor-churn": "monitor",
    "service-churn": "service",
}


def _declared() -> Dict[str, Any]:
    with open(common.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def _metric_block(
    declared, values: Dict[str, float], workload: str, unreached=(),
) -> Dict[str, Any]:
    """Every declared metric, by name, with its unit.

    A metric of a layer the workload does not reach (a name starting with
    one of ``unreached``, from spec.json) reads 0; any other metric that
    was not measured is an error, so a renamed or dropped measurement
    cannot pass for an improvement.
    """
    out = {}
    for entry in declared:
        name, unit = entry["name"], entry["unit"]
        if name not in values:
            if not name.startswith(tuple(unreached)):
                raise RuntimeError(f"{workload}: {name} was not measured")
            values[name] = 0
        elif name.startswith(tuple(unreached)):
            raise RuntimeError(f"{workload}: {name} was measured but is listed "
                               "as unreached in perfbench/spec.json")
        out[name] = {"value": values[name], "unit": unit}
    return out


def _named_units() -> Dict[str, str]:
    """Regex -> unit for the workload-specific figures of
    perfbench/metrics.json, where ``<word>`` stands for one dotted part."""
    catalogue = json.loads((common.BENCH_DIR / "metrics.json").read_text())["named"]
    return {
        re.sub(r"<[^>]+>", r"[^.]+", re.escape(pattern)): entry["unit"]
        for pattern, entry in catalogue.items()
    }


def _unit_of(name: str, units: Dict[str, str]) -> str:
    for regex, unit in units.items():
        if re.fullmatch(regex, name):
            return unit
    raise KeyError(f"{name} is not catalogued in perfbench/metrics.json")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    declared = _declared()
    spec = common.load_spec()
    if args.workload not in spec["workloads"]:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(spec['workloads'])}")
    if not (common.SRC / "repro").is_dir():
        print(f"error: no program sources under {common.SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(common.SRC))
    import repro  # noqa: F401  (fails here, before any timing, if broken)

    work = common.WORK / f"{args.workload}-{args.seed}-{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    (common.WORK / "tmp").mkdir(parents=True, exist_ok=True)
    work.mkdir(parents=True)
    # Temporary files of this process and its children stay in the checkout.
    os.environ["TMPDIR"] = str(common.WORK / "tmp")
    tempfile.tempdir = None
    ctx = Context(
        workload=args.workload, cfg=spec["workloads"][args.workload],
        seed=args.seed, seconds=args.seconds, trace=bool(args.trace),
        work=work,
        probe=common.HostProbe(spec["host_probe_reference_s"]),
    )
    started = time.perf_counter()
    out = importlib.import_module(WORKLOAD_MODULES[args.workload]).run(ctx)
    wall = time.perf_counter() - started
    peak_rss_mb = common.peak_rss_mb()
    # The host record: every probe the run took, plus three at its end.
    probes = ctx.probe.samples + [ctx.probe.time() for _ in range(3)]
    host = {
        "probe": {"reference_s": ctx.probe.reference_s, "count": len(probes),
                  "median_s": common.median(probes), "min_s": min(probes),
                  "max_s": max(probes)},
        "fingerprint": common.fingerprint(),
    }
    checks: common.Checks = out["checks"]
    if args.trace:
        out["tracer"].write(work / "spans.jsonl")
        values = dict(out["per_layer"])
        values.update(
            {f"{layer}.self_share": share
             for layer, share in out["tracer"].layer_shares().items()}
        )
        metrics = _metric_block(declared["per_layer"], values, args.workload,
                                ctx.cfg["unreached"])
    else:
        values = dict(out["end_to_end"], peak_rss_mb=peak_rss_mb)
        metrics = _metric_block(declared["end_to_end"], values, args.workload)

    report = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "wall_s": wall,
        "host": host, "info": out.get("info", {}),
        "metrics": metrics, "named": out.get("named", {}),
        "failures": checks.messages,
    }
    (work / "report.json").write_text(json.dumps(report, indent=2, sort_keys=True))
    print("# host.probe " + json.dumps(host["probe"], sort_keys=True))
    print("# host.fingerprint " + json.dumps(host["fingerprint"], sort_keys=True))
    print("# info " + json.dumps(report["info"], sort_keys=True))
    units = _named_units()
    for name, value in sorted(report["named"].items()):
        print(f"# {name} {value:.6g} {_unit_of(name, units)}")
    for name, entry in metrics.items():
        print(f"# {name} {entry['value']:.6g} {entry['unit']}")
    for message in checks.messages:
        print(f"# FAILED {message}")
    print(json.dumps({
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": metrics,
    }))
    return 0 if checks.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
