"""Shared machinery of the benchmark: spans, statistics, set-up timing,
memory, the host record and the result line.

Everything here belongs to the benchmark, not to the program under test:
spans are recorded *around* calls into the program's public entry points,
kept in memory, and written out once when the run ends.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence

#: The repository checkout the benchmark runs in (its working directory).
ROOT = Path.cwd()
SRC = ROOT / "src"
BENCH_DIR = Path(__file__).resolve().parent
#: Everything a run writes goes below this directory of the checkout.
WORK = ROOT / ".perfbench"

#: Layers are the program's modules; a span's name starts with its layer.
LAYERS = ("graphs", "congest", "engine", "core", "runner", "dynamic", "service")


def load_spec() -> Dict[str, Any]:
    """The benchmark's own declaration of workload sizes (spec.json)."""
    with open(BENCH_DIR / "spec.json", encoding="utf-8") as fh:
        return json.load(fh)


def program_env() -> Dict[str, str]:
    """Environment for child processes: the checkout's sources, and
    temporary files kept inside the checkout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    env["TMPDIR"] = str(WORK / "tmp")
    env["PYTHONUNBUFFERED"] = "1"
    return env


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------
def quantile(values: Sequence[float], q: float) -> float:
    """Nearest-rank quantile (the largest sample for small samples)."""
    if not values:
        raise ValueError("quantile of an empty sample")
    ordered = sorted(values)
    rank = max(0, min(len(ordered) - 1, int(q * len(ordered) + 0.5) - 1))
    return ordered[rank]


def median(values: Iterable[float]) -> float:
    return statistics.median(list(values))


def tail(values: Sequence[float]) -> float:
    """The highest quantile, up to p99.9, with at least ten samples beyond
    it; the median when there are fewer than twenty samples.

    The p99.9 cap fixes the quantile of long runs whatever their length:
    on monitor-churn, where about 1 % of steps are full re-tests, p99
    fell where the cheapest re-tests meet the ball rechecks and spread
    0.10-0.15 over ten seeds; p99.9 lands among the costliest re-tests."""
    if len(values) < 20:
        return median(values)
    return quantile(values, min(0.999, (len(values) - 10) / len(values)))


def derive(seed: int, *tokens: Any) -> int:
    """A sub-seed of the workload seed (the program's own seed chain)."""
    from repro.runner.runtable import derive_seed

    return derive_seed(seed, *tokens)


# ----------------------------------------------------------------------
# set-up time, memory, host record
# ----------------------------------------------------------------------
def import_seconds(modules: Sequence[str]) -> float:
    """Wall time of a fresh interpreter importing ``modules``: the import
    share of what a user pays before the first result."""
    t0 = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", "import " + ", ".join(modules)],
        cwd=ROOT, env=program_env(), check=True,
    )
    return time.perf_counter() - t0


class HostProbe:
    """A fixed pure-Python loop plus a numpy lexsort, timed between the
    operations of a run.

    The benchmark's host is shared: neighbours slow CPU-bound work by up
    to half for tens of seconds at a time, far more than the changes the
    benchmark must resolve.  Scaling a run's walls by ``reference_s`` over
    the median probe taken during that run gives the walls the host would
    show at reference speed, so runs made under different neighbours
    compare code rather than neighbours.  The probe does not touch the
    program; raw figures are reported next to the scaled ones.
    """

    def __init__(self, reference_s: float) -> None:
        import numpy as np

        self.reference_s = reference_s
        self._keys = np.random.default_rng(12345).integers(0, 1 << 40, size=(4, 50_000))
        self.samples: List[float] = []

    def time(self) -> float:
        import numpy as np

        t0 = time.perf_counter()
        acc = 0
        for i in range(100_000):
            acc += i * i % 7
        np.lexsort(self._keys)
        wall = time.perf_counter() - t0
        self.samples.append(wall)
        return wall

    def factor(self, probes: Sequence[float]) -> float:
        """Multiply a wall measured among ``probes`` by this."""
        return self.reference_s / median(probes)


def median_setup(trials: int, trial: Callable[[bool], Any], probe: HostProbe) -> tuple:
    """Run ``trial(last)`` ``trials`` times, with a host probe before and
    after each; return ``(median seconds at reference speed, median raw
    seconds, the last trial's value)``.  Only the last trial's state is
    kept."""
    raw: List[float] = []
    probes = [probe.time()]
    value = None
    for i in range(trials):
        gc.collect()
        t0 = time.perf_counter()
        value = trial(i == trials - 1)
        raw.append(time.perf_counter() - t0)
        probes.append(probe.time())
    return median(raw) * probe.factor(probes), median(raw), value


def peak_rss_mb() -> float:
    """Peak resident set of this process and of any waited-for child
    (daemon, pool workers), in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def source_digest() -> str:
    """SHA-256 over the program's sources (the checkout may not be a git
    repository, so this identifies the code under test)."""
    h = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_sha() -> Optional[str]:
    """HEAD of the checkout, when it is a git repository itself (git would
    otherwise search the directories above it)."""
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def fingerprint() -> Dict[str, Any]:
    import numpy as np

    try:
        usable = len(os.sched_getaffinity(0))
    except AttributeError:
        usable = os.cpu_count()
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu_count": os.cpu_count(),
        "cpus_usable": usable,
        "machine": platform.machine(),
        "git_sha": git_sha(),
        "source_digest": source_digest(),
    }


# ----------------------------------------------------------------------
# spans
# ----------------------------------------------------------------------
class Tracer:
    """In-memory spans: name, start, end, parent and trace id.

    Nesting follows the ``with`` structure of the benchmark's own code;
    :meth:`add` records a span measured elsewhere (a server's elapsed
    time, a client request on another connection) under an explicit
    parent.  Each workload opens one root span per request or instance,
    whose id is the trace id of everything below it.
    """

    def __init__(self) -> None:
        self.spans: List[Dict[str, Any]] = []
        self._stack: List[Dict[str, Any]] = []

    def add(
        self, name: str, start: float, end: float, *,
        parent: Optional[Dict[str, Any]] = None, **attrs: Any,
    ) -> Dict[str, Any]:
        span = {
            "id": len(self.spans),
            "name": name,
            "start": start,
            "end": end,
            "parent": parent["id"] if parent is not None else None,
            "trace": parent["trace"] if parent is not None else len(self.spans),
        }
        if attrs:
            span["attrs"] = attrs
        self.spans.append(span)
        return span

    @contextmanager
    def span(self, name: str, **attrs: Any):
        parent = self._stack[-1] if self._stack else None
        span = self.add(name, time.perf_counter(), 0.0, parent=parent, **attrs)
        self._stack.append(span)
        try:
            yield span
        finally:
            self._stack.pop()
            span["end"] = time.perf_counter()

    def named(self, name: str) -> List[Dict[str, Any]]:
        return [s for s in self.spans if s["name"] == name]

    def durations(self, name: str) -> List[float]:
        return [s["end"] - s["start"] for s in self.named(name)]

    def total(self, name: str) -> float:
        return sum(self.durations(name))

    def self_times(self) -> Dict[str, float]:
        """Self time per span name: its duration minus what its children
        cover (children of one span never overlap each other here)."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s["parent"] is not None:
                child[s["parent"]] += s["end"] - s["start"]
        out: Dict[str, float] = {}
        for s in self.spans:
            own = max(0.0, s["end"] - s["start"] - child[s["id"]])
            out[s["name"]] = out.get(s["name"], 0.0) + own
        return out

    def layer_shares(self) -> Dict[str, float]:
        """Self time of each layer that has spans, as a share of all root
        spans' time; the remainder is the benchmark's own work
        (``bench.*`` spans)."""
        roots = sum(s["end"] - s["start"] for s in self.spans if s["parent"] is None)
        shares: Dict[str, float] = {}
        for name, own in self.self_times().items():
            layer = name.split(".", 1)[0]
            if layer in LAYERS:
                shares[layer] = shares.get(layer, 0.0) + own
        return {k: v / roots for k, v in shares.items()}

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span, sort_keys=True) + "\n")


# ----------------------------------------------------------------------
# results
# ----------------------------------------------------------------------
class Checks:
    """Output checks: each operation attempted either passes or fails,
    and the first few failure messages are kept for the report."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.messages: List[str] = []

    def record(self, problems: Sequence[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.extend(problems[: 20 - len(self.messages)])
