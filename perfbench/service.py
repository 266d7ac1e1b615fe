"""Service workload: a ``repro serve`` daemon driven over HTTP.

Sessions start from G(n, p) base graphs and replay a ``uniform-churn``
stream; each step is one mutation (a write) followed by one verdict (a
read) on the same keep-alive connection, so a session keeps its order.

* Phase 1 is an open loop: steps are due at a fixed offered rate whatever
  the daemon does, and each request is timed from when it was due, so a
  stall shows in the requests queued behind it.  How late the client
  itself sent (``gen_late``) is reported as a validity check.
* Phase 2 is a closed loop on fresh sessions, for capacity.

Cheap cache hits set the median; full re-tests run on the daemon's event
loop, set the tail and hold up other sessions' reads.  Its end-to-end
figures are the open loop's step latencies and the daemon's capacity by
the utilisation law; the closed loop's throughput is printed by name.
The workload runs through the same command but is not in the gated set
of BENCHMARK.json (see ``gated_note`` in spec.json); ``monitor-churn``
gates the monitor work behind each mutation and measures this daemon's
handler times in its traced run.
"""

from __future__ import annotations

import asyncio
import gc
import json
import math
import random
import re
import select
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from common import (
    ROOT, Checks, Tracer, derive, median, median_setup, program_env, quantile, tail,
)

#: How long the daemon may take to start listening, and to drain.
BOOT_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 30.0


# ----------------------------------------------------------------------
# the daemon and a minimal HTTP/1.1 keep-alive client
# ----------------------------------------------------------------------
class Daemon:
    """``python -m repro.cli serve`` on an ephemeral port."""

    def __init__(self, work: Path, tag: str, telemetry: Optional[Path] = None) -> None:
        cmd = [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
               "--max-sessions", "1024"]
        if telemetry is not None:
            cmd += ["--telemetry", str(telemetry)]
        self._log = open(work / f"daemon-{tag}.log", "w", encoding="utf-8")
        self.proc = subprocess.Popen(
            cmd, cwd=ROOT, env=program_env(), stdout=subprocess.PIPE,
            stderr=self._log, text=True,
        )
        self.port = self._await_port()

    def _await_port(self) -> int:
        deadline = time.monotonic() + BOOT_TIMEOUT_S
        while time.monotonic() < deadline:
            ready, _, _ = select.select([self.proc.stdout], [], [], 0.5)
            if ready:
                line = self.proc.stdout.readline()
                if not line:
                    break
                if "service listening" in line:
                    return int(line.split("port=", 1)[1].split()[0])
            elif self.proc.poll() is not None:
                break
        self.stop()
        raise RuntimeError("repro serve did not start listening")

    def stop(self) -> None:
        """SIGTERM (graceful drain, telemetry flushed), then wait."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self._log.close()


class Connection:
    """One keep-alive HTTP/1.1 connection; returns ``(status, body, sent)``."""

    def __init__(self, port: int) -> None:
        self.port = port

    async def __aenter__(self) -> "Connection":
        self.reader, self.writer = await asyncio.open_connection("127.0.0.1", self.port)
        return self

    async def __aexit__(self, *exc) -> None:
        self.writer.close()
        await self.writer.wait_closed()

    async def request(
        self, method: str, path: str, body: bytes = b"",
        traceparent: Optional[str] = None,
    ) -> Tuple[int, bytes, float]:
        head = (f"{method} {path} HTTP/1.1\r\nHost: 127.0.0.1\r\n"
                f"Content-Length: {len(body)}\r\n")
        if traceparent is not None:
            head += f"traceparent: {traceparent}\r\n"
        sent = time.perf_counter()
        self.writer.write(head.encode("latin-1") + b"\r\n" + body)
        status = int((await self.reader.readline()).split()[1])
        length = 0
        while True:
            line = await self.reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            if name.strip().lower() == "content-length":
                length = int(value)
        return status, await self.reader.readexactly(length), sent


# ----------------------------------------------------------------------
# inputs
# ----------------------------------------------------------------------
@dataclass
class Plan:
    """One session: its base graph, its stream and what the daemon said."""

    name: str
    seed: int
    base: Any
    mutations: List[Any]
    bodies: List[bytes]
    verdicts: List[Tuple[int, bool]] = field(default_factory=list)
    applied: int = 0


def make_plans(cfg, group: str, sessions: int, steps: int) -> List[Plan]:
    """``sessions`` sessions with ``steps``-step streams.

    Base graphs, streams and session seeds come from the fixed
    ``inputs_seed``; the workload seed orders the closed loop's sessions
    and draws the trace ids.  The tail and the capacity of this mix are
    set by a few dozen full re-tests, and a session's seed decides,
    through the tester, which witness it caches and so which later
    deletions re-test: drawn from the workload seed, their number and
    cost moved p99 and capacity by a quarter between seeds (measured),
    hiding the code's own changes.
    """
    from repro.dynamic import build_stream
    from repro.runner import registry

    plans = []
    for i in range(sessions):
        sseed = derive(cfg["inputs_seed"], "service-churn", group, i)
        base = registry.build_graph(cfg["base"]["family"], seed=sseed, **cfg["base"]["params"])
        stream = build_stream(f"{cfg['stream']}:steps={steps}", base, seed=sseed, k=cfg["k"])
        plans.append(Plan(
            name=f"{group}-{i}", seed=sseed, base=stream.base,
            mutations=list(stream.mutations),
            bodies=[(m.to_line() + "\n").encode() for m in stream.mutations],
        ))
    return plans


def create_body(cfg, plan: Plan) -> bytes:
    from repro.graphs import io as graph_io

    return json.dumps({
        "name": plan.name, "k": cfg["k"], "seed": plan.seed,
        "base": graph_io.dumps(plan.base),
    }).encode()


class Client:
    """Drives plans against one daemon and records every exchange."""

    def __init__(self, cfg, port: int, checks: Checks, tracer: Optional[Tracer] = None,
                 trace_seed: int = 0) -> None:
        self.cfg = cfg
        self.port = port
        self.checks = checks
        self.tracer = tracer
        self._ids = random.Random(trace_seed)
        #: ``(endpoint, wire trace id, client span)`` per traced request.
        self.sent: List[Tuple[str, str, Dict[str, Any]]] = []

    def _traceparent(self) -> Optional[Tuple[str, str]]:
        if self.tracer is None:
            return None
        trace_id = f"{self._ids.getrandbits(128) or 1:032x}"
        span_id = f"{self._ids.getrandbits(64) or 1:016x}"
        return trace_id, f"00-{trace_id}-{span_id}-01"

    async def call(self, conn: Connection, endpoint: str, method: str, path: str,
                   body: bytes = b"", parent=None) -> Tuple[int, Any, float, float]:
        ids = self._traceparent()
        status, payload, sent = await conn.request(
            method, path, body, traceparent=ids[1] if ids else None
        )
        done = time.perf_counter()
        ok = 200 <= status < 300
        self.checks.record([] if ok else [f"{method} {path}: HTTP {status} {payload[:200]!r}"])
        if ids is not None:
            span = self.tracer.add(f"bench.{endpoint}", sent, done, parent=parent)
            self.sent.append((endpoint, ids[0], span))
        return status, json.loads(payload) if ok else None, sent, done

    async def create(self, plans: List[Plan]) -> List[float]:
        """Create every session over one connection; creation walls."""
        walls = []
        async with Connection(self.port) as conn:
            for plan in plans:
                _, _, sent, done = await self.call(
                    conn, "create", "POST", "/v1/sessions", create_body(self.cfg, plan)
                )
                walls.append(done - sent)
        return walls

    async def step(self, conn: Connection, plan: Plan, parent=None):
        """One mutation then one verdict; ``(mutate done, verdict done, action)``."""
        index = plan.applied
        _, out, _, mutated = await self.call(
            conn, "mutate", "POST", f"/v1/sessions/{plan.name}/mutations",
            plan.bodies[index], parent,
        )
        plan.applied += 1
        _, verdict, _, read = await self.call(
            conn, "verdict", "GET", f"/v1/sessions/{plan.name}/verdict", parent=parent
        )
        if verdict is not None:
            plan.verdicts.append((verdict["version"], verdict["accepted"]))
        action = max(out["actions"], key=out["actions"].get) if out else "error"
        return mutated, read, action

    async def snapshots(self, plans: List[Plan]) -> Dict[str, Dict[str, Any]]:
        out = {}
        async with Connection(self.port) as conn:
            for plan in plans:
                _, snap, _, _ = await self.call(
                    conn, "snapshot", "GET", f"/v1/sessions/{plan.name}/snapshot"
                )
                out[plan.name] = snap
        return out


async def server_seconds(port: int) -> Tuple[float, int]:
    """Total handler seconds and requests of the mutate and verdict
    endpoints so far, from the daemon's always-on ``/metrics``."""
    async with Connection(port) as conn:
        _, body, _ = await conn.request("GET", "/metrics")
    seconds, count = 0.0, 0
    for line in body.decode().splitlines():
        match = re.match(
            r'repro_service_request_seconds_(sum|count)\{endpoint="(mutate|verdict)"\} (\S+)',
            line,
        )
        if match:
            if match[1] == "sum":
                seconds += float(match[3])
            else:
                count += int(float(match[3]))
    return seconds, count


# ----------------------------------------------------------------------
# the two phases
# ----------------------------------------------------------------------
async def open_loop(client: Client, plans: List[Plan], rate: float, seconds: float):
    """Steps due every ``1/rate`` seconds, round-robin over the sessions;
    a session always uses the same connection.  Latencies in seconds."""
    conns = client.cfg["connections"]
    steps = int(rate * seconds)
    queues: List[List[Tuple[float, Plan]]] = [[] for _ in range(conns)]
    lat: Dict[str, List[float]] = {"mutate": [], "verdict": [], "step": [], "late": []}
    by_action: Dict[str, List[float]] = {}
    start = time.perf_counter() + 0.05

    async def worker(queue):
        async with Connection(client.port) as conn:
            free = start
            for due, plan in queue:
                delay = due - time.perf_counter()
                if delay > 0:
                    await asyncio.sleep(delay)
                lat["late"].append(time.perf_counter() - max(due, free))
                root = None
                if client.tracer is not None:
                    root = client.tracer.add("bench.step", due, 0.0)
                mutated, read, action = await client.step(conn, plan, root)
                if root is not None:
                    root["end"] = read
                free = read
                lat["mutate"].append(mutated - due)
                lat["verdict"].append(read - mutated)
                lat["step"].append(read - due)
                by_action.setdefault(action, []).append(mutated - due)

    for j in range(steps):
        index = j % len(plans)
        queues[index % conns].append((start + j / rate, plans[index]))
    await asyncio.gather(*(worker(q) for q in queues))
    return lat, by_action, time.perf_counter() - start


async def closed_loop(client: Client, plans: List[Plan], rng: random.Random):
    """Each connection runs its sessions' whole streams, round-robin in an
    order drawn from ``rng``, with each step sent as soon as the previous
    one returned.  Returns ``(wall, step latencies in seconds)``."""
    conns = client.cfg["connections"]
    mine = [plans[c::conns] for c in range(conns)]
    for group in mine:
        rng.shuffle(group)
    latencies: List[float] = []

    async def worker(group: List[Plan]) -> None:
        async with Connection(client.port) as conn:
            while any(p.applied < len(p.mutations) for p in group):
                for plan in group:
                    if plan.applied < len(plan.mutations):
                        sent = time.perf_counter()
                        _, read, _ = await client.step(conn, plan)
                        latencies.append(read - sent)

    started = time.perf_counter()
    await asyncio.gather(*(worker(group) for group in mine))
    return time.perf_counter() - started, latencies


# ----------------------------------------------------------------------
# parity with an offline replay
# ----------------------------------------------------------------------
def replay(cfg, plan: Plan, cache, tracer: Optional[Tracer] = None, telemetry=None):
    """Offline ``CkMonitor`` over the session's applied prefix; the step
    records, and the monitor."""
    from repro.dynamic import CkMonitor

    def monitor():
        return CkMonitor(plan.base, cfg["k"], engine="reference", seed=plan.seed,
                         cache=cache, telemetry=telemetry)

    if tracer is None:
        mon = monitor()
        return [mon.apply(m) for m in plan.mutations[: plan.applied]], mon
    with tracer.span("bench.replay", session=plan.name):
        with tracer.span("dynamic.create"):
            mon = monitor()
        records = []
        for m in plan.mutations[: plan.applied]:
            with tracer.span("dynamic.apply") as span:
                record = mon.apply(m)
            span["attrs"] = {"action": record.action}
            records.append(record)
    return records, mon


def check_parity(plan: Plan, records, mon, snap) -> List[str]:
    problems = []
    expected = [(r.version, r.accepted) for r in records]
    for got, want in zip(plan.verdicts, expected):
        if got != want:
            problems.append(f"{plan.name}: verdict {got} but offline replay says {want}")
            break
    if len(plan.verdicts) != len(expected):
        problems.append(f"{plan.name}: {len(plan.verdicts)} verdicts for "
                        f"{len(expected)} mutations")
    if snap is None or (snap["version"], snap["accepted"], snap["content_hash"]) != (
        mon.version, mon.accepted, mon.dynamic.content_hash()
    ):
        problems.append(f"{plan.name}: final state differs from the offline replay")
    return problems


# ----------------------------------------------------------------------
# the workload
# ----------------------------------------------------------------------
def _sizes(cfg, seconds: float):
    open_s = seconds * cfg["open_share"]
    closed_s = seconds - open_s
    sessions = cfg["sessions"]
    open_steps = math.ceil(cfg["offered_steps_per_s"] * open_s / sessions) + 1
    closed_steps = math.ceil(cfg["closed_steps_per_s"] * closed_s / sessions)
    return open_s, open_steps, closed_steps


def _closed_order(ctx) -> random.Random:
    """The closed loop's session order, drawn from the workload seed."""
    return random.Random(derive(ctx.seed, "service-churn", "order"))


def _plans(cfg, open_steps: int, closed_steps: int):
    return (make_plans(cfg, "open", cfg["sessions"], open_steps),
            make_plans(cfg, "closed", cfg["sessions"], closed_steps))


def run(ctx) -> Dict[str, Any]:
    if ctx.trace:
        return _traced(ctx)
    cfg = ctx.cfg
    checks = Checks()
    open_s, open_steps, closed_steps = _sizes(cfg, ctx.seconds)
    create_walls: List[float] = []

    def trial(last: bool):
        daemon = Daemon(ctx.work, "setup")
        try:
            plans = _plans(cfg, open_steps, closed_steps)
            client = Client(cfg, daemon.port, checks)
            create_walls[:] = asyncio.run(client.create(plans[0] + plans[1]))
        except BaseException:
            daemon.stop()
            raise
        if not last:
            daemon.stop()
        return daemon, client, plans

    setup_s, setup_raw_s, (daemon, client, (open_plans, closed_plans)) = median_setup(
        ctx.cfg["setup_trials"], trial, ctx.probe
    )
    try:
        gc.collect()
        busy_before = asyncio.run(server_seconds(daemon.port))
        lat, by_action, open_wall = asyncio.run(
            open_loop(client, open_plans, cfg["offered_steps_per_s"], open_s)
        )
        busy_after = asyncio.run(server_seconds(daemon.port))
        closed_wall, closed_lat = asyncio.run(
            closed_loop(client, closed_plans, _closed_order(ctx))
        )
        snaps = asyncio.run(client.snapshots(open_plans + closed_plans))
    finally:
        daemon.stop()
    # Capacity by the utilisation law: requests per second of handler
    # time, from the daemon's own request-seconds histogram over the open
    # loop, where each request runs alone.  Saturating the two cores in
    # the closed loop instead measures the neighbours: identical work
    # moved its throughput by up to half between runs (measured).  Like
    # the latencies it is reported as measured: the daemon's handler time
    # does not track the host probe, and scaling tripled its spread.
    capacity = (busy_after[1] - busy_before[1]) / (busy_after[0] - busy_before[0])
    for plan in open_plans + closed_plans:
        records, mon = replay(cfg, plan, cache=None)
        checks.record(check_parity(plan, records, mon, snaps.get(plan.name)))
    rps = 2 * len(closed_lat) / closed_wall
    step_ms = [x * 1e3 for x in lat["step"]]
    named = {
        "service.rps": rps,
        "service.capacity_per_s": capacity,
        "raw.setup_s": setup_raw_s,
        "service.offered_steps_per_s": cfg["offered_steps_per_s"],
        "service.achieved_steps_per_s": len(step_ms) / open_wall,
        "service.create_ms": median(create_walls) * 1e3,
        "service.gen_late_ms.p99": quantile(lat["late"], 0.99) * 1e3,
        "service.step_p50_ms": quantile(step_ms, 0.50),
        "service.step_p90_ms": quantile(step_ms, 0.90),
        "service.step_p95_ms": quantile(step_ms, 0.95),
        "service.step_p99_ms": quantile(step_ms, 0.99),
        "service.closed_p50_ms": quantile(closed_lat, 0.50) * 1e3,
        "service.closed_p99_ms": quantile(closed_lat, 0.99) * 1e3,
    }
    for kind in ("mutate", "verdict"):
        for q in (50, 99):
            named[f"service.{kind}_p{q}_ms"] = quantile(lat[kind], q / 100) * 1e3
    for action, values in sorted(by_action.items()):
        named[f"service.mutate_ms.{action}.p50"] = quantile(values, 0.5) * 1e3
        named[f"service.mutate_count.{action}"] = len(values)
    return {
        "checks": checks,
        "info": {"open_steps": len(step_ms), "closed_steps": len(closed_lat),
                 "sessions": 2 * cfg["sessions"]},
        "end_to_end": {
            "setup_s": setup_s,
            "ops_per_s": capacity,
            "op_p50_ms": quantile(step_ms, 0.50),
            "op_tail_ms": tail(step_ms),
        },
        "named": named,
    }


def join_server_time(client: Client, events_path: Path, tracer: Tracer, checks: Checks,
                     counted=lambda span: True):
    """Join the daemon's request wide events to the client's requests by
    trace id.

    Each joined request gets a ``service.<endpoint>`` child span of the
    daemon's elapsed time: server time nests inside the client's request
    span, and the rest of the client latency is transport plus queueing
    behind the event loop.  Returns ``(server ms, wait ms)`` per endpoint
    (mutate, verdict) over the requests whose client span ``counted``
    accepts; a request with no wide event is a failed check."""
    events = {}
    with events_path.open(encoding="utf-8") as fh:
        for line in fh:
            event = json.loads(line)
            if event.get("type") == "request":
                events[event["trace_id"]] = event
    server: Dict[str, List[float]] = {"mutate": [], "verdict": []}
    wait: Dict[str, List[float]] = {"mutate": [], "verdict": []}
    joined = 0
    for endpoint, trace_id, span in client.sent:
        event = events.get(trace_id)
        if event is None:
            continue
        joined += 1
        elapsed = event["elapsed_ms"] / 1e3
        tracer.add(f"service.{endpoint}", span["start"], span["start"] + elapsed, parent=span)
        if endpoint in server and counted(span):
            server[endpoint].append(elapsed * 1e3)
            wait[endpoint].append((span["end"] - span["start"] - elapsed) * 1e3)
    if joined != len(client.sent):
        checks.record([f"{len(client.sent) - joined} requests have no server wide event"])
    return server, wait


def _traced(ctx) -> Dict[str, Any]:
    """Closed loop on a plain daemon, then the same closed loop (plus the
    open loop) on a daemon with ``--telemetry`` and ``traceparent``
    headers; the daemon's wide events are joined to the client's spans by
    trace id.  Every session is then replayed offline with spans around
    ``CkMonitor.apply``, and every request body is parsed with
    ``graphs.io``."""
    from repro.congest.engine import create_engine
    from repro.congest.engine.cache import EngineCache
    from repro.congest.network import Network
    from repro.graphs import io as graph_io
    from repro.obs import Telemetry
    from repro.runner import registry

    cfg = ctx.cfg
    checks = Checks()
    open_s, open_steps, closed_steps = _sizes(cfg, ctx.seconds / 2)
    open_plans, closed_plans = _plans(cfg, open_steps, closed_steps)

    plain = Daemon(ctx.work, "plain")
    try:
        client = Client(cfg, plain.port, checks)
        asyncio.run(client.create(closed_plans))
        gc.collect()
        plain_wall, closed_lat = asyncio.run(
            closed_loop(client, closed_plans, _closed_order(ctx))
        )
        plain_snaps = asyncio.run(client.snapshots(closed_plans))
    finally:
        plain.stop()
    plain_verdicts = {p.name: list(p.verdicts) for p in closed_plans}
    for plan in closed_plans:
        plan.verdicts, plan.applied = [], 0

    tracer = Tracer()
    events_path = ctx.work / "daemon-events.jsonl"
    traced = Daemon(ctx.work, "traced", telemetry=events_path)
    try:
        client = Client(cfg, traced.port, checks, tracer, derive(ctx.seed, "trace"))
        create_walls = asyncio.run(client.create(open_plans + closed_plans))
        gc.collect()
        lat, _, _ = asyncio.run(
            open_loop(client, open_plans, cfg["offered_steps_per_s"], open_s)
        )
        traced_wall, _ = asyncio.run(
            closed_loop(client, closed_plans, _closed_order(ctx))
        )
        snaps = asyncio.run(client.snapshots(open_plans + closed_plans))
    finally:
        traced.stop()

    # Only the open loop's steps (requests under a bench.step span) count:
    # the closed loop runs the daemon flat out.
    server, wait = join_server_time(
        client, events_path, tracer, checks, lambda span: span["parent"] is not None
    )

    for plan in closed_plans:
        if plain_verdicts[plan.name] != plan.verdicts or (
            plain_snaps[plan.name]["content_hash"] != snaps[plan.name]["content_hash"]
        ):
            checks.record([f"{plan.name}: traced and untraced daemons disagree"])

    cache = EngineCache()
    telemetry = Telemetry()
    for plan in open_plans + closed_plans:
        records, mon = replay(cfg, plan, cache, tracer, telemetry)
        checks.record(check_parity(plan, records, mon, snaps.get(plan.name)))
    apply_us: Dict[str, List[float]] = {}
    for span in tracer.named("dynamic.apply"):
        apply_us.setdefault(span["attrs"]["action"], []).append(
            (span["end"] - span["start"]) * 1e6
        )

    parse_us = []
    with tracer.span("bench.parse"):
        for plan in open_plans + closed_plans:
            for body in plan.bodies[: plan.applied]:
                with tracer.span("graphs.parse_stream") as span:
                    graph_io.loads_stream(body.decode())
                parse_us.append((span["end"] - span["start"]) * 1e6)
    with tracer.span("bench.probe"):
        for plan in open_plans + closed_plans:
            with tracer.span("graphs.build"):
                graph = registry.build_graph(
                    cfg["base"]["family"], seed=plan.seed, **cfg["base"]["params"]
                )
            with tracer.span("graphs.to_csr"):
                graph.to_csr()
            with tracer.span("congest.network"):
                net = Network(graph)
            with tracer.span("engine.compile"):
                create_engine("reference", net)

    summary = telemetry.summary()
    server_total = sum(map(sum, server.values()))
    wait_total = sum(map(sum, wait.values()))
    counts = {a: len(v) for a, v in apply_us.items()}
    attempts = cache.hits + cache.misses
    per_layer = {
        **{f"{name}_s": tracer.total(name)
           for name in ("graphs.build", "graphs.to_csr", "congest.network", "engine.compile")},
        "obs.trace_overhead": traced_wall / plain_wall,
        "congest.rounds": summary.get("repro_congest_rounds_total", 0),
        "congest.messages": summary.get("repro_congest_messages_total", 0),
        "congest.bits": summary.get("repro_congest_bits_total", 0),
        "congest.max_seqs_per_msg": summary.get("repro_congest_max_sequences_per_message", 0),
        **{f"monitor.steps.{a}": counts.get(a, 0)
           for a in ("cache_hit", "local_recheck", "full_retest")},
        "engine_cache.hit_ratio": cache.hits / attempts if attempts else 0.0,
        "service.server_share": server_total / (server_total + wait_total),
        "graphs.parse_stream_us": quantile(parse_us, 0.5),
        "monitor.apply_us.cache_hit.p50": quantile(apply_us["cache_hit"], 0.5),
        "monitor.apply_ms.local_recheck.p50": quantile(apply_us["local_recheck"], 0.5) / 1e3,
        "monitor.apply_ms.full_retest.p50": quantile(apply_us["full_retest"], 0.5) / 1e3,
        "service.server_ms.mutate.p50": quantile(server["mutate"], 0.5),
        "service.server_ms.verdict.p99": quantile(server["verdict"], 0.99),
    }
    named = {
        "service.create_ms": median(create_walls) * 1e3,
        "service.gen_late_ms.p99": quantile(lat["late"], 0.99) * 1e3,
        "monitor.apply_ms.full_retest.max": max(apply_us["full_retest"]) / 1e3,
        "service.server_ms.mutate.p99": quantile(server["mutate"], 0.99),
        "service.server_ms.verdict.p50": quantile(server["verdict"], 0.5),
    }
    for endpoint in ("mutate", "verdict"):
        named[f"service.wait_ms.{endpoint}.p99"] = quantile(wait[endpoint], 0.99)
    return {
        "checks": checks,
        "tracer": tracer,
        "info": {"open_steps": len(lat["step"]), "closed_steps": len(closed_lat),
                 "requests": len(client.sent)},
        "per_layer": per_layer,
        "named": named,
    }
