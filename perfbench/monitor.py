"""Monitor workload: ``CkMonitor.apply`` over the service's churn streams,
in one process.

Every session starts from a G(n, p) base graph and replays a
``uniform-churn`` stream through a fresh ``CkMonitor`` on the reference
engine, with one engine cache per pass shared by every session, as in
one ``repro serve`` daemon.  One operation is one ``apply``: a cache hit
sets the median, local ball rechecks and full re-tests set the tail.
This is the work behind a service mutation without the HTTP and event
loop layers, whose noise keeps ``service-churn`` out of the gated set.

The traced run replays each session twice, untraced and with spans
around every ``apply``, then sends the same streams through a
``repro serve --telemetry`` daemon (mutate, then verdict) and joins the
daemon's wide events to the client's requests by trace id, so the
``service`` layer is measured on the same work.
"""

from __future__ import annotations

import asyncio
import gc
import random
import time
from typing import Any, Dict, List, Optional

from common import (
    Checks, Tracer, derive, import_seconds, median, median_setup, quantile, tail,
)
from service import (
    Client, Daemon, Plan, check_parity, closed_loop, join_server_time, make_plans,
)


def _record_key(record):
    return (record.version, record.action, record.accepted, record.witness)


def check_step(k: int, mon, record) -> List[str]:
    """The monitor's verdict is exact: it rejects with a verified C_k
    witness, or the graph is C_k-free."""
    from repro.core.verify import verify_cycle_evidence
    from repro.graphs.cycles import is_ck_free

    graph = mon.graph
    if record.accepted:
        if not is_ck_free(graph, k):
            return [f"version {record.version}: accepted a graph with a C_{k}"]
    elif record.witness is None or not verify_cycle_evidence(graph, record.witness, k):
        return [f"version {record.version}: witness {record.witness} is no C_{k}"]
    return []


def _monitor(cfg, plan, cache, telemetry=None):
    from repro.dynamic import CkMonitor

    return CkMonitor(plan.base, cfg["k"], engine="reference", seed=plan.seed,
                     cache=cache, telemetry=telemetry)


def _setup(ctx):
    def trial(last: bool):
        import_seconds(["repro.dynamic", "repro.runner.registry"])
        return make_plans(ctx.cfg, "monitor", ctx.cfg["sessions"], ctx.cfg["steps"])

    return median_setup(ctx.cfg["setup_trials"], trial, ctx.probe)


def _order(ctx, plans, index: int):
    """The sessions in the order of pass ``index``."""
    order = list(plans)
    random.Random(derive(ctx.seed, ctx.workload, "order", index)).shuffle(order)
    return order


def run(ctx) -> Dict[str, Any]:
    from repro.congest.engine.cache import EngineCache

    cfg = ctx.cfg
    checks = Checks()
    setup_s, setup_raw_s, plans = _setup(ctx)
    if ctx.trace:
        return _traced(ctx, plans, checks)
    # The first pass checks every step against graphs.cycles; later
    # passes must repeat the first pass's records exactly.
    expected: Dict[str, List[Any]] = {}
    walls: List[float] = []
    by_action: Dict[str, List[float]] = {}
    probes = [ctx.probe.time()]
    passes = 0
    deadline = time.perf_counter() + ctx.seconds
    # Whole passes only, so every run weighs each session's steps alike.
    while passes < 2 or time.perf_counter() < deadline:
        cache = EngineCache()
        for plan in _order(ctx, plans, passes):
            gc.collect()
            mon = _monitor(cfg, plan, cache)
            first = plan.name not in expected
            keys = expected.setdefault(plan.name, [])
            for i, mutation in enumerate(plan.mutations):
                t0 = time.perf_counter()
                record = mon.apply(mutation)
                wall = time.perf_counter() - t0
                walls.append(wall)
                by_action.setdefault(record.action, []).append(wall)
                if first:
                    keys.append(_record_key(record))
                    checks.record(check_step(cfg["k"], mon, record))
                elif _record_key(record) != keys[i]:
                    checks.record([f"{plan.name} step {i}: pass {passes} differs "
                                   "from the first pass"])
                else:
                    checks.record([])
            probes.append(ctx.probe.time())
        passes += 1
    factor = ctx.probe.factor(probes)
    scaled = [w * factor for w in walls]
    named = {
        "monitor.steps_per_s": len(walls) / sum(walls),
        "raw.setup_s": setup_raw_s,
    }
    for action, values in sorted(by_action.items()):
        named[f"monitor.step_ms.{action}.p50"] = quantile(values, 0.5) * 1e3
    return {
        "checks": checks,
        "info": {"sessions": len(plans), "steps_per_pass": len(walls) // passes,
                 "passes": passes,
                 "actions": {a: len(v) // passes for a, v in sorted(by_action.items())}},
        "end_to_end": {
            "setup_s": setup_s,
            "ops_per_s": len(scaled) / sum(scaled),
            "op_p50_ms": median(scaled) * 1e3,
            "op_tail_ms": tail(scaled) * 1e3,
        },
        "named": named,
    }


def _replay(cfg, plan, cache, tracer: Optional[Tracer] = None, telemetry=None):
    """One session's records, with a span around each ``apply`` when
    ``tracer`` is given; ``(records, monitor, wall)``."""
    t0 = time.perf_counter()
    if tracer is None:
        mon = _monitor(cfg, plan, cache)
        records = [mon.apply(m) for m in plan.mutations]
        return records, mon, time.perf_counter() - t0
    records = []
    with tracer.span("bench.session", session=plan.name):
        with tracer.span("dynamic.create"):
            mon = _monitor(cfg, plan, cache, telemetry)
        for m in plan.mutations:
            with tracer.span("dynamic.apply") as span:
                record = mon.apply(m)
            span["attrs"] = {"action": record.action}
            records.append(record)
    return records, mon, time.perf_counter() - t0


def _traced(ctx, plans, checks) -> Dict[str, Any]:
    from repro.congest.engine import create_engine
    from repro.congest.engine.cache import EngineCache
    from repro.congest.network import Network
    from repro.graphs import io as graph_io
    from repro.obs import Telemetry
    from repro.runner import registry

    cfg = ctx.cfg
    tracer = Tracer()
    telemetry = Telemetry()
    plain_cache, traced_cache = EngineCache(), EngineCache()
    plain_wall = traced_wall = 0.0
    offline: Dict[str, Any] = {}
    # Untraced and traced copies of each session alternate, so that host
    # drift cancels out of the overhead.
    for i, plan in enumerate(_order(ctx, plans, 0)):
        gc.collect()
        if i % 2:
            records, mon, wall = _replay(cfg, plan, traced_cache, tracer, telemetry)
            plain, _, plain_s = _replay(cfg, plan, plain_cache)
        else:
            plain, _, plain_s = _replay(cfg, plan, plain_cache)
            records, mon, wall = _replay(cfg, plan, traced_cache, tracer, telemetry)
        plain_wall += plain_s
        traced_wall += wall
        if list(map(_record_key, records)) != list(map(_record_key, plain)):
            checks.record([f"{plan.name}: traced and untraced replays differ"])
        offline[plan.name] = (records, mon)
    apply_us: Dict[str, List[float]] = {}
    for span in tracer.named("dynamic.apply"):
        apply_us.setdefault(span["attrs"]["action"], []).append(
            (span["end"] - span["start"]) * 1e6
        )

    with tracer.span("bench.parse"):
        for plan in plans:
            for body in plan.bodies:
                with tracer.span("graphs.parse_stream"):
                    graph_io.loads_stream(body.decode())
    parse_us = [d * 1e6 for d in tracer.durations("graphs.parse_stream")]
    with tracer.span("bench.probe"):
        for plan in plans:
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

    service = _through_daemon(ctx, plans, offline, tracer, checks)

    summary = telemetry.summary()
    counts = {a: len(v) for a, v in apply_us.items()}
    attempts = traced_cache.hits + traced_cache.misses
    per_layer = {
        **{f"{name}_s": tracer.total(name)
           for name in ("graphs.build", "graphs.to_csr", "congest.network", "engine.compile")},
        "graphs.parse_stream_us": quantile(parse_us, 0.5),
        "obs.trace_overhead": traced_wall / plain_wall,
        "congest.rounds": summary.get("repro_congest_rounds_total", 0),
        "congest.messages": summary.get("repro_congest_messages_total", 0),
        "congest.bits": summary.get("repro_congest_bits_total", 0),
        "congest.max_seqs_per_msg": summary.get("repro_congest_max_sequences_per_message", 0),
        **{f"monitor.steps.{a}": counts.get(a, 0)
           for a in ("cache_hit", "local_recheck", "full_retest")},
        "monitor.apply_us.cache_hit.p50": quantile(apply_us["cache_hit"], 0.5),
        "monitor.apply_ms.local_recheck.p50": quantile(apply_us["local_recheck"], 0.5) / 1e3,
        "monitor.apply_ms.full_retest.p50": quantile(apply_us["full_retest"], 0.5) / 1e3,
        "engine_cache.hit_ratio": traced_cache.hits / attempts if attempts else 0.0,
        **service["per_layer"],
    }
    return {
        "checks": checks,
        "tracer": tracer,
        "info": {"sessions": len(plans), "steps": sum(counts.values()), **service["info"]},
        "per_layer": per_layer,
        "named": {
            "monitor.apply_ms.full_retest.max": max(apply_us["full_retest"]) / 1e3,
            **service["named"],
        },
    }


def _through_daemon(ctx, plans, offline, tracer: Tracer, checks: Checks) -> Dict[str, Any]:
    """The same streams through ``repro serve --telemetry``, closed loop on
    the configured connections; server time from the wide events."""
    cfg = ctx.cfg
    fresh = [Plan(p.name, p.seed, p.base, p.mutations, p.bodies) for p in plans]
    events_path = ctx.work / "daemon-events.jsonl"
    daemon = Daemon(ctx.work, "traced", telemetry=events_path)
    try:
        client = Client(cfg, daemon.port, checks, tracer, derive(ctx.seed, "trace"))
        create_walls = asyncio.run(client.create(fresh))
        gc.collect()
        rng = random.Random(derive(ctx.seed, ctx.workload, "connections"))
        asyncio.run(closed_loop(client, fresh, rng))
        snaps = asyncio.run(client.snapshots(fresh))
    finally:
        daemon.stop()
    for plan in fresh:
        records, mon = offline[plan.name]
        checks.record(check_parity(plan, records, mon, snaps.get(plan.name)))

    server, wait = join_server_time(client, events_path, tracer, checks)
    server_total = sum(map(sum, server.values()))
    client_total = server_total + sum(map(sum, wait.values()))
    named = {"service.create_ms": median(create_walls) * 1e3}
    for endpoint in ("mutate", "verdict"):
        for q in (50, 99):
            named[f"service.server_ms.{endpoint}.p{q}"] = quantile(server[endpoint], q / 100)
        named[f"service.wait_ms.{endpoint}.p99"] = quantile(wait[endpoint], 0.99)
    return {
        "per_layer": {
            "service.server_share": server_total / client_total,
            "service.server_ms.mutate.p50": named.pop("service.server_ms.mutate.p50"),
            "service.server_ms.verdict.p99": named.pop("service.server_ms.verdict.p99"),
        },
        "named": named,
        "info": {"requests": len(client.sent)},
    }
