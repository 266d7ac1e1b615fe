"""Campaign workload: ``run_campaign`` with two workers over a grid-shaped
spec declared in spec.json (not taken from the CLI presets).  The table
is cut into fixed batches of rows; one ``run_campaign`` call over one
batch is one operation, so a run holds enough operations for a tail.

Many small graphs, so the time goes to graph builds, the reference
scheduler, per-node ``core`` work and runner dispatch rather than to the
numpy kernels: a change that speeds kernels but makes compiling dearer
shows here.
"""

from __future__ import annotations

import gc
import random
import time
from typing import Any, Dict, List

from common import (
    Checks, Tracer, derive, import_seconds, median, median_setup, quantile, tail,
)

ALGORITHMS = ("tester", "detect", "naive")


def make_table(cfg: Dict[str, Any]):
    """The campaign's rows, from the fixed ``inputs_seed``.

    Which instances come out C_k-free, and so run all 82 tester
    repetitions, sets a pass's cost; drawn from the workload seed, that
    moved a 90-row pass by a fifth (measured).  The workload seed orders
    the batches instead (:func:`ordered`)."""
    from repro.runner.runtable import CampaignSpec

    return CampaignSpec(
        name="perfbench-grid",
        generators=cfg["generators"],
        ks=cfg["ks"],
        epsilons=cfg["epsilons"],
        algorithms=cfg["algorithms"],
        engines=cfg["engines"],
        repetitions=cfg["repetitions"],
        seed=cfg["inputs_seed"],
    ).expand()


def make_batches(cfg: Dict[str, Any], table):
    """The table cut into fixed ``batch_rows``-row campaigns: one
    ``run_campaign`` call per batch is one operation.  Rows are dealt
    from an ``inputs_seed`` shuffle, so every run holds the same batches
    and their costs."""
    from repro.runner.runtable import RunTable

    rows = list(table.rows)
    random.Random(cfg["inputs_seed"]).shuffle(rows)
    size = cfg["batch_rows"]
    return [
        RunTable(f"{table.name}-{i // size}", rows[i:i + size])
        for i in range(0, len(rows), size)
    ]


def ordered(batches, seed: int, index: int):
    """``batches`` in the order of pass ``index``."""
    out = list(batches)
    random.Random(derive(seed, "campaign-grid", "order", index)).shuffle(out)
    return out


def row_graph(row):
    """The graph ``execute_row`` builds for ``row`` (same call, same seed)."""
    from repro.runner import registry
    from repro.runner.runtable import derive_seed

    params = {"k": row.k, "eps": row.eps, **row.params_dict()}
    return registry.build_graph(row.generator, seed=derive_seed(row.seed, "graph"), **params)


def check_record(row, record) -> List[str]:
    """A row's record against the sequential oracles of ``graphs.cycles``."""
    from repro.core.verify import verify_cycle_evidence
    from repro.graphs.cycles import has_cycle_through_edge, is_ck_free

    if record.get("status") != "ok":
        return [f"row {row.run_id}: status {record.get('status')}: {record.get('error')}"]
    graph = row_graph(row)
    outcome = record["outcome"]
    if row.algorithm == "tester":
        if not outcome["accepted"]:
            if is_ck_free(graph, row.k):
                return [f"row {row.run_id}: tester rejected a C_{row.k}-free graph"]
            if not verify_cycle_evidence(graph, outcome["evidence"], row.k):
                return [f"row {row.run_id}: evidence {outcome['evidence']} is no C_{row.k}"]
        return []
    probe = next(iter(graph.edges()))
    truth = has_cycle_through_edge(graph, probe, row.k)
    if outcome["detected"] != truth:
        return [f"row {row.run_id}: {row.algorithm} says {outcome['detected']}, "
                f"the oracle says {truth}"]
    return []


def _setup(ctx):
    from repro.runner.executor import ordered_parallel_map, shutdown_persistent_pools

    pool_walls = []

    def trial(last: bool):
        import_seconds(["repro.runner.executor", "repro.runner.runtable"])
        batches = make_batches(ctx.cfg, make_table(ctx.cfg))
        shutdown_persistent_pools()
        t0 = time.perf_counter()
        list(ordered_parallel_map(abs, [1, 2], workers=ctx.cfg["workers"]))
        pool_walls.append(time.perf_counter() - t0)
        return batches

    setup_s, setup_raw_s, batches = median_setup(ctx.cfg["setup_trials"], trial, ctx.probe)
    return setup_s, setup_raw_s, batches, median(pool_walls)


def _pass(ctx, batches, index: int, checks: Checks, tag: str):
    """Every batch once, in the order of pass ``index``, through
    ``run_campaign`` on the configured workers; ``(batch walls, host-scaled
    batch walls, records by run id)``.  Each row's record is checked.

    A batch wall is scaled by the host probes taken right before and
    after it: a batch lasts a tenth of a second, while neighbours change
    the host's speed over seconds."""
    from repro.runner.executor import run_campaign
    from repro.runner.store import CampaignStore

    walls: List[float] = []
    scaled: List[float] = []
    records: Dict[str, Any] = {}
    before = ctx.probe.time()
    for j, batch in enumerate(ordered(batches, ctx.seed, index)):
        store = CampaignStore(ctx.work / f"{tag}-{index}-{j}.jsonl")
        gc.collect()
        t0 = time.perf_counter()
        report = run_campaign(batch, store, workers=ctx.cfg["workers"])
        wall = time.perf_counter() - t0
        after = ctx.probe.time()
        walls.append(wall)
        scaled.append(wall * ctx.probe.factor([before, after]))
        before = after
        by_id = {r["run_id"]: r for r in store.records()}
        if report.executed != len(batch.rows):
            checks.record([f"{batch.name}: {report.executed} of "
                           f"{len(batch.rows)} rows executed"])
        for row in batch.rows:
            checks.record(check_record(row, by_id.get(row.run_id, {})))
        records.update(by_id)
    return walls, scaled, records


def run(ctx) -> Dict[str, Any]:
    from repro.runner.executor import shutdown_persistent_pools

    checks = Checks()
    setup_s, setup_raw_s, batches, pool_start_s = _setup(ctx)
    try:
        if ctx.trace:
            return _traced(ctx, batches, checks, pool_start_s)
        walls: List[float] = []
        scaled: List[float] = []
        passes = 0
        deadline = time.perf_counter() + ctx.seconds
        # Whole passes only, so every run weighs each batch alike.
        while passes < 2 or time.perf_counter() < deadline:
            pass_walls, pass_scaled, _ = _pass(ctx, batches, passes, checks, "pass")
            walls.extend(pass_walls)
            scaled.extend(pass_scaled)
            passes += 1
    finally:
        shutdown_persistent_pools()
    rows = passes * sum(len(b.rows) for b in batches)
    return {
        "checks": checks,
        "info": {"batches": len(batches), "rows_per_pass": rows // passes,
                 "passes": passes},
        "end_to_end": {
            "setup_s": setup_s,
            "ops_per_s": rows / sum(scaled),
            "op_p50_ms": median(scaled) * 1e3,
            "op_tail_ms": tail(scaled) * 1e3,
        },
        "named": {"campaign.rows_per_s": rows / sum(walls), "raw.setup_s": setup_raw_s},
    }


def _traced(ctx, batches, checks, pool_start_s) -> Dict[str, Any]:
    """Pass 0 in parallel untraced (the user's path), then each row twice
    serially, untraced and traced in alternating order so that drift
    cancels out of the overhead.  The traced copy has spans around
    ``execute_row`` and the store append; a probe then times each layer's
    entry point on the row's graph."""
    from repro.congest.engine import create_engine
    from repro.congest.network import Network
    from repro.runner.executor import execute_row
    from repro.runner.store import CampaignStore

    cfg = ctx.cfg
    batch_walls, _, parallel = _pass(ctx, batches, 0, Checks(), "parallel")
    parallel_wall = sum(batch_walls)
    rows = [row for batch in ordered(batches, ctx.seed, 0) for row in batch.rows]
    plain_store = CampaignStore(ctx.work / "serial.jsonl")
    store = CampaignStore(ctx.work / "traced.jsonl")
    tracer = Tracer()
    serial = 0.0
    counts = {"rounds": 0, "messages": 0, "bits": 0, "max_seqs": 0}

    def untraced(row):
        nonlocal serial
        t0 = time.perf_counter()
        record = execute_row(row)
        plain_store.append(record)
        serial += time.perf_counter() - t0
        return record

    def traced(row):
        with tracer.span("bench.row", algorithm=row.algorithm):
            with tracer.span("runner.execute_row", algorithm=row.algorithm):
                record = execute_row(row)
            with tracer.span("runner.store_append"):
                store.append(record)
        return record

    for i, row in enumerate(rows):
        gc.collect()
        if i % 2:
            record, plain = traced(row), untraced(row)
        else:
            plain, record = untraced(row), traced(row)
        with tracer.span("bench.probe"):
            with tracer.span("graphs.build"):
                graph = row_graph(row)
            with tracer.span("graphs.to_csr"):
                graph.to_csr()
            with tracer.span("congest.network"):
                net = Network(graph)
            with tracer.span("engine.compile"):
                create_engine(row.engine, net)
        problems = check_record(row, record)
        if not (record == plain == parallel.get(row.run_id)):
            problems.append(f"row {row.run_id}: traced, serial and parallel records differ")
        checks.record(problems)
        tel = record.get("telemetry", {})
        counts["rounds"] += tel.get("repro_congest_rounds_total", 0)
        counts["messages"] += tel.get("repro_congest_messages_total", 0)
        counts["bits"] += tel.get("repro_congest_bits_total", 0)
        counts["max_seqs"] = max(
            counts["max_seqs"], tel.get("repro_congest_max_sequences_per_message", 0)
        )
    row_ms = {a: [] for a in ALGORITHMS}
    for span in tracer.named("runner.execute_row"):
        row_ms[span["attrs"]["algorithm"]].append((span["end"] - span["start"]) * 1e3)
    append_us = [d * 1e6 for d in tracer.durations("runner.store_append")]
    return {
        "checks": checks,
        "tracer": tracer,
        "info": {"rows": len(rows)},
        "per_layer": {
            **{
                f"{name}_s": tracer.total(name)
                for name in ("graphs.build", "graphs.to_csr", "congest.network",
                             "engine.compile")
            },
            "obs.trace_overhead": tracer.total("bench.row") / serial,
            "runner.parallel_efficiency": serial / (cfg["workers"] * parallel_wall),
            "congest.rounds": counts["rounds"],
            "congest.messages": counts["messages"],
            "congest.bits": counts["bits"],
            "congest.max_seqs_per_msg": counts["max_seqs"],
        },
        "named": {
            **{f"runner.row_ms.{a}.p50": quantile(ms, 0.5) for a, ms in row_ms.items() if ms},
            "runner.store_append_us": quantile(append_us, 0.5),
            "runner.pool_start_s": pool_start_s,
            "runner.parallel_wall_s": parallel_wall,
            "runner.serial_wall_s": serial,
        },
    }
