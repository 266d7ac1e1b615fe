"""Tester workloads: cold ``CkFreenessTester(engine="fast").run`` calls.

``tester-accept`` runs a bipartite grid, so every repetition runs to an
accept and the time goes to the Phase-2 kernels (``priority_mux``,
``decision``); its epsilon keeps a call short enough that a run holds
about a hundred.  ``tester-skewed`` cycles over power-law graphs whose
largest degree lies in a window, so the time goes to ``rank_draws``,
which grows with the largest degree.  Both build the tester afresh per
call, with no engine cache: a user's ``repro test`` pays compilation
every time.
"""

from __future__ import annotations

import gc
import time
from typing import Any, Dict, List, Tuple

from common import (
    Checks, Tracer, derive, import_seconds, median, median_setup, quantile, tail,
)

#: What a tester call's outcome is compared on: per repetition, whether it
#: rejected, its cycle evidence and its round count.
Outcome = List[Tuple[bool, Any, int]]


def build_instance(cfg: Dict[str, Any], workload: str, index: int):
    """Instance ``index`` of the workload and the generator seed that
    produced it.

    Generator seeds come from the fixed ``inputs_seed``: with the graphs
    drawn from the workload seed, tester-skewed's repetitions per second
    spread by 0.09-0.10 over ten seeds (measured), half its bound.  With
    ``max_degree`` set, seeds are drawn until the graph's largest degree
    falls in the window: run time grows with the largest degree, which a
    power law leaves wide open.
    """
    from repro.runner import registry

    lo, hi = cfg.get("max_degree", (0, float("inf")))
    for attempt in range(cfg.get("max_draws", 1)):
        gseed = derive(cfg["inputs_seed"], workload, "instance", index, attempt)
        graph = registry.build_graph(cfg["family"], seed=gseed, **cfg["params"])
        if lo <= graph.max_degree() <= hi:
            return graph, gseed
    raise RuntimeError(
        f"{workload}: no {cfg['family']} graph with max degree in "
        f"[{lo}, {hi}] after {cfg['max_draws']} draws"
    )


def _call(cfg: Dict[str, Any], graph, call_seed: int):
    from repro.core.tester import CkFreenessTester

    tester = CkFreenessTester(
        cfg["k"], cfg["epsilon"], repetitions=cfg.get("repetitions"),
        engine=cfg["engine"],
    )
    return tester.run(
        graph, seed=call_seed, stop_on_reject=cfg["stop_on_reject"],
        keep_traces=True,
    )


def check_result(cfg: Dict[str, Any], graph, result) -> List[str]:
    """The paper's guarantees on one tester call."""
    from repro.core.bounds import max_sequences_any_round, rounds_per_repetition
    from repro.core.verify import verify_cycle_evidence

    k = cfg["k"]
    problems = []
    if cfg.get("expect") == "accept" and not result.accepted:
        problems.append("a C_k-free instance was rejected (one-sided error)")
    if not cfg["stop_on_reject"] or result.accepted:
        if result.repetitions_run != result.repetitions_planned:
            problems.append(
                f"ran {result.repetitions_run} of "
                f"{result.repetitions_planned} repetitions"
            )
    need = rounds_per_repetition(k)
    for rep in result.reports:
        if rep.rounds != need:
            problems.append(f"repetition {rep.index} took {rep.rounds} rounds, not {need}")
        if rep.rejected and not verify_cycle_evidence(graph, rep.cycle_ids, k):
            problems.append(f"repetition {rep.index}: evidence {rep.cycle_ids} is no C_{k}")
    bound = max_sequences_any_round(k)
    if result.max_sequences_per_message > bound:
        problems.append(
            f"{result.max_sequences_per_message} sequences in one message "
            f"exceed Lemma 3's {bound}"
        )
    return problems


def outcome_of(result) -> Outcome:
    return [(r.rejected, r.cycle_ids, r.rounds) for r in result.reports]


def _setup(ctx):
    def trial(last: bool):
        import_seconds(["repro.core.tester", "repro.runner.registry"])
        return [
            build_instance(ctx.cfg, ctx.workload, i)
            for i in range(ctx.cfg["instances"])
        ]

    return median_setup(ctx.cfg["setup_trials"], trial, ctx.probe)


def _calls(ctx, instances, checks):
    """Cold calls, cycling over the instances, for ``ctx.seconds`` (at
    least three, and whole cycles only, so every run weighs each instance
    alike); ``(raw walls, host-scaled walls, results)``."""
    walls: List[float] = []
    probes = [ctx.probe.time()]
    results = []
    deadline = time.perf_counter() + ctx.seconds
    while len(walls) < 3 or time.perf_counter() < deadline or len(walls) % len(instances):
        graph, _ = instances[len(walls) % len(instances)]
        call_seed = derive(ctx.seed, ctx.workload, "call", len(walls))
        gc.collect()
        t0 = time.perf_counter()
        result = _call(ctx.cfg, graph, call_seed)
        walls.append(time.perf_counter() - t0)
        probes.append(ctx.probe.time())
        results.append(result)
        checks.record(check_result(ctx.cfg, graph, result))
    # Each call is scaled by the probes right before and after it.
    scaled = [w * ctx.probe.factor(probes[i:i + 2]) for i, w in enumerate(walls)]
    return walls, scaled, results


def run(ctx) -> Dict[str, Any]:
    cfg = ctx.cfg
    checks = Checks()
    setup_s, setup_raw_s, instances = _setup(ctx)
    info = {
        "instances": [
            {"n": g.n, "m": g.m, "max_degree": g.max_degree()} for g, _ in instances
        ]
    }
    if ctx.trace:
        return _traced(ctx, instances, info, checks)
    walls, scaled, results = _calls(ctx, instances, checks)
    reps = sum(r.repetitions_run for r in results)
    return {
        "checks": checks,
        "info": {**info, "calls": len(walls), "repetitions": reps,
                 "walls_s": walls},
        "end_to_end": {
            "setup_s": setup_s,
            "ops_per_s": reps / sum(scaled),
            "op_p50_ms": median(scaled) * 1e3,
            "op_tail_ms": tail(scaled) * 1e3,
        },
        "named": {
            cfg["named_wall"]: median(walls),
            "tester.reps_per_s": reps / sum(walls),
            "raw.setup_s": setup_raw_s,
        },
    }


def _traced_call(ctx, tracer: Tracer, gseed: int, call_seed: int, reps: int, index: int):
    """One call through the layer entry points, with spans: generator,
    CSR, network, engine with a phase profiler, one span per repetition
    (timed per yield of ``iter_tester_chunk``), evidence verification.
    Returns ``(outcome, profiler report, repetition wall, traces,
    problems)``."""
    import numpy as np
    from repro.congest.engine import PhaseProfiler, create_engine
    from repro.congest.network import Network
    from repro.core.algorithm1 import DetectionOutcome
    from repro.core.verify import verify_cycle_evidence
    from repro.runner import registry

    cfg = ctx.cfg
    k = cfg["k"]
    outcome: Outcome = []
    traces = []
    rep_wall = 0.0
    with tracer.span("bench.instance", index=index):
        with tracer.span("graphs.build"):
            graph = registry.build_graph(cfg["family"], seed=gseed, **cfg["params"])
        with tracer.span("graphs.to_csr"):
            graph.to_csr()
        # bench.call covers what one untraced tester call does.
        with tracer.span("bench.call"):
            with tracer.span("congest.network"):
                net = Network(graph)
            profiler = PhaseProfiler()
            with tracer.span("engine.compile"):
                engine = create_engine(cfg["engine"], net, profiler=profiler)
            rep_seeds = np.random.SeedSequence(call_seed).generate_state(reps)
            runs = engine.iter_tester_chunk(k, [int(s) for s in rep_seeds])
            for _ in range(reps):
                with tracer.span("engine.rep") as rep_span:
                    result = next(runs)
                rep_wall += rep_span["end"] - rep_span["start"]
                rejecting = [
                    v for v, out in result.outputs.items()
                    if isinstance(out, DetectionOutcome) and out.rejects
                ]
                cycle = next(
                    (result.outputs[v].cycle for v in rejecting
                     if result.outputs[v].cycle is not None),
                    None,
                )
                outcome.append((bool(rejecting), cycle, result.trace.num_rounds))
                traces.append(result.trace)
                if rejecting and cfg["stop_on_reject"]:
                    break
            runs.close()
        with tracer.span("core.verify"):
            bad = [c for r, c, _ in outcome if r and not verify_cycle_evidence(graph, c, k)]
    problems = [f"traced evidence {c} is no C_{k}" for c in bad]
    return outcome, profiler.report(), rep_wall, traces, problems


def _traced(ctx, instances, info, checks) -> Dict[str, Any]:
    """Each call twice, alternately: untraced through
    ``CkFreenessTester.run``, then traced through the layer entry points,
    so that host drift cancels out of the overhead."""
    tracer = Tracer()
    walls: List[float] = []
    phase_s: Dict[str, List[float]] = {}
    closure: List[float] = []
    first_traces = None
    deadline = time.perf_counter() + ctx.seconds
    while len(walls) < 2 or time.perf_counter() < deadline:
        i = len(walls)
        graph, gseed = instances[i % len(instances)]
        call_seed = derive(ctx.seed, ctx.workload, "call", i)
        gc.collect()
        t0 = time.perf_counter()
        untraced = _call(ctx.cfg, graph, call_seed)
        walls.append(time.perf_counter() - t0)
        problems = check_result(ctx.cfg, graph, untraced)
        gc.collect()
        outcome, report, rep_wall, traces, bad = _traced_call(
            ctx, tracer, gseed, call_seed, untraced.repetitions_planned, i
        )
        if outcome != outcome_of(untraced):
            problems.append(f"call {i}: traced verdicts differ from the untraced run")
        checks.record(problems + bad)
        for name, entry in report["phases"].items():
            phase_s.setdefault(name, []).append(entry["seconds"])
        closure.append(report["total_seconds"] / rep_wall)
        if first_traces is None:
            first_traces = traces

    rep_ms = [d * 1e3 for d in tracer.durations("engine.rep")]
    rep_total = sum(rep_ms) / 1e3
    return {
        "checks": checks,
        "tracer": tracer,
        "info": {**info, "calls": len(walls)},
        "per_layer": {
            **{
                f"{name}_s": median(tracer.durations(name))
                for name in ("graphs.build", "graphs.to_csr", "congest.network",
                             "engine.compile")
            },
            "obs.trace_overhead": tracer.total("bench.call") / sum(walls),
            "engine.phase_closure": median(closure),
            **{
                f"engine.phase.{name}.share": sum(secs) / rep_total
                for name, secs in phase_s.items()
            },
            # Exact counts of the first call's kept traces.
            "congest.rounds": sum(t.num_rounds for t in first_traces),
            "congest.messages": sum(t.total_messages for t in first_traces),
            "congest.bits": sum(t.total_bits for t in first_traces),
            "congest.max_seqs_per_msg": max(t.max_sequences_per_message for t in first_traces),
        },
        "named": {
            "engine.rep_ms.p50": quantile(rep_ms, 0.50),
            "engine.rep_ms.p90": quantile(rep_ms, 0.90),
            **{f"engine.phase.{name}_s": median(secs) for name, secs in phase_s.items()},
            "engine.phase_closure.min": min(closure),
        },
    }
