"""Cross-engine equivalence: the ``fast`` backend must be observationally
identical to the ``reference`` scheduler under fixed seeds.

Layers covered here:

* bit-exactness of the vectorized RNG pipeline (``fastrng``) against
  per-node numpy Generators — the foundation of verdict equivalence;
* engine-level equivalence on the registry's stress instances (seeded
  grid over theta / flower / figure1 / eps-far / a power-law hub graph,
  tester + detect);
* tester-level equality of full :class:`TesterResult` objects;
* the campaign runner's ``engines`` factor (same seeds, same outcomes,
  resumable stores, backward-compatible run ids);
* CLI ``--engine`` selection and the clean no-numpy error path.
"""

import numpy as np
import pytest

from repro.cli import main as cli_main
from repro.congest.engine import (
    ENGINE_NAMES,
    available_engines,
    create_engine,
    ensure_engine_available,
)
from repro.congest.engine.fastrng import JumpTable, RankStreams
from repro.congest.ids import RandomPermutationIds, ReverseIds
from repro.congest.network import Network
from repro.core.algorithm1 import detect_cycle_through_edge
from repro.core.tester import CkFreenessTester
from repro.errors import (
    BandwidthExceededError,
    ConfigurationError,
    EngineUnavailableError,
)
from repro.graphs.generators import erdos_renyi_gnp, star_graph
from repro.runner import CampaignSpec, CampaignStore, run_campaign
from repro.runner import registry
from repro.testing import (
    DEFAULT_EQUIVALENCE_INSTANCES,
    compare_engines_once,
    engine_equivalence_report,
)


class TestFastRngExactness:
    """fastrng replicates numpy's per-node Generator streams bit for bit."""

    IDS = list(range(12)) + [999, 2**31, 2**32 - 1]
    #: Draws per stream: empty streams, odd counts (which leave a buffered
    #: 32-bit half unused) and even ones, and two deep streams of >= 300.
    COUNTS = [0, 1, 2, 3, 300, 7, 0, 5, 301, 1, 2, 9, 4, 11, 6]

    def _numpy_draws(self, seed_words, low, high):
        out = []
        for word, i, count in zip(seed_words, self.IDS, self.COUNTS):
            gen = np.random.default_rng(np.random.SeedSequence((word, i)))
            out += [int(gen.integers(low, high)) for _ in range(count)]
        return out

    @pytest.mark.parametrize(
        "low, high",
        [
            (1, 4019 ** 2 + 1),   # the tester's rank range (Lemire-32)
            (1, 0xF0000001),      # ~6% rejection probability
            (1, 0x80000002),      # ~50% rejection: several top-up passes
            (1, 2),               # zero-width range: no draw consumed
            (0, 2 ** 32),         # full 32-bit range: raw next32
            (1, 2 ** 40),         # Lemire-64
            (-(2 ** 63), 2 ** 63),  # full 64-bit range: raw next64
        ],
    )
    def test_bounded_draws_match_numpy(self, low, high):
        ids = np.array(self.IDS, dtype=np.uint64)
        # One shared seed word, and one word per stream (the chunked form).
        shared = 123456789
        per_stream = np.arange(len(ids), dtype=np.uint64) * 7919 + 11
        for seed_word, words in (
            (shared, [shared] * len(ids)),
            (per_stream, per_stream.tolist()),
        ):
            expected = self._numpy_draws(words, low, high)
            # The exact first-pass table, and a one-step table that needs
            # a pass per word: the table length only changes the passes.
            for jumps in (
                JumpTable.for_draws(max(self.COUNTS), low, high),
                JumpTable(1),
            ):
                rs = RankStreams(seed_word, ids, jumps)
                assert rs.draw(self.COUNTS, low, high).tolist() == expected

    def test_draw_is_a_pure_function_of_the_seeded_streams(self):
        rs = RankStreams(5, np.arange(4, dtype=np.uint64), JumpTable(2))
        first = rs.draw([3, 0, 1, 2], 1, 101)
        assert rs.draw([3, 0, 1, 2], 1, 101).tolist() == first.tolist()

    def test_draw_validates_its_arguments(self):
        rs = RankStreams(5, np.arange(4, dtype=np.uint64), JumpTable(1))
        with pytest.raises(ValueError):
            rs.draw([1, 1], 1, 101)
        with pytest.raises(ValueError):
            rs.draw([1, 1, 1, 1], 5, 5)

    def test_jump_table_is_read_only(self):
        table = JumpTable(4)
        with pytest.raises(ValueError):
            table.coeffs[1, 0, 1] = 0

    def test_rejects_ids_above_32_bits(self):
        with pytest.raises(ValueError):
            RankStreams(0, np.array([2 ** 32], dtype=np.uint64), JumpTable(1))


class TestEngineRegistry:
    def test_names_and_availability(self):
        assert ENGINE_NAMES == ("reference", "fast")
        # numpy is installed in the test environment: both must be usable.
        assert available_engines() == ("reference", "fast")

    def test_unknown_engine_rejected(self):
        with pytest.raises(ConfigurationError):
            ensure_engine_available("warp")
        with pytest.raises(ConfigurationError):
            CkFreenessTester(5, 0.1, engine="warp")

    def test_missing_numpy_raises_clean_engine_error(self, monkeypatch):
        import repro.congest.engine as engine_mod

        monkeypatch.setattr(
            engine_mod, "_numpy_missing", lambda: "No module named 'numpy'"
        )
        with pytest.raises(EngineUnavailableError, match=r"pip install"):
            engine_mod.ensure_engine_available("fast")
        # The reference engine is unaffected.
        engine_mod.ensure_engine_available("reference")


@pytest.fixture(scope="module")
def service_client():
    from repro.service import ServerHarness

    with ServerHarness() as harness:
        yield harness.client()


@pytest.mark.parametrize(
    "spec", ["fast:chunk=8", "sharded", "sharded:2", "sharded:4,chunk=8"]
)
def test_removed_engine_spellings_are_rejected(spec, service_client):
    """Engine specs take no options and only two backends exist: the
    sharded backend and the repetition-chunk option are rejected at every
    engine-name position (spec parser, campaign factor, service session,
    CLI), with an error naming the backends that remain."""
    import json

    from repro.congest.engine import parse_engine_spec

    with pytest.raises(ConfigurationError, match="reference, fast"):
        parse_engine_spec(spec)
    with pytest.raises(ConfigurationError, match="reference, fast"):
        CampaignSpec(
            name="removed", generators=[{"family": "cycle", "params": {"n": 5}}],
            engines=[spec],
        ).validate()
    status, payload = service_client.request(
        "POST", "/v1/sessions",
        body=json.dumps({"k": 3, "n": 4, "engine": spec}).encode(),
    )
    assert status == 400
    assert set(payload) == {"error"}
    assert payload["error"]["code"] == "bad_request"
    assert payload["error"]["status"] == 400
    assert "reference, fast" in payload["error"]["message"]
    # The CLI's --engine type check makes it an argparse usage error.
    with pytest.raises(SystemExit) as exc:
        cli_main(["test", "--generator", "cycle", "--n", "8", "--k", "4",
                  "--engine", spec])
    assert exc.value.code == 2


class TestCrossEngineEquivalence:
    """The seeded stress-instance grid of the acceptance criteria."""

    def test_stress_instance_grid(self):
        report = engine_equivalence_report(
            instances=DEFAULT_EQUIVALENCE_INSTANCES,
            ks=(3, 4, 5, 6, 7),
            seeds=(0, 1),
        )
        # 5 instances x 5 ks x (2 tester seeds + 1 deterministic detect)
        assert report.comparisons == 75
        assert report.ok, report.mismatches

    @pytest.mark.parametrize("assigner", [None, ReverseIds(),
                                          RandomPermutationIds(seed=3)])
    def test_id_assignment_does_not_break_equivalence(self, assigner):
        g = erdos_renyi_gnp(24, 0.2, seed=5)
        net = Network(g, assigner)
        for k in (4, 5):
            for seed in (0, 9):
                assert compare_engines_once(
                    g, k, seed, network=net, what="tester"
                ) == []
                assert compare_engines_once(
                    g, k, seed, network=net, what="detect"
                ) == []

    def test_tester_results_identical_end_to_end(self):
        g = registry.build_graph("eps-far", n=40, k=5, eps=0.1, seed=2)
        results = {}
        for engine in ENGINE_NAMES:
            t = CkFreenessTester(5, 0.1, repetitions=6, engine=engine)
            results[engine] = t.run(g, seed=123, stop_on_reject=False)
        a, b = results["reference"], results["fast"]
        assert a.accepted == b.accepted
        assert a.repetitions_run == b.repetitions_run
        assert [
            (r.rejected, r.cycle_ids, r.rejecting_vertices, r.rounds)
            for r in a.reports
        ] == [
            (r.rejected, r.cycle_ids, r.rejecting_vertices, r.rounds)
            for r in b.reports
        ]

    def test_detect_results_identical(self):
        g = registry.build_graph("flower", paths=4, k=6)
        for k in (4, 5, 6):
            ref = detect_cycle_through_edge(g, (0, 1), k, engine="reference")
            fast = detect_cycle_through_edge(g, (0, 1), k, engine="fast")
            assert ref.detected == fast.detected
            assert ref.rejecting_vertices == fast.rejecting_vertices
            assert ref.any_cycle_ids() == fast.any_cycle_ids()
            assert (ref.run.trace.summary() == fast.run.trace.summary())

    def test_edgeless_network_accepts_in_both_engines(self):
        from repro.graphs.graph import Graph

        net = Network(Graph(5))
        for engine in ENGINE_NAMES:
            run = create_engine(engine, net).run_tester_repetition(5, 0)
            assert all(not o.rejects for o in run.outputs.values())
            assert run.trace.num_rounds == 3

    def test_star_graph_and_isolated_vertices(self):
        g = star_graph(6)          # C_k-free, plus add isolated vertices
        g.add_vertex()
        g.add_vertex()
        for seed in (0, 1):
            assert compare_engines_once(g, 4, seed, what="tester") == []

    @staticmethod
    def _observables(run):
        """Every vertex's output (cycle included) and every round's audit."""
        return (
            {v: (o.rejects, o.cycle) for v, o in run.outputs.items()},
            [
                (r.round_index, r.messages, r.total_bits, r.max_message_bits,
                 r.max_sequences, r.max_edge)
                for r in run.trace.rounds
            ],
        )

    def test_custom_pruner_skips_the_seed_shortcut(self):
        from repro.core.pruning import ExplicitPruner

        g = registry.build_graph("theta", paths=4, path_length=2)
        net = Network(g)
        for k in (4, 5, 6):
            a = create_engine("reference", net).run_tester_repetition(
                k, 7, pruner=ExplicitPruner()
            )
            b = create_engine("fast", net).run_tester_repetition(
                k, 7, pruner=ExplicitPruner()
            )
            assert self._observables(a) == self._observables(b)

    @pytest.mark.parametrize("k", range(3, 9))
    def test_full_outputs_and_audit_match_on_rejecting_graphs(self, k):
        planted = registry.build_graph("eps-far", n=10 * k, k=k, eps=0.1, seed=k)
        gnp = erdos_renyi_gnp(24, 0.25, seed=k)
        gnp.add_vertex()  # isolated vertices never send nor receive
        gnp.add_vertex()
        rejecting = 0
        for g in (planted, gnp):
            net = Network(g, RandomPermutationIds(seed=k))
            ref, fast = create_engine("reference", net), create_engine("fast", net)
            for seed in range(8):
                a = ref.run_tester_repetition(k, seed)
                assert self._observables(a) == self._observables(
                    fast.run_tester_repetition(k, seed)
                ), (k, seed)
                rejecting += any(o.rejects for o in a.outputs.values())
        assert rejecting, "the grid must exercise the rejecting path"

    def test_rank_ties_resolve_to_the_smaller_edge(self):
        """On a triangle ranks are drawn from [1, 9], so the minimum is
        often tied; the tag order (rank, a, b) must then pick the
        (a, b)-smaller edge.  With k = 3 exactly the vertex opposite the
        winning edge rejects, which makes the winner observable."""
        from repro.core.phase1 import draw_ranks
        from repro.graphs.generators import complete_graph

        net = Network(complete_graph(3), RandomPermutationIds(seed=2))
        ids = net.ids()
        fast = create_engine("fast", net)
        ties = 0
        for seed in range(200):
            tags = []
            for my_id in ids:
                rng = np.random.default_rng(
                    np.random.SeedSequence((seed & 0x7FFFFFFF, my_id))
                )
                others = tuple(x for x in ids if x != my_id)
                tags += [(d.rank, d.edge) for d in draw_ranks(my_id, others, 3, rng)]
            tags.sort()
            ties += tags[0][0] == tags[1][0]
            winner = tags[0][1]
            run = fast.run_tester_repetition(3, seed)
            rejecting = [ids[v] for v, o in run.outputs.items() if o.rejects]
            assert rejecting == [x for x in ids if x not in winner], seed
        assert ties >= 20  # the seeds really exercise the tie-break
        k4 = Network(complete_graph(4))
        for seed in range(200):
            for k in (3, 4):
                assert compare_engines_once(
                    k4.graph, k, seed, network=k4, what="tester"
                ) == [], (k, seed)

    def test_kept_result_records_have_no_instance_dict(self):
        """Tester results keep one trace and report per repetition; the
        slotted records keep that memory small."""
        from repro.congest.instrumentation import ExecutionTrace, RoundStats
        from repro.core.verdict import RepetitionReport

        g = registry.build_graph("eps-far", n=50, k=5, eps=0.1, seed=1)
        result = CkFreenessTester(5, 0.1, repetitions=2, engine="fast").run(
            g, seed=0, keep_traces=True
        )
        for record in (result.reports[0], result.traces[0],
                       result.traces[0].rounds[0]):
            assert not hasattr(record, "__dict__")
        for cls in (RoundStats, ExecutionTrace, RepetitionReport):
            assert "__slots__" in vars(cls)

    def test_strict_bandwidth_raises_in_both_engines(self):
        # A tiny budget makes every Phase-2 bundle oversized.
        g = registry.build_graph("flower", paths=5, k=6)
        net = Network(g)
        model = net.default_size_model()
        tight = type(model)(id_bits=model.id_bits, rank_bits=model.rank_bits,
                            budget_factor=0)
        for engine in ENGINE_NAMES:
            eng = create_engine(engine, net, size_model=tight,
                                strict_bandwidth=True)
            with pytest.raises(BandwidthExceededError):
                eng.run_tester_repetition(6, 0)

    def test_fast_engine_rejects_oversized_ids(self):
        from repro.congest.ids import IdAssigner
        from repro.errors import CongestError

        class HugeIds(IdAssigner):
            def assign(self, n):
                return [2 ** 32 + i for i in range(n)]

            def id_space(self, n):
                return 2 ** 33

        net = Network(erdos_renyi_gnp(6, 0.5, seed=0), HugeIds())
        with pytest.raises(CongestError, match="2\\*\\*32"):
            create_engine("fast", net)


class TestEngineCampaignFactor:
    def _spec(self, tmp_name="engines-unit", engines=("reference", "fast")):
        return CampaignSpec(
            name=tmp_name,
            generators=[
                {"family": "gnp", "params": {"n": 20, "p": 0.15}},
                {"family": "eps-far", "params": {"n": 40}},
            ],
            ks=[4, 5],
            epsilons=[0.15],
            algorithms=["tester", "detect"],
            engines=list(engines),
            repetitions=2,
            seed=13,
        )

    def test_engine_twins_share_seeds_and_outcomes(self, tmp_path):
        store = CampaignStore(tmp_path / "e.jsonl")
        run_campaign(self._spec().expand(), store, workers=1)
        by_factors = {}
        for rec in store.records():
            key = (rec["generator"], rec["k"], rec["algorithm"],
                   rec["repetition"])
            by_factors.setdefault(key, {})[rec["engine"]] = rec
        assert by_factors
        for key, pair in by_factors.items():
            assert set(pair) == {"reference", "fast"}
            ref, fast = pair["reference"], pair["fast"]
            assert ref["status"] == fast["status"] == "ok", key
            assert ref["seed"] == fast["seed"], key
            assert ref["outcome"] == fast["outcome"], key

    def test_reference_rows_keep_pre_engine_run_ids(self):
        # Backward compatibility: a reference-only grid must expand to the
        # same ids/seeds as before the engine factor existed, so old
        # campaign stores stay resumable.
        ref_only = self._spec(engines=("reference",)).expand()
        both = self._spec().expand()
        ref_rows_of_both = [r for r in both if r.engine == "reference"]
        assert [r.run_id for r in ref_only] == [
            r.run_id for r in ref_rows_of_both
        ]
        assert [r.seed for r in ref_only] == [r.seed for r in ref_rows_of_both]

    def test_engine_rows_are_distinct_but_seed_aligned(self):
        rows = self._spec().expand().rows
        ids = [r.run_id for r in rows]
        assert len(set(ids)) == len(ids)
        fast = {(r.generator, r.k, r.algorithm, r.repetition): r
                for r in rows if r.engine == "fast"}
        for r in rows:
            if r.engine != "reference":
                continue
            twin = fast[(r.generator, r.k, r.algorithm, r.repetition)]
            assert twin.seed == r.seed

    def test_baselines_do_not_cross_with_the_engine_factor(self):
        # naive/gather ignore the engine, so expanding them per engine
        # would duplicate work and mislabel report rows; the expansion
        # pins them to the reference scheduler instead.
        spec = self._spec(engines=("reference", "fast"))
        spec.algorithms = ["tester", "naive"]
        rows = spec.expand().rows
        naive = [r for r in rows if r.algorithm == "naive"]
        assert naive and all(r.engine == "reference" for r in naive)
        tester = [r for r in rows if r.algorithm == "tester"]
        assert {r.engine for r in tester} == {"reference", "fast"}
        # exactly one naive row per factor cell, not one per engine
        assert len(naive) * 2 == len(tester)

    def test_validation_rejects_unknown_engines(self):
        with pytest.raises(ConfigurationError):
            self._spec(engines=("warp",)).expand()
        with pytest.raises(ConfigurationError):
            self._spec(engines=()).expand()

    def test_spec_json_round_trips_engines(self):
        spec = self._spec()
        clone = CampaignSpec.from_json(spec.to_json())
        assert tuple(clone.engines) == ("reference", "fast")
        assert clone.expand().row_ids() == spec.expand().row_ids()


class TestEngineCli:
    def test_test_command_accepts_engine_flag(self, capsys):
        rc_ref = cli_main(["test", "--generator", "eps-far", "--n", "40",
                           "--k", "4", "--eps", "0.15", "--seed", "5"])
        out_ref = capsys.readouterr().out
        rc_fast = cli_main(["test", "--generator", "eps-far", "--n", "40",
                            "--k", "4", "--eps", "0.15", "--seed", "5",
                            "--engine", "fast"])
        out_fast = capsys.readouterr().out
        assert rc_ref == rc_fast
        assert out_ref == out_fast  # identical verdict, evidence and rounds

    def test_detect_command_accepts_engine_flag(self, capsys):
        outputs = {}
        for engine in ENGINE_NAMES:
            assert cli_main(["detect", "--generator", "figure1",
                             "--k", "5", "--engine", engine]) == 0
            outputs[engine] = capsys.readouterr().out
        assert outputs["reference"] == outputs["fast"]

    def test_missing_numpy_is_a_clean_cli_error(self, capsys, monkeypatch):
        import repro.congest.engine as engine_mod

        monkeypatch.setattr(
            engine_mod, "_numpy_missing", lambda: "No module named 'numpy'"
        )
        with pytest.raises(SystemExit) as exc:
            cli_main(["test", "--generator", "gnp", "--n", "20",
                      "--k", "4", "--engine", "fast"])
        message = str(exc.value)
        assert message.startswith("error:")
        assert "pip install" in message and "reference" in message
