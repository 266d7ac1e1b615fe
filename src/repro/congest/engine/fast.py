"""The fast engine: batched numpy execution of the paper's protocols.

Instead of instantiating one Python program object per node and routing
dict-of-dict inboxes message by message, this backend compiles the
network once into CSR-style adjacency arrays and advances *all* nodes
per round with vectorized array operations:

* **Phase-1 rank draws** are replicated bit-exactly through
  :mod:`repro.congest.engine.fastrng` (vectorized SeedSequence → PCG64
  jump-ahead → Lemire pipeline, every draw of every owner in one array
  pass), so the fast engine consumes the exact random stream the
  reference engine's per-node Generators would.
* **Minimum-rank selection and the §3.1 priority rule** are
  struct-of-arrays operations: each node's current execution tag is a
  ``(rank, edge_u, edge_v)`` triple held in three int64 arrays, and the
  per-round multiplexing (take the lexicographically smallest tag among
  your own and your sending neighbours') is one ``np.lexsort`` over the
  half-edge arrays.
* **Sequence processing** (Instructions 10–27 and the final decision)
  runs through the *same* pure functions as the reference engine —
  :func:`~repro.core.algorithm1.process_phase2_round` and
  :func:`~repro.core.algorithm1.find_detection_evidence` — but only for
  the nodes that actually received sequences under their winning tag,
  which is what makes the verdict equivalence structural rather than
  statistical.
* **The bit audit is aggregate instead of per-message**: a broadcast
  costs the same bits on every incident edge, so per-round totals,
  maxima and strict-mode budget violations are computed from per-sender
  counts.  ``strict_bandwidth`` raises the same
  :class:`~repro.errors.BandwidthExceededError` (round, edge, bits,
  budget) as the reference engine; only the partially-recorded trace on
  that error path may differ.

The trace's per-round ``messages``/``total_bits``/``max_message_bits``/
``max_sequences`` match the reference audit exactly (asserted in
``tests/test_engines.py``); verdict equivalence across the registry's
stress instances is asserted by ``repro.testing`` and the cross-engine
grid test.

Requirements: numpy, and node IDs below ``2**32`` (the standard
polynomial-in-n ID space up to n = 65535).  Networks outside that range
should use the reference engine.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np

from ...errors import BandwidthExceededError, CongestError, ConfigurationError
from ..instrumentation import ExecutionTrace, RoundStats
from ..message import SequenceBundle
from ..network import Network
from ..scheduler import RunResult
from .base import CongestEngine
from .fastrng import MAX_UINT32_ENTROPY, JumpTable, RankStreams

__all__ = ["FastEngine"]

#: Sentinel rank for "no tag"; real ranks are in [1, m**2].
_INF = np.int64(1) << np.int64(62)


def draw_owner_ranks(
    owner_ids: np.ndarray,
    counts: np.ndarray,
    rep_seeds: Sequence[int],
    m: int,
    jumps: JumpTable,
) -> np.ndarray:
    """Phase-1 ranks of the owners ``owner_ids`` for several repetitions.

    Row ``r`` holds repetition ``rep_seeds[r]``'s draws: ``counts[i]``
    ranks in ``[1, m**2]`` from owner ``i``'s stream, owner by owner —
    the order of the owned half-edges.  The per-``(rep, owner)`` streams
    are independent, so stacking all of them into one
    :class:`RankStreams` batch leaves every stream's draws bit-identical
    to the reference engine's.
    """
    words = np.asarray([int(s) & 0x7FFFFFFF for s in rep_seeds], dtype=np.uint64)
    streams = RankStreams(
        np.repeat(words, len(owner_ids)), np.tile(owner_ids, len(words)), jumps
    )
    ranks = streams.draw(np.tile(counts, len(words)), 1, m * m + 1)
    return ranks.reshape(len(words), -1)


class FastEngine(CongestEngine):
    """Batched CSR/numpy execution (same verdicts, array speed)."""

    name = "fast"

    def __init__(self, network: Network, **kwargs) -> None:
        super().__init__(network, **kwargs)
        if self._faults is not None:
            raise ConfigurationError(
                f"fault injection requires the reference engine (the "
                f"{self.name!r} backend batches deliveries and cannot drop "
                "them individually); run with engine='reference'"
            )
        g = network.graph
        ids = np.asarray(network.ids(), dtype=np.int64)
        if ids.size and int(ids.max()) >= MAX_UINT32_ENTROPY:
            raise CongestError(
                "fast engine requires node IDs < 2**32; "
                "use the reference engine for larger ID spaces"
            )
        self._ids = ids
        self._id_list: List[int] = ids.tolist()
        indptr, indices = g.to_csr()
        self._indptr = indptr
        self._indices = indices
        degrees = np.diff(indptr)
        self._degrees = degrees
        n = g.n
        self._all_v = np.arange(n, dtype=np.int64)
        # Half-edge arrays: one (src, dst) entry per directed adjacency.
        he_src = np.repeat(self._all_v, degrees)
        self._he_src = he_src
        self._he_dst = indices
        src_id = ids[he_src]
        dst_id = ids[indices]
        a = np.minimum(src_id, dst_id)
        b = np.maximum(src_id, dst_id)
        self._he_a = a
        self._he_b = b
        # Canonical edge index per half-edge (IDs fit 32 bits: pack exactly).
        packed = (a.astype(np.uint64) << np.uint64(32)) | b.astype(np.uint64)
        uniq, edge_of_he = np.unique(packed, return_inverse=True)
        if len(uniq) != g.m:  # pragma: no cover - Graph guarantees simple
            raise CongestError("inconsistent edge count in CSR compile")
        self._edge_of_he = edge_of_he
        # Owned half-edges (src ID < dst ID), in the reference draw order:
        # by owner vertex, then ascending neighbour ID.
        owned = np.nonzero(src_id < dst_id)[0]
        order = np.lexsort((dst_id[owned], he_src[owned]))
        self._owned_he = owned[order]
        owner_of_owned = he_src[self._owned_he]
        owners, counts = np.unique(owner_of_owned, return_counts=True)
        self._owners = owners
        self._owner_counts = counts
        # PCG64 jump-ahead coefficients for the busiest owner's draws.
        self._jumps = JumpTable.for_draws(
            int(counts.max()) if len(counts) else 0, 1, g.m * g.m + 1
        )
        # Audit constants (computed through the public SizeModel API so the
        # aggregate audit charges exactly what per-message observe() would).
        model = self._size_model
        self._bits_rank_msg = model.rank_bits
        self._bits_tagged_overhead = model.bundle_bits(
            SequenceBundle(frozenset(), rank=1, edge=(0, 1))
        )
        self._bits_untagged_overhead = model.bundle_bits(SequenceBundle(frozenset()))
        self._seq_bits_cache: Dict[int, int] = {}
        self._budget = model.budget_bits(n)

    def _seq_bits(self, seq_len: int) -> int:
        """Bit cost of one length-``seq_len`` ID sequence."""
        bits = self._seq_bits_cache.get(seq_len)
        if bits is None:
            bits = self._size_model.sequence_bits((0,) * seq_len)
            self._seq_bits_cache[seq_len] = bits
        return bits

    @property
    def compiled_nbytes(self) -> int:
        """Bytes held by the compiled CSR/half-edge arrays (cache telemetry)."""
        return sum(
            arr.nbytes
            for arr in (
                self._ids, self._indptr, self._indices, self._degrees,
                self._all_v, self._he_src, self._he_dst, self._he_a,
                self._he_b, self._edge_of_he, self._owned_he, self._owners,
                self._owner_counts, self._jumps.coeffs,
            )
        )

    # ------------------------------------------------------------------
    # Audit helpers
    # ------------------------------------------------------------------
    def _begin_round(self, trace: ExecutionTrace, round_index: int) -> RoundStats:
        stats = RoundStats(round_index=round_index)
        trace.rounds.append(stats)
        return stats

    def _first_neighbor_id(self, v: int) -> int:
        """ID of the first receiver in reference delivery order (the
        smallest-index neighbour, as :meth:`Graph.neighbors` yields)."""
        return self._id_list[self._indices[self._indptr[v]]]

    def _record_broadcasts(
        self,
        stats: RoundStats,
        round_index: int,
        senders: np.ndarray,
        bits: np.ndarray,
        seqs: np.ndarray,
    ) -> None:
        """Aggregate-audit one round of broadcasts.

        ``senders`` must be ascending vertex indices (the reference
        scheduler's delivery order); a broadcast reaches every neighbour
        at the same cost, so the aggregates below reproduce exactly what
        per-message ``observe()`` calls would record — including which
        edge realises the maximum (first strictly-greater in delivery
        order == first occurrence of the argmax).
        """
        if not len(senders):
            return
        degs = self._degrees[senders]
        stats.messages += int(degs.sum())
        stats.total_bits += int((bits * degs).sum())
        imax = int(np.argmax(bits))
        v = int(senders[imax])
        stats.max_message_bits = int(bits[imax])
        stats.max_edge = (self._id_list[v], self._first_neighbor_id(v))
        stats.max_sequences = int(seqs.max())
        if self._strict:
            over = np.nonzero(bits > self._budget)[0]
            if len(over):
                w = int(senders[over[0]])
                raise BandwidthExceededError(
                    round_index,
                    (self._id_list[w], self._first_neighbor_id(w)),
                    int(bits[over[0]]),
                    self._budget,
                )

    def _bundle_bits(self, num_seqs: int, seq_len: int, *, tagged: bool) -> int:
        overhead = (
            self._bits_tagged_overhead if tagged else self._bits_untagged_overhead
        )
        return overhead + num_seqs * self._seq_bits(seq_len)

    # ------------------------------------------------------------------
    # Shared phase-2 machinery
    # ------------------------------------------------------------------
    def _mux(
        self,
        sending: np.ndarray,
        R: np.ndarray,
        A: np.ndarray,
        B: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Vectorized §3.1 priority rule for every node at once.

        Returns the per-node winning tag ``(bestR, bestA, bestB)`` — the
        lexicographic minimum of the node's own tag and the tags of its
        neighbours that sent this round — plus the half-edge indices
        whose sender matches the receiver's winning tag (the messages
        that survive the rule; all others are discarded).
        """
        he_src, he_dst = self._he_src, self._he_dst
        send_mask = sending[he_dst]
        cr = np.where(send_mask, R[he_dst], _INF)
        ca = np.where(send_mask, A[he_dst], _INF)
        cb = np.where(send_mask, B[he_dst], _INF)
        owners = np.concatenate([he_src, self._all_v])
        kr = np.concatenate([cr, R])
        ka = np.concatenate([ca, A])
        kb = np.concatenate([cb, B])
        order = np.lexsort((kb, ka, kr, owners))
        sorted_owners = owners[order]
        first = np.searchsorted(sorted_owners, self._all_v, side="left")
        bestR = kr[order][first]
        bestA = ka[order][first]
        bestB = kb[order][first]
        matches = np.nonzero(
            send_mask
            & (R[he_dst] == bestR[he_src])
            & (A[he_dst] == bestA[he_src])
            & (B[he_dst] == bestB[he_src])
        )[0]
        return bestR, bestA, bestB, matches

    def _gather_received(
        self, matches: np.ndarray, sent_seqs: Dict[int, list]
    ) -> Dict[int, list]:
        """Concatenate surviving senders' sequences per receiving node."""
        recv: Dict[int, list] = {}
        src = self._he_src[matches].tolist()
        dst = self._he_dst[matches].tolist()
        for v, u in zip(src, dst):
            seqs = sent_seqs.get(u)
            if not seqs:
                continue
            bucket = recv.get(v)
            if bucket is None:
                recv[v] = list(seqs)
            else:
                bucket.extend(seqs)
        return recv

    # ------------------------------------------------------------------
    # Phase 1: rank draws + selection
    # ------------------------------------------------------------------
    def _draw_edge_ranks(self, rep_seeds: Sequence[int]) -> np.ndarray:
        """Per-edge Phase-1 ranks, one row per repetition seed,
        bit-identical to the reference draws."""
        m = self._net.graph.m
        edge_rank = np.zeros((len(rep_seeds), m), dtype=np.int64)
        if len(self._owners):
            edge_rank[:, self._edge_of_he[self._owned_he]] = draw_owner_ranks(
                self._ids[self._owners], self._owner_counts, rep_seeds, m, self._jumps
            )
        return edge_rank

    def _select_minima(
        self, edge_rank: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per-node minimum incident tag ``(rank, edge)`` (round 2)."""
        n = self._net.n
        he_rank = edge_rank[self._edge_of_he]
        order = np.lexsort((self._he_b, self._he_a, he_rank, self._he_src))
        sorted_src = self._he_src[order]
        R = np.full(n, _INF, dtype=np.int64)
        A = np.full(n, _INF, dtype=np.int64)
        B = np.full(n, _INF, dtype=np.int64)
        present, first = np.unique(sorted_src, return_index=True)
        R[present] = he_rank[order][first]
        A[present] = self._he_a[order][first]
        B[present] = self._he_b[order][first]
        return R, A, B

    # ------------------------------------------------------------------
    # Engine entry points
    # ------------------------------------------------------------------
    def run_tester_repetition(
        self, k: int, rep_seed: int, *, pruner=None
    ) -> RunResult:
        """One tester repetition, batched: vectorized rank draws and
        tag multiplexing, per-node sequence work only where messages
        survive the priority rule.  Verdict-identical to the
        reference engine under the same ``rep_seed``."""
        from ...core.algorithm1 import (
            DetectionOutcome,
            find_detection_evidence,
            process_phase2_round,
        )
        from ...core.phase1 import protocol_rounds
        from ...core.pruning import HittingSetPruner
        from ...core.sequences import sort_sequences

        self._check_k(k)
        pruner = pruner if pruner is not None else HittingSetPruner()
        prof = self._profiler
        g = self._net.graph
        n = g.n
        ids = self._id_list
        trace = ExecutionTrace(n=n, m=g.m, size_model=self._size_model)
        accept = DetectionOutcome(rejects=False)
        outputs: Dict[int, DetectionOutcome] = {v: accept for v in range(n)}
        if g.m == 0:
            # Edgeless network: every node is silent and accepts (same as
            # the reference scheduler running the programs to completion).
            for r in range(1, protocol_rounds(k) + 1):
                self._begin_round(trace, r)
            return RunResult(outputs, trace)

        # Round 1 — every owned edge's rank crosses the edge (one message).
        stats = self._begin_round(trace, 1)
        with prof.phase("rank_draws"):
            edge_rank = self._draw_edge_ranks([rep_seed])[0]
        if len(self._owners):
            bits = self._bits_rank_msg
            stats.messages = g.m
            stats.total_bits = bits * g.m
            stats.max_message_bits = bits
            # Rank outboxes insert in ascending neighbour-ID order, so
            # the first delivery is the first owner's smallest owned ID.
            first_owner = int(self._owners[0])
            first_he = int(self._owned_he[0])
            stats.max_edge = (ids[first_owner], int(self._he_b[first_he]))
            if self._strict and bits > self._budget:
                raise BandwidthExceededError(1, stats.max_edge, bits, self._budget)

        # Round 2 — minimum selection; every non-isolated node broadcasts
        # its seed sequence under its chosen tag.
        stats = self._begin_round(trace, 2)
        with prof.phase("min_select"):
            R, A, B = self._select_minima(edge_rank)
        sending = self._degrees > 0
        sender_arr = np.nonzero(sending)[0]
        sent_seqs: Dict[int, list] = {v: [(ids[v],)] for v in sender_arr.tolist()}
        seed_bits = self._bundle_bits(1, 1, tagged=True)
        with prof.phase("audit_fold"):
            self._record_broadcasts(
                stats,
                2,
                sender_arr,
                np.full(len(sender_arr), seed_bits, dtype=np.int64),
                np.ones(len(sender_arr), dtype=np.int64),
            )

        # The round-2 send of the default pruner has a closed form: the
        # received sequences are singleton seeds (none containing the
        # receiving ID), and HittingSetPruner keeps exactly the first
        # k-1 of them in sorted order (the residues are disjoint
        # singletons, so the q = k-2 hitting-set test passes while at
        # most k-2 sequences are kept).  Skipping the generic pruner for
        # this one round removes most per-node Python work.
        seed_shortcut = type(pruner) is HittingSetPruner

        # Rounds 3..1+⌊k/2⌋ — prioritized multiplexed Phase 2.
        for t in range(2, k // 2 + 1):
            stats = self._begin_round(trace, t + 1)
            with prof.phase("priority_mux"):
                bestR, bestA, bestB, matches = self._mux(sending, R, A, B)
                recv = self._gather_received(matches, sent_seqs)
            R, A, B = bestR, bestA, bestB
            sending = np.zeros(n, dtype=bool)
            sent_seqs = {}
            with prof.phase("round_apply"):
                if t == 2 and seed_shortcut:
                    keep = k - 1
                    for v, lst in recv.items():
                        lst.sort()
                        my = ids[v]
                        sent_seqs[v] = [s + (my,) for s in lst[:keep]]
                        sending[v] = True
                else:
                    for v, lst in recv.items():
                        send = process_phase2_round(
                            ids[v], sort_sequences(lst), k, t, pruner
                        )
                        if send:
                            sent_seqs[v] = send
                            sending[v] = True
            per_seq = self._seq_bits(t)
            sender_arr = np.fromiter(sent_seqs, dtype=np.int64, count=len(sent_seqs))
            sender_arr.sort()
            lens = np.fromiter(
                (len(sent_seqs[int(v)]) for v in sender_arr),
                dtype=np.int64,
                count=len(sender_arr),
            )
            with prof.phase("audit_fold"):
                self._record_broadcasts(
                    stats,
                    t + 1,
                    sender_arr,
                    self._bits_tagged_overhead + lens * per_seq,
                    lens,
                )

        # Final decision (no further communication round).  At this
        # point sent_seqs / (R, A, B) hold the final round's non-empty
        # sends and the tags they were sent under.
        with prof.phase("priority_mux"):
            bestR, bestA, bestB, matches = self._mux(sending, R, A, B)
            recv = self._gather_received(matches, sent_seqs)
        with prof.phase("decision"):
            for v, lst in recv.items():
                received = sort_sequences(lst)
                own = sent_seqs.get(v, [])
                if own and not (
                    R[v] == bestR[v] and A[v] == bestA[v] and B[v] == bestB[v]
                ):
                    own = []  # stale tag: the node switched executions
                cycle = find_detection_evidence(ids[v], k, own, received)
                if cycle is not None:
                    outputs[v] = DetectionOutcome(rejects=True, cycle=cycle)
        assert trace.num_rounds == protocol_rounds(k)
        return self._finish(RunResult(outputs, trace))

    # ------------------------------------------------------------------
    def run_detect(
        self, k: int, edge_ids: Tuple[int, int], *, pruner=None
    ) -> RunResult:
        """Algorithm 1 for one edge over CSR arrays: frontier-based
        delivery, shared pure per-node instructions, aggregate audit."""
        from ...core.algorithm1 import (
            DetectionOutcome,
            find_detection_evidence,
            phase2_rounds,
            process_phase2_round,
        )
        from ...core.pruning import HittingSetPruner
        from ...core.sequences import sort_sequences
        from ...errors import ConfigurationError

        self._check_k(k)
        u_id, v_id = edge_ids
        if u_id == v_id:
            raise ConfigurationError("edge endpoints must differ")
        pruner = pruner if pruner is not None else HittingSetPruner()
        prof = self._profiler
        g = self._net.graph
        n = g.n
        ids = self._id_list
        indptr, indices = self._indptr, self._indices
        trace = ExecutionTrace(n=n, m=g.m, size_model=self._size_model)
        accept = DetectionOutcome(rejects=False)
        outputs: Dict[int, DetectionOutcome] = {v: accept for v in range(n)}

        # Round 1: the endpoints broadcast their singleton sequences.
        stats = self._begin_round(trace, 1)
        sent: Dict[int, list] = {}
        for nid in (u_id, v_id):
            vtx = self._net.vertex_of(nid)
            if self._degrees[vtx] > 0:
                sent[vtx] = [(nid,)]
        with prof.phase("audit_fold"):
            self._record_broadcasts(
                stats,
                1,
                np.array(sorted(sent), dtype=np.int64),
                np.full(
                    len(sent),
                    self._bundle_bits(1, 1, tagged=False),
                    dtype=np.int64,
                ),
                np.ones(len(sent), dtype=np.int64),
            )

        def deliver(senders: Dict[int, list]) -> Dict[int, list]:
            recv: Dict[int, list] = {}
            for s in senders:
                seqs = senders[s]
                for w in indices[indptr[s]: indptr[s + 1]].tolist():
                    bucket = recv.get(w)
                    if bucket is None:
                        recv[w] = list(seqs)
                    else:
                        bucket.extend(seqs)
            return recv

        # Rounds 2..⌊k/2⌋: receive, prune, append, broadcast.
        for t in range(2, phase2_rounds(k) + 1):
            stats = self._begin_round(trace, t)
            with prof.phase("priority_mux"):
                recv = deliver(sent)
            sent = {}
            with prof.phase("round_apply"):
                for v, lst in recv.items():
                    send = process_phase2_round(
                        ids[v], sort_sequences(lst), k, t, pruner
                    )
                    if send:
                        sent[v] = send
            per_seq = self._seq_bits(t)
            sender_arr = np.fromiter(sent, dtype=np.int64, count=len(sent))
            sender_arr.sort()
            lens = np.fromiter(
                (len(sent[int(v)]) for v in sender_arr),
                dtype=np.int64,
                count=len(sender_arr),
            )
            with prof.phase("audit_fold"):
                self._record_broadcasts(
                    stats,
                    t,
                    sender_arr,
                    self._bits_untagged_overhead + lens * per_seq,
                    lens,
                )

        # Final decision from the last round's deliveries.
        with prof.phase("priority_mux"):
            recv = deliver(sent)
        with prof.phase("decision"):
            for v, lst in recv.items():
                received = sort_sequences(lst)
                cycle = find_detection_evidence(
                    ids[v], k, sent.get(v, []), received
                )
                if cycle is not None:
                    outputs[v] = DetectionOutcome(rejects=True, cycle=cycle)
        return self._finish(RunResult(outputs, trace))
