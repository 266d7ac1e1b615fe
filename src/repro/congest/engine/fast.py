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
* **Execution tags are single integers.**  Edge indices run in ``(a, b)``
  ID order (they come from ``np.unique`` of the packed ID pairs), so one
  stable ``argsort`` of the ranks gives every edge a *priority* in
  ``[0, m)`` that orders edges exactly as the ``(rank, a, b)`` tag does;
  ``m`` means "no tag".  Minimum selection and the §3.1 priority rule
  (serve the smallest tag among your own and your sending neighbours')
  are both segment minima over the CSR half-edge arrays.
* **Messages live in CSR slot arrays**: a round's sends are one int64
  matrix of ID sequences, one row per sequence, grouped by ascending
  sender.  Delivery to the half-edges that survive the priority rule is
  a ``repeat``/``arange`` gather; the round-2 seed step of the default
  pruner is one ``lexsort`` and a cut at ``k - 1`` per receiver.
* **Sequence processing** (Instructions 10–27 and the final decision)
  runs through the *same* pure functions as the reference engine —
  :func:`~repro.core.algorithm1.process_phase2_round` and
  :func:`~repro.core.algorithm1.find_detection_evidence` — which is what
  makes the verdict equivalence structural rather than statistical.
  The decision is only evaluated where it can succeed: a pair reaching
  ``k`` distinct IDs is disjoint, so by Lemma 1 its two sequences start
  at different endpoints of the winning tag's edge, which a per-node
  ``bincount`` checks for every node at once.
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

from typing import Dict, List, Tuple

import numpy as np

from ...errors import BandwidthExceededError, CongestError, ConfigurationError
from ..instrumentation import ExecutionTrace, RoundStats
from ..message import SequenceBundle
from ..network import Network
from ..scheduler import RunResult
from .base import CongestEngine
from .fastrng import MAX_UINT32_ENTROPY, JumpTable, RankStreams

__all__ = ["FastEngine"]


def draw_owner_ranks(
    owner_ids: np.ndarray,
    counts: np.ndarray,
    rep_seed: int,
    m: int,
    jumps: JumpTable,
) -> np.ndarray:
    """Phase-1 ranks of the owners ``owner_ids`` for repetition ``rep_seed``.

    ``counts[i]`` ranks in ``[1, m**2]`` from owner ``i``'s stream, owner
    by owner — the order of the owned half-edges — bit-identical to the
    reference engine's per-node draws.
    """
    streams = RankStreams(int(rep_seed) & 0x7FFFFFFF, owner_ids, jumps)
    return streams.draw(counts, 1, m * m + 1)


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
        self._vertex_list: List[int] = list(range(g.n))
        indptr, indices = g.to_csr()
        self._indptr = indptr
        self._indices = indices
        degrees = np.diff(indptr)
        self._degrees = degrees
        # Non-isolated vertices and where their CSR segments start: the
        # segment minima below skip the empty segments of isolated ones.
        self._active = np.nonzero(degrees > 0)[0]
        self._seg_starts = indptr[:-1][self._active]
        # Half-edge arrays: one (src, dst) entry per directed adjacency.
        he_src = np.repeat(np.arange(g.n, dtype=np.int64), degrees)
        self._he_src = he_src
        self._he_dst = indices
        src_id = ids[he_src]
        dst_id = ids[indices]
        a = np.minimum(src_id, dst_id)
        b = np.maximum(src_id, dst_id)
        # Canonical edge index per half-edge (IDs fit 32 bits: pack
        # exactly); indices ascend in (a, b) order, the tag tie-break.
        packed = (a.astype(np.uint64) << np.uint64(32)) | b.astype(np.uint64)
        uniq, edge_of_he = np.unique(packed, return_inverse=True)
        if len(uniq) != g.m:  # pragma: no cover - Graph guarantees simple
            raise CongestError("inconsistent edge count in CSR compile")
        self._edge_of_he = edge_of_he
        self._edge_a = (uniq >> np.uint64(32)).astype(np.int64)
        self._edge_b = (uniq & np.uint64(0xFFFFFFFF)).astype(np.int64)
        # Owned half-edges (src ID < dst ID), in the reference draw order:
        # by owner vertex, then ascending neighbour ID.
        owned = np.nonzero(src_id < dst_id)[0]
        owned = owned[np.lexsort((dst_id[owned], he_src[owned]))]
        self._owned_edge = edge_of_he[owned]
        owners, counts = np.unique(he_src[owned], return_counts=True)
        self._owners = owners
        self._owner_counts = counts
        # PCG64 jump-ahead coefficients for the busiest owner's draws.
        self._jumps = JumpTable.for_draws(
            int(counts.max()) if len(counts) else 0, 1, g.m * g.m + 1
        )
        # Rank outboxes insert in ascending neighbour-ID order, so the
        # first round-1 delivery is the first owner's smallest owned ID.
        self._rank_max_edge = (
            (self._id_list[int(owners[0])], int(dst_id[owned[0]]))
            if len(owners) else None
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
        self._budget = model.budget_bits(g.n)

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
                self._active, self._seg_starts, self._he_src, self._he_dst,
                self._edge_of_he, self._edge_a, self._edge_b,
                self._owned_edge, self._owners, self._owner_counts,
                self._jumps.coeffs,
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
    # Tester kernels: integer tags, CSR message slots
    # ------------------------------------------------------------------
    def _draw_edge_ranks(self, rep_seed: int) -> np.ndarray:
        """Per-edge Phase-1 ranks of one repetition, bit-identical to the
        reference draws."""
        m = self._net.graph.m
        edge_rank = np.empty(m, dtype=np.int64)
        edge_rank[self._owned_edge] = draw_owner_ranks(
            self._ids[self._owners], self._owner_counts, rep_seed, m, self._jumps
        )
        return edge_rank

    def _segment_min(self, he_values: np.ndarray, none: int) -> np.ndarray:
        """Per-vertex minimum of a half-edge array (``none`` for isolated
        vertices)."""
        out = np.full(len(self._degrees), none, dtype=np.int64)
        out[self._active] = np.minimum.reduceat(he_values, self._seg_starts)
        return out

    def _priority_rule(
        self, tag: np.ndarray, count: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """The §3.1 rule for every node at once.

        ``tag`` holds each node's tag priority (``m``: none) and ``count``
        how many sequences it sent last round, under that tag.  Returns
        the winning tags — the minimum of the node's own and its sending
        neighbours' — and the half-edges (grouped by ascending receiver)
        whose sender's tag wins at the receiver: the deliveries that
        survive the rule.
        """
        none = len(self._edge_a)
        sent = count[self._he_dst] > 0
        sent_tag = np.where(sent, tag[self._he_dst], none)
        best = np.minimum(tag, self._segment_min(sent_tag, none))
        return best, np.nonzero(sent & (sent_tag == best[self._he_src]))[0]

    def _gather(
        self, start: np.ndarray, count: np.ndarray, he: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Deliver the slot rows of the senders on half-edges ``he``:
        ``(receiver, slot row)`` per delivered sequence, in ``he`` order."""
        senders = self._he_dst[he]
        c = count[senders]
        offset = start[senders] - (np.cumsum(c) - c)  # slot row - output index
        rows = np.arange(c.sum()) + np.repeat(offset, c)
        return np.repeat(self._he_src[he], c), rows

    def _starts_at_endpoints(
        self, owner: np.ndarray, first: np.ndarray, tag: np.ndarray, order: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Per node: does some row it owns start at endpoint ``a`` /
        endpoint ``b`` of its tag's edge?  ``first`` holds each row's
        first ID and ``order`` maps a tag priority to its edge index."""
        n = len(self._degrees)
        edge = order[tag[owner]]
        at_a = np.bincount(owner[first == self._edge_a[edge]], minlength=n) > 0
        at_b = np.bincount(owner[first == self._edge_b[edge]], minlength=n) > 0
        return at_a, at_b

    def _audit_sends(
        self, stats: RoundStats, round_index: int, count: np.ndarray, seq_len: int
    ) -> None:
        """Aggregate-audit a round whose node ``v`` broadcast ``count[v]``
        tagged sequences of ``seq_len`` IDs."""
        senders = np.nonzero(count)[0]
        lens = count[senders]
        self._record_broadcasts(
            stats,
            round_index,
            senders,
            self._bits_tagged_overhead + lens * self._seq_bits(seq_len),
            lens,
        )

    # ------------------------------------------------------------------
    # Engine entry points
    # ------------------------------------------------------------------
    def run_tester_repetition(
        self, k: int, rep_seed: int, *, pruner=None
    ) -> RunResult:
        """One tester repetition, batched: vectorized rank draws, integer
        tags and CSR message slots; per-node sequence work only where the
        pruner or the decision needs it.  Verdict-identical to the
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
        n, m = g.n, g.m
        ids = self._id_list
        trace = ExecutionTrace(n=n, m=m, size_model=self._size_model)
        accept = DetectionOutcome(rejects=False)
        outputs = dict.fromkeys(self._vertex_list, accept)
        if m == 0:
            # Edgeless network: every node is silent and accepts (same as
            # the reference scheduler running the programs to completion).
            for r in range(1, protocol_rounds(k) + 1):
                self._begin_round(trace, r)
            return RunResult(outputs, trace)

        # Round 1 — every owned edge's rank crosses the edge (one message).
        stats = self._begin_round(trace, 1)
        with prof.phase("rank_draws"):
            edge_rank = self._draw_edge_ranks(rep_seed)
        bits = self._bits_rank_msg
        stats.messages = m
        stats.total_bits = bits * m
        stats.max_message_bits = bits
        stats.max_edge = self._rank_max_edge
        if self._strict and bits > self._budget:
            raise BandwidthExceededError(1, stats.max_edge, bits, self._budget)

        # Round 2 — minimum selection; every non-isolated node broadcasts
        # its seed sequence under its chosen tag.  Priority p orders edges
        # as (rank, a, b) does: the stable sort breaks rank ties by edge
        # index, i.e. by (a, b).
        stats = self._begin_round(trace, 2)
        with prof.phase("min_select"):
            order = np.argsort(edge_rank, kind="stable")
            priority = np.empty(m, dtype=np.int64)
            priority[order] = np.arange(m)
            tag = self._segment_min(priority[self._edge_of_he], m)
        # Message slots: node owner[i] sent row i of seqs; owner ascends,
        # so node v's count[v] rows start at row start[v].
        owner = self._active
        seqs = self._ids[owner][:, None]
        count = np.bincount(owner, minlength=n)
        start = np.cumsum(count) - count
        with prof.phase("audit_fold"):
            self._audit_sends(stats, 2, count, 1)

        # The round-2 send of the default pruner has a closed form: the
        # received sequences are singleton seeds (none containing the
        # receiving ID), and HittingSetPruner keeps exactly the first
        # k-1 of them in sorted order (the residues are disjoint
        # singletons, so the q = k-2 hitting-set test passes while at
        # most k-2 sequences are kept).
        seed_shortcut = type(pruner) is HittingSetPruner

        # Rounds 3..1+⌊k/2⌋ — prioritized multiplexed Phase 2.
        for t in range(2, k // 2 + 1):
            stats = self._begin_round(trace, t + 1)
            with prof.phase("priority_mux"):
                tag, kept = self._priority_rule(tag, count)
                recv_v, rows = self._gather(start, count, kept)
            with prof.phase("round_apply"):
                if t == 2 and seed_shortcut:
                    first = seqs[rows, 0]
                    by = np.lexsort((first, recv_v))
                    recv_v, first = recv_v[by], first[by]
                    rank = np.arange(len(by)) - np.searchsorted(recv_v, recv_v)
                    keep = rank < k - 1
                    owner = recv_v[keep]
                    seqs = np.column_stack((first[keep], self._ids[owner]))
                else:
                    received = list(map(tuple, seqs[rows].tolist()))
                    receivers, lo = np.unique(recv_v, return_index=True)
                    bounds = lo.tolist() + [len(received)]
                    owner, sent = [], []
                    for i, v in enumerate(receivers.tolist()):
                        send = process_phase2_round(
                            ids[v],
                            sort_sequences(received[bounds[i]: bounds[i + 1]]),
                            k, t, pruner,
                        )
                        owner += [v] * len(send)
                        sent += send
                    owner = np.asarray(owner, dtype=np.int64)
                    seqs = np.array(sent, dtype=np.int64).reshape(-1, t)
                count = np.bincount(owner, minlength=n)
                start = np.cumsum(count) - count
            with prof.phase("audit_fold"):
                self._audit_sends(stats, t + 1, count, t)

        # Final decision (no further communication round).  A pair of
        # sequences reaching k distinct IDs is disjoint, so (Lemma 1) its
        # members start at different endpoints of the winning tag's edge:
        # for odd k both are received, for even k one is the node's own
        # last send (kept only if its tag did not change).
        with prof.phase("priority_mux"):
            best, kept = self._priority_rule(tag, count)
            recv_v, rows = self._gather(start, count, kept)
        with prof.phase("decision"):
            recv_a, recv_b = self._starts_at_endpoints(
                recv_v, seqs[rows, 0], best, order
            )
            fresh = tag == best
            if k % 2:
                candidates = recv_a & recv_b
            else:
                own_a, own_b = self._starts_at_endpoints(
                    owner, seqs[:, 0], tag, order
                )
                candidates = fresh & ((own_a & recv_b) | (own_b & recv_a))
            cand = np.nonzero(candidates)[0]
            lo = np.searchsorted(recv_v, cand).tolist()
            hi = np.searchsorted(recv_v, cand, side="right").tolist()
            for i, v in enumerate(cand.tolist()):
                received = sort_sequences(map(tuple, seqs[rows[lo[i]: hi[i]]].tolist()))
                own = (
                    list(map(tuple, seqs[start[v]: start[v] + count[v]].tolist()))
                    if fresh[v] else []
                )
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
