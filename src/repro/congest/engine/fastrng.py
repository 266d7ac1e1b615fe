"""Vectorized replication of numpy's per-node random streams.

The reference engine gives every node its own
``np.random.default_rng(SeedSequence((rep_seed, my_id)))`` and draws one
bounded integer per owned edge (``Generator.integers(1, m**2 + 1)``).
Constructing *n* Generator objects per repetition costs tens of
milliseconds at n = 2000 — more than the fast engine's entire round
budget.  This module re-implements the exact same pipeline as batched
numpy array operations over all nodes at once:

1. **SeedSequence hashing** — O'Neill's ``seed_seq`` entropy-pool mix
   (the algorithm behind :class:`numpy.random.SeedSequence`), vectorized
   across nodes.  The hash-constant schedule is data-independent, so the
   per-step multipliers are scalars and the pool updates are plain
   uint32 array arithmetic.
2. **PCG64 initialization** — the 128-bit LCG state is kept as a
   (high, low) pair of uint64 words; a 128-bit product splits the low
   words into 32-bit halves, and the cross terms wrap into the high word.
3. **Bounded draws by jump-ahead** — ``s`` LCG steps map a state ``x``
   to ``A_s * x + B_s * inc`` (mod 2**128), where ``A_s = MULT**s`` and
   ``B_s`` is the geometric sum of the lower powers.  With the
   ``(A_s, B_s)`` coefficients tabulated once (:class:`JumpTable`),
   every step of every stream is computed in one array pass, not one
   pass per step.  The XSL-RR outputs then go through numpy's
   ``Generator.integers`` bounded paths all at once: Lemire rejection
   (on buffered 32-bit halves, low half first as in ``pcg64_next32``,
   below 2**32; on 64-bit words above), the full-range raw words, and
   the zero-width range, which consumes nothing.  The first pass
   generates exactly the words a rejection-free draw needs; only
   streams left short by rejections get top-up passes, each continuing
   from that stream's last step.

Every path is asserted bit-identical to numpy in
``tests/test_engines.py`` (``TestFastRngExactness``); the fast engine's
verdict-equivalence guarantee rests on this module.

Scope: entropy values must fit in one 32-bit word (node IDs < 2**32 and
the masked repetition seed, which is always < 2**31).  Callers fall back
to per-node Generators outside that range.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

__all__ = ["JumpTable", "RankStreams", "MAX_UINT32_ENTROPY"]

# --- SeedSequence constants (O'Neill seed_seq / numpy bit_generator) ---
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = np.uint64(0xCA01F9DD)
_MIX_MULT_R = np.uint64(0x4973F715)
_XSHIFT = np.uint64(16)
_POOL_SIZE = 4
_U32 = np.uint64(0xFFFFFFFF)
_S32 = np.uint64(32)
_MASK64 = (1 << 64) - 1

# --- PCG64 constants ---
#: PCG_DEFAULT_MULTIPLIER_128.
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MOD128 = 1 << 128

MAX_UINT32_ENTROPY = 1 << 32


def _hash_schedule(init: int, mult: int, count: int) -> np.ndarray:
    """seed_seq's data-independent hash constants: ``(2, count, 1)`` rows
    of the constant each hash XORs in and the one it then multiplies by
    (the constant is advanced in between)."""
    xors, mults = [], []
    c = init
    for _ in range(count):
        xors.append(c)
        c = (c * mult) & 0xFFFFFFFF
        mults.append(c)
    return np.array([xors, mults], dtype=np.uint64)[:, :, None]


#: The hashmix constants of the entropy pool: four to fill it, then three
#: per source word while mixing.  Four pool words make eight output words.
_POOL_HASH = _hash_schedule(_INIT_A, _MULT_A, _POOL_SIZE * _POOL_SIZE)
_STATE_HASH = _hash_schedule(_INIT_B, _MULT_B, 2 * _POOL_SIZE)


def _u32_arr(x) -> np.ndarray:
    return np.asarray(x, dtype=np.uint64) & _U32


def _hash(value: np.ndarray, schedule: np.ndarray) -> np.ndarray:
    """seed_seq's hash of each row of ``value`` under its own constants:
    ``value ^= c; c *= MULT; value *= c; value ^= value >> 16``."""
    value = ((value ^ schedule[0]) * schedule[1]) & _U32
    return value ^ (value >> _XSHIFT)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    res = ((x * _MIX_MULT_L) - (y * _MIX_MULT_R)) & _U32
    res ^= res >> _XSHIFT
    return res


def _seed_pools(seed_word, ids: np.ndarray) -> np.ndarray:
    """Entropy pools of ``SeedSequence((seed_word, id))`` for every id.

    ``seed_word`` is either one shared first entropy word or an array of
    per-stream words (one per id) — the latter is how the engines stack
    several repetitions' streams into one batch.  Returns
    a ``(4, n)`` uint64 array of 32-bit pool words.
    """
    entropy = np.zeros((_POOL_SIZE, len(ids)), dtype=np.uint64)
    entropy[0] = _u32_arr(seed_word)
    entropy[1] = _u32_arr(ids)
    pool = _hash(entropy, _POOL_HASH[:, :_POOL_SIZE])
    # Mixing in one source word never changes that word, so its three
    # destinations are hashed and mixed together.
    for i_src in range(_POOL_SIZE):
        k = _POOL_SIZE + 3 * i_src
        dst = [i for i in range(_POOL_SIZE) if i != i_src]
        pool[dst] = _mix(pool[dst], _hash(pool[i_src], _POOL_HASH[:, k : k + 3]))
    # entropy fits inside the pool (2 words <= 4): no tail loop needed.
    return pool


def _generate_state_words(pool: np.ndarray) -> np.ndarray:
    """``SeedSequence.generate_state(4, np.uint64)`` for all pools.

    Returns ``(4, n)`` uint64: row *j* holds every stream's word *j*.
    """
    out32 = _hash(np.tile(pool, (2, 1)), _STATE_HASH)
    # uint32 pairs viewed as uint64, little-endian: low word first.
    return out32[0::2] | (out32[1::2] << _S32)


# ---------------------------------------------------------------------------
# PCG64 as 64-bit word pairs
# ---------------------------------------------------------------------------
# A 128-bit value is a (high, low) pair of uint64 words; arrays of values
# are (2, ...) uint64 with row 0 the high words and row 1 the low words.
def _pair(value: int) -> np.ndarray:
    """A 128-bit integer as a ``(2, 1)`` word column (broadcasts)."""
    return np.array([[value >> 64], [value & _MASK64]], dtype=np.uint64)


def _mul64(u: np.ndarray, v_hi, v_lo) -> Tuple[np.ndarray, np.ndarray]:
    """High and low words of the 128-bit product ``u * v``, with ``v``
    given as 32-bit halves (``v_hi`` may be 2**32, so ``v <= 2**64``)."""
    u_hi = u >> _S32
    u_lo = u & _U32
    p0 = u_lo * v_lo
    p1 = u_lo * v_hi
    p2 = u_hi * v_lo
    mid = (p0 >> _S32) + (p1 & _U32) + (p2 & _U32)
    high = u_hi * v_hi + (p1 >> _S32) + (p2 >> _S32) + (mid >> _S32)
    return high, (p0 & _U32) | (mid << _S32)


def _mul128(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """``x * y mod 2**128`` for broadcastable ``(2, ...)`` word pairs."""
    high, low = _mul64(x[1], y[1] >> _S32, y[1] & _U32)
    # The cross terms only reach the high word (mod 2**64).
    return np.stack((high + x[0] * y[1] + x[1] * y[0], low))


def _add128(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """``x + y mod 2**128`` for broadcastable ``(2, ...)`` word pairs."""
    low = x[1] + y[1]
    return np.stack((x[0] + y[0] + (low < y[1]), low))


def _xsl_rr(st: np.ndarray) -> np.ndarray:
    """PCG64's XSL-RR output of ``(2, n)`` states: one uint64 each."""
    x = st[0] ^ st[1]
    rot = st[0] >> np.uint64(58)  # top 6 bits of the 128-bit state
    return (x >> rot) | (x << ((np.uint64(64) - rot) & np.uint64(63)))


def _values_per_word(rng: int) -> int:
    """Bounded values one PCG64 step yields for inclusive width ``rng``:
    two buffered 32-bit halves below 2**32, else one 64-bit word."""
    return 2 if rng <= 0xFFFFFFFF else 1


class JumpTable:
    """PCG64 jump-ahead coefficients for 1..``steps`` steps.

    ``s`` steps take an LCG state ``x`` to ``A_s * x + B_s * inc`` (mod
    2**128), with ``A_s = M**s`` and ``B_s = M**(s-1) + ... + M + 1``.
    ``coeffs[:, 0, s]`` and ``coeffs[:, 1, s]`` hold ``A_s`` and ``B_s``
    as word pairs.  The array is read-only, so one table can serve every
    draw of a compiled engine.
    """

    def __init__(self, steps: int) -> None:
        self.steps = max(int(steps), 1)
        a_s, b_s = [], []
        a, b = 1, 0
        for _ in range(self.steps + 1):
            a_s.append(a)
            b_s.append(b)
            a, b = (a * _PCG_MULT) % _MOD128, (b * _PCG_MULT + 1) % _MOD128
        self.coeffs = np.array(
            [
                [[v >> 64 for v in a_s], [v >> 64 for v in b_s]],
                [[v & _MASK64 for v in a_s], [v & _MASK64 for v in b_s]],
            ],
            dtype=np.uint64,
        )
        self.coeffs.setflags(write=False)

    @classmethod
    def for_draws(cls, count: int, low: int, high: int) -> "JumpTable":
        """The table covering ``count`` rejection-free draws of
        ``integers(low, high)`` from each stream in one pass."""
        return cls(-(-int(count) // _values_per_word(high - 1 - low)))


def _jump(x_inc: np.ndarray, steps: np.ndarray, jumps: JumpTable) -> np.ndarray:
    """The states after 1, 2, ..., ``steps[i]`` steps of every stream
    ``i``, stream by stream: ``(2, steps.sum())`` word pairs.  ``x_inc``
    stacks each stream's current state and increment, ``(2, 2, n)``."""
    seg = np.repeat(np.arange(len(steps)), steps)
    s = np.arange(len(seg)) - np.repeat(np.cumsum(steps) - steps - 1, steps)
    terms = _mul128(jumps.coeffs[:, :, s], x_inc[:, :, seg])
    return _add128(terms[:, 0], terms[:, 1])


class RankStreams:
    """Batched, bit-exact equivalents of per-node numpy Generators.

    Parameters
    ----------
    seed_word:
        The shared first entropy word (the tester uses
        ``rep_seed & 0x7FFFFFFF``), or an array of one word per stream,
        which runs several repetitions' streams side by side in one batch.
    ids:
        One CONGEST ID per stream; stream *i* replicates
        ``np.random.default_rng(np.random.SeedSequence((seed_word, ids[i])))``
        (with ``seed_word[i]`` in the per-stream-word form).
    jumps:
        The :class:`JumpTable` to step with.  Any length is exact; a table
        shorter than a draw needs only costs extra passes.
    """

    def __init__(self, seed_word, ids: np.ndarray, jumps: JumpTable) -> None:
        ids = np.asarray(ids, dtype=np.uint64)
        if ids.size and int(ids.max()) >= MAX_UINT32_ENTROPY:
            raise ValueError("RankStreams requires IDs < 2**32")
        words = _generate_state_words(_seed_pools(seed_word, ids))
        initstate = words[:2]  # (high, low) word pairs
        seq_hi, seq_lo = words[2], words[3]
        # pcg_setseq_128_srandom: inc = (initseq << 1) | 1;
        # state = ((0 * M + inc) + initstate) * M + inc.
        inc_hi = (seq_hi << np.uint64(1)) | (seq_lo >> np.uint64(63))
        inc = np.stack((inc_hi, (seq_lo << np.uint64(1)) | np.uint64(1)))
        state = _add128(_mul128(_pair(_PCG_MULT), _add128(inc, initstate)), inc)
        # Each stream's state and increment, stacked as _jump takes them.
        self._x_inc = np.stack((state, inc), axis=1)
        self._jumps = jumps

    def __len__(self) -> int:
        return self._x_inc.shape[2]

    def draw(self, counts, low: int, high: int) -> np.ndarray:
        """``counts[i]`` draws of ``Generator.integers(low, high)`` from
        every stream *i*, as one flat int64 array: stream 0's draws in
        order, then stream 1's, and so on.

        Bit-identical to that many successive calls on each stream's
        numpy Generator (the bounded int64 paths: Lemire rejection, with
        buffered 32-bit halves below 2**32).  A pure function of the
        seeded streams: calling it again draws the same values.
        """
        counts = np.asarray(counts, dtype=np.int64)
        if counts.shape != (len(self),):
            raise ValueError(f"need one count per stream ({len(self)})")
        rng = high - 1 - low  # inclusive range width, as in numpy
        if rng < 0:
            raise ValueError("high must exceed low")
        out = np.full(int(counts.sum()), low, dtype=np.int64)
        if rng == 0 or not len(out):
            return out  # a zero-width range consumes nothing
        per_word = _values_per_word(rng)
        excl = rng + 1
        # Lemire rejects a leftover below (2**bits - excl) % excl.
        threshold = np.uint64(((1 << (64 // per_word)) - excl) % excl)
        low_word = np.uint64(low % (1 << 64))
        x_inc = self._x_inc.copy()
        end = np.cumsum(counts)  # one past each stream's last output slot
        got = np.zeros_like(counts)
        pending = np.nonzero(counts)[0]
        while len(pending):
            # Exactly the steps a rejection-free draw needs; streams left
            # short by rejections continue from their last step next pass.
            want = counts[pending] - got[pending]
            steps = np.minimum(-(-want // per_word), self._jumps.steps)
            st = _jump(x_inc[:, :, pending], steps, self._jumps)
            x_inc[:, 0, pending] = st[:, np.cumsum(steps) - 1]
            words = _xsl_rr(st)
            if per_word == 2:
                # pcg64_next32: the low half first, then the buffered high.
                halves = np.stack((words & _U32, words >> _S32), axis=1).ravel()
                m = halves * np.uint64(excl)
                ok = (m & _U32) >= threshold
                value = m >> _S32
            else:
                value, leftover = _mul64(
                    words, np.uint64(excl >> 32), np.uint64(excl & 0xFFFFFFFF)
                )
                ok = leftover >= threshold
            # Output slot of each accepted value; past a stream's end, the
            # value belongs to a later draw and is dropped.
            nvals = steps * per_word
            seen = np.cumsum(ok)
            through = seen[np.cumsum(nvals) - 1]
            before = np.concatenate(([0], through[:-1]))
            start = end[pending] - counts[pending] + got[pending]
            slot = seen - 1 + np.repeat(start - before, nvals)
            keep = ok & (slot < np.repeat(end[pending], nvals))
            out[slot[keep]] = (value[keep] + low_word).view(np.int64)
            got[pending] += through - before
            pending = pending[got[pending] < counts[pending]]
        return out
