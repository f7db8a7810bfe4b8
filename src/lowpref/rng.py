"""Deterministic, splittable random streams.

Every stochastic routine in the package derives its generator from a base
seed plus a tuple of labels (strings or integers).  Distinct label tuples
give statistically independent streams, so parallel callers never share
state and adding a new consumer never perturbs existing draws.  String
labels are hashed with SHA-256 rather than ``hash()`` so derivations are
stable across processes.

``substream(*parts)`` is ``np.random.default_rng(derive_seed(*parts))``, the
scalar reference.  Per-pair callers draw whole batches with numpy's
arithmetic reproduced bit for bit on arrays: ``derive_seeds`` is
``SeedSequence`` on ``uint32`` words, which wrap mod 2**32 as numpy's do,
with each label part kept at its own shape so that a prefix such as an
(R, 1) seed column is hashed on R lanes; ``uniforms``, ``normals`` and
``integers`` give ``default_rng(seed).random(count)``, ``.normal(0.0, std)``
and ``.integers(size)`` per seed from PCG64's 128-bit LCG as ``uint64``
(hi, lo) halves stepped in place, numpy's ziggurat tables and its Lemire
draw.  A stream numpy would not draw from its first output alone draws
through one ``Generator`` per call, set to the stream's seeded state.
Below ``LANE_MIN_STREAMS`` streams, numpy seeds and draws each.
"""

from __future__ import annotations

import functools
import hashlib
import math
from itertools import accumulate

import numpy as np

# Seeding a batch and drawing its first output costs ~0.15 ms through the
# arrays and ~0.014 ms a stream through numpy (2-CPU VM), so the draws meet
# at 10 to 12 streams (``derive_seeds`` alone at about 4); a position that
# ``uniforms`` steps costs ~25 us, two streams, so it also wants four per position.
LANE_MIN_STREAMS = 12
# Streams stepped at a time: a PCG64 step holds eight uint64 arrays this long.
LANE_BLOCK_STREAMS = 1 << 13

_U64 = (1 << 64) - 1

# numpy's SeedSequence constants (numpy/random/bit_generator.pyx), as uint32
# scalars: uint32 arrays wrap mod 2**32 as SeedSequence's words do.
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_OTHER_ROWS = [np.array([dst for dst in range(_POOL) if dst != src]) for src in range(_POOL)]
_MIX_L, _MIX_R, _X16 = np.uint32(0xCA01F9DD), np.uint32(0x4973F715), np.uint32(16)
# PCG64's LCG multiplier (PCG_DEFAULT_MULTIPLIER_128), its inverse, its
# 64-bit halves and the 32-bit limbs of its low half.
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_PCG_MULT_INV = pow(_PCG_MULT, -1, 1 << 128)
_MUL_HI, _MUL_LO = np.uint64(_PCG_MULT >> 64), np.uint64(_PCG_MULT & _U64)
_MUL_LO0, _MUL_LO1 = np.uint64(_PCG_MULT & 0xFFFFFFFF), np.uint64(_PCG_MULT >> 32 & 0xFFFFFFFF)
# Shifts and masks are uint64 scalars: numpy 1.x promotes uint64 with a
# signed integer to float64.
_M8, _M32, _M52 = (np.uint64((1 << bits) - 1) for bits in (8, 32, 52))
_S1, _S8, _S9, _S11, _S32, _S58, _S63 = map(np.uint64, (1, 8, 9, 11, 32, 58, 63))


def _label_int(part) -> int:
    if isinstance(part, (int, np.integer)):
        return int(part) & _U64
    if isinstance(part, str):
        digest = hashlib.sha256(part.encode("utf-8")).digest()
        return int.from_bytes(digest[:8], "little")
    raise TypeError(f"seed label must be int or str, got {type(part).__name__}")


def derive_seed(*parts) -> int:
    """Collapse (seed, label, ...) into a single 64-bit stream seed."""
    entropy = [_label_int(p) for p in parts]
    return int(np.random.SeedSequence(entropy).generate_state(1, np.uint64)[0])


def substream(*parts) -> np.random.Generator:
    """A fresh generator for the stream identified by the label tuple."""
    return np.random.default_rng(derive_seed(*parts))


@functools.cache
def _hash_consts(init: int, mult: int, calls: int, ndim: int) -> np.ndarray:
    """The first ``calls + 1`` hash constants from ``init``, read-only
    ``uint32`` of shape (calls + 1, 1, ..., 1) with ``ndim`` unit axes."""
    consts = accumulate(range(calls), lambda c, _: c * mult & 0xFFFFFFFF, initial=init)
    array = np.array(list(consts), dtype=np.uint32).reshape((-1,) + (1,) * ndim)
    array.flags.writeable = False
    return array


def _hashmix(values: np.ndarray, consts: np.ndarray) -> np.ndarray:
    """numpy's ``hashmix`` on the rows of ``values``, row r xoring
    ``consts[r]`` and multiplying by ``consts[r + 1]``; a fresh array."""
    values = values ^ consts[:-1]
    values *= consts[1:]
    values ^= values >> _X16
    return values


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """numpy's ``mix``; a fresh array of the broadcast shape."""
    result = x * _MIX_L - y * _MIX_R
    return result ^ result >> _X16


def _seed_sequence(entropy: list[np.ndarray], n_words: int) -> np.ndarray:
    """``SeedSequence(e).generate_state(n_words, uint32)`` per lane of the
    broadcastable ``uint32`` word arrays ``entropy`` (one ndim).  The pool
    starts on the lanes of the first four words and grows by broadcasting as
    later words mix in; a source row's three hashmix calls in the mix loop
    hash one value, so they are one step."""
    ndim = entropy[0].ndim
    consts = _hash_consts(_INIT_A, _MULT_A, _POOL * max(len(entropy), _POOL), ndim)
    pool = np.zeros((_POOL,) + np.broadcast(*entropy[:_POOL]).shape, dtype=np.uint32)
    for row, word in enumerate(entropy[:_POOL]):
        pool[row] = word
    pool = _hashmix(pool, consts[: _POOL + 1])
    for src, dst in enumerate(_OTHER_ROWS):
        call = _POOL + (_POOL - 1) * src
        pool[dst] = _mix(pool[dst], _hashmix(pool[src : src + 1], consts[call : call + _POOL]))
    for call, word in enumerate(entropy[_POOL:], start=_POOL):
        pool = _mix(pool, _hashmix(word[None], consts[_POOL * call : _POOL * call + _POOL + 1]))
    return _hashmix(pool[np.arange(n_words) % _POOL], _hash_consts(_INIT_B, _MULT_B, n_words, ndim))


def _seed_words(parts: list[np.ndarray], n_words: int) -> np.ndarray:
    """``SeedSequence([p[lane] for p in parts]).generate_state(n_words // 2,
    uint64)`` per lane of the broadcastable ``uint64`` arrays ``parts`` (one
    ndim).  A value below 2**32 (0 included) is one entropy word, a larger
    one two (low word first); where a part's values differ in word count,
    the broadcast lanes are split by it and each side is hashed on its own."""
    entropy = []
    for part in parts:
        high = part >> _S32
        wide = np.count_nonzero(high)
        if 0 < wide < high.size:
            shape = np.broadcast_shapes(*(p.shape for p in parts))
            columns = [np.broadcast_to(p, shape).ravel() for p in parts]
            split = np.broadcast_to(high != 0, shape).ravel()
            out = np.empty((n_words // 2, split.size), dtype=np.uint64)
            for side in (split, ~split):
                out[:, side] = _seed_words([column[side] for column in columns], n_words)
            return out.reshape((n_words // 2,) + shape)
        entropy.append(part.astype(np.uint32))
        if wide:
            entropy.append(high.astype(np.uint32))
    words = _seed_sequence(entropy, n_words)
    seeds = words[1::2].astype(np.uint64)
    seeds <<= _S32
    seeds |= words[0::2]
    return seeds


def _part_array(part) -> np.ndarray:
    if isinstance(part, (str, int, np.integer)):
        return np.uint64(_label_int(part))
    array = np.asarray(part)
    if array.dtype.kind not in "iu":
        raise TypeError(f"seed label arrays must be integer, got dtype {array.dtype}")
    # The cast wraps negative values to their two's complement, as
    # ``_label_int`` masks them.
    return array.astype(np.uint64)


def derive_seeds(*parts) -> np.ndarray:
    """``derive_seed`` element by element over integer-array parts.

    Each part is a string, an integer or an integer array; the parts
    broadcast against each other, and the result is a ``uint64`` array of
    the broadcast shape whose every element equals ``derive_seed`` of the
    corresponding scalars.  Each part keeps its own shape, so the words of
    an (R, 1) seed column are hashed on R lanes, not on every stream.
    """
    arrays = [_part_array(p) for p in parts]
    shape = np.broadcast_shapes(*(a.shape for a in arrays))
    size = math.prod(shape)
    if not size:
        return np.empty(shape, dtype=np.uint64)
    if size < LANE_MIN_STREAMS:
        columns = zip(*(np.broadcast_to(a, shape).ravel().tolist() for a in arrays))
        return np.array([derive_seed(*column) for column in columns],
                        dtype=np.uint64).reshape(shape)
    ndim = len(shape)
    return _seed_words([a.reshape((1,) * (ndim - a.ndim) + a.shape) for a in arrays], 2)[0]


def _pcg_step(hi, lo, inc_hi, inc_lo, scratch) -> None:
    """PCG64's LCG step ``state·M + inc mod 2**128`` on (hi, lo) halves, in
    place, with a (5, N) ``uint64`` scratch array.  The high word of lo·M_lo
    is Hacker's Delight ``mulhu`` on 32-bit limbs."""
    lo0, lo1, t, u, carry = scratch
    np.bitwise_and(lo, _M32, out=lo0)
    np.right_shift(lo, _S32, out=lo1)
    np.multiply(lo0, _MUL_LO0, out=t)
    t >>= _S32
    np.multiply(lo1, _MUL_LO0, out=u)
    u += t
    np.bitwise_and(u, _M32, out=t)
    lo0 *= _MUL_LO1
    lo0 += t
    lo0 >>= _S32
    u >>= _S32
    lo1 *= _MUL_LO1
    np.multiply(lo, _MUL_HI, out=t)
    hi *= _MUL_LO
    for term in (lo1, u, lo0, t, inc_hi):
        hi += term
    lo *= _MUL_LO
    lo += inc_lo
    np.less(lo, inc_lo, out=carry)
    hi += carry


def _seeded(seeds: np.ndarray):
    """PCG64's (hi, lo, inc_hi, inc_lo) in ``default_rng(seed)`` per seed: from
    ``SeedSequence(seed)``'s words w0..w3, inc = 2·(w2·2**64 + w3) + 1 and the
    state is (inc + w0·2**64 + w1)·M + inc."""
    w0, w1, w2, w3 = _seed_words([seeds], 8)
    inc_hi, inc_lo = w2 << _S1 | w3 >> _S63, w3 << _S1 | _S1
    lo = w1 + inc_lo
    hi = w0 + inc_hi + (lo < inc_lo)
    _pcg_step(hi, lo, inc_hi, inc_lo, np.empty((5, len(seeds)), dtype=np.uint64))
    return hi, lo, inc_hi, inc_lo


def _outputs(hi, lo, inc_hi, inc_lo):
    """PCG64's outputs from the states (hi, lo), one array per position: XSL-RR
    of a step.  Copies of ``hi`` and ``lo`` are stepped in place, and each
    yielded array is overwritten by the next step."""
    hi, lo = hi.copy(), lo.copy()
    scratch = np.empty((5, len(hi)), dtype=np.uint64)
    shifted, _, word, rot, _ = scratch
    while True:
        _pcg_step(hi, lo, inc_hi, inc_lo, scratch)
        np.bitwise_xor(hi, lo, out=word)
        np.right_shift(hi, _S58, out=rot)
        np.right_shift(word, rot, out=shifted)
        np.negative(rot, out=rot)
        rot &= _S63
        word <<= rot
        word |= shifted
        yield word


def _off_lane(state, streams: np.ndarray, draw, args: np.ndarray) -> list:
    """``draw(generator, arg)`` for each of the ``streams`` of the seeded
    PCG64 ``state``, from one numpy Generator set to each stream's state in
    turn: what ``default_rng(seed)`` would draw."""
    if not streams.size:
        return []
    bits = np.random.PCG64(0)
    generator = np.random.Generator(bits)
    draws = []
    for hi, lo, inc_hi, inc_lo, arg in zip(*(half[streams].tolist() for half in state),
                                            args.tolist()):
        bits.state = {"bit_generator": "PCG64", "has_uint32": 0, "uinteger": 0,
                      "state": {"state": hi << 64 | lo, "inc": inc_hi << 64 | inc_lo}}
        draws.append(draw(generator, arg))
    return draws


def uniforms(seeds: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """``np.random.default_rng(seed).random(count)`` for each seed and count
    of a ``uint64`` and an integer array of one length, concatenated."""
    out, starts = np.empty(int(counts.sum())), np.cumsum(counts) - counts
    if len(seeds) < max(LANE_MIN_STREAMS, 4 * int(counts.max(initial=0))):
        for seed, count, start in zip(seeds.tolist(), counts.tolist(), starts.tolist()):
            np.random.default_rng(seed).random(out=out[start : start + count])
        return out
    for lo in range(0, len(seeds), LANE_BLOCK_STREAMS):
        block = slice(lo, lo + LANE_BLOCK_STREAMS)
        for t, words in zip(range(int(counts[block].max())), _outputs(*_seeded(seeds[block]))):
            live = counts[block] > t
            out[starts[block][live] + t] = (words[live] >> _S11) * 2.0**-53
    return out


def normals(seeds: np.ndarray, stds: np.ndarray) -> np.ndarray:
    """``np.random.default_rng(seed).normal(0.0, std)`` for each seed and std
    of a ``uint64`` and a float array of one length."""
    if len(seeds) < LANE_MIN_STREAMS:
        return np.array([np.random.default_rng(seed).normal(0.0, std)
                         for seed, std in zip(seeds.tolist(), stds.tolist())], dtype=float)
    wi, ki = _ziggurat()
    state = _seeded(seeds)
    r = next(_outputs(*state))
    idx, rabs = (r & _M8).astype(np.intp), r >> _S9 & _M52
    x = rabs * wi[idx]
    np.negative(x, out=x, where=(r >> _S8 & _S1) == 1)
    # numpy returns ``loc + scale·z``; adding 0.0 turns -0.0 into 0.0 as it does.
    out = 0.0 + stds * x
    slow = np.flatnonzero(rabs >= ki[idx])
    out[slow] = _off_lane(state, slow, lambda g, std: g.normal(0.0, std), stds[slow])
    return out


def integers(seeds: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """``np.random.default_rng(seed).integers(size)`` per seed and size in [1, 2**32]: numpy's
    Lemire draw is the high word of (first output mod 2**32)·size unless its low word is
    below (2**32 − size) % size, which numpy rejects; those streams draw off the lanes."""
    if len(seeds) < LANE_MIN_STREAMS:
        return np.array([np.random.default_rng(seed).integers(size)
                         for seed, size in zip(seeds.tolist(), sizes.tolist())], dtype=np.int64)
    state = _seeded(seeds)
    m = (next(_outputs(*state)) & _M32) * sizes.astype(np.uint64)
    out = (m >> _S32).astype(np.int64)
    slow = np.flatnonzero((m & _M32) < (2**32 - sizes) % sizes)
    out[slow] = _off_lane(state, slow, lambda g, size: g.integers(size), sizes[slow])
    return out


@functools.cache
def _ziggurat() -> tuple[np.ndarray, np.ndarray]:
    """numpy's ziggurat tables (wi, ki), read from the installed numpy.

    A draw whose first output is ``rabs << 9 | sign << 8 | idx`` is
    ``±rabs·wi[idx]`` from that output alone iff ``rabs < ki[idx]``.  ``ki``
    is ``floor(2**52·wi[idx-1]/wi[idx])`` where a probe one below confirms
    it, else bisected (idx 0 and 1 always): never above numpy's, and a lower
    ``ki`` only sends more streams to their own generator.
    """
    bits = np.random.PCG64(0)
    generator = np.random.Generator(bits)
    def probe(rabs: int, idx: int) -> tuple[float, bool]:
        # With inc = 1 a state below 2**64 outputs itself, unrotated.
        word = rabs << 9 | idx
        start = (word - 1) * _PCG_MULT_INV % (1 << 128)
        bits.state = {"bit_generator": "PCG64", "state": {"state": start, "inc": 1},
                      "has_uint32": 0, "uinteger": 0}
        return generator.standard_normal(), bits.state["state"]["state"] == word

    wi = [probe(1, idx)[0] for idx in range(256)]
    ki = []
    for idx in range(256):
        lo, hi = 0, 1 << 52
        if idx > 1:
            (n1, d1), (n2, d2) = wi[idx - 1].as_integer_ratio(), wi[idx].as_integer_ratio()
            guess = min((n1 * d2 << 52) // (d1 * n2), hi)
            if guess and probe(guess - 1, idx)[1]:
                lo = hi = guess
        while lo < hi:
            mid = (lo + hi) // 2
            lo, hi = (mid + 1, hi) if probe(mid, idx)[1] else (lo, mid)
        ki.append(lo)
    wi, ki = np.array(wi), np.array(ki, dtype=np.uint64)
    wi.flags.writeable = ki.flags.writeable = False
    return wi, ki
