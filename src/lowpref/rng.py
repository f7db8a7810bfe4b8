"""Deterministic, splittable random streams.

Every stochastic routine in the package derives its generator from a base
seed plus a tuple of labels (strings or integers).  Distinct label tuples
give statistically independent streams, so parallel callers never share
state and adding a new consumer never perturbs existing draws.  String
labels are hashed with SHA-256 rather than ``hash()`` so derivations are
stable across processes.

``substream(*parts)`` is ``np.random.default_rng(derive_seed(*parts))``, the
scalar reference.  Per-pair callers draw whole batches with numpy's
arithmetic reproduced bit for bit on ``uint64`` arrays: ``derive_seeds`` is
``SeedSequence`` over integer-array labels; ``uniforms``, ``normals`` and
``integers`` give ``default_rng(seed).random(count)``, ``.normal(0.0, std)`` and
``.integers(size)`` per seed from PCG64's 128-bit LCG as (hi, lo) halves, numpy's
ziggurat tables and its Lemire draw.  Below ``LANE_MIN_STREAMS`` streams, numpy draws each.
"""

from __future__ import annotations

import functools
import hashlib
from itertools import accumulate

import numpy as np

# One stream costs ~0.6 ms through the arrays and ~0.05 ms through numpy
# (2-CPU VM), so the paths meet between 8 and 16 streams; a position that
# ``uniforms`` steps costs about two streams, so it also wants four per position.
LANE_MIN_STREAMS = 12
# Streams stepped at a time: a PCG64 step holds ~16 uint64 arrays this long.
LANE_BLOCK_STREAMS = 1 << 13

_U64 = (1 << 64) - 1

# numpy's SeedSequence constants (numpy/random/bit_generator.pyx).
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = np.uint64(0xCA01F9DD), np.uint64(0x4973F715)
# PCG64's LCG multiplier (PCG_DEFAULT_MULTIPLIER_128), its inverse, its
# 64-bit halves and the 32-bit limbs of its low half.
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_PCG_MULT_INV = pow(_PCG_MULT, -1, 1 << 128)
_MUL_HI, _MUL_LO = np.uint64(_PCG_MULT >> 64), np.uint64(_PCG_MULT & _U64)
_MUL_LO0, _MUL_LO1 = np.uint64(_PCG_MULT & 0xFFFFFFFF), np.uint64(_PCG_MULT >> 32 & 0xFFFFFFFF)
# Shifts and masks are uint64 scalars: numpy 1.x promotes uint64 with a
# signed integer to float64.
_M8, _M32, _M52 = (np.uint64((1 << bits) - 1) for bits in (8, 32, 52))
_S1, _S8, _S9, _S11, _S16, _S32, _S58, _S63 = map(np.uint64, (1, 8, 9, 11, 16, 32, 58, 63))


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


def _hash_consts(init: int, mult: int, calls: int) -> np.ndarray:
    consts = accumulate(range(calls), lambda c, _: c * mult & 0xFFFFFFFF, initial=init)
    return np.array(list(consts), dtype=np.uint64)[:, None]


def _hashmix(values: np.ndarray, consts: np.ndarray) -> np.ndarray:
    """numpy's ``hashmix``, call r xoring ``consts[r]`` and multiplying by
    ``consts[r + 1]``; a 32-bit word times a 32-bit constant fits in uint64."""
    values = (values ^ consts[:-1]) * consts[1:] & _M32
    return values ^ values >> _S16


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    # The uint64 subtraction wraps modulo 2**64, a multiple of 2**32.
    result = (x * _MIX_L & _M32) - (y * _MIX_R & _M32) & _M32
    return result ^ result >> _S16


def _seed_sequence(entropy: list[np.ndarray], n_words: int) -> np.ndarray:
    """``SeedSequence(e).generate_state(n_words, uint32)`` per column of the
    (N,) arrays of 32-bit words ``entropy``.  A source row's three hashmix
    calls in the pool's mix loop hash one value, so they are one step."""
    consts = _hash_consts(_INIT_A, _MULT_A, _POOL * max(len(entropy), _POOL))
    pool = np.zeros((_POOL, len(entropy[0])), dtype=np.uint64)
    pool[: len(entropy)] = entropy[:_POOL]
    pool = _hashmix(pool, consts[: _POOL + 1])
    for src in range(_POOL):
        dst, call = [d for d in range(_POOL) if d != src], _POOL + (_POOL - 1) * src
        pool[dst] = _mix(pool[dst], _hashmix(pool[src], consts[call : call + _POOL]))
    for call, word in enumerate(entropy[_POOL:], start=_POOL):
        pool = _mix(pool, _hashmix(word, consts[_POOL * call : _POOL * call + _POOL + 1]))
    return _hashmix(pool[np.arange(n_words) % _POOL], _hash_consts(_INIT_B, _MULT_B, n_words))


def _seed_words(values: np.ndarray, n_words: int) -> np.ndarray:
    """``SeedSequence(list(column)).generate_state(n_words // 2, uint64)`` for
    every column of the (P, N) ``uint64`` matrix ``values``, as an
    (n_words // 2, N) ``uint64`` matrix.

    A value below 2**32 (0 included) is one 32-bit entropy word, a larger
    one two (low word first).  Columns whose word layouts differ are split
    apart on the first row where they differ.
    """
    entropy = []
    for row in values:
        high = row >> _S32
        wide = high != 0
        if wide.any() and not wide.all():
            out = np.empty((n_words // 2, values.shape[1]), dtype=np.uint64)
            out[:, wide] = _seed_words(values[:, wide], n_words)
            out[:, ~wide] = _seed_words(values[:, ~wide], n_words)
            return out
        entropy.append(row & _M32)
        if wide[0]:
            entropy.append(high)
    words = _seed_sequence(entropy, n_words)
    return words[0::2] | words[1::2] << _S32


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
    corresponding scalars.
    """
    arrays = np.broadcast_arrays(*(_part_array(p) for p in parts))
    values = np.stack(arrays).reshape(len(arrays), -1)
    if values.shape[1] < LANE_MIN_STREAMS:
        seeds = [derive_seed(*column) for column in values.T.tolist()]
        return np.array(seeds, dtype=np.uint64).reshape(arrays[0].shape)
    return _seed_words(values, 2)[0].reshape(arrays[0].shape)


def _pcg_step(hi, lo, inc_hi, inc_lo):
    """PCG64's LCG step ``state·M + inc mod 2**128`` on (hi, lo) halves."""
    lo0, lo1 = lo & _M32, lo >> _S32
    p01, p10 = lo0 * _MUL_LO1, lo1 * _MUL_LO0
    mid = (lo0 * _MUL_LO0 >> _S32) + (p01 & _M32) + (p10 & _M32)
    hi = (lo1 * _MUL_LO1 + (p01 >> _S32) + (p10 >> _S32) + (mid >> _S32)
          + hi * _MUL_LO + lo * _MUL_HI)
    lo = lo * _MUL_LO + inc_lo
    return hi + inc_hi + (lo < inc_lo), lo


def _outputs(seeds: np.ndarray):
    """PCG64's outputs of ``default_rng(seed)`` per seed, one (N,) array per
    position: from ``SeedSequence(seed)``'s words w0..w3, inc = 2·(w2·2**64 + w3)
    + 1 and the state is (inc + w0·2**64 + w1)·M + inc; an output is XSL-RR of a step."""
    w0, w1, w2, w3 = _seed_words(seeds[None, :], 8)
    inc = (w2 << _S1 | w3 >> _S63, w3 << _S1 | _S1)
    lo = w1 + inc[1]
    state = _pcg_step(w0 + inc[0] + (lo < inc[1]), lo, *inc)
    while True:
        state = _pcg_step(*state, *inc)
        x, rot = state[0] ^ state[1], state[0] >> _S58
        yield x >> rot | x << (-rot & _S63)


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
        for t, words in zip(range(int(counts[block].max())), _outputs(seeds[block])):
            live = counts[block] > t
            out[starts[block][live] + t] = (words[live] >> _S11) * 2.0**-53
    return out


def normals(seeds: np.ndarray, stds: np.ndarray) -> np.ndarray:
    """``np.random.default_rng(seed).normal(0.0, std)`` for each seed and std
    of a ``uint64`` and a float array of one length."""
    out, slow = np.empty(len(seeds)), np.arange(len(seeds))
    if len(seeds) >= LANE_MIN_STREAMS:
        wi, ki = _ziggurat()
        r = next(_outputs(seeds))
        idx, rabs = (r & _M8).astype(np.intp), r >> _S9 & _M52
        x = rabs * wi[idx]
        np.negative(x, out=x, where=(r >> _S8 & _S1) == 1)
        # numpy returns ``loc + scale·z``; adding 0.0 turns -0.0 into 0.0 as it does.
        out = 0.0 + stds * x
        slow = np.flatnonzero(rabs >= ki[idx])
    out[slow] = [np.random.default_rng(seed).normal(0.0, std)
                 for seed, std in zip(seeds[slow].tolist(), stds[slow].tolist())]
    return out


def integers(seeds: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """``np.random.default_rng(seed).integers(size)`` per seed and size in [1, 2**32]: numpy's
    Lemire draw is the high word of (first output mod 2**32)·size unless its low word is
    below (2**32 − size) % size, which numpy rejects; those streams draw on their own."""
    out, slow = np.empty(len(seeds), dtype=np.int64), np.arange(len(seeds))
    if len(seeds) >= LANE_MIN_STREAMS:
        m = (next(_outputs(seeds)) & _M32) * sizes.astype(np.uint64)
        out = (m >> _S32).astype(np.int64)
        slow = np.flatnonzero((m & _M32) < (2**32 - sizes) % sizes)
    out[slow] = [np.random.default_rng(seed).integers(size)
                 for seed, size in zip(seeds[slow].tolist(), sizes[slow].tolist())]
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
