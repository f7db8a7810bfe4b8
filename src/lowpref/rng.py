"""Deterministic, splittable random streams.

Every stochastic routine in the package derives its generator from a base
seed plus a tuple of labels (strings or integers).  Distinct label tuples
give statistically independent streams, so parallel callers never share
state and adding a new consumer never perturbs existing draws.  String
labels are hashed with SHA-256 rather than ``hash()`` so derivations are
stable across processes.

A stream is ``np.random.default_rng(derive_seed(*parts))``, and
``derive_seed`` is numpy's own ``SeedSequence``.  Drawing one stream per
observed pair that way costs tens of microseconds of seeding per pair, so
the per-pair callers use the batched path instead:

* ``derive_seeds`` is ``derive_seed`` with any part allowed to be an integer
  array (the parts broadcast against each other).  It runs numpy's
  ``SeedSequence`` mixing (pool size 4) on the whole batch at once, with the
  ``uint32`` words of all elements packed into one Python integer.
* ``default_rngs`` yields, per seed, a generator in exactly the state
  ``np.random.default_rng(seed)`` starts in.  It reproduces the second
  ``SeedSequence`` and PCG64's seeding arithmetic the same way and sets the
  result through ``PCG64.state``; numpy's own ``Generator`` then draws.

A batch costs a fixed ~0.1 ms in Python arithmetic and numpy calls, more
than one ``substream``, so callers seed whole datasets or all repetitions at
once rather than one pair at a time.

The scalar ``derive_seed``/``substream`` stay the reference: the batched
path gives bit-identical seeds and draws, which the tests check.
"""

from __future__ import annotations

import hashlib

import numpy as np

_U64 = (1 << 64) - 1
_U128 = (1 << 128) - 1
_M32 = 0xFFFFFFFF

# numpy's SeedSequence constants (numpy/random/bit_generator.pyx).
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_ONE_LANE = (1).to_bytes(8, "little")
# PCG64's 128-bit LCG multiplier (PCG_DEFAULT_MULTIPLIER_128).
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


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


class _Lanes:
    """Equal-length ``uint32`` vectors packed into one Python integer, one
    64-bit lane per element, so that numpy's ``SeedSequence`` arithmetic runs
    on a whole batch in a few big-integer operations.

    A lane holds a value below 2**32.  A product with a 32-bit constant fits
    in its lane, a masked shift drops what crosses in from the next lane,
    and a subtraction borrows from an added 2**32, so no lane ever touches
    its neighbour.  A batch of one is plain integer arithmetic, which keeps
    the fixed cost of a batch near that of one ``SeedSequence``.
    """

    def __init__(self, size: int):
        self.size = size
        self.ones = int.from_bytes(_ONE_LANE * size, "little")
        self.mask = _M32 * self.ones

    def nonzero(self, values: int) -> int:
        """1 in every lane of ``values`` that is nonzero, 0 elsewhere."""
        return (values + self.mask) >> 32 & self.ones

    def pack(self, values: np.ndarray) -> list[int]:
        """The rows of a (P, size) ``uint64`` matrix as packed integers."""
        packed = int.from_bytes(values.astype("<u8").tobytes(), "little")
        width = 64 * self.size
        full = (1 << width) - 1
        return [packed >> (width * p) & full for p in range(values.shape[0])]

    def unpack(self, rows: list[int]) -> np.ndarray:
        """Packed integers with 64-bit values as a (len(rows), size) ``uint64`` matrix."""
        width = 64 * self.size
        packed = sum(row << (width * p) for p, row in enumerate(rows))
        data = packed.to_bytes(8 * self.size * len(rows), "little")
        return np.frombuffer(bytearray(data), dtype="<u8").reshape(len(rows), self.size)

    def seed_sequence(self, entropy: list[int], n_words: int) -> list[int]:
        """``SeedSequence(e).generate_state(n_words, uint32)`` lane by lane,
        for the packed entropy words ``entropy``: numpy's ``hashmix``,
        ``mix``, ``mix_entropy`` and ``generate_state`` step for step."""
        ones, mask, borrow = self.ones, self.mask, self.ones << 32
        const = _INIT_A

        def hashmix(value: int, mult: int = _MULT_A) -> int:
            nonlocal const
            value ^= const * ones
            const = const * mult & _M32
            value = value * const & mask
            return value ^ (value >> 16 & mask)

        def mix(x: int, y: int) -> int:
            result = (x * _MIX_L & mask) + borrow - (y * _MIX_R & mask) & mask
            return result ^ (result >> 16 & mask)

        pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(_POOL)]
        for src in range(_POOL):
            for dst in range(_POOL):
                if src != dst:
                    pool[dst] = mix(pool[dst], hashmix(pool[src]))
        for word in entropy[_POOL:]:
            for dst in range(_POOL):
                pool[dst] = mix(pool[dst], hashmix(word))
        # generate_state hashes the pool words the same way, with constants B.
        const = _INIT_B
        return [hashmix(pool[i % _POOL], _MULT_B) for i in range(n_words)]


def _seed_words(values: np.ndarray, n_words: int) -> np.ndarray:
    """``SeedSequence(list(column)).generate_state(n_words // 2, uint64)`` for
    every column of the (P, N) ``uint64`` matrix ``values``, as an
    (n_words // 2, N) ``uint64`` matrix.

    A value below 2**32 (0 included) is one 32-bit entropy word, a larger
    one two (low word first).  Columns whose word layouts differ are split
    apart on the first row where they differ.
    """
    if values.shape[1] == 0:
        return np.zeros((n_words // 2, 0), dtype=np.uint64)
    lanes = _Lanes(values.shape[1])
    entropy = []
    for p, row in enumerate(lanes.pack(values)):
        high = row >> 32 & lanes.mask
        wide = lanes.nonzero(high)
        if wide not in (0, lanes.ones):
            split = lanes.unpack([wide])[0] == 1
            out = np.empty((n_words // 2, values.shape[1]), dtype=np.uint64)
            out[:, split] = _seed_words(values[:, split], n_words)
            out[:, ~split] = _seed_words(values[:, ~split], n_words)
            return out
        entropy.append(row & lanes.mask)
        if wide:
            entropy.append(high)
    words = lanes.seed_sequence(entropy, n_words)
    return lanes.unpack([words[i] | words[i + 1] << 32 for i in range(0, n_words, 2)])


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
    arrays = [_part_array(p) for p in parts]
    shape = np.broadcast(*arrays).shape
    values = np.empty((len(arrays),) + shape, dtype=np.uint64)
    for p, array in enumerate(arrays):
        values[p] = array
    return _seed_words(values.reshape(len(arrays), -1), 2)[0].reshape(shape)


def default_rngs(seeds):
    """Yield, per seed, a generator in the state ``np.random.default_rng(seed)``
    starts in.

    numpy seeds the bit generator for the first seed.  For every further
    seed the state is set from ``SeedSequence(seed)``'s four 64-bit words
    w0..w3, computed for all of them at once: with ``s = w0·2**64 + w1`` and
    ``inc = 2·(w2·2**64 + w3) + 1``, PCG64 starts in state
    ``((inc + s)·M + inc) mod 2**128``.  The same ``Generator`` object is
    reset for every seed, so use each one before taking the next; each call
    owns its own bit generator.
    """
    seeds = np.asarray(seeds, dtype=np.uint64).ravel()
    if seeds.size == 0:
        return
    bits = np.random.PCG64(int(seeds[0]))
    generator = np.random.Generator(bits)
    yield generator
    state = {"state": 0, "inc": 0}
    full = {"bit_generator": "PCG64", "state": state, "has_uint32": 0, "uinteger": 0}
    for w0, w1, w2, w3 in _seed_words(seeds[None, 1:], 8).T.tolist():
        inc = ((w2 << 64 | w3) << 1 | 1) & _U128
        state["state"] = ((inc + (w0 << 64 | w1)) * _PCG_MULT + inc) & _U128
        state["inc"] = inc
        bits.state = full
        yield generator
