"""Deterministic, splittable random streams.

Every stochastic routine in the package draws from a stream named by a base
seed plus a tuple of labels (strings or integers).  Distinct label tuples
give statistically independent streams, so parallel callers never share
state and adding a new consumer never perturbs existing draws.  String
labels are hashed with SHA-256 rather than ``hash()`` so streams are stable
across processes.

A label tuple names one SplitMix64 stream (Steele, Lea & Flood 2014).
``stream_keys`` folds the tuple into a 64-bit key, ``h = mix64(h ^ label)``
over its parts from ``h = 0``, and word t of the stream with key K is
``mix64(K + (t+1)·GAMMA)``, so key 0 gives splitmix64.c's outputs from
seed 0.  A stream needs no state: ``uniform``, ``normals`` and
``integers`` compute the words of a whole batch of keys at once, as
``uint64`` arrays that wrap mod 2**64.  A dataset pair's stream is
(seed, "sample", k, i, j), and word 0 is the uniform that its win count
inverts (``instances.sample_wins``).

``derive_seed`` and ``substream`` are numpy's ``SeedSequence`` and
``default_rng`` on a label tuple; only the instance generator draws from them.
"""

from __future__ import annotations

import hashlib

import numpy as np

_U64 = (1 << 64) - 1
# SplitMix64's counter increment (2**64 over the golden ratio) and multipliers.
_GOLDEN, _MUL1, _MUL2 = 0x9E3779B97F4A7C15, 0xBF58476D1CE4E5B9, 0x94D049BB133111EB
# uint64 scalars: numpy 1.x promotes uint64 combined with a Python int to float64.
_M1, _M2 = np.uint64(_MUL1), np.uint64(_MUL2)
_S11, _S27, _S30, _S31 = map(np.uint64, (11, 27, 30, 31))


def _label_int(part) -> int:
    if isinstance(part, (int, np.integer)):
        return int(part) & _U64
    if isinstance(part, str):
        digest = hashlib.sha256(part.encode("utf-8")).digest()
        return int.from_bytes(digest[:8], "little")
    raise TypeError(f"seed label must be int or str, got {type(part).__name__}")


def derive_seed(*parts) -> int:
    """Collapse (seed, label, ...) into a single 64-bit numpy seed."""
    entropy = [_label_int(p) for p in parts]
    return int(np.random.SeedSequence(entropy).generate_state(1, np.uint64)[0])


def substream(*parts) -> np.random.Generator:
    """A fresh numpy generator for the stream identified by the label tuple."""
    return np.random.default_rng(derive_seed(*parts))


def _mix64_int(z: int) -> int:
    z = (z ^ z >> 30) * _MUL1 & _U64
    z = (z ^ z >> 27) * _MUL2 & _U64
    return z ^ z >> 31


def _mix64(z: np.ndarray) -> np.ndarray:
    """SplitMix64's finaliser on a ``uint64`` array, in place."""
    z ^= z >> _S30
    z *= _M1
    z ^= z >> _S27
    z *= _M2
    z ^= z >> _S31
    return z


def stream_keys(*parts) -> np.ndarray:
    """The key of each stream named by (seed, label, ...).

    Each part is a string, an integer or an integer array (negative values
    wrap to their two's complement); the parts broadcast against each other,
    and the result is a ``uint64`` array of the broadcast shape.  Scalar
    parts fold on Python ints until the first array part, and each array part
    keeps its own shape, so an (R, 1) seed column is mixed on R lanes.
    """
    key = 0
    for part in parts:
        if not isinstance(part, (str, int, np.integer)):
            array = np.asarray(part)
            if array.dtype.kind not in "iu":
                raise TypeError(f"seed label arrays must be integer, got dtype {array.dtype}")
            if array.ndim:
                # The cast wraps negative values as ``_label_int`` masks them.
                array = array.astype(np.uint64, copy=False)
                key = _mix64(array ^ (np.uint64(key) if isinstance(key, int) else key))
                continue
            part = int(array)
        if isinstance(key, int):
            key = _mix64_int(key ^ _label_int(part))
        else:
            key ^= np.uint64(_label_int(part))
            _mix64(key)
    return np.array(key, dtype=np.uint64) if isinstance(key, int) else key


def uniform(keys: np.ndarray, t: int = 0) -> np.ndarray:
    """Word t of each stream as a float in [0, 1): its top 53 bits times 2**-53."""
    words = _mix64(keys + np.uint64((t + 1) * _GOLDEN & _U64))
    words >>= _S11
    return words * 2.0**-53


def normals(keys: np.ndarray, stds: np.ndarray) -> np.ndarray:
    """One Gaussian draw of mean 0 and standard deviation ``std`` per key and
    std: Box–Muller on words 0 and 1, ``sqrt(−2·log1p(−u0))·cos(2π·u1)``."""
    radius = np.sqrt(-2.0 * np.log1p(-uniform(keys)))
    return stds * (radius * np.cos(2.0 * np.pi * uniform(keys, 1)))


def integers(keys: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """``floor(u·size)`` per key and size in [1, 2**32], u from word 0.  Each
    value's probability is 1/size to within 3·2**-53, as u has 53 bits and
    u·size is rounded: a relative bias below 3·size·2**-53."""
    return (uniform(keys) * sizes).astype(np.int64)
