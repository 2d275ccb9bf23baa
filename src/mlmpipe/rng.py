"""Counter-based, splittable random streams.

Every sampling decision in the pipeline draws from a substream keyed by a
derivation path (seed, epoch, sequence index, ...). Substreams are
statistically independent and cheap to construct, so any degree of
parallelism over sequences reproduces the serial results exactly.

``substream`` builds one generator through numpy's ``SeedSequence``.
``substreams`` keys a whole run of windows at once: it computes the same
SeedSequence hash over numpy columns in one array pass, so its generators
draw byte for byte what per-window ``substream`` calls would, and the
stream (and so every output) is unchanged.
"""

from __future__ import annotations

from typing import Callable

import numpy as np
from numpy.random.bit_generator import ISeedSequence

# numpy's SeedSequence constants (numpy/random/bit_generator.pyx)
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_XSHIFT = 16
_MASK32 = 0xFFFFFFFF


def substream(seed: int, *path: int) -> np.random.Generator:
    """Return an independent generator for `path` under a base seed.

    The same (seed, path) always yields the same stream; distinct paths
    yield independent streams (Philox keyed via SeedSequence spawn keys).
    """
    ss = np.random.SeedSequence(entropy=seed, spawn_key=tuple(path))
    return np.random.Generator(np.random.Philox(ss))


class _Key(ISeedSequence):
    """A precomputed Philox key in the place of the SeedSequence it came from."""

    def __init__(self, key: np.ndarray) -> None:
        self.key = key

    def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
        if n_words != 2 or np.dtype(dtype) != np.uint64:
            raise ValueError("_Key holds only a Philox key: 2 words of uint64")
        return self.key


def _words(n: int) -> list[int]:
    """A non-negative int as little-endian 32-bit words, as SeedSequence reads it."""
    if n < 0:
        raise ValueError(f"expected non-negative integer, got {n}")
    words = [n & _MASK32]
    while n := n >> 32:
        words.append(n & _MASK32)
    return words


def _hasher(const: int, mult: int) -> Callable[[np.ndarray], np.ndarray]:
    """SeedSequence's hashmix: each call hashes one uint32 column and steps
    the hash constant, which depends only on how many calls came before."""
    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal const
        value = value ^ np.uint32(const)
        const = const * mult & _MASK32
        value = value * np.uint32(const)
        return value ^ (value >> np.uint32(_XSHIFT))
    return hashmix


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
    return result ^ (result >> np.uint32(_XSHIFT))


def _keys(seed: int, path: tuple[int, ...], last: np.ndarray) -> np.ndarray:
    """The Philox keys of ``substream(seed, *path, i)`` for each i in ``last``,
    as a (len(last), 2) uint64 array.

    SeedSequence's entropy is the seed's words, zero-padded to the pool
    size because a spawn key follows, then the spawn key's words; every i
    below 2**32 is one word. Each step runs once over a column: shape (1,)
    for a word every key shares, shape (n,) for the words of ``last``.
    """
    last = np.asarray(last, dtype=np.int64)
    if last.size and not (0 <= last.min() and last.max() <= _MASK32):
        raise ValueError("substream indices must lie in [0, 2**32)")
    run = _words(seed)
    run += [0] * (_POOL_SIZE - len(run))
    shared = [word for n in path for word in _words(n)]
    entropy = [np.array([w], dtype=np.uint32) for w in run + shared]
    entropy.append(last.astype(np.uint32))

    # SeedSequence.mix_entropy; `last` comes after the pool's words, so it
    # reaches every pool word and each comes out n long
    hashmix = _hasher(_INIT_A, _MULT_A)
    pool = [hashmix(word) for word in entropy[:_POOL_SIZE]]
    for i_src in range(_POOL_SIZE):
        for i_dst in range(_POOL_SIZE):
            if i_src != i_dst:
                pool[i_dst] = _mix(pool[i_dst], hashmix(pool[i_src]))
    for word in entropy[_POOL_SIZE:]:
        for i_dst in range(_POOL_SIZE):
            pool[i_dst] = _mix(pool[i_dst], hashmix(word))

    # SeedSequence.generate_state(2, np.uint64): four words cycled from the
    # pool, paired little-endian into two uint64s
    hashmix = _hasher(_INIT_B, _MULT_B)
    state = np.stack([hashmix(pool[i % _POOL_SIZE]) for i in range(2 * 2)], axis=1)
    return state.astype("<u4").view("<u8").astype(np.uint64)


def substreams(seed: int, path: tuple[int, ...],
               last: np.ndarray) -> list[np.random.Generator]:
    """``[substream(seed, *path, i) for i in last]``, keyed in one array pass.

    Each generator is independent and draws exactly what its
    ``substream`` twin draws. Every index must lie in [0, 2**32).
    """
    return [np.random.Generator(np.random.Philox(_Key(key)))
            for key in _keys(seed, path, last)]
