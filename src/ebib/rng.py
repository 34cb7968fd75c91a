"""Deterministic hierarchical random-number streams.

Every stochastic routine in the package derives its generator from
``stream(base_seed, *keys)``.  Keys are either integers (e.g. a replication
index) or short role strings (e.g. "gibbs-beta"), or tuples of keys, which
stand for their keys in order; strings are mapped to stable 32-bit integers
with CRC-32.  The resulting tuple feeds a ``numpy.random.SeedSequence``, so
independent keys give statistically independent, reproducible streams.

``streams(prefix, indices, suffix)`` builds many such generators at once,
one per index: the generator ``stream(*prefix, i, *suffix)`` gives, draw for
draw.  It converts the shared keys once, fills the uint32 entropy words of
all indices as one array, and runs the SeedSequence hash (O'Neill's
``seed_seq_fe`` mixer, plain uint32 arithmetic) on it with one lane per
index.
"""

from __future__ import annotations

import zlib

import numpy as np
from numpy.random.bit_generator import ISeedSequence

# numpy.random.SeedSequence's pool size and hash constants
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_XSHIFT = np.uint32(16)
_MASK32 = 0xFFFFFFFF


def _key_to_int(key) -> int:
    if isinstance(key, (int, np.integer)):
        if key < 0:
            raise ValueError(f"stream keys must be nonnegative, got {key}")
        return int(key)
    if isinstance(key, str):
        return zlib.crc32(key.encode("utf-8"))
    raise TypeError(f"unsupported stream key type: {type(key)!r}")


def flatten(key) -> list:
    """The keys of a (nested) key tuple in order; a scalar is one key."""
    if isinstance(key, tuple):
        return [k for part in key for k in flatten(part)]
    return [key]


def stream(base_seed, *keys) -> np.random.Generator:
    """Generator for the sub-stream identified by (base_seed, *keys); a
    (nested) key tuple stands for its keys in order, as ``flatten`` gives them."""
    entropy = [_key_to_int(k) for k in flatten((base_seed, *keys))]
    return np.random.default_rng(np.random.SeedSequence(entropy))


def _key_words(key) -> list:
    """SeedSequence's uint32 entropy words for one key: 0 is one word, larger
    integers their little-endian 32-bit words."""
    v = _key_to_int(key)
    if v <= _MASK32:
        return [v]
    out = []
    while v:
        out.append(v & _MASK32)
        v >>= 32
    return out


def _words(keys) -> list:
    """The entropy words of a key tuple."""
    return [w for key in keys for w in _key_words(key)]


def _hash_constants(init, mult, steps):
    """The xor constant and the multiplier of ``steps`` successive hash
    steps, as (steps, 1) columns that broadcast over the lanes."""
    c = [init]
    for _ in range(steps):
        c.append(c[-1] * mult & _MASK32)
    c = np.array(c, np.uint32)[:, None]
    return c[:-1], c[1:]


def _hashmix(value, xor, mult):
    value = (value ^ xor) * mult
    return value ^ (value >> _XSHIFT)


def _mix(x, y):
    result = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
    return result ^ (result >> _XSHIFT)


def _pcg64_states(words: np.ndarray) -> np.ndarray:
    """``SeedSequence(w).generate_state(4, uint64)`` for each row w of a
    (rows, L) uint32 array, every row with the same word count L.

    The pool is (pool word, lane).  SeedSequence's own loops update one pool
    word per hash step; the steps that read the same source word are
    independent, so each group of them is one array operation here.
    """
    rows, size = words.shape
    extra = max(size - _POOL_SIZE, 0)
    xor, mult = _hash_constants(_INIT_A, _MULT_A, _POOL_SIZE * (_POOL_SIZE + extra))
    pool = np.zeros((_POOL_SIZE, rows), np.uint32)
    pool[:size] = words.T[:_POOL_SIZE]
    pool = _hashmix(pool, xor[:_POOL_SIZE], mult[:_POOL_SIZE])
    k = _POOL_SIZE
    for src in range(_POOL_SIZE):
        dst = [i for i in range(_POOL_SIZE) if i != src]
        hashed = _hashmix(pool[src], xor[k:k + len(dst)], mult[k:k + len(dst)])
        pool[dst] = _mix(pool[dst], hashed)
        k += len(dst)
    for word in words.T[_POOL_SIZE:]:
        pool = _mix(pool, _hashmix(word, xor[k:k + _POOL_SIZE], mult[k:k + _POOL_SIZE]))
        k += _POOL_SIZE
    # generate_state(4, uint64): eight uint32 words cycling over the pool,
    # read as little-endian pairs
    xor, mult = _hash_constants(_INIT_B, _MULT_B, 8)
    state = _hashmix(np.concatenate([pool, pool]), xor, mult)
    return state.T.astype("<u4", order="C").view("<u8").astype(np.uint64)


class _Expanded(ISeedSequence):
    """Seed material already expanded into PCG64's four uint64 state words."""

    def __init__(self, state):
        self.state = state

    def generate_state(self, n_words, dtype=np.uint32):
        return self.state


def streams(prefix, indices, suffix=()) -> list:
    """``[stream(*prefix, i, *suffix) for i in indices]``, hashed for all
    indices at once.  An index must be an integer in [0, 2**32): one entropy
    word, so that every lane has the same word count."""
    head, tail = _words(prefix), _words(suffix)
    idx = np.asarray(indices)
    if not idx.size:
        return []
    if idx.ndim != 1 or idx.dtype.kind not in "iu" or idx.min() < 0 or idx.max() > _MASK32:
        raise ValueError("stream indices must be a sequence of integers in [0, 2**32)")
    words = np.empty((idx.size, len(head) + 1 + len(tail)), np.uint32)
    words[:] = head + [0] + tail
    words[:, len(head)] = idx
    return [np.random.Generator(np.random.PCG64(_Expanded(state)))
            for state in _pcg64_states(words)]
