import numpy as np
import pytest

from ebib import rng as rngmod


def test_same_keys_same_stream():
    a = rngmod.stream(7, "role", 3).normal(size=5)
    b = rngmod.stream(7, "role", 3).normal(size=5)
    assert np.array_equal(a, b)


def test_different_keys_different_streams():
    a = rngmod.stream(7, "role", 3).normal(size=5)
    b = rngmod.stream(7, "role", 4).normal(size=5)
    c = rngmod.stream(7, "other", 3).normal(size=5)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_string_keys_are_stable():
    # CRC-32 of a fixed string must not drift between runs or platforms
    assert rngmod._key_to_int("gibbs-beta") == 3030709551


def test_negative_keys_rejected():
    with pytest.raises(ValueError):
        rngmod.stream(-1)
    with pytest.raises(ValueError):
        rngmod.stream(0, -3)


def test_unsupported_key_type_rejected():
    with pytest.raises(TypeError):
        rngmod.stream(0, 1.5)


def test_numpy_integer_keys_accepted():
    a = rngmod.stream(np.int64(5), np.int32(2)).normal(size=3)
    b = rngmod.stream(5, 2).normal(size=3)
    assert np.array_equal(a, b)


# one call mixing word counts: 0 and 2**32 - 1 are one word, 2**32 two,
# 2**64 + 5 three; strings are their CRC-32
STREAM_KEYS = [
    (0,),
    (2**32 - 1,),
    (2**32,),
    (2**64 + 5, "x"),
    (7, "role", 3),
    (np.int64(5), np.uint32(2), "data"),
    (0, 0, 0, 0),
    # a zero word past the pool size is mixed in, not padding
    (3, "kl-mc", 0, "kl-rep", 0, 0),
    (3, "kl-mc", 7, "kl-rep", 149, "data"),
    (1, 2, 3, 4, 5, 6, 7, 8, 9, 2**40),
    (7, "role", 3),
]


def test_streams_match_stream_draw_for_draw():
    gens = rngmod.streams(STREAM_KEYS)
    assert len(gens) == len(STREAM_KEYS)
    for key, g in zip(STREAM_KEYS, gens):
        ref = rngmod.stream(*key)
        assert np.array_equal(g.normal(size=7), ref.normal(size=7)), key
        assert g.random() == ref.random(), key


def test_streams_states_match_seed_sequence():
    # the vectorised hash against numpy's SeedSequence on random word rows
    g = np.random.default_rng(3)
    for size in range(1, 10):
        words = g.integers(0, 2**32, size=(5, size), dtype=np.uint64).astype(np.uint32)
        got = rngmod._pcg64_states(words)
        for row, state in zip(words, got):
            want = np.random.SeedSequence(row.tolist()).generate_state(4, np.uint64)
            assert np.array_equal(state, want), (size, row)


def test_streams_of_no_keys_is_empty():
    assert rngmod.streams([]) == []


def test_streams_key_errors_match_stream():
    with pytest.raises(ValueError):
        rngmod.streams([(0, 1), (0, -3)])
    with pytest.raises(TypeError):
        rngmod.streams([(0, 1), (0, 1.5)])


def test_streams_convert_equal_keys_of_each_type_on_their_own():
    # a key is converted once per call and reused, but only for keys of the
    # same type: 1.0 equals the cached 1 and must still be refused
    with pytest.raises(TypeError):
        rngmod.streams([(0, 1), (0, 1.0)])
    keys = [(0, True), (0, 1), (0, np.int64(1)), (2**32, 2**32), (2**32,), ("a", "a")]
    for key, g in zip(keys, rngmod.streams(keys)):
        assert g.random() == rngmod.stream(*key).random(), key
