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


def test_nested_keys_give_the_draws_of_their_flat_form():
    nested = rngmod.stream((3, ("rep", np.int64(2))), ((), "data"))
    _assert_same_draws(nested, rngmod.stream(3, "rep", 2, "data"), "nested")


def test_numpy_integer_keys_accepted():
    a = rngmod.stream(np.int64(5), np.int32(2)).normal(size=3)
    b = rngmod.stream(5, 2).normal(size=3)
    assert np.array_equal(a, b)


# key tuples of every word count: 0 and 2**32 - 1 are one word, 2**32 two,
# 2**64 + 5 three; strings are their CRC-32
STREAM_KEYS = [
    (),
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
INDICES = [0, 1, 149, 2**32 - 1]


def _assert_same_draws(g, ref, key):
    assert np.array_equal(g.normal(size=7), ref.normal(size=7)), key
    assert g.random() == ref.random(), key


def test_streams_match_stream_draw_for_draw():
    for key in STREAM_KEYS:
        # the tuple itself, split around each of its one-word integer keys
        for j, k in enumerate(key):
            if isinstance(k, (int, np.integer)) and 0 <= k < 2**32:
                (g,) = rngmod.streams(key[:j], [k], key[j + 1:])
                _assert_same_draws(g, rngmod.stream(*key), (key, j))
        # the tuple as the shared prefix, as the shared suffix, and split
        # around an added index
        for prefix, suffix in [(key, ()), ((), key), (key[:1], key[1:])]:
            gens = rngmod.streams(prefix, INDICES, suffix)
            assert len(gens) == len(INDICES)
            for i, g in zip(INDICES, gens):
                _assert_same_draws(g, rngmod.stream(*prefix, i, *suffix), (prefix, i, suffix))


def test_streams_take_ranges_and_integer_arrays():
    want = [rngmod.stream(3, "kl-rep", i, "data").random() for i in range(5, 9)]
    for indices in (range(5, 9), [5, 6, 7, 8], np.arange(5, 9, dtype=np.uint32),
                    np.arange(5, 9, dtype=np.int64)):
        gens = rngmod.streams((3, "kl-rep"), indices, ("data",))
        assert [g.random() for g in gens] == want, indices


def test_streams_index_bounds():
    # the first and the last one-word index; with no prefix or suffix the
    # index is the base seed
    for i in (0, 2**32 - 1):
        (g,) = rngmod.streams((), [i])
        _assert_same_draws(g, rngmod.stream(i), i)


def test_streams_of_no_keys_is_empty():
    # an empty index sequence builds no generator
    assert rngmod.streams((0,), []) == []
    assert rngmod.streams((0, "a"), range(4, 4), ("b",)) == []


def test_streams_refuse_negative_and_two_word_indices():
    # a two-word index would give its lane a different word count from the
    # others; replicate indices never need one, so it is refused
    for indices in ([-1], [0, -3], range(-2, 1), [2**32], [0, 2**32 + 7], [2**64 + 5]):
        with pytest.raises(ValueError):
            rngmod.streams((0,), indices)


def test_streams_refuse_non_integer_indices():
    for indices in ([1.0], [True], [[1, 2]], ["a"]):
        with pytest.raises(ValueError):
            rngmod.streams((0,), indices)


def test_streams_states_match_seed_sequence():
    # the vectorised hash against numpy's SeedSequence on random word rows
    g = np.random.default_rng(3)
    for size in range(1, 10):
        words = g.integers(0, 2**32, size=(5, size), dtype=np.uint64).astype(np.uint32)
        got = rngmod._pcg64_states(words)
        for row, state in zip(words, got):
            want = np.random.SeedSequence(row.tolist()).generate_state(4, np.uint64)
            assert np.array_equal(state, want), (size, row)


def test_streams_key_errors_match_stream():
    # as stream: a negative key is a ValueError, a float key a TypeError,
    # in the prefix or the suffix, even with no index to build
    for prefix, suffix in (((0, -3), ()), ((0,), (-1,))):
        for indices in ([1], []):
            with pytest.raises(ValueError):
                rngmod.streams(prefix, indices, suffix)
    for prefix, suffix in (((0, 1.5), ()), ((0,), (1.0,))):
        for indices in ([1], []):
            with pytest.raises(TypeError):
                rngmod.streams(prefix, indices, suffix)


def test_streams_convert_equal_keys_of_each_type_on_their_own():
    # keys equal to 1 convert by their own type: bool and numpy integers are
    # integers, and 1.0 is still refused next to 1
    with pytest.raises(TypeError):
        rngmod.streams((0, 1, 1.0), [0])
    prefix = (0, True, 1, np.int64(1), 2**32, 2**32, "a", "a")
    (g,) = rngmod.streams(prefix, [2], prefix)
    assert g.random() == rngmod.stream(*prefix, 2, *prefix).random()
