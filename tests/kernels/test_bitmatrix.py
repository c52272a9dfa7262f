"""Unit tests for the packed-bitset kernels against their scalar models."""

import numpy as np
import pytest

from repro.coloring.bitset import (
    bits_or,
    bits_to_num,
    first_free_bits,
    first_free_colors_u64,
    num_to_bits,
    popcount,
)
from repro.kernels import (
    WORD_BITS,
    first_free_colors_packed,
    popcount_u64,
    scatter_or_colors,
    words_for_colors,
)
from repro.kernels.bitmatrix import _popcount_swar

RNG = np.random.default_rng(42)


def random_words(size):
    return RNG.integers(0, 2**64, size=size, dtype=np.uint64)


# ----------------------------------------------------------------------
# words_for_colors / popcount
# ----------------------------------------------------------------------


def test_words_for_colors():
    assert words_for_colors(1) == 1
    assert words_for_colors(64) == 1
    assert words_for_colors(65) == 2
    assert words_for_colors(128) == 2
    assert words_for_colors(129) == 3
    with pytest.raises(ValueError):
        words_for_colors(0)


def test_popcount_u64_matches_scalar():
    words = np.concatenate(
        [
            np.array([0, 1, 2, 3, 2**63, 2**64 - 1], dtype=np.uint64),
            random_words(200),
        ]
    )
    expect = np.array([popcount(int(w)) for w in words], dtype=np.int64)
    assert np.array_equal(popcount_u64(words), expect)
    # The SWAR fallback must agree regardless of whether NumPy has
    # bitwise_count on this build.
    assert np.array_equal(_popcount_swar(words.copy()), expect)


def test_popcount_scalar_fallbacks():
    # popcount() itself: int.bit_count when available, bin().count otherwise;
    # both must agree on the same values.
    for v in (0, 1, (1 << 63) | 1, 2**64 - 1):
        assert popcount(v) == bin(v).count("1")


# ----------------------------------------------------------------------
# scatter_or_colors vs the scalar OR-accumulation
# ----------------------------------------------------------------------


def test_scatter_or_matches_scalar_bits_or():
    rng = np.random.default_rng(7)
    num_rows, num_words = 17, 3
    rows = rng.integers(0, num_rows, size=400).astype(np.int64)
    colors = rng.integers(0, num_words * WORD_BITS + 1, size=400).astype(np.int64)
    out = scatter_or_colors(rows, colors, num_rows, num_words)
    for r in range(num_rows):
        state = bits_or(num_to_bits(int(c)) for c in colors[rows == r])
        packed = sum(int(w) << (64 * k) for k, w in enumerate(out[r]))
        assert packed == state


def test_scatter_or_single_word_fast_path():
    rows = np.array([0, 0, 1, 2, 2, 2], dtype=np.int64)
    colors = np.array([1, 3, 0, 2, 2, 64], dtype=np.int64)
    out = scatter_or_colors(rows, colors, 3, 1)
    assert out[:, 0].tolist() == [0b101, 0, (1 << 63) | 0b10]


def test_scatter_or_validation():
    with pytest.raises(ValueError):
        scatter_or_colors(np.array([0]), np.array([65]), 1, 1)
    with pytest.raises(ValueError):
        scatter_or_colors(np.array([0, 1]), np.array([1]), 2, 1)


def test_scatter_or_accumulates_into_out():
    out = np.zeros((2, 1), dtype=np.uint64)
    scatter_or_colors(np.array([0]), np.array([1]), 2, 1, out=out)
    scatter_or_colors(np.array([1]), np.array([2]), 2, 1, out=out)
    assert out[:, 0].tolist() == [1, 2]


# ----------------------------------------------------------------------
# first_free_colors_packed vs the scalar bit trick
# ----------------------------------------------------------------------


def test_first_free_packed_matches_scalar():
    rng = np.random.default_rng(11)
    for num_words in (1, 2, 4):
        states = rng.integers(0, 2**64, size=(64, num_words), dtype=np.uint64)
        states[:, -1] &= np.uint64(2**62 - 1)  # never fully saturated
        got = first_free_colors_packed(states)
        for row, g in zip(states, got):
            packed = sum(int(w) << (64 * k) for k, w in enumerate(row))
            assert int(g) == bits_to_num(first_free_bits(packed))


def test_first_free_packed_single_word_delegates():
    states = np.array([[0], [1], [0b111], [2**63 - 1]], dtype=np.uint64)
    assert np.array_equal(
        first_free_colors_packed(states),
        first_free_colors_u64(states[:, 0]),
    )


def test_first_free_packed_word_boundaries():
    full = np.uint64(2**64 - 1)
    states = np.array(
        [
            [full, 0],  # first word full -> color 65
            [full, full >> np.uint64(1)],  # only bit 127 free -> color 128
            [0, full],  # second word full but first open -> color 1
        ],
        dtype=np.uint64,
    )
    assert first_free_colors_packed(states).tolist() == [65, 128, 1]


def test_first_free_packed_saturation():
    full = np.uint64(2**64 - 1)
    with pytest.raises(OverflowError):
        first_free_colors_packed(np.array([[full, full]], dtype=np.uint64))
    with pytest.raises(ValueError):
        first_free_colors_packed(np.zeros(3, dtype=np.uint64))


# ----------------------------------------------------------------------
# first_free_colors_u64 — the single-word fast case, directly
# ----------------------------------------------------------------------


def test_first_free_u64_basic():
    states = np.array([0, 1, 0b1011, 0b111], dtype=np.uint64)
    assert first_free_colors_u64(states).tolist() == [1, 2, 3, 4]


def test_first_free_u64_near_63_bit_boundary():
    # Above 2**53 a float-log2 implementation would round; these states
    # exercise the exact high-bit region.
    states = np.array(
        [
            (1 << 62) - 1,  # colors 1..62 taken -> 63
            (1 << 63) - 1,  # colors 1..63 taken -> 64
            1 << 63,  # only color 64 taken -> 1
            ((1 << 63) - 1) & ~(1 << 52),  # hole exactly at 2**52 -> 53
        ],
        dtype=np.uint64,
    )
    assert first_free_colors_u64(states).tolist() == [63, 64, 1, 53]


def test_first_free_u64_saturation_raises():
    sat = np.uint64(2**64 - 1)
    with pytest.raises(OverflowError):
        first_free_colors_u64(np.array([sat], dtype=np.uint64))
    # A single saturated word poisons the batch even among valid ones.
    with pytest.raises(OverflowError):
        first_free_colors_u64(np.array([0, sat, 1], dtype=np.uint64))


def test_first_free_u64_matches_scalar_bit_trick():
    words = np.random.default_rng(3).integers(
        0, 2**63, size=500, dtype=np.uint64
    )
    got = first_free_colors_u64(words)
    for w, g in zip(words, got):
        assert int(g) == bits_to_num(first_free_bits(int(w)))
