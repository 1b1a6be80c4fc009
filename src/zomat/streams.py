"""Seed derivation and ±1 perturbation streams, one scheme for every caller.

Every random draw in zomat is keyed by a tuple of non-negative integers
below 2**64, hashed by the finalizer ``mix`` of SplitMix64 (Steele, Lea and
Flood, 2014, "Fast Splittable Pseudorandom Number Generators") folded over
the tuple as ``k = mix(mix(k + GAMMA) ^ part)`` from ``k = 0``:

  - :func:`derive_seed` is that fold, one 64-bit seed per tuple (per-step
    estimator seeds, projection seeds, Monte-Carlo sample seeds);
  - :func:`perturbation` draws the ±1 entries of one (seed, query, block)
    slot from the words ``mix(K + j * GAMMA)``, j = 1, 2, ..., with ``K``
    the fold of (seed, query, block): bit t of the words, least significant
    first, is entry t, +1 for a 0 bit and -1 for a 1 bit.

These two scalar functions are the reference definitions of the streams.
A ±1 perturbation has ``E[u u^T] = I`` as a standard Gaussian does, which is
all a randomized gradient estimate needs (Spall, 1992, "Multivariate
Stochastic Approximation Using a Simultaneous Perturbation Gradient
Approximation").

:func:`draw_table` is the one source of the draws a run of estimates uses
(an optimizer's steps, the oracle's Monte-Carlo samples): it hashes the
words of :data:`CHUNK` rows in one array pass and unpacks a row's bits when
the row is read, so row i holds the values of :func:`perturbation` at
``derive_seed(*prefix, i)``.  The hash runs on uint64 arrays, never on NumPy
scalars, whose overflowing products warn where the arrays' wrap silently.
"""

from __future__ import annotations

import math

import numpy as np

#: SplitMix64's increment (the odd integer nearest 2**64 over the golden ratio)
#: and its finalizer's multipliers
GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MULT_A = np.uint64(0xBF58476D1CE4E5B9)
_MULT_B = np.uint64(0x94D049BB133111EB)
_BITS = 64
#: Rows whose words :func:`draw_table` hashes in one pass.  A pass costs under
#: 2 µs a row on a 2-CPU Xeon VM, and its temporaries grow with the chunk
#: (about 0.5 MB for verify's 4-query 64-by-32 rows), so 256 keeps both small.
CHUNK = 256
#: Row v is the eight entries of byte v, least significant bit first.
_BYTE_SIGNS = 1.0 - 2.0 * ((np.arange(256)[:, None] >> np.arange(8)) & 1)


def _mix(z: np.ndarray) -> np.ndarray:
    """SplitMix64's finalizer of the uint64 array ``z``."""
    z = (z ^ (z >> np.uint64(30))) * _MULT_A
    z = (z ^ (z >> np.uint64(27))) * _MULT_B
    return z ^ (z >> np.uint64(31))


def _fold(parts) -> np.ndarray:
    """``k = mix(mix(k + GAMMA) ^ part)`` over ``parts`` (uint64 arrays that
    broadcast together) from ``k = 0``."""
    key = np.zeros(1, dtype=np.uint64)
    for part in parts:
        key = _mix(_mix(key + GAMMA) ^ part)
    return key


def _word(part) -> np.ndarray:
    """A key part as a one-entry uint64 array, refused outside [0, 2**64)."""
    value = int(part)
    if not 0 <= value < 1 << _BITS:
        raise ValueError(f"seed parts must be integers in [0, 2**64), got {part!r}")
    return np.array([value], dtype=np.uint64)


def derive_seed(*parts) -> int:
    """Stable unsigned 64-bit seed from a tuple of integers in [0, 2**64)."""
    return int(_fold(map(_word, parts))[0])


def _signs(words: np.ndarray) -> np.ndarray:
    """Bit t of ``words`` (uint64, least significant bit first) as entry t:
    1.0 for a 0 bit, -1.0 for a 1 bit."""
    # one lookup of each byte's eight entries: 3.2-3.8 µs a 64-by-64 row on a
    # 2-CPU Xeon VM, 5.0-5.6 µs through np.unpackbits and an in-place 1 - 2 * bits
    octets = words.astype("<u8", copy=False).view(np.uint8)
    return _BYTE_SIGNS.take(octets, axis=0).reshape(-1)


def perturbation(seed: int, query_index: int, block_index: int, shape) -> np.ndarray:
    """±1 draw for one (query, block) slot of ``seed``, in ``shape``.

    The stream is keyed by (seed, query_index, block_index), so draws are
    order-independent and reproducible without storing anything, and a
    slot's draws do not depend on any other slot's shape.
    """
    size = math.prod(shape)
    steps = np.arange(1, -(-size // _BITS) + 1, dtype=np.uint64)
    key = _fold(map(_word, (seed, query_index, block_index)))
    return _signs(_mix(key + steps * GAMMA))[:size].reshape(shape)


def draw_table(prefix: tuple, n_queries: int, shapes):
    """``table(i)``, the draws of index i as ``{(q, b): array}``, where
    ``[q, b]`` is the ±1 float64 draw of the (query q, block b) slot of
    ``derive_seed(*prefix, i)`` in ``shapes[b]``, the values of
    :func:`perturbation`.

    The words of every slot of :data:`CHUNK` consecutive indices are hashed
    in one pass, and a row's words are unpacked into its draws when it is
    read, as views of one array.  Reading an index outside the chunk in hand
    hashes that index's chunk, so indices may be read in any order.
    """
    prefix = [_word(p) for p in prefix]
    sizes = [math.prod(s) for s in shapes]
    slots = [(q, b) for q in range(n_queries) for b in range(len(shapes))]
    counts = [-(-sizes[b] // _BITS) for _, b in slots]  # words per slot
    offsets = dict(zip(slots, _BITS * np.cumsum([0, *counts[:-1]])))
    queries, blocks = (np.array(column, dtype=np.uint64) for column in zip(*slots))
    # per word of a row: its slot, and j * GAMMA for its step j within the slot
    owner = np.repeat(np.arange(len(slots)), counts)
    steps = np.concatenate([np.arange(1, n + 1, dtype=np.uint64) for n in counts]) * GAMMA
    start, words = -CHUNK, None

    def table(i: int) -> dict:
        nonlocal start, words
        if not start <= i < start + CHUNK:
            start = i - i % CHUNK
            seeds = _fold([*prefix, np.arange(start, start + CHUNK, dtype=np.uint64)])
            words = _mix(_fold((seeds[:, None], queries, blocks)).take(owner, axis=1) + steps)
        signs = _signs(words[i - start])
        return {(q, b): signs[offsets[q, b]:offsets[q, b] + sizes[b]].reshape(shapes[b])
                for q, b in slots}

    return table
