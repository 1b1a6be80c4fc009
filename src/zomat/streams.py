"""Seed derivation and Gaussian streams, one scheme for every caller.

Every random draw in zomat is keyed by a tuple of non-negative integers
hashed by :class:`numpy.random.SeedSequence`:

  - :func:`derive_seed` turns a tuple into one 64-bit seed (per-step
    estimator seeds, projection seeds, Monte-Carlo sample seeds);
  - :func:`perturbation` draws the standard Gaussian of one (seed, query,
    block) slot from ``default_rng(SeedSequence((seed, query, block)))``.

These two scalar functions are the reference definitions of the streams.
Building a ``SeedSequence`` from a Python tuple costs about 20 µs, more than
the draw it seeds for small blocks, so hot paths derive seeds in bulk
instead: :func:`seed_states` is a vectorized copy of NumPy's documented
``SeedSequence`` hash (``mix_entropy`` then ``generate_state``) over whole
columns of entropy tuples, :func:`slot_words` gives the PCG64 seed words of
every (query, block) slot of many seeds at once, :func:`gaussian` draws from
such words without hashing again.  The values are bit-identical to the
scalar path.

:func:`draw_table` is the one source of the Gaussians a run of estimates
uses (an optimizer's steps, the oracle's Monte-Carlo samples): its row i is
the seed of index i and the draws of all its (query, block) slots, derived
a chunk of indices at a time.  Given a
count of rows to draw ahead, one forked helper process
(:class:`zomat._parallel.Ring`) writes them into a shared-memory ring from
the same words, on CPU time no other process wants; any row it did not draw
is drawn here, so the values are the same whichever process made them.
This process never waits for the helper: a row it has not drawn yet is
drawn here, and so is the row after it, which the helper then skips.
Where no helper can start (one usable CPU, as under ``taskset -c 0``) every
row is drawn here, and so is every row after a helper died.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.random import PCG64, Generator
from numpy.random.bit_generator import ISeedSequence

from . import _parallel

# SeedSequence's hash constants (numpy/random/bit_generator.pyx).
_POOL_SIZE = 4
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = np.uint32(0xCA01F9DD)
_MIX_MULT_R = np.uint32(0x4973F715)
_XSHIFT = np.uint32(16)
_MASK32 = 0xFFFFFFFF
_LOW32 = np.uint64(_MASK32)
_SHIFT32 = np.uint64(32)

#: uint64 words PCG64 asks its seed sequence for
PCG64_WORDS = 4
#: Steps (or samples) whose streams :func:`draw_table` derives in one pass.
#: A pass costs a fixed few hundred µs plus about 0.1 µs per slot, and its
#: temporaries grow with the chunk (about 1 MB at 1,024 steps of 4 slots), so
#: 256 keeps both the per-step share and the added peak memory small.
CHUNK = 256
#: Bytes of a cache line; each part of a :func:`draw_table` ring row starts on one
_LINE = 64


def derive_seed(*parts) -> int:
    """Stable unsigned 64-bit seed from a tuple of non-negative integers."""
    ss = np.random.SeedSequence(tuple(int(p) for p in parts))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def perturbation(seed: int, query_index: int, block_index: int, shape) -> np.ndarray:
    """Standard Gaussian draw for one (query, block) slot of ``seed``.

    The stream is keyed by (seed, query_index, block_index), so draws are
    order-independent and reproducible without storing anything.
    """
    rng = np.random.default_rng(
        np.random.SeedSequence((int(seed), int(query_index), int(block_index)))
    )
    return rng.standard_normal(shape)


def _int_words(value: int) -> list:
    """A non-negative int as SeedSequence coerces it: little-endian uint32
    words, with 0 as the single word 0."""
    if value < 0:
        raise ValueError(f"seed parts must be non-negative, got {value}")
    words = [value & _MASK32]
    value >>= 32
    while value:
        words.append(value & _MASK32)
        value >>= 32
    return words


def _constants(init: int, mult: int, count: int):
    """Running constants of ``count`` consecutive hashmix calls: call k xors
    with the k-th constant and multiplies by the next, both (count, 1) uint32."""
    consts = [init]
    for _ in range(count):
        consts.append(consts[-1] * mult & _MASK32)
    consts = np.array(consts, dtype=np.uint32)[:, None]
    return consts[:-1], consts[1:]


def _hashmix(values, xor, mul):
    values = (values ^ xor) * mul
    return values ^ (values >> _XSHIFT)


def _mix(x, y):
    result = _MIX_MULT_L * x - _MIX_MULT_R * y
    return result ^ (result >> _XSHIFT)


def _states(entropy, n_words):
    """``generate_state(n_words)`` in uint32, (n_words, N), for the columns of
    ``entropy``: (L, N) uint32 assembled entropy words, L the same for all.

    SeedSequence hashes one pool word at a time, but the calls that read the
    same source word use consecutive constants and write distinct pool words,
    so each group of them is one array operation.
    """
    length, n_rows = entropy.shape
    n_calls = _POOL_SIZE * _POOL_SIZE + _POOL_SIZE * max(length - _POOL_SIZE, 0)
    xor, mul = _constants(_INIT_A, _MULT_A, n_calls)
    pool = np.zeros((_POOL_SIZE, n_rows), dtype=np.uint32)
    pool[:length] = entropy[:_POOL_SIZE]
    pool = _hashmix(pool, xor[:_POOL_SIZE], mul[:_POOL_SIZE])
    k = _POOL_SIZE
    for src in range(_POOL_SIZE):
        dst = [d for d in range(_POOL_SIZE) if d != src]
        n = len(dst)
        pool[dst] = _mix(pool[dst], _hashmix(pool[src], xor[k : k + n], mul[k : k + n]))
        k += n
    for src in range(_POOL_SIZE, length):
        n = _POOL_SIZE
        pool = _mix(pool, _hashmix(entropy[src], xor[k : k + n], mul[k : k + n]))
        k += n
    xor, mul = _constants(_INIT_B, _MULT_B, n_words)
    return _hashmix(pool[np.arange(n_words) % _POOL_SIZE], xor, mul)


def seed_states(parts, n_words: int) -> np.ndarray:
    """``SeedSequence(row).generate_state(n_words, np.uint64)`` for every row.

    ``parts`` holds the row's entries in order: each is a non-negative int,
    shared by every row, or an array of non-negative integers below 2**64,
    one per row.  The arrays broadcast together; the result has their
    broadcast shape plus a trailing axis of ``n_words``.  Entries are coerced
    as SeedSequence coerces Python ints (0 is one word, values of 2**32 and
    above are two), so rows may differ in word count.
    """
    scalar = [np.ndim(p) == 0 for p in parts]
    shape = np.broadcast_shapes(*(np.shape(p) for p, s in zip(parts, scalar) if not s))
    n_rows = int(np.prod(shape))

    # Assemble each row's entropy words, one column per row, with its length.
    columns = []  # (low word, high word or None) per entry
    for p, is_scalar in zip(parts, scalar):
        if is_scalar:
            columns.extend((np.uint32(w), None) for w in _int_words(int(p)))
        else:
            a = np.broadcast_to(np.asarray(p, dtype=np.uint64), shape).ravel()
            columns.append(((a & _LOW32).astype(np.uint32), (a >> _SHIFT32).astype(np.uint32)))
    entropy = np.zeros((2 * len(columns), n_rows), dtype=np.uint32)
    lengths = np.zeros(n_rows, dtype=np.intp)
    rows = np.arange(n_rows)
    for low, high in columns:
        entropy[lengths, rows] = low
        lengths += 1
        if high is not None:
            wide = high != 0
            entropy[lengths[wide], rows[wide]] = high[wide]
            lengths += wide

    out = np.empty((2 * n_words, n_rows), dtype=np.uint32)
    for length in np.flatnonzero(np.bincount(lengths)):
        sel = lengths == length
        out[:, sel] = _states(entropy[:length, sel], 2 * n_words)
    out = np.ascontiguousarray(out.T).astype("<u4", copy=False).view("<u8").astype(np.uint64)
    return out.reshape(*shape, n_words)


def slot_words(seeds, n_queries: int, n_blocks: int) -> np.ndarray:
    """PCG64 seed words of the (query, block) slots of each seed.

    Returns a uint64 array of shape ``seeds.shape + (n_queries, n_blocks, 4)``
    whose entry ``[..., i, b, :]`` seeds the same generator as
    ``SeedSequence((seed, i, b))``.
    """
    seeds = np.asarray(seeds, dtype=np.uint64)[..., None, None]
    queries = np.arange(n_queries, dtype=np.uint64)[:, None]
    blocks = np.arange(n_blocks, dtype=np.uint64)
    return seed_states((seeds, queries, blocks), PCG64_WORDS)


class _PresetWords(ISeedSequence):
    """A seed sequence whose state is already generated."""

    __slots__ = ("words",)

    def __init__(self, words):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words


def gaussian(words, shape) -> np.ndarray:
    """Standard Gaussian draw from a PCG64 seeded with ``words`` (a C-contiguous
    uint64 row of 4 from :func:`seed_states` or :func:`slot_words`)."""
    return Generator(PCG64(_PresetWords(words))).standard_normal(shape)


def _lines(n_bytes: int) -> int:
    return -(-n_bytes // _LINE) * _LINE


def _row_views(row, n_queries: int, shapes):
    """One row's seed (a one-entry uint64 array) and its draws, {(query,
    block): float64 array of the block's shape}, over the bytes ``row``."""
    seed, draws, offset = np.frombuffer(row, np.uint64, 1), {}, _LINE
    for i in range(n_queries):
        for b, shape in enumerate(shapes):
            size = math.prod(shape)
            draws[i, b] = np.frombuffer(row, np.float64, size, offset).reshape(shape)
            offset += _lines(8 * size)
    return seed, draws


def draw_table(prefix: tuple, n_queries: int, shapes, n_ahead: int = 0):
    """``(table, ring)``.  ``table(i)`` gives ``(derive_seed(*prefix, i),
    draws)``, where ``draws[q, b]`` is the float64 Gaussian of that seed's
    (query q, block b) slot in ``shapes[b]``, the values of
    :func:`perturbation`.  ``ring`` is the :class:`zomat._parallel.Ring`
    whose helper process draws indices 0, 1, ..., ``n_ahead`` - 1 ahead, read
    in that order, for the caller to close; None where none started
    (``n_ahead`` below 2 too).  A row the helper drew is read-only and is
    overwritten a ring lap later.  Any other row is drawn here from the same
    slot words: every row without a ring or read out of order, a row the
    helper has not drawn yet when it is read, and the row after it, drawn
    then and kept until it is read.

    The seeds and their :func:`slot_words` are derived :data:`CHUNK` indices
    at a time.  Reading an index outside the chunk in hand derives that
    index's chunk, so indices may be read in any order.
    """
    slots = [(q, b, shape) for q in range(n_queries) for b, shape in enumerate(shapes)]
    start, seeds, words = -CHUNK, None, None

    def drawn(i: int) -> tuple:
        nonlocal start, seeds, words
        if not start <= i < start + CHUNK:
            start = i - i % CHUNK
            seeds = seed_states((*prefix, np.arange(start, start + CHUNK, dtype=np.uint64)), 1)[:, 0]
            words = slot_words(seeds, n_queries, len(shapes))
        slot = words[i - start]
        return int(seeds[i - start]), {(q, b): gaussian(slot[q, b], s) for q, b, s in slots}

    views = {}  # ring row j as (seed, draws); each process makes its own after the fork

    def fill(i, j, row):  # in the helper: index i into ring row j
        if j not in views:
            views[j] = _row_views(row, n_queries, shapes)
        seed, draws = views[j]
        # copied in: drawing straight into the row (``out=``) made mezo's
        # 10,000-step race run take 0.44 s, against 0.33 s, on a two-CPU VM
        seed[0], fresh = drawn(i)
        for key, draw in draws.items():
            draw[...] = fresh[key]

    row_bytes = _LINE + n_queries * sum(_lines(8 * math.prod(s)) for s in shapes)
    ring = _parallel.Ring.start(fill, n_ahead, row_bytes)
    if ring is None:
        return drawn, None

    stash = {}  # the index this process took from its lagging helper, read next

    def take(i):
        stash[i] = drawn(i)

    def table(i: int) -> tuple:
        j = ring.wait(i, take)
        if j is None:
            return stash.pop(i, None) or drawn(i)
        if j not in views:
            views[j] = _row_views(ring.row(j).toreadonly(), n_queries, shapes)
        seed, draws = views[j]
        return int(seed[0]), draws

    return table, ring
