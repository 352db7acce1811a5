"""Bounded integer draws: numpy's ``default_rng(seed).integers(0, high, size)``,
bit for bit, without importing ``numpy.random``.

The stream is numpy's default: ``SeedSequence`` mixes the seed's 32-bit words
into a 4-word pool and hashes out two 128-bit words, which seed PCG64 XSL-RR
(O'Neill, HMC-CS-2014-0905): a 128-bit LCG whose output xors the state's
halves and rotates them by its top 6 bits.  A bound of at most 2^32 reads
32-bit words, each output's low half first; a larger one reads whole outputs.
Either maps a word w to (w * high) >> bits and rejects it when the low bits
fall below 2^bits mod high (Lemire, ACM TOMACS 2019), so a bound of 2^32
takes words as they are.  numpy does not promise that its streams stay the
same across versions; this one is fixed here.

States come by jump-ahead, a.s + c mod 2^128 for every step count at once:
one block by doubling, then each block from the one before, so no Python
loop runs per draw.  128-bit values are (high, low) uint64 limb arrays.
"""

from __future__ import annotations

import math

import numpy as np

_M32, _M64, _M128 = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1
_MULT = 0x2360ED051FC65DA44385DF649FCCF645  # PCG's default 128-bit multiplier
_BLOCK = 1 << 14  # states per jump: the limb arrays stay in cache
# Every limb operation is uint64 with uint64: numpy 1.x turns uint64 with a
# Python int into float64 for scalars.
_LOW, _32, _58, _63, _64 = map(np.uint64, (_M32, 32, 58, 63, 64))


def _seeded(seed: int) -> tuple[int, int]:
    """PCG64's (state, increment) after seeding with ``SeedSequence(seed)``."""
    if seed < 0:
        raise ValueError(f"rng seed must be >= 0, got {seed}")
    words = [seed >> s & _M32 for s in range(0, max(seed.bit_length(), 1), 32)]
    const, pool = 0x43B0D7E5, []

    def hashmix(value: int) -> int:
        nonlocal const
        value ^= const
        const = const * 0x931E8875 & _M32
        value = value * const & _M32
        return value ^ value >> 16

    def mix(x: int, y: int) -> int:
        r = (0xCA01F9DD * x - 0x4973F715 * y) & _M32
        return r ^ r >> 16

    for i in range(4):
        pool.append(hashmix(words[i] if i < len(words) else 0))
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in words[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    const, out = 0x8B51F9DD, []
    for i in range(8):  # generate_state(4, uint64), as 8 words low half first
        value = pool[i % 4] ^ const
        const = const * 0x58F38DED & _M32
        value = value * const & _M32
        out.append(value ^ value >> 16)
    s0, s1, i0, i1 = (out[j] | out[j + 1] << 32 for j in range(0, 8, 2))
    inc = ((i0 << 64 | i1) << 1 | 1) & _M128
    return ((inc + (s0 << 64 | s1)) * _MULT + inc) & _M128, inc


def _jump(inc: int, steps: int) -> tuple[int, int]:
    """(a, c) with the state ``steps`` steps after s equal to a.s + c mod 2^128."""
    a, c, ma, mc = 1, 0, _MULT, inc
    while steps:
        if steps & 1:
            a, c = a * ma & _M128, (c * ma + mc) & _M128
        ma, mc = ma * ma & _M128, (mc * ma + mc) & _M128
        steps >>= 1
    return a, c


def _mul(x, y):
    """The 128-bit products of uint64 x and y, as (high, low) limbs."""
    xl, xh, yl, yh = x & _LOW, x >> _32, y & _LOW, y >> _32
    ll, lh, hl = xl * yl, xl * yh, xh * yl
    mid = (ll >> _32) + (lh & _LOW) + (hl & _LOW)
    return xh * yh + (lh >> _32) + (hl >> _32) + (mid >> _32), x * y


def _affine(a: int, c: int, hi, lo):
    """a.x + c mod 2^128 of the limbs x = (hi, lo)."""
    a1, a0 = np.uint64(a >> 64), np.uint64(a & _M64)
    top, low = _mul(a0, lo)
    new = low + np.uint64(c & _M64)
    return top + a0 * hi + a1 * lo + np.uint64(c >> 64) + (new < low), new


def _outputs(state: int, inc: int, size: int):
    """PCG64's outputs after ``state``, in blocks of ``size``: the first block's
    states by doubling, each later one's as the jump by size of the last."""
    hi, lo = np.empty(size, np.uint64), np.empty(size, np.uint64)
    first = (state * _MULT + inc) & _M128
    hi[0], lo[0] = first >> 64, first & _M64
    done = 1
    while done < size:  # state j + done is the jump by done of state j
        take = min(done, size - done)
        hi[done:done + take], lo[done:done + take] = _affine(
            *_jump(inc, done), hi[:take], lo[:take]
        )
        done += take
    jump = _jump(inc, size)
    while True:
        x, rot = hi ^ lo, hi >> _58  # XSL-RR
        yield (x >> rot) | (x << (_64 - rot & _63))
        hi, lo = _affine(*jump, hi, lo)


def integer_blocks(seed: int, high: int, n: int, size: int):
    """``integers(seed, high, n)`` as consecutive int64 arrays of ``size``
    draws, the last one shorter when size does not divide n: memory follows
    the block, not n."""
    state, inc = _seeded(int(seed))
    bits = 32 if high <= 1 << 32 else 64
    # Reject a word when its product's low bits fall below 2^bits mod high.
    floor = (1 << bits) % high
    need = math.ceil(n * 2**bits / (2**bits - floor))  # words, with rejections
    outputs = _outputs(state, inc, min(_BLOCK, need // (64 // bits) + 1))
    held, count, got = [], 0, 0
    while got < n:
        # errstate per step: a generator must not leave it set while its
        # caller runs.
        with np.errstate(over="ignore"):
            out = next(outputs)
            if bits == 64:
                top, low = _mul(out, np.uint64(high))
            else:  # each output's low half, then its high half
                words = np.stack((out & _LOW, out >> _32), axis=1).reshape(-1)
                prod = words * np.uint64(high)
                top, low = prod >> _32, prod & _LOW
            top = top[low >= np.uint64(floor)][: n - got].astype(np.int64)
        got += len(top)
        held.append(top)
        count += len(top)
        if count < size and got < n:
            continue
        joined = np.concatenate(held)
        whole = count if got == n else count - count % size
        for start in range(0, whole, size):
            yield joined[start:start + size]
        held, count = [joined[whole:]], count - whole


def integers(seed: int, high: int, size) -> np.ndarray:
    """``np.random.default_rng(seed).integers(0, high, size)`` as int64, for
    1 <= high <= 2^63 and size an int or a shape: one block of
    ``integer_blocks``."""
    draws = np.empty(size, dtype=np.int64)
    for block in integer_blocks(seed, high, draws.size, max(1, draws.size)):
        draws = block.reshape(size)
    return draws
