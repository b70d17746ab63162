"""The per-trial random streams of rank_scan, computed for many trials at once.

Trial k of a scan with seed s draws the doubles of NumPy's default
generator seeded with [s, k], a PCG64 stream under SeedSequence, bit for
bit.  Here they come from integer arrays, one expression for every step
of a whole chunk of trials, with no generator object per trial and no
numpy.random import.  Only rank_scan imports this module, so commands
that never scan do not compile it.
"""

from __future__ import annotations

import numpy as np

_M32, _M64, _M128 = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def pcg64_streams(seed: int, ks) -> tuple[np.ndarray, np.ndarray]:
    """PCG64 (state, increment) of NumPy's default generator seeded with [seed, k], for each k.

    NumPy's SeedSequence on the 32-bit words of seed and k, vectorised
    over k in uint32 arrays (its hash constants do not depend on the
    data), then PCG64's seeding: one LCG step from increment plus seed.
    Every k must have as many 32-bit words as max(ks): a chunk of
    rank_scan starts at a multiple of its 256 trials, so it never holds
    both sides of a power of 2**32.
    """
    def words(v: int) -> list[int]:
        return [v >> s & _M32 for s in range(0, max(1, v.bit_length()), 32)]

    sw = words(seed)
    count = len(words(max(ks)))
    ent = np.zeros((len(ks), max(4, len(sw) + count)), np.uint32)  # a zero word hashes as an absent one
    ent[:, :len(sw)] = sw
    for j in range(count):
        ent[:, len(sw) + j] = [k >> 32 * j & _M32 for k in ks]
    hc = 0x43B0D7E5

    def hashmix(v):
        nonlocal hc
        v = v ^ np.uint32(hc)
        hc = hc * 0x931E8875 & _M32
        v = v * np.uint32(hc)
        return v ^ v >> np.uint32(16)

    def mix(x, y):
        r = np.uint32(0xCA01F9DD) * x - np.uint32(0x4973F715) * y
        return r ^ r >> np.uint32(16)

    pool = [hashmix(ent[:, i]) for i in range(4)]
    for s in range(4):
        for d in range(4):
            if s != d:
                pool[d] = mix(pool[d], hashmix(pool[s]))
    for s in range(4, ent.shape[1]):
        for d in range(4):
            pool[d] = mix(pool[d], hashmix(ent[:, s]))
    hc, out = 0x8B51F9DD, []
    for i in range(8):  # generate_state(4, uint64): eight words, the low half of each uint64 first
        v = pool[i % 4] ^ np.uint32(hc)
        hc = hc * 0x58F38DED & _M32
        v = v * np.uint32(hc)
        out.append((v ^ v >> np.uint32(16)).astype(object))
    w = [out[i] | out[i + 1] << 32 for i in range(0, 8, 2)]
    inc = ((w[2] << 64 | w[3]) << 1 | 1) & _M128
    return ((inc + (w[0] << 64 | w[1])) * _PCG_MULT + inc) & _M128, inc


def pcg64_doubles(state: np.ndarray, inc: np.ndarray, count: int) -> tuple[np.ndarray, np.ndarray]:
    """The next count doubles of each PCG64 stream, as an (m, count) array, and the advanced states.

    c LCG steps take a state s to s * M**c + inc * (M**(c-1) + ... + 1)
    mod 2**128, so every step of every stream is one expression; then the
    XSL-RR output and (x >> 11) * 2**-53 per double: Generator.random's bits.
    """
    a, b, mults, sums = 1, 0, [], []
    for _ in range(count):
        a, b = a * _PCG_MULT & _M128, (b * _PCG_MULT + 1) & _M128
        mults.append(a)
        sums.append(b)
    states = (state[:, None] * np.array(mults, object) + inc[:, None] * np.array(sums, object)) & _M128
    x = (states >> 64 ^ states) & _M64
    rot = states >> 122
    return states[:, -1], (((x >> rot | x << 64 - rot) & _M64) >> 11).astype(float) * 2.0**-53
