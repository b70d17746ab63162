"""The per-trial random streams of rank_scan, computed for many trials at once.

Trial k of a scan with seed s draws the doubles of NumPy's default
generator seeded with [s, k], a PCG64 stream under SeedSequence, bit for
bit.  Here they come from 32-bit limbs in uint64 arrays, one expression
for every step of a whole chunk of trials, with no generator object per
trial and no numpy.random import.  A stream's 128-bit state and
increment are rows of 4 limbs, the lowest first.  Only rank_scan
imports this module, so commands that never scan do not compile it.
"""

from __future__ import annotations

import numpy as np

_M32 = np.uint64(0xFFFFFFFF)
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _limbs(v: int) -> list[int]:
    """The four 32-bit limbs of a 128-bit integer, the lowest first."""
    return [v >> 32 * j & 0xFFFFFFFF for j in range(4)]


def _mul_add(x: np.ndarray, k: np.ndarray) -> np.ndarray:
    """x[0] * k[0] + x[1] * k[1] mod 2**128 for m pairs x (2, 4, m) and c pairs k (2, 4, c), as (4, m, c).

    Limbs lead, so every operation runs on whole (m, c) planes.  Each
    32 x 32-bit limb product fits in a uint64; its low half goes to the
    column of its limbs and its high half to the next, so a column sums at
    most 14 values below 2**32.  One carry pass then leaves 32-bit limbs,
    and the carry out of the top limb is dropped.
    """
    cols = np.zeros((4, x.shape[-1], k.shape[-1]), np.uint64)
    for i in range(4):
        p = x[:, i, None, :, None] * k[:, :4 - i, None, :]  # (2, 4 - i, m, c): limb i times limbs j < 4 - i
        lo, hi = p & _M32, p[:, :3 - i] >> np.uint64(32)
        cols[i:] += lo[0] + lo[1]
        cols[i + 1:] += hi[0] + hi[1]
    for j in range(3):
        cols[j + 1] += cols[j] >> np.uint64(32)
    return cols & _M32


# Column c - 1 holds M**c and 1 + M + ... + M**(c-1) mod 2**128, as (2, 4)
# limbs, for the PCG64 multiplier M: c LCG steps take a state s to
# s * M**c + inc * (1 + ... + M**(c-1)).  Doubled on demand, as the steps
# L + c are the steps c after the steps L.
_jumps = np.array([[[v] for v in _limbs(_PCG_MULT)], [[v] for v in _limbs(1)]], np.uint64)


def _jump_table(count: int) -> np.ndarray:
    """The first count columns of the jump table, grown to at least count columns."""
    global _jumps
    while _jumps.shape[-1] < count:
        last = _jumps[:, :, -1]  # (M**L, 1 + ... + M**(L-1)), then (0, 1) as the multipliers of column c
        x = np.stack([last.T, np.array([_limbs(0), _limbs(1)], np.uint64).T], axis=0)
        _jumps = np.concatenate([_jumps, _mul_add(x, _jumps).swapaxes(0, 1)], axis=-1)
    return _jumps[..., :count]


def pcg64_streams(seed: int, ks) -> tuple[np.ndarray, np.ndarray]:
    """PCG64 (state, increment) of NumPy's default generator seeded with [seed, k], for each k, as (m, 4) limbs.

    NumPy's SeedSequence on the 32-bit words of seed and k, vectorised
    over k in uint32 arrays (its hash constants do not depend on the
    data, so the hashes of one mixing step run together), then PCG64's
    seeding: one LCG step from increment plus seed.  Every k must have as
    many 32-bit words as max(ks): a chunk of rank_scan starts at a
    multiple of its 256 trials, so it never holds both sides of a power
    of 2**32.
    """
    def words(v: int) -> list[int]:
        return [v >> s & 0xFFFFFFFF for s in range(0, max(1, v.bit_length()), 32)]

    sw = words(seed)
    count = len(words(max(ks)))
    ent = np.zeros((max(4, len(sw) + count), len(ks)), np.uint32)  # a zero word hashes as an absent one
    ent[:len(sw)] = np.array(sw, np.uint32)[:, None]
    for j in range(count):
        ent[len(sw) + j] = [k >> 32 * j & 0xFFFFFFFF for k in ks]
    hc = 0x43B0D7E5

    def hashes(v, mult=0x931E8875):
        """The next len(v) hashes of SeedSequence, one on each row of v."""
        nonlocal hc
        xs = []
        for _ in range(len(v)):
            xs.append(hc)
            hc = hc * mult & 0xFFFFFFFF
            xs.append(hc)
        xs = np.array(xs, np.uint32).reshape(-1, 2, 1)
        v = (v ^ xs[:, 0]) * xs[:, 1]
        return v ^ v >> np.uint32(16)

    def mix(x, y):
        r = np.uint32(0xCA01F9DD) * x - np.uint32(0x4973F715) * y
        return r ^ r >> np.uint32(16)

    pool = hashes(ent[:4])
    for s in range(4):
        d = [i for i in range(4) if i != s]
        pool[d] = mix(pool[d], hashes(pool[[s] * 3]))
    for s in range(4, len(ent)):
        pool = mix(pool, hashes(ent[[s] * 4]))
    hc = 0x8B51F9DD
    w = hashes(pool[[0, 1, 2, 3] * 2], 0x58F38DED).astype(np.uint64)  # generate_state(4, uint64), low halves first
    init, seq = w[[2, 3, 0, 1]], w[[6, 7, 4, 5]]  # limbs of the 128-bit seed and sequence words
    inc = (seq << np.uint64(1) | np.vstack([np.ones_like(seq[:1]), seq[:3] >> np.uint64(31)])) & _M32
    # state (inc + init) * M + inc, as init * M + inc * (M + 1)
    k = np.array([_limbs(_PCG_MULT), _limbs(_PCG_MULT + 1)], np.uint64)[..., None]
    return _mul_add(np.stack([init, inc]), k)[..., 0].T, inc.T


def pcg64_doubles(state: np.ndarray, inc: np.ndarray, count: int) -> tuple[np.ndarray, np.ndarray]:
    """The states of PCG64 streams (m, 4) after count more steps, and those steps' doubles, as (m, count).

    Every step of every stream is one jump from the given state, through
    the jump table; then the XSL-RR output and (x >> 11) * 2**-53 per
    double: Generator.random's bits.
    """
    s = _mul_add(np.stack([state.T, inc.T]), _jump_table(count))
    x = (s[2] ^ s[0]) | (s[3] ^ s[1]) << np.uint64(32)  # high 64 bits xor low 64 bits
    rot = s[3] >> np.uint64(26)
    out = x >> rot | x << (np.uint64(64) - rot & np.uint64(63))
    return s[:, :, -1].T, (out >> np.uint64(11)).astype(float) * 2.0**-53
