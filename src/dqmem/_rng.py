"""numpy's ``default_rng(seed).uniform`` stream, without ``numpy.random``.

``uniform(seed, lo, hi, n)`` returns, bit for bit, the float64 array that
``np.random.default_rng(seed).uniform(lo, hi, size=n)`` does. Importing
``numpy.random`` loads `secrets`, `hashlib` and OpenSSL (about 5 MB of
memory and 6 ms), and `Generator` methods may change between numpy
versions (NEP 19 fixes only the bit generators' streams), so dqmem
reproduces the two documented algorithms behind those draws instead:

- SeedSequence (numpy's ``bit_generator.pyx``) hashes the seed's uint32
  words into a 4-word pool and draws PCG64's 128-bit initial state and
  stream from it, with Python ints;
- PCG64 (O'Neill, "PCG: A Family of Simple Fast Space-Efficient
  Statistically Good Algorithms for Random Number Generation", 2014)
  steps s <- s * M + inc mod 2**128 and outputs the XSL-RR of the new
  state; a draw is lo + (hi - lo) * ((x >> 11) * 2**-53).

The states run as lanes: up to `_LANES` consecutive states, each held as
four 32-bit limbs in uint64 rows, all moved on together by one jump-ahead
(M**L, C_L). Only the capacity sweep and a sampled code import this module.
"""

import operator

import numpy as np

_M32 = 0xFFFFFFFF
_M128 = (1 << 128) - 1
_LANES = 2048

# PCG64's default multiplier, and SeedSequence's hash and mix constants
_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715


def _hasher(const: int, mult: int):
    """SeedSequence's uint32 hash, whose multiplier moves on at each call."""
    def hash32(value):
        nonlocal const
        value ^= const
        const = const * mult & _M32
        value = value * const & _M32
        return value ^ value >> 16
    return hash32


def _seeded(seed: int) -> tuple[int, int]:
    """PCG64's (state, inc) as ``default_rng(seed)`` leaves them.

    The seed's entropy is its uint32 words, low first. The 4-word pool
    takes up to 4 (every seed below 2**128) before its mixing rounds; any
    further word is mixed into each pool word after them.
    """
    seed = operator.index(seed)
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    words = [seed >> 32 * i & _M32 for i in range(max(1, -(-seed.bit_length() // 32)))]
    hashmix = _hasher(_INIT_A, _MULT_A)

    def mix(dst, value):
        mixed = _MIX_L * pool[dst] - _MIX_R * hashmix(value) & _M32
        pool[dst] = mixed ^ mixed >> 16

    pool = [hashmix(words[i] if i < len(words) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                mix(dst, pool[src])
    for word in words[4:]:  # a seed of 2**128 or more
        for dst in range(4):
            mix(dst, word)
    # generate_state(4, uint64): 8 uint32 words from the cycled pool, paired low first
    drawn = list(map(_hasher(_INIT_B, _MULT_B), pool * 2))
    w = [drawn[2 * j] | drawn[2 * j + 1] << 32 for j in range(4)]
    initstate, initseq = w[0] << 64 | w[1], w[2] << 64 | w[3]
    # PCG's srandom: state 0, step, add initstate, step
    inc = (initseq << 1 | 1) & _M128
    return (inc + initstate) * _MULT + inc & _M128, inc


def _affine(x: np.ndarray, a: int, c: int) -> np.ndarray:
    """The limbs of (a * s + c) mod 2**128 for every state s in x.

    x is a (4, m) uint64 array: the 32-bit limbs of m states, low limb in
    row 0. Each product of two limbs is below 2**64; a row gathers at most
    8 halves of them below 2**32, plus c's limb and a carry, so no row
    reaches 2**35 before the carries run.
    """
    limbs = np.array([a >> 32 * j & _M32 for j in range(4)], np.uint64)
    out = np.empty_like(x)
    out[:] = np.array([c >> 32 * k & _M32 for k in range(4)], np.uint64)[:, None]
    for i in range(4):
        p = x[i] * limbs[:4 - i, None]  # limb i of s times limb j of a, into row i + j
        out[i:] += p & _M32
        out[i + 1:] += p[:3 - i] >> 32
    for k in range(3):
        out[k + 1] += out[k] >> 32
    out &= _M32
    return out


def uniform(seed: int, lo: float, hi: float, n: int) -> np.ndarray:
    """``np.random.default_rng(seed).uniform(lo, hi, size=n)``, bit for bit.

    seed is a non-negative int; lo <= hi, with hi - lo finite, as numpy
    requires. The draws fill the array in stream order, so a (rows, K)
    sample is this array reshaped.
    """
    lo, hi = float(lo), float(hi)
    state, inc = _seeded(seed)
    # the smallest power of two >= min(n, _LANES)
    lanes = 1 << min(max(n, 1) - 1, _LANES - 1).bit_length()
    x = np.empty((4, lanes), np.uint64)
    s1 = state * _MULT + inc & _M128  # the first draw's state
    x[:, 0] = [s1 >> 32 * k & _M32 for k in range(4)]
    a, c, m = _MULT, inc, 1  # (a, c) jumps m states ahead
    while m < lanes:
        x[:, m:2 * m] = _affine(x[:, :m], a, c)
        a, c, m = a * a & _M128, (a * c + c) & _M128, 2 * m
    out = np.empty(n)
    for start in range(0, n, lanes):
        if start:
            x = _affine(x, a, c)
        xsl = (x[3] << 32 | x[2]) ^ (x[1] << 32 | x[0])
        rot = x[3] >> 26  # the top 6 bits of the 128-bit state
        bits = xsl >> rot | xsl << (64 - rot & 63)
        out[start:start + lanes] = (bits >> 11)[:n - start]
    out *= 2.0 ** -53
    out *= hi - lo
    out += lo
    return out
