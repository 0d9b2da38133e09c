"""A Monte Carlo round's draws from its Philox stream, for its running
trials only: drawn through the last running trial, or, where few trials
run, computed from the stream's key. Philox4x64-10 is counter-based
(Salmon et al., "Parallel random numbers: as easy as 1, 2, 3", SC 2011):
word i depends only on the key and i, so any set of words costs what it
holds, not what precedes it. The words are those of numpy's `Philox` and
`Generator.random`.

A module apart from `montecarlo`, which compiles while the heap is at its
largest: the compiler's peak there is every command's peak RSS.
"""

from __future__ import annotations

import numpy as np

# Seconds a round's draws cost by either path (see `round_draws`), measured
# in-process on a shared 2-core x86-64 VM (numpy 2.4, the best of 25 runs of
# `round_draws` on 10^5 trials): a drawn round costs per word drawn through the
# last running trial (7 ns at width 2, 9 ns at width 1) and per piece; a
# direct round costs per Philox block and per piece, where about 11 ufunc
# calls a Philox round over 10 rounds, and the setup around them, put a
# floor under a piece of however few trials (0.12 to 0.25 ms).
_DRAWN_WORD_S = 7e-9
_DRAWN_CALL_S = 6e-6
_DIRECT_BLOCK_S = 2e-7
_DIRECT_CALL_S = 1.5e-4

# The multipliers of lanes 0 and 2 and the Weyl increments of the key
# between rounds, as Python ints: numpy's uint64 loops run at the first
# call, not at import, where every command would page them in.
_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)


def blocks(key: np.ndarray, counters: np.ndarray) -> np.ndarray:
    """The (4, len(counters)) output words of Philox4x64-10 under `key` (two
    uint64) at each counter (c, 0, 0, 0) of `counters`. A round multiplies
    lanes 0 and 2: the low product words by one uint64 multiply, the high
    ones from the four products of 32-bit halves, each below 2^64. The
    rounds alternate between two state tables whose views are made once:
    a call costs about 11 ufunc calls a round however few its counters.
    Lanes are little-endian "<u8", so a "<u4" view holds low halves first."""
    size = len(counters)
    # uint64 arrays, not scalars, wherever values wrap: numpy scalars warn
    low, shift = np.uint64(0xFFFFFFFF), np.uint64(32)
    m = np.array(_M, dtype=np.uint64)
    m_halves = np.array([[x & 0xFFFFFFFF for x in _M], [x >> 32 for x in _M]], dtype=np.uint64)
    keys = (key[:, None] + np.array(_W, dtype=np.uint64)[:, None] * np.arange(10, dtype=np.uint64))
    keys = keys.T[:, :, None]
    state = np.zeros((2, 4, size), dtype="<u8")
    state[0, 0] = counters
    halves = [s[::2].view("<u4").reshape(2, size, 2).transpose(2, 0, 1)[:, None] for s in state]
    even, odd = [s[::2] for s in state], [s[1::2] for s in state]
    swapped = [s[2::-2] for s in state]  # lanes 2 and 0
    prod = np.empty((2, 2, 2, size), dtype=np.uint64)  # (half of x, half of M, lane)
    ll, lh, hl, hh = prod.reshape(4, 2, size)
    for r in range(10):
        i, j = r & 1, ~r & 1
        np.multiply(halves[i], m_halves[None, :, :, None], out=prod)
        # high word: hh + (t >> 32) + (u >> 32), t = (ll >> 32) + lh, u = (t & low) + hl
        np.right_shift(ll, shift, out=ll)
        ll += lh
        np.bitwise_and(ll, low, out=lh)
        lh += hl
        np.right_shift(prod[0], shift, out=prod[0])  # t >> 32 and u >> 32
        hh += ll
        hh += lh
        # (c0, c1, c2, c3) -> (hi(M1 c2) ^ c1 ^ k0, lo(M1 c2), hi(M0 c0) ^ c3 ^ k1, lo(M0 c0))
        np.multiply(swapped[i], m[::-1, None], out=odd[j])
        np.bitwise_xor(hh[::-1], odd[i], out=even[j])
        even[j] ^= keys[r]
    return state[0]


def doubles(key: np.ndarray, trials: np.ndarray, out: np.ndarray) -> None:
    """Write into out, (len(trials),) or (len(trials), width), the doubles
    that `Generator(Philox(key)).random` gives the ascending `trials` of a
    (trials, width) draw: word i = trial * width + column of the stream is
    lane i % 4 of the block at counter i // 4 + 1, and its double is
    (word >> 11) * 2^-53. A block read by several words is computed once."""
    width = out[0].size
    word = (trials[:, None] * width + np.arange(width)).reshape(-1)  # ascending
    block = word >> 2
    head = np.empty(len(word), dtype=bool)
    head[0] = True
    np.not_equal(block[1:], block[:-1], out=head[1:])
    counters = block[head]
    del block
    word &= 3
    word *= len(counters)
    word += np.cumsum(head)
    word -= 1  # lane * blocks + the word's block: its place in the (4, blocks) table
    counters += 1
    words = blocks(key, counters).reshape(-1)[word]
    words >>= np.uint64(11)
    np.multiply(words, 2.0 ** -53, out=out.reshape(-1))


def round_draws(gen: np.random.Generator, alive: np.ndarray, buf: np.ndarray):
    """The draws of doubles from gen's fresh stream that one trials-long
    draw would give the ascending running trials `alive`, one per trial (or
    one row of buf.shape[1] per trial), made into buf one piece of at most
    len(buf) trials at a time: yields (a, b, u) with u the draws of
    alive[a:b]. The path the measured costs (`_DRAWN_WORD_S` and the rest)
    find cheaper makes them: either the stream is drawn through the last
    running trial and each piece's running trials are gathered, or the
    running trials' words are computed from the stream's key (`doubles`)."""
    width, end, running = buf[0].size, int(alive[-1]) + 1, len(alive)
    drawn = _DRAWN_CALL_S * -(-end // len(buf)) + _DRAWN_WORD_S * end * width
    # one block per running trial and 4 words of its row: exact at widths 1, 2 and 4
    direct = _DIRECT_CALL_S * -(-running // len(buf)) + _DIRECT_BLOCK_S * running * -(-width // 4)
    if direct < drawn:
        key = gen.bit_generator.state["state"]["key"]
        for a in range(0, running, len(buf)):
            b = min(a + len(buf), running)
            doubles(key, alive[a:b], buf[:b - a])
            yield a, b, buf[:b - a]
        return
    a = 0
    for lo in range(0, end, len(buf)):
        hi = min(lo + len(buf), end)
        u = buf[:hi - lo]
        gen.random(out=u)
        b = running if hi == end else int(alive.searchsorted(hi))
        if b > a:
            yield a, b, u[alive[a:b] - lo if lo else alive[a:b]]
        a = b
