"""Deterministic random-stream derivation.

Every source of randomness in the package is a Philox4x64-10 counter-based
generator keyed by (seed, purpose, *indices) through numpy's SeedSequence.
Substreams are independent and random-access: the batch at time step t can
be regenerated without replaying steps 1..t-1, and the same (seed, path)
yields the identical bit stream on any platform. Values computed from it can
still differ in their last bits between hosts: ``ball_uniform`` draws its
radii with ``** (1 / dim)``, whose result follows numpy's SIMD dispatch
(its AVX-512 and AVX2 loops differ), so the drifting-quadratic stream is
bound to the host's dispatch; the classification streams matched under
both. ``step_streams`` builds one generator per block of steps and re-keys
it for each step from a cached table of 1 024-step key blocks that equals
SeedSequence's keys.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

# Purpose tags for substream derivation. Values are part of the on-disk
# reproducibility contract: changing them changes every generated stream.
STREAM = 0       # training batches, indexed by time step
EVAL = 1         # evaluation batches (same distribution, unseen draws)
HOLDOUT = 2      # per-step holdout routing coins
RESERVOIR = 3    # reservoir eviction decisions (sequential)
REPLAY = 4       # replay minibatch sampling (sequential)
VALIDATION = 5   # online-validation minibatch sampling (sequential)
INIT = 6         # model parameter initialization
NOISE = 7        # gradient-noise draws in theory simulations
MEANS = 8        # fixed class-mean layout for piecewise-task streams

BLOCK = 256      # steps per block that per-step draws are served from

# numpy SeedSequence's hash constants (numpy/random/bit_generator.pyx)
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R, _M32 = 0xCA01F9DD, 0x4973F715, 0xFFFFFFFF


@lru_cache(maxsize=64)
def _key_block(seed: int, purpose: int, block: int) -> np.ndarray:
    """Philox keys of (seed, purpose, t) for the 1 024 steps t of ``block``, hashing
    t into the pool of SeedSequence(seed, spawn_key=(purpose,)) as SeedSequence does."""
    words = max(4, (seed.bit_length() + 31) // 32) + ((purpose.bit_length() + 31) // 32 or 1)
    a, b = _INIT_A * pow(_MULT_A, 4 * words, 1 << 32) & _M32, _INIT_B   # after 4 hashmix per word
    t, out = (block << 10) | np.arange(1024, dtype=np.uint32), []
    for word in np.random.SeedSequence(seed, spawn_key=(purpose,)).pool.tolist():
        v = (t ^ a) * (a := a * _MULT_A & _M32)               # hashmix(t)
        v = (_MIX_L * word & _M32) - _MIX_R * (v ^ v >> 16)   # mix(word, .)
        v = (v ^ v >> 16 ^ b) * (b := b * _MULT_B & _M32)     # generate_state
        out.append((v ^ v >> 16).astype(np.uint64))
    keys = np.stack([out[0] | out[1] << 32, out[2] | out[3] << 32], axis=1)
    keys.setflags(write=False)   # its rows are handed out as keys
    return keys


def _step_key(seed, purpose, t) -> np.ndarray | None:
    """The table's Philox key of (seed, purpose, t); None outside the table."""
    if seed >= 0 and 0 <= t < 1 << 32:
        return _key_block(int(seed), int(purpose), int(t) >> 10)[int(t) & 1023]
    return None


def substream(seed: int, *path: int) -> np.random.Generator:
    """Return an independent Generator for the given (seed, path).

    Args:
        seed: experiment-level 64-bit seed.
        path: purpose tag plus optional indices (e.g. time step).
    """
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(p) for p in path))
    return np.random.Generator(np.random.Philox(ss))


def step_streams(seed: int, purpose: int, first: int, stop: int):
    """Yield, for t = first .. stop - 1, a Generator in the state
    ``substream(seed, purpose, t)`` starts in.

    The first step gets ``substream``'s own generator, and later steps in
    the key table re-key it before each yield (setting a state costs about a
    twentieth of building a generator), so finish a step's draws before
    taking the next. Steps outside the table get ``substream``'s own generator.
    """
    g = None
    for t in range(first, stop):
        key = _step_key(seed, purpose, t)
        if g is None or key is None:
            g = substream(seed, purpose, t)
            fresh = g.bit_generator.state   # counter 0, empty buffer
        else:
            fresh["state"]["key"] = key
            g.bit_generator.state = fresh
        yield g


def ball_uniform(rng: np.random.Generator, n: int, dim: int, radius: float) -> np.ndarray:
    """Draw n points uniformly from the closed Euclidean ball of given radius.

    Zero-mean and norm-bounded by construction, which is what the bounded
    gradient-noise model needs. The radii's last bits follow numpy's SIMD
    dispatch for ``** (1 / dim)``.
    """
    if radius == 0.0:
        return np.zeros((n, dim))
    dirs = rng.standard_normal((n, dim))
    norms = np.linalg.norm(dirs, axis=1, keepdims=True)
    norms[norms == 0.0] = 1.0
    dirs /= norms
    radii = radius * rng.random(n) ** (1.0 / dim)
    return dirs * radii[:, None]
