"""Dense float64 kernels: the tanh activation, seeded RNG, Glorot init, Adam.

Everything runs in 64-bit precision so that finite-difference gradient
checks are meaningful at 1e-4 relative tolerance. Matrices are plain
row-major numpy arrays; vectors are 1-D arrays.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field

import numpy as np

from .errors import ShapeError

__all__ = [
    "tanh",
    "Rng",
    "glorot_init",
    "AdamState",
    "adam_step",
]


def tanh(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Elementwise hyperbolic tangent. `out` may be `x` itself, which
    activates an array in place."""
    return np.tanh(np.asarray(x, dtype=np.float64), out=out)


class Rng:
    """Deterministic random source: one seed, reproducible draw sequence.

    Thin wrapper over numpy's PCG64 generator. `spawn(name)` derives an
    independent, named substream so a single top-level seed can drive
    initialization, dropout, and data synthesis separately.
    """

    def __init__(self, seed: int):
        self.seed = int(seed)
        self._gen = np.random.Generator(np.random.PCG64(self.seed))

    def uniform(self, low=0.0, high=1.0, size=None) -> np.ndarray:
        return self._gen.uniform(low, high, size)

    def normal(self, loc=0.0, scale=1.0, size=None) -> np.ndarray:
        return self._gen.normal(loc, scale, size)

    def permutation(self, n: int) -> np.ndarray:
        return self._gen.permutation(n)

    def spawn(self, name: str) -> "Rng":
        """Derive a child generator keyed by `name`; stable across runs."""
        mix = zlib.crc32(name.encode("utf-8"))
        return Rng((self.seed * 1_000_003 + mix) % (1 << 63))


def glorot_init(rows: int, cols: int, rng: Rng) -> np.ndarray:
    """Glorot-uniform matrix: entries in ±sqrt(6 / (rows + cols))."""
    if rows < 1 or cols < 1:
        raise ShapeError(f"matrix dimensions must be positive, got ({rows}, {cols})")
    bound = np.sqrt(6.0 / (rows + cols))
    return rng.uniform(-bound, bound, (rows, cols))


# Adam's moment decay rates and denominator guard
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


# Adam works through its parameters in blocks of this many float64, so its
# scratch is two such blocks however large the model is
ADAM_BLOCK = 16_384


@dataclass
class AdamState:
    """First/second moment accumulators, one per parameter array, and the
    scratch `adam_step` computes in: two rows of at most ADAM_BLOCK
    float64, made on the first step, so a step allocates nothing the
    size of the parameters."""

    m: list = field(default_factory=list)
    v: list = field(default_factory=list)
    step: int = 0
    scratch: np.ndarray = field(default_factory=lambda: np.empty((2, 0)))

    @classmethod
    def for_params(cls, params) -> "AdamState":
        return cls(m=[np.zeros_like(p) for p in params], v=[np.zeros_like(p) for p in params])


def adam_step(params, grads, state: AdamState, lr: float) -> None:
    """One Adam update with bias correction; mutates params and state in
    place. The caller owns the single-writer discipline; nothing here
    locks.

    Each array is updated block by block in the state's scratch, with
    the operations in the order of the textbook update

        m = b1 m + (1 - b1) g;  v = b2 v + (1 - b2) g g
        p -= lr (m / (1 - b1^t)) / (sqrt(v / (1 - b2^t)) + eps)

    so the result is bit-identical to it. Parameters and gradients must
    be C-contiguous, since the blocks are views of them.
    """
    if len(params) != len(grads) or len(params) != len(state.m):
        raise ShapeError(
            f"parameter/gradient/state count mismatch: "
            f"{len(params)}/{len(grads)}/{len(state.m)}"
        )
    for p, g in zip(params, grads):
        if p.shape != g.shape:
            raise ShapeError(f"gradient shape {g.shape} does not match parameter {p.shape}")
        if not (p.flags.c_contiguous and g.flags.c_contiguous):
            raise ShapeError("parameters and gradients must be C-contiguous arrays")
    width = min(ADAM_BLOCK, max((p.size for p in params), default=0))
    if state.scratch.shape[1] < width:
        state.scratch = np.empty((2, width))
    state.step += 1
    t = state.step
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    c1, c2 = 1.0 - b1**t, 1.0 - b2**t
    for arrays in zip(params, grads, state.m, state.v):
        p, g, m, v = (a.reshape(-1) for a in arrays)
        for lo in range(0, p.size, ADAM_BLOCK):
            block = slice(lo, lo + ADAM_BLOCK)
            bp, bg, bm, bv = p[block], g[block], m[block], v[block]
            s, u = state.scratch[:, : bp.size]
            bm *= b1
            bm += np.multiply(bg, 1.0 - b1, out=s)
            bv *= b2
            np.multiply(bg, 1.0 - b2, out=s)
            bv += np.multiply(s, bg, out=s)
            np.divide(bm, c1, out=s)  # m_hat
            np.divide(bv, c2, out=u)  # v_hat
            np.sqrt(u, out=u)
            u += ADAM_EPS
            s *= lr
            bp -= np.divide(s, u, out=s)
