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


@dataclass
class AdamState:
    """First/second moment accumulators, one per parameter array."""

    m: list = field(default_factory=list)
    v: list = field(default_factory=list)
    step: int = 0

    @classmethod
    def for_params(cls, params) -> "AdamState":
        return cls(m=[np.zeros_like(p) for p in params], v=[np.zeros_like(p) for p in params])


def adam_step(params, grads, state: AdamState, lr: float) -> None:
    """One Adam update with bias correction; mutates params and state in
    place. The caller owns the single-writer discipline; nothing here
    locks.
    """
    if len(params) != len(grads) or len(params) != len(state.m):
        raise ShapeError(
            f"parameter/gradient/state count mismatch: "
            f"{len(params)}/{len(grads)}/{len(state.m)}"
        )
    for p, g in zip(params, grads):
        if p.shape != g.shape:
            raise ShapeError(f"gradient shape {g.shape} does not match parameter {p.shape}")
    state.step += 1
    t = state.step
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    for p, g, m, v in zip(params, grads, state.m, state.v):
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * g * g
        m_hat = m / (1.0 - b1**t)
        v_hat = v / (1.0 - b2**t)
        p -= lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
