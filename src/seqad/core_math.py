"""Dense float64 kernels: stable activations, seeded RNG, Glorot init, Adam.

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
    "sigmoid",
    "tanh",
    "Rng",
    "glorot_init",
    "AdamState",
    "adam_step",
]


def sigmoid(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Elementwise logistic function, stable for large |x| (no overflow).

    Branch-free: with e = exp(-|x|) and r = 1/(1+e), the result is r
    where x >= 0 and e*r where x < 0, computed as exp(min(x, 0)) * r,
    since that factor is exactly 1 for x >= 0 and exactly e for x < 0.
    exp() never sees a positive argument, so nothing overflows, and large
    negative inputs stay strictly positive instead of rounding to 0.
    `out` may be `x` itself, which activates an array in place.
    """
    x = np.asarray(x, dtype=np.float64)
    r = np.abs(x)
    np.negative(r, out=r)
    np.exp(r, out=r)
    r += 1.0
    np.divide(1.0, r, out=r)
    factor = np.minimum(x, 0.0, out=out)
    np.exp(factor, out=factor)
    return np.multiply(factor, r, out=factor)


def tanh(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Elementwise hyperbolic tangent; `out` as for sigmoid."""
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


@dataclass
class AdamState:
    """First/second moment accumulators, one per parameter array."""

    m: list = field(default_factory=list)
    v: list = field(default_factory=list)
    step: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8

    @classmethod
    def for_params(cls, params, beta1=0.9, beta2=0.999, eps=1e-8) -> "AdamState":
        return cls(
            m=[np.zeros_like(p) for p in params],
            v=[np.zeros_like(p) for p in params],
            step=0,
            beta1=beta1,
            beta2=beta2,
            eps=eps,
        )


def adam_step(params, grads, state: AdamState, lr: float):
    """One Adam update with bias correction; mutates params in place.

    Returns the (params, state) pair for call-site convenience. The
    caller owns the single-writer discipline; nothing here locks.
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
    b1, b2 = state.beta1, state.beta2
    for p, g, m, v in zip(params, grads, state.m, state.v):
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * g * g
        m_hat = m / (1.0 - b1**t)
        v_hat = v / (1.0 - b2**t)
        p -= lr * m_hat / (np.sqrt(v_hat) + state.eps)
    return params, state
