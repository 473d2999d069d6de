"""Dense float64 kernels: the tanh activation, seeded streams, Glorot init, Adam.

Everything runs in 64-bit precision so that finite-difference gradient
checks are meaningful at 1e-4 relative tolerance. Matrices are plain
row-major numpy arrays; vectors are 1-D arrays.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

import numpy as np

from .errors import ShapeError

__all__ = [
    "tanh",
    "substream",
    "glorot_init",
    "AdamState",
    "adam_step",
]


def tanh(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Elementwise hyperbolic tangent. `out` may be `x` itself, which
    activates an array in place."""
    return np.tanh(np.asarray(x, dtype=np.float64), out=out)


def substream(seed: int, name: str) -> np.random.Generator:
    """The PCG64 stream that `name` derives from `seed`, independent of
    the other names' streams and stable across runs, so one top-level
    seed drives initialization, shuffling, dropout and synthesis apart."""
    mix = zlib.crc32(name.encode("utf-8"))
    return np.random.Generator(np.random.PCG64((seed * 1_000_003 + mix) % 2**63))


def glorot_init(rows: int, cols: int, rng: np.random.Generator) -> np.ndarray:
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
    """First and second moment accumulators for one parameter vector, and
    the scratch `adam_step` computes in: two rows of at most ADAM_BLOCK
    float64, so a step allocates nothing the size of the parameters."""

    m: np.ndarray
    v: np.ndarray
    scratch: np.ndarray
    step: int = 0

    @classmethod
    def for_vector(cls, p: np.ndarray) -> "AdamState":
        return cls(np.zeros_like(p), np.zeros_like(p), np.empty((2, min(ADAM_BLOCK, p.size))))


def adam_step(p: np.ndarray, g: np.ndarray, state: AdamState, lr: float) -> None:
    """One Adam update with bias correction of the 1-D parameter vector
    `p` by its gradient `g`; mutates p and state in place. The caller
    owns the single-writer discipline; nothing here locks.

    The vector is updated block by block in the state's scratch, with
    the operations in the order of the textbook update

        m = b1 m + (1 - b1) g;  v = b2 v + (1 - b2) g g
        p -= lr (m / (1 - b1^t)) / (sqrt(v / (1 - b2^t)) + eps)

    so the result is bit-identical to it. A block of a 1-D array is a
    view, so the update writes straight into `p`.
    """
    if p.ndim != 1 or g.shape != p.shape or state.m.shape != p.shape:
        raise ShapeError(
            f"need one 1-D shape: parameter {p.shape}, gradient {g.shape}, moments {state.m.shape}"
        )
    state.step += 1
    t = state.step
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    c1, c2 = 1.0 - b1**t, 1.0 - b2**t
    for lo in range(0, p.size, ADAM_BLOCK):
        block = slice(lo, lo + ADAM_BLOCK)
        bp, bg, bm, bv = p[block], g[block], state.m[block], state.v[block]
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
