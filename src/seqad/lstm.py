"""A single LSTM layer: unrolled forward pass and exact backpropagation
through time, with the four gates fused into one weight matrix.

The layer holds one weight W of shape (4H, H+D) and one bias b of shape
(4H,), H hidden units and D inputs. Gate rows are ordered f, i, o, g,
so the three sigmoid gates are one contiguous block; columns are
[h, x], so W = [W_h | W_x]. Each step computes

    a = W_h h + W_x x + b            (4H pre-activations)
    f, i, o = sigmoid(a[:3H])        (forget, input, output gates)
    g = tanh(a[3H:])                 (candidate update)
    c' = f * c + i * g
    h' = o * tanh(c')

Every pass starts from zero hidden and cell state, since each window is
read on its own, and no gradient flows back into that state.

Layout. At the interface, sequences are time-major, (T, batch, inputs),
and states are (batch, hidden). Inside, every array is feature-major,
one row per unit and one column per sequence of the batch: a step works
on (4H, B) gates and (H, B) states, so the sigmoid block a[:3H], each
gate a[kH:(k+1)H] and every cell operand is one contiguous run. Every
pass returns the outputs of all T steps, a transposed view of its
(H, T, B) hidden rows, so the next layer reads them back feature-major
and layers chain without copying a transpose.

One step, `_step`, serves both passes: it projects its input with one
(4H, D) @ (D, B) GEMM into a (4H, B) block, adds the bias and W_h h,
and activates the block in place, all 4H rows with one tanh call, since
sigmoid(x) = (1 + tanh(x / 2)) / 2, before updating c and h.
`lstm_forward`, the training pass, and `lstm_infer`, the forward-only
pass, differ only in what they keep. The training pass keeps every step
for backpropagation: [h, x] as (H+D, T+1, B), the cell state as
(T+1, H, B) and the gates as (T, 4H, B). The forward-only pass keeps
only its outputs: it carries c as (H, B) state and writes each h to its
outputs, with the same bits.

The backward pass recomputes tanh(c) for all steps with one call,
computes every gate's local derivative for all steps at once, fills a
(T, 4H, B) buffer of gate gradients in a loop whose only GEMM is the W_h
product for the hidden-state gradient of the step before (none at t = 0,
whose previous state is the zero start), transposes those gradients to
(4H, T*B) in the gate buffer, which the loop no longer needs, and then
takes the weight gradient, straight into the caller's array, and the
input gradient as one GEMM each.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core_math import glorot_init, tanh
from .errors import DataError, ShapeError

__all__ = [
    "LstmLayerParams",
    "LstmStepCache",
    "LstmCache",
    "lstm_forward",
    "lstm_backward",
    "lstm_infer",
]


@dataclass
class LstmLayerParams:
    """Fused gate weights (4H, H+D) and biases (4H,); rows f, i, o, g."""

    w: np.ndarray
    b: np.ndarray

    @property
    def hidden_size(self) -> int:
        return self.w.shape[0] // 4

    @property
    def input_size(self) -> int:
        return self.w.shape[1] - self.hidden_size

    def arrays(self):
        return [self.w, self.b]

    @classmethod
    def init(cls, hidden_size: int, input_size: int, rng: np.random.Generator) -> "LstmLayerParams":
        """Glorot-uniform weights per gate, zero biases.

        The gate blocks are drawn in f, i, g, o order, so a seed gives the
        same values as a layout with one matrix per gate, and are stacked
        as f, i, o, g.
        """
        cols = hidden_size + input_size
        w_f, w_i, w_g, w_o = (glorot_init(hidden_size, cols, rng) for _ in range(4))
        return cls(w=np.concatenate([w_f, w_i, w_o, w_g]), b=np.zeros(4 * hidden_size))


@dataclass
class LstmStepCache:
    """One forward step, as batch-first views into the layer's buffers."""

    z: np.ndarray  # [h_prev, x], (B, hidden+input)
    gates: np.ndarray  # activated f, i, o, g, (B, 4*hidden)
    c: np.ndarray  # cell state after the step, (B, hidden)


@dataclass
class LstmCache:
    """The feature-major buffers of one forward pass: exactly what the
    backward pass reads, which recomputes tanh(c) from `c`.

    A sequence of T steps: `cache[t]` is step t's LstmStepCache, made of
    views into these buffers. The backward pass reuses the gate buffer,
    so a cache backpropagates once.
    """

    z: np.ndarray  # (H+D, T+1, B): z[:, t] = [h_{t-1}; x_t]; h_t is z[:H, t+1]; z[H:, T] unused
    gates: np.ndarray  # (T, 4H, B), activated f, i, o, g
    c: np.ndarray  # (T+1, H, B): c[0] is the zero initial cell state

    def __len__(self) -> int:
        return self.gates.shape[0]

    def __getitem__(self, t: int) -> LstmStepCache:
        t = range(len(self))[t]
        return LstmStepCache(z=self.z[:, t].T, gates=self.gates[t].T, c=self.c[t + 1].T)


def _check_inputs(params: LstmLayerParams, inputs) -> np.ndarray:
    inputs = np.asarray(inputs, dtype=np.float64)
    if inputs.ndim != 3:
        raise ShapeError(f"expected (T, batch, input) array, got shape {inputs.shape}")
    if inputs.shape[2] != params.input_size:
        raise ShapeError(f"input shape {inputs.shape} does not match input size {params.input_size}")
    if inputs.shape[0] == 0:
        raise DataError("cannot run an LSTM over an empty sequence")
    return inputs


def _step(params, x, a, h_prev, c_prev, c, h, work) -> None:
    """One cell update of `params`'s layer on feature-major arrays, in place.

    `x` is the step's (D, B) input. `a` is a (4H, B) buffer that takes
    its projection W_x x + b and leaves holding the activated gates; the
    new cell and hidden states are written to `c` and `h`, each (H, B),
    and `c` may be `c_prev`. `work` is a (4H, B) scratch buffer; tanh(c)
    passes through `work[:H]` and is not kept.
    """
    n = c.shape[0]
    s = 3 * n
    np.matmul(params.w[:, n:], x, out=a)
    a += params.b[:, None]
    a += np.matmul(params.w[:, :n], h_prev, out=work)
    # sigmoid(x) = (1 + tanh(x / 2)) / 2 on the f, i, o rows, which cannot overflow
    a[:s] *= 0.5
    np.tanh(a, out=a)
    a[:s] *= 0.5
    a[:s] += 0.5
    np.multiply(a[:n], c_prev, out=c)
    c += np.multiply(a[n : 2 * n], a[s:], out=work[:n])
    np.multiply(a[2 * n : s], tanh(c, out=work[:n]), out=h)


def lstm_forward(params: LstmLayerParams, inputs: np.ndarray) -> tuple[np.ndarray, LstmCache]:
    """Unroll the cell from zero state over a time-major (T, batch, input)
    array.

    Returns (outputs, cache): the hidden outputs (T, batch, hidden) of
    every step, a view into the cache's buffers, and the buffers the
    backward pass reads.
    """
    inputs = _check_inputs(params, inputs)
    t_len, b, d = inputs.shape
    h = params.hidden_size

    zbuf = np.empty((h + d, t_len + 1, b))
    zbuf[h:, :t_len] = inputs.transpose(2, 0, 1)
    zbuf[:h, 0] = 0.0
    cbuf = np.empty((t_len + 1, h, b))
    cbuf[0] = 0.0
    gates = np.empty((t_len, 4 * h, b))
    work = np.empty((4 * h, b))
    for t in range(t_len):
        _step(
            params, zbuf[h:, t], gates[t], zbuf[:h, t], cbuf[t], cbuf[t + 1], zbuf[:h, t + 1], work
        )
    return zbuf[:h, 1:].transpose(1, 2, 0), LstmCache(z=zbuf, gates=gates, c=cbuf)


def lstm_backward(
    params: LstmLayerParams,
    cache: LstmCache,
    grad_outputs: np.ndarray,
    out: LstmLayerParams,
) -> np.ndarray:
    """Exact gradients through an unrolled pass, weights shared across steps.

    `grad_outputs` is the gradient of the forward pass's outputs,
    (T, batch, hidden); a loss on the final state alone puts its
    gradient on step T-1 and zeros elsewhere.

    The weight and bias gradients, accumulated over the steps, overwrite
    `out`, arrays shaped like the layer's and typically views of one flat
    gradient vector. Returns d_inputs, (T, batch, input). The zero
    initial state takes no gradient. The cache's gate buffer is
    overwritten.
    """
    t_len = len(cache)
    if t_len == 0:
        raise DataError("no cached steps to backpropagate through")
    h, d = params.hidden_size, params.input_size
    b = cache.z.shape[2]
    if cache.z.shape != (h + d, t_len + 1, b):
        raise ShapeError(f"cache shape {cache.z.shape} does not match ({h + d}, T+1, batch)")
    if out.w.shape != params.w.shape or out.b.shape != params.b.shape:
        raise ShapeError(f"gradient arrays {out.w.shape}, {out.b.shape} do not match the layer's")

    grad_outputs = np.asarray(grad_outputs, dtype=np.float64)
    if grad_outputs.shape != (t_len, b, h):
        raise ShapeError(
            f"grad_outputs shape {grad_outputs.shape} does not match "
            f"(T={t_len}, batch={b}, hidden={h})"
        )
    seq_grads = grad_outputs.transpose(2, 0, 1)

    # Everything that does not depend on the recurrence, for all steps at
    # once and in place, on a (T, gate, H, B) view with gates f, i, o, g:
    # each gate's local derivative times the state it multiplies. The loop
    # then scales the f, i and g blocks by dc and the o block by dh, which
    # leaves the gate gradients in `d_gates`. tanh(c) is recomputed into
    # the array that becomes dc/dh once the o block has read it.
    a = cache.gates.reshape(t_len, 4, h, b)
    dc_per_dh = np.tanh(cache.c[1:])
    d4 = np.subtract(1.0, a)
    d4[:, :3] *= a[:, :3]
    d4[:, 0] *= cache.c[:-1]
    d4[:, 1] *= a[:, 3]
    d4[:, 2] *= dc_per_dh
    d_g = d4[:, 3]
    np.multiply(a[:, 3], a[:, 3], out=d_g)
    np.subtract(1.0, d_g, out=d_g)
    d_g *= a[:, 1]
    np.multiply(dc_per_dh, dc_per_dh, out=dc_per_dh)
    np.subtract(1.0, dc_per_dh, out=dc_per_dh)
    dc_per_dh *= a[:, 2]
    d_gates = d4.reshape(t_len, 4 * h, b)

    # dh and dc carry the gradients of step t's outputs into the loop and
    # leave with those of step t-1's; step 0 passes none on
    w_h_t = params.w[:, :h].T
    dh = np.zeros((h, b))
    dc = np.zeros((h, b))
    work = np.empty((h, b))
    for t in range(t_len - 1, -1, -1):
        dh += seq_grads[:, t]
        dc += np.multiply(dh, dc_per_dh[t], out=work)
        d4[t, :2] *= dc
        d4[t, 2] *= dh
        d4[t, 3] *= dc
        if t:
            np.matmul(w_h_t, d_gates[t], out=dh)
            dc *= a[t, 0]

    # the activated gates are dead now: their buffer takes the gate
    # gradients as (4H, T*B), so both GEMMs below read without a copy
    d_flat = cache.gates.reshape(4 * h, t_len * b)
    np.copyto(d_flat.reshape(4 * h, t_len, b), d_gates.transpose(1, 0, 2))
    del a, d4, d_g, d_gates
    np.matmul(d_flat, cache.z[:, :t_len].reshape(h + d, t_len * b).T, out=out.w)
    np.sum(d_flat, axis=1, out=out.b)
    return (params.w[:, h:].T @ d_flat).reshape(d, t_len, b).transpose(1, 2, 0)


def lstm_infer(
    params: LstmLayerParams,
    inputs: np.ndarray,
    out: np.ndarray | None = None,
    scratch: np.ndarray | None = None,
) -> np.ndarray:
    """Forward-only pass over a time-major (T, batch, input) array.

    Starts from zero state and keeps no cache. Returns the hidden
    outputs (T, batch, hidden), byte-equal to `lstm_forward`'s.

    Nothing grows with T but the outputs. A caller that runs many passes
    can lend the memory: the outputs then land in the first H*T*batch
    entries of `out`, and the step's gates and state use the first
    10*H*batch entries of `scratch`, both 1-D float64 buffers, and the
    result is a view of `out`. Either one left out is allocated.
    """
    inputs = _check_inputs(params, inputs)
    t_len, b, _ = inputs.shape
    h = params.hidden_size
    block = h * b
    if out is None:
        out = np.empty(h * t_len * b)
    if scratch is None:
        scratch = np.empty(10 * block)
    outputs = out[: h * t_len * b].reshape(h, t_len, b)
    a = scratch[: 4 * block].reshape(4 * h, b)
    work = scratch[4 * block : 8 * block].reshape(4 * h, b)
    c = scratch[8 * block : 9 * block].reshape(h, b)
    h_prev = scratch[9 * block : 10 * block].reshape(h, b)
    c[...] = 0.0
    h_prev[...] = 0.0

    x = inputs.transpose(0, 2, 1)
    for t in range(t_len):
        _step(params, x[t], a, h_prev, c, c, outputs[:, t], work)
        h_prev = outputs[:, t]
    return outputs.transpose(1, 2, 0)
