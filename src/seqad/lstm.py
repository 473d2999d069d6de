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

The input projection W_x x + b does not depend on the recurrence, so it
runs as one GEMM over all T steps before the loop, straight into a
preallocated (T, B, 4H) gate buffer; each step then adds one W_h h and
activates its slice of the buffer in place, all 4H rows with one tanh
call, since sigmoid(x) = (1 + tanh(x / 2)) / 2. The backward pass computes
every gate's local derivative for all steps at once, fills a (T, B, 4H)
buffer of gate gradients in a loop whose only GEMM is the W_h product
for the hidden-state gradient, and then takes the weight gradient and
the input gradient as one GEMM each.

`lstm_infer` is the forward pass without the backward pass's buffers:
it keeps the hoisted projection into the (T, B, 4H) gate buffer but
carries h and c as (B, H) state and writes only the hidden outputs, so
scoring keeps no [h, x], cell or tanh(c) history.

All arrays are batch-first at the interface: a batch of B independent
sequences is processed at once, with states of shape (B, hidden) and
inputs of shape (B, T, input). A single sequence is just B = 1. The
exception is `lstm_infer`, which is time-major, (T, B, input), so that
layers chain without a transpose.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core_math import Rng, glorot_init, tanh
from .errors import EmptyInputError, ShapeError

__all__ = [
    "LstmLayerParams",
    "LstmStepState",
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

    def validate(self) -> None:
        shape = self.w.shape
        if len(shape) != 2 or shape[0] == 0 or shape[0] % 4:
            raise ShapeError(f"weight shape {shape} is not (4*hidden, hidden+input)")
        h = shape[0] // 4
        if shape[1] <= h:
            raise ShapeError(f"weight shape {shape} leaves no input columns")
        if self.b.shape != (4 * h,):
            raise ShapeError(f"bias shape {self.b.shape} does not match 4*hidden = {4 * h}")
        for a in self.arrays():
            if not np.all(np.isfinite(a)):
                raise ShapeError("non-finite value in LSTM parameters")

    @classmethod
    def init(cls, hidden_size: int, input_size: int, rng: Rng) -> "LstmLayerParams":
        """Glorot-uniform weights per gate, zero biases.

        The gate blocks are drawn in f, i, g, o order, so a seed gives the
        same values as a layout with one matrix per gate, and are stacked
        as f, i, o, g.
        """
        cols = hidden_size + input_size
        w_f, w_i, w_g, w_o = (glorot_init(hidden_size, cols, rng) for _ in range(4))
        return cls(w=np.concatenate([w_f, w_i, w_o, w_g]), b=np.zeros(4 * hidden_size))

    @classmethod
    def zeros(cls, hidden_size: int, input_size: int) -> "LstmLayerParams":
        return cls(
            w=np.zeros((4 * hidden_size, hidden_size + input_size)),
            b=np.zeros(4 * hidden_size),
        )


@dataclass
class LstmStepState:
    """Hidden and cell state, each (batch, hidden)."""

    hidden: np.ndarray
    cell: np.ndarray

    @classmethod
    def zeros(cls, batch: int, hidden_size: int) -> "LstmStepState":
        return cls(hidden=np.zeros((batch, hidden_size)), cell=np.zeros((batch, hidden_size)))


@dataclass
class LstmStepCache:
    """One forward step, as views into the layer's buffers."""

    z: np.ndarray  # [h_prev, x], (B, hidden+input)
    gates: np.ndarray  # activated f, i, o, g, (B, 4*hidden)
    c: np.ndarray  # cell state after the step, (B, hidden)


@dataclass
class LstmCache:
    """The buffers of one forward pass, which the backward pass reads whole.

    A sequence of T steps: `cache[t]` is step t's LstmStepCache, made of
    views into these buffers.
    """

    z: np.ndarray  # (T+1, B, H+D): z[t] = [h_{t-1}, x_t]; h_t is z[t+1, :, :H]; z[T, :, H:] unused
    gates: np.ndarray  # (T, B, 4H), activated f, i, o, g
    c: np.ndarray  # (T+1, B, H): c[0] is the initial cell state
    tanh_c: np.ndarray  # (T, B, H)

    def __len__(self) -> int:
        return self.gates.shape[0]

    def __getitem__(self, t: int) -> LstmStepCache:
        t = range(len(self))[t]
        return LstmStepCache(z=self.z[t], gates=self.gates[t], c=self.c[t + 1])


def _activate_gates(a: np.ndarray, s: int) -> None:
    """Activate one step's (B, 4H) pre-activations in place: sigmoid on
    the first s = 3H columns, tanh on the rest, with one np.tanh call.

    Uses sigmoid(x) = (1 + tanh(x / 2)) / 2, which cannot overflow.
    """
    a[:, :s] *= 0.5
    np.tanh(a, out=a)
    a[:, :s] *= 0.5
    a[:, :s] += 0.5


def lstm_forward(
    params: LstmLayerParams,
    inputs: np.ndarray,
    init_state: LstmStepState | None = None,
    return_sequences: bool = True,
) -> tuple[np.ndarray, LstmCache]:
    """Unroll the cell over a (batch, T, input) array.

    Returns (outputs, cache) where outputs is (batch, T, hidden) when
    `return_sequences` is set, else just the final hidden state
    (batch, hidden). The initial state defaults to zeros. Outputs are
    views into the cache's buffers.
    """
    inputs = np.asarray(inputs, dtype=np.float64)
    if inputs.ndim != 3:
        raise ShapeError(f"expected (batch, T, input) array, got shape {inputs.shape}")
    b, t_len, d = inputs.shape
    h = params.hidden_size
    if d != params.input_size:
        raise ShapeError(f"input shape {inputs.shape} does not match input size {params.input_size}")
    if t_len == 0:
        raise EmptyInputError("cannot run an LSTM over an empty sequence")
    if init_state is not None and (
        init_state.hidden.shape != (b, h) or init_state.cell.shape != (b, h)
    ):
        raise ShapeError(
            f"state shapes {init_state.hidden.shape}/{init_state.cell.shape} "
            f"do not match (batch={b}, hidden={h})"
        )

    zbuf = np.empty((t_len + 1, b, h + d))
    zbuf[:t_len, :, h:] = inputs.transpose(1, 0, 2)
    cbuf = np.empty((t_len + 1, b, h))
    if init_state is None:
        zbuf[0, :, :h] = 0.0
        cbuf[0] = 0.0
    else:
        zbuf[0, :, :h] = init_state.hidden
        cbuf[0] = init_state.cell
    gates = np.empty((t_len, b, 4 * h))
    tanh_c = np.empty((t_len, b, h))

    x_flat = zbuf[:t_len].reshape(t_len * b, h + d)[:, h:]
    np.matmul(x_flat, params.w[:, h:].T, out=gates.reshape(t_len * b, 4 * h))
    gates += params.b

    w_h_t = params.w[:, :h].T
    s = 3 * h
    work = np.empty((b, 4 * h))
    for t in range(t_len):
        a, c, tc = gates[t], cbuf[t + 1], tanh_c[t]
        a += np.matmul(zbuf[t, :, :h], w_h_t, out=work)
        _activate_gates(a, s)
        np.multiply(a[:, :h], cbuf[t], out=c)
        c += np.multiply(a[:, h : 2 * h], a[:, s:], out=work[:, :h])
        tanh(c, out=tc)
        np.multiply(a[:, 2 * h : s], tc, out=zbuf[t + 1, :, :h])
    cache = LstmCache(z=zbuf, gates=gates, c=cbuf, tanh_c=tanh_c)
    if return_sequences:
        return zbuf[1:, :, :h].transpose(1, 0, 2), cache
    return zbuf[t_len, :, :h], cache


def lstm_backward(
    params: LstmLayerParams,
    cache: LstmCache,
    grad_outputs: np.ndarray,
) -> tuple[LstmLayerParams, np.ndarray, np.ndarray, np.ndarray]:
    """Exact gradients through an unrolled pass, weights shared across steps.

    `grad_outputs` must be shaped like the forward pass's outputs:
    (batch, T, hidden) for a return-sequences pass, or (batch, hidden)
    for a final-state-only pass (treated as a gradient on step T-1 with
    zeros elsewhere).

    Returns (param_grads, d_inputs, d_h0, d_c0) where param_grads is an
    LstmLayerParams holding the accumulated gradients and d_inputs is
    (batch, T, input).
    """
    t_len = len(cache)
    if t_len == 0:
        raise EmptyInputError("no cached steps to backpropagate through")
    h, d = params.hidden_size, params.input_size
    b = cache.z.shape[1]
    if cache.z.shape != (t_len + 1, b, h + d):
        raise ShapeError(f"cache shape {cache.z.shape} does not match (T+1, batch, {h + d})")

    grad_outputs = np.asarray(grad_outputs, dtype=np.float64)
    if grad_outputs.shape == (b, t_len, h):
        seq_grads = grad_outputs
    elif grad_outputs.shape == (b, h):
        seq_grads = np.zeros((b, t_len, h))
        seq_grads[:, -1, :] = grad_outputs
    else:
        raise ShapeError(
            f"grad_outputs shape {grad_outputs.shape} matches neither "
            f"(batch={b}, T={t_len}, hidden={h}) nor (batch={b}, hidden={h})"
        )

    # Everything that does not depend on the recurrence, for all steps at
    # once and in place, on a (T, B, gate, H) view with gates f, i, o, g:
    # each gate's local derivative times the state it multiplies. The loop
    # then scales the f, i and g blocks by dc and the o block by dh, which
    # leaves the gate gradients in `d_gates`.
    a = cache.gates.reshape(t_len, b, 4, h)
    d4 = np.subtract(1.0, a)
    d4[:, :, :3] *= a[:, :, :3]
    d4[:, :, 0] *= cache.c[:-1]
    d4[:, :, 1] *= a[:, :, 3]
    d4[:, :, 2] *= cache.tanh_c
    d_g = d4[:, :, 3]
    np.multiply(a[:, :, 3], a[:, :, 3], out=d_g)
    np.subtract(1.0, d_g, out=d_g)
    d_g *= a[:, :, 1]
    dc_per_dh = np.multiply(cache.tanh_c, cache.tanh_c)
    np.subtract(1.0, dc_per_dh, out=dc_per_dh)
    dc_per_dh *= a[:, :, 2]
    d_gates = d4.reshape(t_len, b, 4 * h)

    w_h = params.w[:, :h]
    dh_next = np.zeros((b, h))
    dc_next = np.zeros((b, h))
    for t in range(t_len - 1, -1, -1):
        dh = seq_grads[:, t, :] + dh_next
        dc = dh * dc_per_dh[t] + dc_next
        d4[t, :, :2] *= dc[:, None, :]
        d4[t, :, 2] *= dh
        d4[t, :, 3] *= dc
        dh_next = d_gates[t] @ w_h
        dc_next = dc * a[t, :, 0]

    d_flat = d_gates.reshape(t_len * b, 4 * h)
    d_w = d_flat.T @ cache.z[:t_len].reshape(t_len * b, h + d)
    d_inputs = (d_flat @ params.w[:, h:]).reshape(t_len, b, d).transpose(1, 0, 2)
    return LstmLayerParams(w=d_w, b=d_flat.sum(axis=0)), d_inputs, dh_next, dc_next


def lstm_infer(
    params: LstmLayerParams, inputs: np.ndarray, return_sequences: bool = True
) -> np.ndarray:
    """Forward-only pass over a time-major (T, batch, input) array.

    Starts from zero state and keeps no cache. Returns the hidden
    outputs (T, batch, hidden) when `return_sequences` is set, else the
    final hidden state (batch, hidden). Equals `lstm_forward` on the
    transposed input to rounding.
    """
    inputs = np.asarray(inputs, dtype=np.float64)
    if inputs.ndim != 3:
        raise ShapeError(f"expected (T, batch, input) array, got shape {inputs.shape}")
    t_len, b, d = inputs.shape
    h = params.hidden_size
    if d != params.input_size:
        raise ShapeError(f"input shape {inputs.shape} does not match input size {params.input_size}")
    if t_len == 0:
        raise EmptyInputError("cannot run an LSTM over an empty sequence")

    gates = np.empty((t_len, b, 4 * h))
    np.matmul(inputs.reshape(t_len * b, d), params.w[:, h:].T, out=gates.reshape(t_len * b, 4 * h))
    gates += params.b
    outputs = np.empty((t_len, b, h)) if return_sequences else None

    w_h_t = params.w[:, :h].T
    s = 3 * h
    work = np.empty((b, 4 * h))
    c = np.zeros((b, h))
    h_prev = np.zeros((b, h))
    for t in range(t_len):
        a = gates[t]
        a += np.matmul(h_prev, w_h_t, out=work)
        _activate_gates(a, s)
        c *= a[:, :h]
        c += np.multiply(a[:, h : 2 * h], a[:, s:], out=work[:, :h])
        tc = tanh(c, out=work[:, :h])
        # h_prev was last read by this step's GEMM, so it can take the new state
        h_prev = np.multiply(a[:, 2 * h : s], tc, out=outputs[t] if return_sequences else h_prev)
    return outputs if return_sequences else h_prev
