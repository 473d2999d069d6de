"""Plain four-gate LSTM, one matrix per gate, as an oracle for the fused layer.

Each gate has its own (H, H+D) weight and (H,) bias, every product is
computed on the concatenated [h_prev, x], and backpropagation runs one
step at a time with per-gate GEMMs. Nothing here is shared with
seqad.lstm except the parameter layout it splits and `zero_params`
builds.
"""

import numpy as np

from seqad.lstm import LstmLayerParams

GATES = ("f", "i", "o", "g")  # row-block order of the fused weight


def zero_params(hidden_size, input_size):
    """An all-zero fused layer: gates at exactly 1/2 and candidate 0, or
    arrays for lstm_backward to write gradients into."""
    return LstmLayerParams(
        w=np.zeros((4 * hidden_size, hidden_size + input_size)), b=np.zeros(4 * hidden_size)
    )


def split_gates(a):
    """Row blocks f, i, o, g of a fused (4H, ...) weight or (4H,) bias."""
    return dict(zip(GATES, np.split(a, 4, axis=0)))


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def reference_step(params, h_prev, c_prev, x):
    """One cell update; returns (h, c, cache)."""
    w, b = split_gates(params.w), split_gates(params.b)
    z = np.concatenate([h_prev, x], axis=1)
    f = _sigmoid(z @ w["f"].T + b["f"])
    i = _sigmoid(z @ w["i"].T + b["i"])
    g = np.tanh(z @ w["g"].T + b["g"])
    o = _sigmoid(z @ w["o"].T + b["o"])
    c = f * c_prev + i * g
    tanh_c = np.tanh(c)
    h = o * tanh_c
    cache = {"z": z, "f": f, "i": i, "g": g, "o": o, "c_prev": c_prev, "tanh_c": tanh_c}
    return h, c, cache


def reference_forward(params, inputs, h0, c0):
    """Step through a (B, T, D) array; returns ((B, T, H) hiddens, caches)."""
    h, c = h0, c0
    hiddens, caches = [], []
    for t in range(inputs.shape[1]):
        h, c, cache = reference_step(params, h, c, inputs[:, t, :])
        hiddens.append(h)
        caches.append(cache)
    return np.stack(hiddens, axis=1), caches


def reference_backward(params, caches, seq_grads):
    """BPTT with per-gate GEMMs for a (B, T, H) output gradient.

    Returns (per-gate weight grads, per-gate bias grads, d_inputs, dh0, dc0).
    """
    w = split_gates(params.w)
    hidden = w["f"].shape[0]
    b, t_len, _ = seq_grads.shape
    d_w = {k: np.zeros_like(v) for k, v in w.items()}
    d_b = {k: np.zeros(hidden) for k in GATES}
    d_inputs = np.empty((b, t_len, params.w.shape[1] - hidden))
    dh_next = np.zeros((b, hidden))
    dc_next = np.zeros((b, hidden))
    for t in range(t_len - 1, -1, -1):
        cc = caches[t]
        dh = seq_grads[:, t, :] + dh_next
        dc = dh * cc["o"] * (1.0 - cc["tanh_c"] ** 2) + dc_next
        da = {
            "f": dc * cc["c_prev"] * cc["f"] * (1.0 - cc["f"]),
            "i": dc * cc["g"] * cc["i"] * (1.0 - cc["i"]),
            "o": dh * cc["tanh_c"] * cc["o"] * (1.0 - cc["o"]),
            "g": dc * cc["i"] * (1.0 - cc["g"] ** 2),
        }
        dz = np.zeros_like(cc["z"])
        for k in GATES:
            d_w[k] += da[k].T @ cc["z"]
            d_b[k] += da[k].sum(axis=0)
            dz += da[k] @ w[k]
        dh_next = dz[:, :hidden]
        d_inputs[:, t, :] = dz[:, hidden:]
        dc_next = dc * cc["f"]
    return d_w, d_b, d_inputs, dh_next, dc_next
