"""The chunked forward-only pass one chunk after another on the calling
thread, with every buffer allocated per layer: the reference that
`seq_autoencoder.reconstruct_windows`, which scores chunks on two
threads in reused buffers, must equal byte for byte."""

import numpy as np

from seqad.lstm import lstm_infer
from seqad.seq_autoencoder import _head


def serial_reconstruct(model, windows, chunk):
    out = np.empty_like(windows)
    for lo in range(0, len(windows), chunk):
        seq = windows[lo : lo + chunk].transpose(1, 0, 2)
        for layer in model.encoder:
            seq = lstm_infer(layer, seq)
        seq = np.broadcast_to(seq[-1], seq.shape)
        for layer in model.decoder:
            seq = lstm_infer(layer, seq)
        out[lo : lo + chunk] = _head(model, seq.transpose(2, 0, 1))
    return out
