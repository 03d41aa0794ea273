"""Plain-loop oracles the tests compare the vectorized ops with: depthwise convolution, one scan direction and a
whole-map layernorm."""

import numpy as np


def dwconv_oracle(x, w, b=None, stride=1, pad=1):
    """Nested-loop depthwise convolution; ``pad`` is an int for every side or ((top, bottom), (left, right))."""
    C = x.shape[0]
    k = w.shape[1]
    xp = np.pad(x, ((0, 0), *(pad if isinstance(pad, tuple) else ((pad, pad),) * 2)))
    Ho = (xp.shape[1] - k) // stride + 1
    Wo = (xp.shape[2] - k) // stride + 1
    out = np.zeros((C, Ho, Wo))
    for c in range(C):
        for i in range(Ho):
            for j in range(Wo):
                patch = xp[c, i * stride:i * stride + k, j * stride:j * stride + k]
                out[c, i, j] = (patch * w[c]).sum()
    if b is not None:
        out += b[:, None, None]
    return out


def scan_oracle(x, delta, a, b, c, d):
    """Per-step loop selective scan of one direction: x, delta (C,T); a (C,S); b, c (S,T); d (C,)."""
    C, T = x.shape
    h = np.zeros(a.shape)
    y = np.zeros((C, T))
    for t in range(T):
        h = np.exp(delta[:, t, None] * a) * h + (delta[:, t] * x[:, t])[:, None] * b[:, t]
        y[:, t] = (h * c[:, t]).sum(axis=1) + d * x[:, t]
    return y



def layernorm_reference(x, gamma, beta):
    """numpy layernorm of a whole (C,H,W) map over channels at every token, in ``nd``'s order of operations."""
    xc = x - x.mean(axis=0)
    return gamma[:, None, None] * (xc * (1 / np.sqrt(x.var(axis=0) + x.dtype.type(1e-6)))) + beta[:, None, None]
