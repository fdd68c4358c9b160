"""Parameter updates: classical momentum SGD and layer-wise adaptive scaling.

Both optimizers read grads in place from the parameter tensors and keep their
momentum buffers in a caller-owned dict so training state can be serialized.
Parameters without a grad are left untouched. An update that overflows leaves
non-finite values without a floating-point warning; the caller checks the
parameters afterwards and reports it.
"""

from __future__ import annotations

import numpy as np

from .tensor import Tensor

__all__ = ["sgd_step", "lars_step"]


def sgd_step(params: dict[str, Tensor], lr: float, momentum: float,
             weight_decay: float, buffers: dict[str, np.ndarray]) -> None:
    """w <- w - lr * buf, buf <- momentum * buf + (g + wd * w)."""
    with np.errstate(over="ignore", invalid="ignore"):
        for name, p in params.items():
            if p.grad is None:
                continue
            g = p.grad + weight_decay * p.data
            buf = buffers.get(name)
            if buf is None:
                buf = np.zeros_like(p.data)
                buffers[name] = buf
            buf *= momentum
            buf += g
            p.data -= lr * buf


def lars_step(params: dict[str, Tensor], lr: float, momentum: float,
              weight_decay: float, trust_coeff: float,
              buffers: dict[str, np.ndarray], eps: float = 1e-9) -> None:
    """Momentum SGD with a per-tensor trust ratio trust * ||w|| / (||g|| + eps).

    Bias-like tensors (ndim <= 1) and zero-norm tensors use ratio 1 and skip
    weight decay.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        for name, p in params.items():
            if p.grad is None:
                continue
            if p.data.ndim <= 1:
                g = p.grad.copy()
                ratio = 1.0
            else:
                g = p.grad + weight_decay * p.data
                w_norm = float(np.linalg.norm(p.data))
                g_norm = float(np.linalg.norm(g))
                ratio = trust_coeff * w_norm / (g_norm + eps) if w_norm > 0.0 else 1.0
            buf = buffers.get(name)
            if buf is None:
                buf = np.zeros_like(p.data)
                buffers[name] = buf
            buf *= momentum
            buf += ratio * g
            p.data -= lr * buf
