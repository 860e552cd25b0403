"""Adam optimizer with optional global-norm gradient clipping.

Moment buffers are keyed by parameter name so the full optimizer state can
round-trip through checkpoints bit-exactly for resumable training.
"""

from __future__ import annotations

import numpy as np

from .autodiff import Tensor
from .nn import check_state_dict


class Adam:
    def __init__(self, named_params: list[tuple[str, Tensor]], lr: float = 7e-5,
                 beta1: float = 0.5, beta2: float = 0.999, eps: float = 1e-8,
                 grad_clip: float = 0.0):
        self.named_params = list(named_params)
        self.lr, self.beta1, self.beta2, self.eps = lr, beta1, beta2, eps
        self.grad_clip = grad_clip
        self.step_count = 0
        self.m = {name: np.zeros_like(p.data) for name, p in self.named_params}
        self.v = {name: np.zeros_like(p.data) for name, p in self.named_params}

    def zero_grad(self):
        for _, p in self.named_params:
            p.grad = None

    def _clipped_grads(self) -> dict[str, np.ndarray]:
        grads = {name: p.grad for name, p in self.named_params if p.grad is not None}
        if self.grad_clip > 0.0:
            total = np.sqrt(sum(float((g * g).sum()) for g in grads.values()))
            if total > self.grad_clip:
                factor = self.grad_clip / total
                grads = {name: g * factor for name, g in grads.items()}
        return grads

    def step(self):
        self.step_count += 1
        b1, b2 = self.beta1, self.beta2
        bias1 = 1.0 - b1 ** self.step_count
        bias2 = 1.0 - b2 ** self.step_count
        grads = self._clipped_grads()
        for name, p in self.named_params:
            g = grads.get(name)
            if g is None:
                continue
            m = self.m[name]
            v = self.v[name]
            m *= b1
            m += (1.0 - b1) * g
            v *= b2
            v += (1.0 - b2) * (g * g)
            p.data = p.data - self.lr * (m / bias1) / (np.sqrt(v / bias2) + self.eps)

    def state_dict(self) -> dict:
        state = {"step": self.step_count}
        for name, _ in self.named_params:
            state[f"m.{name}"] = self.m[name]
            state[f"v.{name}"] = self.v[name]
        return state

    def load_state_dict(self, state: dict):
        check_state_dict(self.state_dict(), state, "optimizer")
        self.step_count = int(state["step"])
        for name, _ in self.named_params:
            self.m[name] = np.array(state[f"m.{name}"], dtype=np.float64)
            self.v[name] = np.array(state[f"v.{name}"], dtype=np.float64)
