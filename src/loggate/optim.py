"""Adam optimizer with bias correction."""

from __future__ import annotations

import numpy as np

from .autodiff import Tensor

BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


class Adam:
    """Standard Adam over a named parameter table.

    Update: m <- b1*m + (1-b1)*g;  v <- b2*v + (1-b2)*g^2;
    param <- param - lr * mhat / (sqrt(vhat) + eps) with the usual
    1/(1-b^t) bias corrections. Parameters with no gradient (or an
    all-zero gradient since the moments stay zero) are left untouched.
    """

    def __init__(self, params: dict[str, Tensor], lr: float = 1e-3):
        self.params = params
        self.lr = lr
        self.step_count = 0
        self.m = {k: np.zeros_like(p.values) for k, p in params.items()}
        self.v = {k: np.zeros_like(p.values) for k, p in params.items()}

    def step(self) -> None:
        self.step_count += 1
        c1 = 1.0 - BETA1 ** self.step_count
        c2 = 1.0 - BETA2 ** self.step_count
        for name, p in self.params.items():
            g = p.grad
            if g is None:
                continue
            m = self.m[name]
            v = self.v[name]
            m *= BETA1
            m += (1.0 - BETA1) * g
            v *= BETA2
            v += (1.0 - BETA2) * np.square(g)
            p.values -= self.lr * (m / c1) / (np.sqrt(v / c2) + EPS)

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.zero_grad()
