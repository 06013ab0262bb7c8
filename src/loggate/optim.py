"""Adam optimizer with bias correction, over one flat moment buffer.

The first and second moments of every parameter live in two contiguous
float64 vectors, `m` and `v`, laid out in parameter-table order: each
parameter owns one slice of each. A step gathers the gradients into one
vector of the same layout and runs each update expression once over the
whole vector, in place, instead of once per parameter. Every Adam
operation is elementwise, so the result is bit-for-bit the result of
the per-parameter loop. The gradient vector and one scratch vector live
for one step only, so between steps the optimizer holds no more memory
than the per-parameter loop did.

The parameters themselves are not views into a flat buffer: callers
rebind `tensor.values` (best-epoch restore, checkpoint loading), and a
rebound tensor would silently stop sharing memory with the buffer. So
each step subtracts a parameter's slice of the update from its current
`values` in place.
"""

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
    all-zero gradient since the moments stay zero) are left untouched,
    moments included. A gradient whose shape differs from its
    parameter's raises ValueError.
    """

    def __init__(self, params: dict[str, Tensor], lr: float = 1e-3):
        self.params = params
        self.lr = lr
        self.step_count = 0
        self._slices: dict[str, slice] = {}
        start = 0
        for name, p in params.items():
            self._slices[name] = slice(start, start + p.values.size)
            start += p.values.size
        self.m = np.zeros(start)
        self.v = np.zeros(start)

    def step(self) -> None:
        flat = np.empty(self.m.size)  # the gathered gradients, then the step
        live = []
        spans: list[list[int]] = []  # merged [start, stop) runs of live slices
        for name, p in self.params.items():
            g = p.grad
            if g is None:
                continue
            if g.shape != p.values.shape:
                raise ValueError(f"gradient of {name!r} has shape {g.shape}, "
                                 f"parameter has {p.values.shape}")
            sl = self._slices[name]
            flat[sl] = g.reshape(-1)
            live.append((p, sl))
            if spans and spans[-1][1] == sl.start:
                spans[-1][1] = sl.stop
            else:
                spans.append([sl.start, sl.stop])
        self.step_count += 1
        c1 = 1.0 - BETA1 ** self.step_count
        c2 = 1.0 - BETA2 ** self.step_count
        for start, stop in spans:
            g, m, v = flat[start:stop], self.m[start:stop], self.v[start:stop]
            tmp = np.empty_like(g)
            # The update formula above, in place, leaving the step in `g`.
            # Only the operand order of the products differs from the
            # textbook expression, and a*b == b*a exactly.
            v *= BETA2
            np.square(g, out=tmp)
            tmp *= 1.0 - BETA2
            v += tmp
            m *= BETA1
            g *= 1.0 - BETA1
            m += g
            np.divide(m, c1, out=g)
            g *= self.lr
            np.divide(v, c2, out=tmp)
            np.sqrt(tmp, out=tmp)
            tmp += EPS
            g /= tmp
        for p, sl in live:
            p.values -= flat[sl].reshape(p.values.shape)

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.zero_grad()
