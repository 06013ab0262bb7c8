"""Adam optimizer with bias correction, over one flat parameter layout.

`Adam` owns that layout: when it is built it moves every parameter into
one float64 vector, `values`, in table order, and makes each `.values`
its view. The moments `m` and `v` and the gradient vector `grads` share
the layout; `grad_views` holds each parameter's view of `grads`, shaped
like the parameter, for a closed-form step to write into. `step_flat`
runs each Adam expression once over the whole vector, in place, taking
no slice of it. Every operation is elementwise, so the result is bit
for bit the per-parameter loop's, and a gradient slice that stays zero
keeps zero moments and steps by exactly 0. `step`, over separate arrays
with a `.grad` each, serves only the autodiff graph path: no run calls
it.
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
    1/(1-b^t) bias corrections. In `step`, parameters with no gradient
    (or an all-zero gradient since the moments stay zero) are left
    untouched, moments included. A gradient whose shape differs from its
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
        self.values = np.empty(start)
        self.grads = np.zeros(start)
        self.grad_views: dict[str, np.ndarray] = {}
        for name, p in params.items():
            sl, shape = self._slices[name], p.values.shape
            self.values[sl] = p.values.reshape(-1)
            p.values = self.values[sl].reshape(shape)
            self.grad_views[name] = self.grads[sl].reshape(shape)

    def step_flat(self) -> None:
        """One step of every parameter from `grads`, in place.

        Every parameter takes its gradient slice, so every moment moves.
        `grads` is overwritten with the step.
        """
        self._update(self.grads)
        self.values -= self.grads

    def step(self) -> None:
        """One step of every parameter with a `.grad`, gathered into `grads`."""
        live = []
        for name, p in self.params.items():
            g = p.grad
            if g is None:
                continue
            if g.shape != p.values.shape:
                raise ValueError(f"gradient of {name!r} has shape {g.shape}, "
                                 f"parameter has {p.values.shape}")
            sl = self._slices[name]
            self.grads[sl] = g.reshape(-1)
            live.append((p, sl))
        self._update(self.grads, [sl for _, sl in live])
        for p, sl in live:
            p.values -= self.grads[sl].reshape(p.values.shape)

    def _update(self, flat: np.ndarray, slices=None) -> None:
        """Advance the moments over `slices` of `flat`, or all of it without
        slicing, leaving the step there."""
        self.step_count += 1
        c1 = 1.0 - BETA1 ** self.step_count
        c2 = 1.0 - BETA2 ** self.step_count
        parts = [(flat, self.m, self.v)] if slices is None else \
            [(flat[sl], self.m[sl], self.v[sl]) for sl in slices]
        for g, m, v in parts:
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

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.zero_grad()
