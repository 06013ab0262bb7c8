"""Adam optimizer with bias correction, over one flat moment buffer.

The first and second moments of every parameter live in two contiguous
float64 vectors, `m` and `v`, laid out in parameter-table order: each
parameter owns one slice of each. Every update runs each Adam
expression once over a whole flat gradient vector of that layout, in
place, instead of once per parameter. Every Adam operation is
elementwise, so the result is bit-for-bit the result of the
per-parameter loop.

There are two entries. `step_flat` updates a flat value vector that the
caller owns, from a flat gradient vector; a caller whose parameters are
views into one vector (`views`) and whose gradients are written into
views of another pays no gather and no per-parameter subtraction. The
statistics VAE trains this way, since nothing rebinds its parameters
while it pretrains. `step` serves a table of separate arrays: it
gathers the `.grad` of each parameter into a vector of the same layout,
runs the same update, and subtracts each parameter's slice of the step
from its current `values` in place. The classifier trains this way,
because callers rebind its `tensor.values` (best-epoch restore,
checkpoint loading), and a rebound tensor would silently stop sharing
memory with a flat buffer. The scratch vector, and `step`'s gathered
gradients, live for one step only, so between steps the optimizer holds
no more memory than the per-parameter loop did.
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
    parameter's, or a flat vector of another length, raises ValueError.
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

    def views(self, flat: np.ndarray) -> dict[str, np.ndarray]:
        """Each parameter's slice of a flat vector, shaped like the parameter."""
        return {name: flat[sl].reshape(self.params[name].values.shape)
                for name, sl in self._slices.items()}

    def step_flat(self, values: np.ndarray, grads: np.ndarray) -> None:
        """One step of every parameter, held flat in `values`, in place.

        `values` and `grads` are float64 vectors laid out like `m` (see
        `views`). Every parameter takes its gradient, so every moment
        moves. `grads` is overwritten with the step.
        """
        for name, vec in (("values", values), ("grads", grads)):
            if vec.shape != self.m.shape:
                raise ValueError(f"flat {name} has shape {vec.shape}, "
                                 f"parameters have {self.m.shape}")
        self._update(grads, [(0, self.m.size)])
        values -= grads

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
        self._update(flat, spans)
        for p, sl in live:
            p.values -= flat[sl].reshape(p.values.shape)

    def _update(self, flat: np.ndarray, spans) -> None:
        """Advance the moments over `spans` of `flat`, leaving the step there."""
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

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.zero_grad()
