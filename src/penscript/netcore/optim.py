"""Adam with bias correction (Kingma & Ba 2015).

One object holds the whole optimizer state: the first and second moments
``m`` and ``v``, one array per parameter in parameter order, and the
number of ``steps`` taken. The constructor rejects the settings that
would turn a step into NaN or inf: ``lr`` and ``eps`` must lie in
(0, inf), ``beta1`` and ``beta2`` in [0, 1).
"""

from __future__ import annotations

import numpy as np

from penscript.jsonconfig import check_ranges
from penscript.netcore.tensor import Tensor


class Adam:
    def __init__(
        self,
        params: list[Tensor],
        lr: float,
        beta1: float = 0.9,
        beta2: float = 0.999,
        eps: float = 1e-8,
    ):
        self.params = list(params)
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        check_ranges(self, {"lr": "(0, inf)", "beta1": "[0, 1)", "beta2": "[0, 1)", "eps": "(0, inf)"})
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]
        self.steps = 0

    def step(self) -> None:
        """One in-place update of every parameter from its .grad."""
        self.steps += 1
        beta1, beta2 = self.beta1, self.beta2
        correct1 = 1.0 - beta1**self.steps
        correct2 = 1.0 - beta2**self.steps
        for p, m, v in zip(self.params, self.m, self.v):
            g = p.grad
            m *= beta1
            m += (1.0 - beta1) * g
            v *= beta2
            v += (1.0 - beta2) * g * g
            p.data -= self.lr * (m / correct1) / (np.sqrt(v / correct2) + self.eps)

    def zero_grad(self) -> None:
        for p in self.params:
            p.zero_grad()
