"""Adam with bias correction (Kingma & Ba 2015).

One object holds the whole optimizer state: the first and second moments
``m`` and ``v``, each one array the shape of the parameters it steps,
and the number of ``steps`` taken. It steps one parameter array from one
gradient array of the same shape, in place; a model hands it its
parameter store, RecognitionModel.flat and .flat_grad. Every operation is
elementwise, so one pass over the store gives each parameter the bits a
pass over that parameter alone would. The constructor rejects the
settings that would turn a step into NaN or inf: ``lr`` and ``eps`` must
lie in (0, inf), ``beta1`` and ``beta2`` in [0, 1).
"""

from __future__ import annotations

import numpy as np

from penscript.jsonconfig import check_ranges


class Adam:
    def __init__(
        self,
        data: np.ndarray,
        grad: np.ndarray,
        lr: float,
        beta1: float = 0.9,
        beta2: float = 0.999,
        eps: float = 1e-8,
    ):
        self.data = data
        self.grad = grad
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        check_ranges(self, {"lr": "(0, inf)", "beta1": "[0, 1)", "beta2": "[0, 1)", "eps": "(0, inf)"})
        self.m = np.zeros_like(data)
        self.v = np.zeros_like(data)
        self.steps = 0

    def step(self) -> None:
        """One in-place update of data from grad."""
        self.steps += 1
        beta1, beta2 = self.beta1, self.beta2
        correct1 = 1.0 - beta1**self.steps
        correct2 = 1.0 - beta2**self.steps
        g, m, v = self.grad, self.m, self.v
        m *= beta1
        m += (1.0 - beta1) * g
        v *= beta2
        v += (1.0 - beta2) * g * g
        self.data -= self.lr * (m / correct1) / (np.sqrt(v / correct2) + self.eps)

    def zero_grad(self) -> None:
        self.grad.fill(0.0)
