"""Adam with per-group learning-rate schedules.

The schedule ramps linearly from zero to the peak rate over the warm-up
steps, then decays linearly to a floor of `floor_ratio * peak` (1/20th by
default) at the final step. Frozen params are never touched. A step whose
gradients hold a NaN or inf raises `NumericError` before any param moves.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericError


@dataclass(frozen=True)
class LrSchedule:
    peak: float
    warmup_steps: int
    total_steps: int
    floor_ratio: float = 0.05

    def at(self, step: int) -> float:
        """Learning rate for 1-based update index `step`."""
        if step <= self.warmup_steps:
            return self.peak * step / max(self.warmup_steps, 1)
        floor = self.peak * self.floor_ratio
        if step >= self.total_steps:
            return floor
        span = self.total_steps - self.warmup_steps
        frac = (step - self.warmup_steps) / span
        return self.peak - (self.peak - floor) * frac


class Adam:
    """Adam over named parameter groups, each with its own schedule."""

    def __init__(self, groups, beta1: float = 0.9, beta2: float = 0.98, eps: float = 1e-8):
        # groups: list of (params, LrSchedule)
        self.groups = [([p for p in ps if p.trainable], sched) for ps, sched in groups]
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self._m = {}
        self._v = {}
        for ps, _ in self.groups:
            for p in ps:
                self._m[id(p)] = np.zeros_like(p.data)
                self._v[id(p)] = np.zeros_like(p.data)

    def step(self) -> None:
        bad = next((p for ps, _ in self.groups for p in ps if not np.isfinite(p.grad).all()), None)
        if bad is not None:
            raise NumericError(f"non-finite gradient for {bad.name!r} at step {self.t + 1}")
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        c1, c2 = 1.0 - b1**self.t, 1.0 - b2**self.t
        for params, sched in self.groups:
            lr = sched.at(self.t)
            for p in params:
                g, m, v = p.grad, self._m[id(p)], self._v[id(p)]
                # the plain expressions' order in two scratch arrays; out=,
                # because g * c is a numpy scalar, not an array, for a 0-d g
                s = np.multiply(g, 1.0 - b1, out=np.empty_like(g))
                m *= b1
                m += s
                np.multiply(g, 1.0 - b2, out=s)
                s *= g
                v *= b2
                v += s
                np.sqrt(np.divide(v, c2, out=s), out=s)
                s += self.eps
                u = np.divide(m, c1, out=np.empty_like(m))
                u *= lr
                u /= s
                p.data -= u

    def zero_grad(self) -> None:
        for params, _ in self.groups:
            for p in params:
                p.zero_grad()
