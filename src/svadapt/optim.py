"""Adam with per-group learning-rate schedules.

The schedule ramps linearly from zero to the peak rate over the warm-up
steps, then decays linearly to a floor of `FLOOR_RATIO * peak` (1/20th) at
the final step; Adam runs at (`BETA1`, `BETA2`, `EPS`). Frozen params are
never touched. A NaN or inf in a gradient raises `NumericError` before any
param moves, and one in an updated param raises it after the step; either
names the param and step.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericError

BETA1, BETA2, EPS = 0.9, 0.98, 1e-8
FLOOR_RATIO = 0.05


@dataclass(frozen=True)
class LrSchedule:
    peak: float
    warmup_steps: int
    total_steps: int

    def at(self, step: int) -> float:
        """Learning rate for 1-based update index `step`."""
        if step <= self.warmup_steps:
            return self.peak * step / max(self.warmup_steps, 1)
        floor = self.peak * FLOOR_RATIO
        if step >= self.total_steps:
            return floor
        span = self.total_steps - self.warmup_steps
        frac = (step - self.warmup_steps) / span
        return self.peak - (self.peak - floor) * frac


class Adam:
    """Adam over named parameter groups, each with its own schedule. Building
    it rebinds each group's trainable `data` and `grad` to the two rows of one
    flat (2, n) buffer, so a step and `zero_grad` work on whole rows."""

    def __init__(self, groups):
        # groups: list of (params, LrSchedule)
        self.groups = [([p for p in ps if p.trainable], sched) for ps, sched in groups]
        self.t = 0
        self._buffers = [_flatten(ps) for ps, _ in self.groups]
        self._moments = [np.zeros_like(buf) for buf in self._buffers]

    def _check(self, row: int, what: str, step: int) -> None:
        """NumericError naming the first param with a NaN or inf in `row` (values 0, grads 1)."""
        for (params, _), buf in zip(self.groups, self._buffers):
            if not np.isfinite(buf[row]).all():
                bad = next(p for p in params if not np.isfinite((p.data, p.grad)[row]).all())
                raise NumericError(f"non-finite {what} for {bad.name!r} at step {step}")

    def step(self) -> None:
        self._check(1, "gradient", self.t + 1)
        self.t += 1
        b1, b2 = BETA1, BETA2
        c1, c2 = 1.0 - b1**self.t, 1.0 - b2**self.t
        for (_, sched), (w, g), (m, v) in zip(self.groups, self._buffers, self._moments):
            # the plain expressions' order in two scratch rows
            s = np.multiply(g, 1.0 - b1)
            m *= b1
            m += s
            np.multiply(g, 1.0 - b2, out=s)
            s *= g
            v *= b2
            v += s
            np.sqrt(np.divide(v, c2, out=s), out=s)
            s += EPS
            u = np.divide(m, c1)
            u *= sched.at(self.t)
            u /= s
            w -= u
        self._check(0, "value", self.t)

    def zero_grad(self) -> None:
        for buf in self._buffers:
            buf[1] = 0.0


def _flatten(params) -> np.ndarray:
    """A (2, n) buffer of `params`' values and gradients, rebound to views of it."""
    ends = np.cumsum([0] + [p.data.size for p in params])
    buf = np.empty((2, ends[-1]))
    for p, start, end in zip(params, ends, ends[1:]):
        views = buf[:, start:end].reshape(2, *p.data.shape)
        views[0], views[1] = p.data, p.grad
        p.data, p.grad = views[0, ...], views[1, ...]
    return buf
