"""Finite-difference oracles and gradient comparison shared by the test suites."""

from __future__ import annotations

import numpy as np

from latseg.tensor import (
    FD_STEP,
    GRAD_ABS_TOL,
    GRAD_REL_TOL,
    Tape,
    Tensor,
    _acc,
    _out,
    backward,
    zero_grads,
)


def weighted_sum(t: Tensor, weights) -> Tensor:
    """sum(weights * t) as one recorded scalar: a test loss over any tensor."""
    w = np.asarray(weights, dtype=t.data.dtype)

    def bwd(g):
        _acc(t, g * w)

    return _out(np.asarray((w * t.data).sum()), bwd)


def numeric_grad(value_fn, tensor: Tensor, step: float = FD_STEP) -> np.ndarray:
    """Central finite differences of value_fn() wrt every entry of tensor.

    value_fn must re-run the forward pass from current parameter values and
    return a float; it is evaluated 2 * tensor.size times.
    """
    grad = np.zeros_like(tensor.data)
    flat = tensor.data.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + step
        up = value_fn()
        flat[i] = orig - step
        down = value_fn()
        flat[i] = orig
        gflat[i] = (up - down) / (2.0 * step)
    return grad


def max_grad_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    """Worst relative error, with an absolute floor for near-zero entries."""
    diff = np.abs(analytic - numeric)
    scale = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), GRAD_ABS_TOL / GRAD_REL_TOL)
    return float((diff / scale).max()) if diff.size else 0.0


def assert_grads_match(loss_fn, tensors, rel_tol: float = GRAD_REL_TOL):
    """Backprop loss_fn once, then finite-difference every tensor against it.

    loss_fn() must build the loss from current parameter values (recorded on
    the active tape when one is present) and be deterministic.
    """
    tape = Tape()
    with tape:
        loss = loss_fn()
    backward(loss)
    analytic = {id(t): t.grad.copy() for t in tensors}
    zero_grads(tensors)

    def value():
        return loss_fn().item()

    for t in tensors:
        num = numeric_grad(value, t)
        err = max_grad_error(analytic[id(t)], num)
        assert err < rel_tol, f"gradient mismatch for {t.name or 'tensor'}: rel err {err:.3e}"
