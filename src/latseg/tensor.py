"""Dense tensors, forward primitives, and reverse-mode gradient accumulation.

The layers in this package operate on 1-D/2-D float arrays. Every primitive
below computes its result eagerly with numpy and, while a :class:`Tape` is
active, appends a backward closure to it. Calling :func:`backward` on a
scalar loss replays the closures in reverse, accumulating ``dloss/dtensor``
into each tensor's ``grad`` buffer. Gradients are additive; they are cleared
only by :func:`sgd_step` (or :func:`zero_grads`).

Tests run at float64; training may use float32 for speed.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from .errors import ConfigError, NumericError, ShapeError, UsageError

# Single home for the numeric tolerances used across the test suites.
GRAD_REL_TOL = 1e-4  # analytic vs central finite differences, float64
GRAD_ABS_TOL = 1e-8  # absolute floor for near-zero gradient entries
FD_STEP = 1e-5  # central-difference step
ALPHA_SUM_TOL = 1e-6  # lattice gate weights must sum to 1 within this
LOGSPACE_TOL = 1e-9  # CRF log-space identities


class Tensor:
    """A dense array with an optional same-shape gradient accumulator."""

    __slots__ = ("data", "grad", "name", "tape")

    def __init__(self, data, *, trainable: bool = False, name: str | None = None):
        self.data = np.asarray(data)
        self.grad = np.zeros_like(self.data) if trainable else None
        self.name = name
        self.tape: Tape | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def item(self) -> float:
        return float(self.data)

    def __repr__(self) -> str:
        tag = self.name or "tensor"
        return f"Tensor({tag}, shape={self.data.shape})"


def param(data, name: str) -> Tensor:
    """A trainable leaf: gradient buffer allocated up front."""
    return Tensor(np.asarray(data), trainable=True, name=name)


def const(data, name: str | None = None) -> Tensor:
    """A non-trainable leaf; receives no gradient."""
    return Tensor(np.asarray(data), name=name)


class Tape:
    """Ordered record of executed primitives for one backward pass.

    Closures are appended in execution order, which is a valid topological
    order; replaying them reversed visits every node exactly once.
    """

    def __init__(self):
        self._ops: list = []
        self._used = False

    def __enter__(self) -> "Tape":
        global _ACTIVE
        if _ACTIVE is not None:
            raise UsageError("nested tapes are not supported")
        _ACTIVE = self
        return self

    def __exit__(self, *exc) -> None:
        global _ACTIVE
        _ACTIVE = None

    def __len__(self) -> int:
        return len(self._ops)

    def run_backward(self, loss: Tensor) -> None:
        if loss.data.shape != ():
            raise UsageError(f"backward requires a scalar loss, got shape {loss.data.shape}")
        if self._used:
            raise UsageError("tape already replayed; record a fresh graph")
        self._used = True
        loss.grad += 1.0
        for op in reversed(self._ops):
            op()


_ACTIVE: Tape | None = None


def backward(loss: Tensor) -> None:
    """Accumulate dloss/dt into every tensor the loss was built from."""
    if loss.tape is None:
        raise UsageError("loss was not recorded on an active tape")
    loss.tape.run_backward(loss)


def _out(data) -> Tensor:
    """Wrap an op result; allocate its grad buffer when recording."""
    t = Tensor(data)
    if _ACTIVE is not None:
        t.grad = np.zeros_like(t.data)
        t.tape = _ACTIVE
    return t


def _record(fn) -> None:
    if _ACTIVE is not None:
        _ACTIVE._ops.append(fn)


def _same_shape(a: Tensor, b: Tensor, op: str) -> None:
    if a.data.shape != b.data.shape:
        raise ShapeError(
            f"{op}: shape mismatch {a.name or 'lhs'}{a.data.shape} vs {b.name or 'rhs'}{b.data.shape}"
        )


# ---------------------------------------------------------------------------
# elementwise primitives
# ---------------------------------------------------------------------------


def add(a: Tensor, b: Tensor) -> Tensor:
    _same_shape(a, b, "add")
    out = _out(a.data + b.data)

    def bwd():
        g = out.grad
        if a.grad is not None:
            a.grad += g
        if b.grad is not None:
            b.grad += g

    _record(bwd)
    return out


def sub(a: Tensor, b: Tensor) -> Tensor:
    _same_shape(a, b, "sub")
    out = _out(a.data - b.data)

    def bwd():
        g = out.grad
        if a.grad is not None:
            a.grad += g
        if b.grad is not None:
            b.grad -= g

    _record(bwd)
    return out


def mul(a: Tensor, b: Tensor) -> Tensor:
    _same_shape(a, b, "mul")
    out = _out(a.data * b.data)

    def bwd():
        g = out.grad
        if a.grad is not None:
            a.grad += g * b.data
        if b.grad is not None:
            b.grad += g * a.data

    _record(bwd)
    return out


def one_minus(a: Tensor) -> Tensor:
    out = _out(1.0 - a.data)

    def bwd():
        if a.grad is not None:
            a.grad -= out.grad

    _record(bwd)
    return out


def sum_list(parts: Sequence[Tensor]) -> Tensor:
    """Elementwise sum of same-shape tensors."""
    if not parts:
        raise UsageError("sum_list of no tensors")
    acc = parts[0].data.copy()
    for p in parts[1:]:
        _same_shape(parts[0], p, "sum_list")
        acc += p.data
    out = _out(acc)

    def bwd():
        g = out.grad
        for p in parts:
            if p.grad is not None:
                p.grad += g

    _record(bwd)
    return out


# ---------------------------------------------------------------------------
# activations
# ---------------------------------------------------------------------------


def sigmoid(x: Tensor) -> Tensor:
    s = 1.0 / (1.0 + np.exp(-x.data))
    out = _out(s)

    def bwd():
        if x.grad is not None:
            x.grad += out.grad * s * (1.0 - s)

    _record(bwd)
    return out


def tanh(x: Tensor) -> Tensor:
    t = np.tanh(x.data)
    out = _out(t)

    def bwd():
        if x.grad is not None:
            x.grad += out.grad * (1.0 - t * t)

    _record(bwd)
    return out


# ---------------------------------------------------------------------------
# linear algebra and shape manipulation
# ---------------------------------------------------------------------------


def affine(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """out = w @ x + b with w of shape (m, n), x of shape (n,), b of shape (m,)."""
    if w.data.ndim != 2 or x.data.ndim != 1 or b.data.ndim != 1:
        raise ShapeError(
            f"affine expects 2-D weight, 1-D input and bias: "
            f"{w.name or 'w'}{w.data.shape}, {x.name or 'x'}{x.data.shape}, {b.name or 'b'}{b.data.shape}"
        )
    if w.data.shape[1] != x.data.shape[0] or w.data.shape[0] != b.data.shape[0]:
        raise ShapeError(
            f"affine: {w.name or 'w'}{w.data.shape} does not conform with "
            f"{x.name or 'x'}{x.data.shape} and {b.name or 'b'}{b.data.shape}"
        )
    out = _out(w.data @ x.data + b.data)

    def bwd():
        g = out.grad
        if w.grad is not None:
            w.grad += np.outer(g, x.data)
        if x.grad is not None:
            x.grad += w.data.T @ g
        if b.grad is not None:
            b.grad += g

    _record(bwd)
    return out


def concat(parts: Sequence[Tensor]) -> Tensor:
    """Concatenate 1-D tensors."""
    out = _out(np.concatenate([p.data for p in parts]))
    sizes = [p.data.shape[0] for p in parts]

    def bwd():
        g = out.grad
        o = 0
        for p, n in zip(parts, sizes):
            if p.grad is not None:
                p.grad += g[o : o + n]
            o += n

    _record(bwd)
    return out


def slice1(x: Tensor, lo: int, hi: int) -> Tensor:
    """Contiguous slice of a 1-D tensor."""
    out = _out(x.data[lo:hi].copy())

    def bwd():
        if x.grad is not None:
            x.grad[lo:hi] += out.grad

    _record(bwd)
    return out


def block(m: Tensor, r0: int, r1: int, c0: int, c1: int) -> Tensor:
    """Contiguous sub-matrix of a 2-D tensor."""
    out = _out(m.data[r0:r1, c0:c1].copy())

    def bwd():
        if m.grad is not None:
            m.grad[r0:r1, c0:c1] += out.grad

    _record(bwd)
    return out


def ravel(x: Tensor) -> Tensor:
    """Flatten to 1-D (used for single-row/column blocks)."""
    out = _out(x.data.reshape(-1).copy())

    def bwd():
        if x.grad is not None:
            x.grad += out.grad.reshape(x.data.shape)

    _record(bwd)
    return out


def pick(v: Tensor, i: int) -> Tensor:
    """Scalar entry v[i] of a 1-D tensor."""
    out = _out(v.data[i])

    def bwd():
        if v.grad is not None:
            v.grad[i] += out.grad

    _record(bwd)
    return out


def pick2(m: Tensor, i: int, j: int) -> Tensor:
    """Scalar entry m[i, j] of a 2-D tensor."""
    out = _out(m.data[i, j])

    def bwd():
        if m.grad is not None:
            m.grad[i, j] += out.grad

    _record(bwd)
    return out


def row(m: Tensor, i: int) -> Tensor:
    """Row i of a 2-D tensor, e.g. an embedding lookup; backward adds into that row."""
    out = _out(m.data[i].copy())

    def bwd():
        if m.grad is not None:
            m.grad[i] += out.grad

    _record(bwd)
    return out


def stack_rows(parts: Sequence[Tensor]) -> Tensor:
    """Stack k same-length vectors into a (k, n) matrix."""
    out = _out(np.stack([p.data for p in parts]))

    def bwd():
        g = out.grad
        for i, p in enumerate(parts):
            if p.grad is not None:
                p.grad += g[i]

    _record(bwd)
    return out


def add_outer(col: Tensor, m: Tensor) -> Tensor:
    """out[i, j] = col[i] + m[i, j]; broadcasts a column across a matrix."""
    if col.data.shape[0] != m.data.shape[0]:
        raise ShapeError(
            f"add_outer: column{col.data.shape} does not match matrix{m.data.shape}"
        )
    out = _out(col.data[:, None] + m.data)

    def bwd():
        g = out.grad
        if col.grad is not None:
            col.grad += g.sum(axis=1)
        if m.grad is not None:
            m.grad += g

    _record(bwd)
    return out


def softmax_rows(m: Tensor) -> Tensor:
    """Softmax down axis 0 of a (k, n) matrix: each column sums to 1."""
    e = np.exp(m.data - m.data.max(axis=0))
    s = e / e.sum(axis=0)
    out = _out(s)

    def bwd():
        if m.grad is not None:
            g = out.grad
            m.grad += s * (g - (g * s).sum(axis=0))

    _record(bwd)
    return out


def logsumexp_rows(m: Tensor) -> Tensor:
    """log(sum(exp(m), axis=0)) for a (k, n) matrix, max-shifted for stability."""
    mx = m.data.max(axis=0)
    z = mx + np.log(np.exp(m.data - mx).sum(axis=0))
    out = _out(z)

    def bwd():
        if m.grad is not None:
            m.grad += np.exp(m.data - z) * out.grad

    _record(bwd)
    return out


def logsumexp(v: Tensor) -> Tensor:
    """log(sum(exp(v))) of a 1-D vector as a scalar."""
    mx = v.data.max()
    z = mx + np.log(np.exp(v.data - mx).sum())
    out = _out(z)

    def bwd():
        if v.grad is not None:
            v.grad += np.exp(v.data - z) * out.grad

    _record(bwd)
    return out


# ---------------------------------------------------------------------------
# training utilities
# ---------------------------------------------------------------------------


def dropout_mask(
    shape,
    p: float,
    mode: str,
    rng: np.random.Generator | None = None,
    dtype=np.float64,
) -> Tensor:
    """Inverted-dropout mask: entries 0 with probability p, else 1/(1-p).

    Scaling at train time keeps the expectation at identity, so eval mode is
    simply an all-ones mask.
    """
    if not 0.0 <= p < 1.0:
        raise ConfigError(f"dropout probability must be in [0, 1), got {p}")
    if mode not in ("train", "eval"):
        raise ConfigError(f"dropout mode must be 'train' or 'eval', got {mode!r}")
    if mode == "eval" or p == 0.0:
        return const(np.ones(shape, dtype=dtype))
    if rng is None:
        raise UsageError("train-mode dropout requires an explicit RNG")
    keep = (rng.random(shape) >= p).astype(dtype)
    return const(keep / (1.0 - p))


def zero_grads(params: Iterable[Tensor]) -> None:
    for p in params:
        if p.grad is not None:
            p.grad[...] = 0.0


def sgd_step(params: Iterable[Tensor], lr: float) -> None:
    """p <- p - lr * grad for every trainable tensor; grads reset to zero."""
    if lr <= 0.0:
        raise ConfigError(f"learning rate must be positive, got {lr}")
    params = [p for p in params if p.grad is not None]
    for p in params:  # check every gradient before any parameter changes
        if not np.all(np.isfinite(p.grad)):
            raise NumericError(f"non-finite gradient in tensor {p.name or '<unnamed>'}")
    for p in params:
        p.data -= lr * p.grad
        p.grad[...] = 0.0
