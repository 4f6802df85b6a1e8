"""Dense tensors, forward primitives, and reverse-mode gradient accumulation.

Every primitive below computes its result eagerly with numpy and, while a
:class:`Tape` is active in the current context, appends a backward closure to
it. Calling :func:`backward` on a scalar loss replays the closures in reverse,
accumulating ``dloss/dtensor`` into each tensor's ``grad`` buffer, and lets
go of each closure once it has run.

A sentence is one matrix per layer, so the tape holds a fixed handful of
ops per sentence and none per character: one :func:`rows` gather per
embedding table, their :func:`concat` and a dropout :func:`mul` for the
character representations; per lattice direction, a gather and a mask of
the matched lexicon rows and the direction op itself; the :func:`concat` of
the two directions, one :func:`affine` for the emissions, and the CRF
objective. The direction ops and the objective have hand-written backwards
built on :func:`_out` and :func:`_acc` (in ``encoder`` and ``crf``).

Gradient buffers are lazy. A parameter owns a dense, same-shape buffer from
the start, allocated zeroed by the allocator so that only the pages a
gradient touches become resident; a recorded intermediate gets one the first
time backward writes into it, so a node that no gradient reaches keeps
``grad = None``; a constant never gets one. Gradients are additive; they are
cleared only by :func:`sgd_step` (or :func:`zero_grads`).

Updates are row-sparse where that is exact. :func:`rows` notes which rows of
a parameter (an embedding table) it added into; while nothing else has
written that parameter's gradient since its last update, :func:`sgd_step`
checks, updates and clears those rows alone. Every other row holds a zero
gradient, so the result is the dense update's, bit for bit.
"""

from __future__ import annotations

import math
from contextvars import ContextVar
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
    """A dense array with an optional same-shape gradient accumulator.

    ``grad`` is allocated up front on a parameter, on first write on a
    recorded intermediate (``tape`` set), and never on a constant. ``grad_rows``
    is, on a parameter, the row ids :func:`rows` added into its gradient since
    the last update, or ``None`` once any other write has touched it; it is
    ``None`` on every other tensor.
    """

    __slots__ = ("data", "grad", "name", "tape", "grad_rows")

    def __init__(self, data, *, trainable: bool = False, name: str | None = None):
        self.data = np.asarray(data)
        # np.zeros, unlike np.zeros_like, leaves untouched pages unmapped.
        self.grad = np.zeros(self.data.shape, self.data.dtype) if trainable else None
        self.grad_rows: list[int] | None = [] if trainable else None
        self.name = name
        self.tape: Tape | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def __len__(self) -> int:
        return len(self.data)

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
    order; replaying them reversed visits every node exactly once, and skips
    a node whose output received no gradient. The active tape belongs to the
    current context, so each thread records onto its own.
    """

    def __init__(self):
        self._ops: list = []
        self._replayed: int | None = None  # ops recorded, once backward has run
        self._token = None

    def __enter__(self) -> "Tape":
        if _ACTIVE.get() is not None:
            raise UsageError("nested tapes are not supported")
        self._token = _ACTIVE.set(self)
        return self

    def __exit__(self, *exc) -> None:
        _ACTIVE.reset(self._token)

    def __len__(self) -> int:
        return len(self._ops) if self._replayed is None else self._replayed

    def run_backward(self, loss: Tensor) -> None:
        if loss.data.shape != ():
            raise UsageError(f"backward requires a scalar loss, got shape {loss.data.shape}")
        if self._replayed is not None:
            raise UsageError("tape already replayed; record a fresh graph")
        self._replayed = len(self._ops)
        _acc(loss, 1.0)
        # Popping drops the tape's hold on each node as it is replayed, so the
        # graph is freed by reference counting instead of the cycle collector.
        ops = self._ops
        while ops:
            out, op = ops.pop()
            if out.grad is not None:  # a node no gradient reached passes none on
                op(out.grad)


_ACTIVE: ContextVar[Tape | None] = ContextVar("latseg_active_tape", default=None)


def backward(loss: Tensor) -> None:
    """Accumulate dloss/dt into every tensor the loss was built from."""
    if loss.tape is None:
        raise UsageError("loss was not recorded on an active tape")
    loss.tape.run_backward(loss)


def _out(data, bwd) -> Tensor:
    """Wrap an op result; while a tape is active, record ``bwd`` for it.

    The tape calls ``bwd(g)`` with the result's gradient; the result's own
    buffer is allocated only when backward first writes into it.
    """
    t = Tensor(data)
    tape = _ACTIVE.get()
    if tape is not None:
        t.tape = tape
        tape._ops.append((t, bwd))
    return t


def _wants(t: Tensor) -> bool:
    """Whether backward writes into t: a parameter or a recorded intermediate."""
    return t.grad is not None or t.tape is not None


def _acc(t: Tensor, g) -> None:
    """Add g into t.grad: every backward write but :func:`rows`.

    A recorded intermediate's buffer is allocated here on its first write; a
    constant takes nothing. The write ends any row record on ``t``, so its
    next update is dense.
    """
    if t.grad is None:
        if t.tape is not None:
            t.grad = np.array(g, dtype=t.data.dtype)
        return
    t.grad_rows = None
    t.grad += g


def _same_shape(a: Tensor, b: Tensor, op: str) -> None:
    if a.data.shape != b.data.shape:
        raise ShapeError(
            f"{op}: shape mismatch {a.name or 'lhs'}{a.data.shape} vs {b.name or 'rhs'}{b.data.shape}"
        )


# ---------------------------------------------------------------------------
# elementwise primitives
# ---------------------------------------------------------------------------


def mul(a: Tensor, b: Tensor) -> Tensor:
    _same_shape(a, b, "mul")

    def bwd(g):
        if _wants(a):
            _acc(a, g * b.data)
        if _wants(b):
            _acc(b, g * a.data)

    return _out(a.data * b.data, bwd)


# ---------------------------------------------------------------------------
# activations
# ---------------------------------------------------------------------------


_EXP_SAFE = 88.0  # exp(x) is finite for x <= 88 in float32 and float64


def logistic(a: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-a)) on an array: the one sigmoid formula in the package.

    Where exp(-a) overflows to inf the result is 0, the exact limit, so the
    overflow is not reported. Only an input that can overflow pays for
    ``np.errstate``, which costs more than the formula on a short vector.
    """
    if a.min() >= -_EXP_SAFE:
        return 1.0 / (1.0 + np.exp(-a))
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-a))


# ---------------------------------------------------------------------------
# linear algebra and shape manipulation
# ---------------------------------------------------------------------------


def affine(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """out[i] = w @ x[i] + b with w of shape (k, n), b of shape (k,) and x of shape (m, n).

    Each row is its own matrix-vector product, so it has the bits of that
    product whatever m is; backward takes each gradient as one matrix product.
    """
    if w.data.ndim != 2 or x.data.ndim != 2 or b.data.ndim != 1:
        raise ShapeError(
            f"affine expects 2-D weight, 2-D input and 1-D bias: "
            f"{w.name or 'w'}{w.data.shape}, {x.name or 'x'}{x.data.shape}, {b.name or 'b'}{b.data.shape}"
        )
    if w.data.shape[1] != x.data.shape[1] or w.data.shape[0] != b.data.shape[0]:
        raise ShapeError(
            f"affine: {w.name or 'w'}{w.data.shape} does not conform with "
            f"{x.name or 'x'}{x.data.shape} and {b.name or 'b'}{b.data.shape}"
        )

    def bwd(g):
        if _wants(w):
            _acc(w, g.T @ x.data)
        if _wants(x):
            _acc(x, g @ w.data)
        _acc(b, g.sum(axis=0))

    return _out(np.array([w.data @ xi + b.data for xi in x.data]), bwd)


def concat(parts: Sequence[Tensor]) -> Tensor:
    """Concatenate tensors along their last axis."""
    sizes = [p.data.shape[-1] for p in parts]

    def bwd(g):
        o = 0
        for p, n in zip(parts, sizes):
            _acc(p, g[..., o : o + n])
            o += n

    return _out(np.concatenate([p.data for p in parts], axis=-1), bwd)


def rows(m: Tensor, ids: Sequence[int]) -> Tensor:
    """Rows ``ids`` of a 2-D tensor as one (k, n) tensor, e.g. embedding lookups.

    Backward adds each row's gradient into ``m.grad[ids[j]]`` in reverse
    lookup order, the order in which one lookup per row would replay, so a
    repeated id sums its gradients with the same bits. On a parameter still
    holding a row record it also notes ``ids`` in ``m.grad_rows``, so that
    :func:`sgd_step` updates only the rows looked up.
    """
    ids = np.asarray(ids, dtype=np.intp)

    def bwd(g):
        if m.grad is None:
            if m.tape is None:
                return
            m.grad = np.zeros(m.data.shape, m.data.dtype)
        np.add.at(m.grad, ids[::-1], g[::-1])
        if m.grad_rows is not None:
            m.grad_rows.extend(ids.tolist())

    return _out(m.data[ids], bwd)


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
    """Clear each gradient: its recorded rows alone where it has a row record."""
    for p in params:
        if p.grad is not None:
            p.grad[p.grad_rows or ...] = 0.0  # Ellipsis: every entry
            p.grad_rows = []


def sgd_step(params: Iterable[Tensor], lr: float) -> None:
    """p <- p - lr * grad for every trainable tensor; grads reset to zero.

    A tensor with a row record (see :func:`rows`) is checked, updated and
    cleared on its recorded rows only; every other tensor densely.
    """
    if not (math.isfinite(lr) and lr > 0.0):
        raise ConfigError(f"learning rate must be positive and finite, got {lr}")
    updates = []
    for p in params:  # check every gradient before any parameter changes
        if p.grad is None:
            continue
        at = np.unique(p.grad_rows) if p.grad_rows else ...  # Ellipsis: every entry
        g = p.grad[at]
        if not np.all(np.isfinite(g)):
            raise NumericError(f"non-finite gradient in tensor {p.name or '<unnamed>'}")
        updates.append((p, at, g))
    for p, at, g in updates:
        p.data[at] -= lr * g
        p.grad[at] = 0.0
        p.grad_rows = []
