"""Dense tensors, forward primitives, and reverse-mode gradient accumulation.

Every primitive below computes its result eagerly with numpy and, while a
:class:`Tape` is active in the current context, appends a backward closure to
it. Calling :func:`backward` on a scalar loss replays the closures in reverse,
accumulating ``dloss/dtensor`` into each tensor's gradient, and lets
go of each closure once it has run.

A sentence is one matrix per layer, so the tape holds a fixed handful of
ops per sentence and none per character: one :func:`rows` gather per
embedding table and their :func:`concat` for the character representations;
one gather of both directions' matched lexicon rows and the encoder op,
which runs both directions; when the forward is given an rng, a
:func:`dropout` of the character representations and of the lexicon
gather; and the CRF loss, which computes the emissions itself. The encoder
op and the loss have hand-written backwards built on :func:`_out` and
:func:`_acc` (in ``encoder`` and ``crf``). Every random starting weight is
one :func:`uniform` draw.

Gradient buffers are lazy. A parameter gets its dense, same-shape buffer on
its first dense write and keeps it; a recorded intermediate gets one the
first time backward writes into it, so a node that no gradient reaches keeps
``grad = None``; a constant never gets one. Gradients are additive; they are
cleared only by :func:`sgd_step` (or :func:`zero_grads`).

An embedding table's gradient is the rows it looked up. While only
:func:`rows` has written a parameter since its last update, the parameter
holds each lookup's ids and row gradients instead of a table-sized buffer,
and :func:`sgd_step` sums them per distinct row in the order the dense
accumulation would have added them, then checks, updates and clears those
rows alone. Every other row holds a zero gradient, so the result is the
dense update's, bit for bit. Any other write folds the held rows into the
dense buffer, and that update is dense.
"""

from __future__ import annotations

import math
from contextvars import ContextVar
from typing import Iterable, Sequence

import numpy as np

from .errors import ConfigError, NumericError, UsageError


class Tensor:
    """A dense array with an optional same-shape gradient accumulator.

    ``grad`` is allocated on a tensor's first dense write: on a parameter by
    :func:`_acc`, on a recorded intermediate (``tape`` set) by any backward, and
    never on a constant. ``grad_rows`` is, on a parameter, the row record: the
    ``(ids, row gradients)`` of each :func:`rows` lookup backward has replayed
    since the last update, in replay order, while ``grad`` is ``None`` or all
    zero; it is ``None`` once any other write has made the gradient dense, and
    on every other tensor.
    """

    __slots__ = ("data", "grad", "name", "tape", "grad_rows")

    def __init__(self, data, *, trainable: bool = False, name: str | None = None):
        self.data = np.asarray(data)
        self.grad: np.ndarray | None = None
        self.grad_rows: list[tuple[np.ndarray, np.ndarray]] | None = [] if trainable else None
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
    """A trainable leaf: it starts with an empty row record and no gradient buffer."""
    return Tensor(np.asarray(data), trainable=True, name=name)


def uniform(rng: np.random.Generator, shape: tuple[int, ...], fan_in: int, dtype, name: str) -> Tensor:
    """A trainable leaf drawn from [-sqrt(3/fan_in), sqrt(3/fan_in)]: every random starting weight."""
    bound = math.sqrt(3.0 / fan_in)
    return param(rng.uniform(-bound, bound, size=shape).astype(dtype, copy=False), name)


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


def recording() -> bool:
    """Whether a tape is active in the current context."""
    return _ACTIVE.get() is not None


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


def _acc(t: Tensor, g) -> None:
    """Add g into t.grad: every backward write but :func:`rows`.

    A recorded intermediate's buffer is allocated here on its first write; a
    constant takes nothing. On a parameter the write ends the row record: its
    rows are added into the dense buffer first, as they would have been on
    replay, so its next update is dense.
    """
    if t.grad_rows is not None:
        if t.grad is None:
            t.grad = np.zeros(t.data.shape, t.data.dtype)
        for ids, rg in t.grad_rows:
            np.add.at(t.grad, ids[::-1], rg[::-1])
        t.grad_rows = None
    elif t.grad is None:
        if t.tape is not None:
            t.grad = np.array(g, dtype=t.data.dtype)
        return
    t.grad += g


# ---------------------------------------------------------------------------
# shape manipulation
# ---------------------------------------------------------------------------


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
    holding a row record it appends ``(ids, g)`` to ``m.grad_rows`` instead
    (a lookup of no ids adds nothing), so that :func:`sgd_step` sums and
    updates only the rows looked up, in that same order.
    """
    ids = np.asarray(ids, dtype=np.intp)

    def bwd(g):
        if m.grad_rows is not None:
            if len(ids):
                m.grad_rows.append((ids, g))
            return
        if m.grad is None:
            if m.tape is None:
                return
            m.grad = np.zeros(m.data.shape, m.data.dtype)
        np.add.at(m.grad, ids[::-1], g[::-1])

    return _out(m.data[ids], bwd)


# ---------------------------------------------------------------------------
# training utilities
# ---------------------------------------------------------------------------


def dropout(x: Tensor, p: float, rng: np.random.Generator | None) -> Tensor:
    """Inverted dropout: each entry zeroed with probability p, else scaled by 1/(1-p).

    The mask is one ``rng.random`` draw of x's shape. Without an ``rng`` or with
    p <= 0 it returns ``x`` itself, unrecorded: the scaling keeps the
    expectation, so a forward without dropout needs no mask.
    """
    if rng is None or not p > 0.0:
        return x
    if p >= 1.0:
        raise ConfigError(f"dropout probability must be in [0, 1), got {p}")
    mask = (rng.random(x.shape) >= p).astype(x.data.dtype) / (1.0 - p)

    def bwd(g):
        _acc(x, g * mask)

    return _out(x.data * mask, bwd)


def _row_sums(record: list[tuple[np.ndarray, np.ndarray]]) -> tuple[np.ndarray, np.ndarray]:
    """A row record's distinct rows, ascending, and each one's summed gradient.

    Each row's gradients are added into a zero in the order :func:`rows`
    would have added them into a dense buffer: lookups in replay order, each
    lookup's rows last first, which is the lookups joined in reverse replay
    order and read backwards. A stable sort groups the rows and keeps that
    order within each group, and ``np.add.at`` adds in it.
    """
    if len(record) == 1:  # the model looks each table up once a step: no join
        ids, grads = record[0]
    else:
        ids = np.concatenate([ids for ids, _ in reversed(record)])
        grads = np.concatenate([g for _, g in reversed(record)])
    ids, grads = ids[::-1], grads[::-1]
    order = np.argsort(ids, kind="stable")
    ranked = ids[order]
    first = np.empty(len(ranked), bool)
    first[0] = True
    np.not_equal(ranked[1:], ranked[:-1], out=first[1:])
    slot = np.cumsum(first)
    slot -= 1
    sums = np.zeros((slot[-1] + 1, *grads.shape[1:]), grads.dtype)
    np.add.at(sums, slot, grads[order])
    return ranked[first], sums


def zero_grads(params: Iterable[Tensor]) -> None:
    """Clear each gradient: drop a row record, or zero a dense buffer."""
    for p in params:
        if p.grad_rows is None:
            if p.grad is None:
                continue
            p.grad[...] = 0.0
        p.grad_rows = []


def sgd_step(params: Iterable[Tensor], lr: float) -> None:
    """p <- p - lr * grad for every trainable tensor; grads reset to zero.

    A tensor with a row record (see :func:`rows`) is checked, updated and
    cleared on its recorded rows only, each row's gradient summed by
    :func:`_row_sums`, and left untouched when the record is empty; every
    other tensor densely. Each update is computed in the tensor's dtype, and
    every new value is checked before any tensor changes: a value that is
    not finite, from its gradient or from an update that overflows, raises
    NumericError naming the tensor.
    """
    if not (math.isfinite(lr) and lr > 0.0):
        raise ConfigError(f"learning rate must be positive and finite, got {lr}")
    updates = []
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite value is raised below
        for p in params:
            if p.grad_rows:
                at, g = _row_sums(p.grad_rows)
            elif p.grad_rows is None and p.grad is not None:
                at, g = ..., p.grad  # Ellipsis: every entry
            else:
                continue
            new = p.data[at] - lr * g
            if not np.isfinite(new).all():
                source = "update" if np.isfinite(g).all() else "gradient"
                raise NumericError(f"non-finite {source} in tensor {p.name or '<unnamed>'}")
            updates.append((p, at, new))
    for p, at, new in updates:
        p.data[at] = new
        if p.grad_rows is None:
            p.grad[...] = 0.0
        p.grad_rows = []
