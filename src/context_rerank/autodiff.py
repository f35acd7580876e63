"""Tiny reverse-mode autodiff over dense float64 arrays, plus SGD.

The computation tape is rebuilt on every forward pass and torn down by
``backward``; there is no graph caching. Operations take a leading batch
axis, so one tape covers a whole minibatch, and the same forward runs on
constant inputs at inference. Everything is 64-bit so analytic gradients
can be validated against central finite differences tightly.
"""

from __future__ import annotations

import logging
import math
import struct
from dataclasses import dataclass, fields

import numpy as np

from .errors import ConfigError, DataError, DimensionError, NumericError, UsageError

log = logging.getLogger(__name__)

__all__ = [
    "Tensor",
    "ParamSet",
    "multiple_of",
    "SgdConfig",
    "glorot_uniform",
    "sgd_step",
    "fit",
    "save_checkpoint",
    "load_checkpoint",
    "numeric_gradient",
    "max_rel_error",
    "relu_kink_distance",
]


def _unbroadcast(g: np.ndarray, shape) -> np.ndarray:
    """Sum ``g`` down to ``shape``, undoing NumPy broadcasting."""
    g = g.sum(axis=tuple(range(g.ndim - len(shape)))) if g.ndim > len(shape) else g
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and g.shape[i] != 1)
    return g.sum(axis=axes, keepdims=True) if axes else g


class Tensor:
    """A node in the computation tape.

    ``data`` is always a float64 ndarray. Leaf tensors created with
    ``requires_grad=True`` receive a populated ``grad`` after ``backward()``
    on any scalar loss reachable from them.
    """

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward", "_kink")

    def __init__(self, data, requires_grad=False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self._parents = ()
        self._backward = None
        self._kink = None  # ReLU pre-activations, set by relu()

    @property
    def shape(self):
        return self.data.shape

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    # -- graph construction helpers -------------------------------------

    @staticmethod
    def _result(data, parents, backward):
        t = Tensor(data)
        for p in parents:
            if p.requires_grad:
                t.requires_grad = True
                t._parents = parents
                t._backward = backward
                break
        return t

    def _accumulate(self, g):
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        self.grad += g

    # -- operations -----------------------------------------------------

    def matmul(self, other: "Tensor") -> "Tensor":
        """``self @ other`` for a matrix or a stack of matrices (..., m, k)
        times one (k, n) matrix."""
        a, b = self.data, other.data
        if a.ndim < 2 or b.ndim != 2 or a.shape[-1] != b.shape[0]:
            raise DimensionError(f"matmul: incompatible shapes {a.shape} x {b.shape}")
        out = a @ b

        def backward(g):
            if self.requires_grad:
                self._accumulate(g @ b.T)
            if other.requires_grad:
                # one product over every stacked row sums the per-matrix gradients
                other._accumulate(a.reshape(-1, b.shape[0]).T @ g.reshape(-1, b.shape[1]))

        return Tensor._result(out, (self, other), backward)

    def __matmul__(self, other):
        return self.matmul(other)

    def linear(self, w: "Tensor", b: "Tensor") -> "Tensor":
        """The layer ``self @ w.T + b`` on (B, n) rows, for an (m, n) weight
        and m biases stored in any shape."""
        x, wd, bd = self.data, w.data, b.data
        if x.ndim != 2 or wd.ndim != 2 or x.shape[1] != wd.shape[1] or bd.size != wd.shape[0]:
            raise DimensionError(f"linear: incompatible shapes {x.shape}, {wd.shape}, {bd.shape}")

        def backward(g):
            if self.requires_grad:
                self._accumulate(g @ wd)
            if w.requires_grad:
                w._accumulate(g.T @ x)
            if b.requires_grad:
                b._accumulate(g.sum(axis=0).reshape(bd.shape))

        return Tensor._result(x @ wd.T + bd.reshape(-1), (self, w, b), backward)

    def left_mul(self, a: np.ndarray) -> "Tensor":
        """Constant (n, n) matrix ``a`` times each (n, f) matrix of a (B, n, f) stack."""
        x = self.data
        if x.ndim != 3 or a.shape != (x.shape[1], x.shape[1]):
            raise DimensionError(f"left_mul: incompatible shapes {a.shape} x {x.shape}")

        def backward(g):
            if self.requires_grad:
                self._accumulate(np.einsum("ji,bjf->bif", a, g))

        return Tensor._result(np.einsum("ij,bjf->bif", a, x), (self,), backward)

    def _binary(self, other, op, d_self, d_other):
        """Elementwise ``op`` with NumPy broadcasting; ``d_self`` and
        ``d_other`` map the output adjoint to each operand's, before it is
        summed back to the operand's shape."""
        try:
            out = op(self.data, other.data)
        except ValueError:
            raise DimensionError(
                f"elementwise op: shapes {self.data.shape} and {other.data.shape} do not broadcast"
            ) from None

        def backward(g):
            if self.requires_grad:
                self._accumulate(_unbroadcast(d_self(g), self.data.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(d_other(g), other.data.shape))

        return Tensor._result(out, (self, other), backward)

    def add(self, other: "Tensor") -> "Tensor":
        return self._binary(other, np.add, lambda g: g, lambda g: g)

    def sub(self, other: "Tensor") -> "Tensor":
        return self._binary(other, np.subtract, lambda g: g, np.negative)

    def mul(self, other: "Tensor") -> "Tensor":
        return self._binary(other, np.multiply, lambda g: g * other.data, lambda g: g * self.data)

    __add__ = add
    __sub__ = sub
    __mul__ = mul

    def affine(self, alpha: float, beta: float = 0.0) -> "Tensor":
        """Elementwise alpha * x + beta with python scalars."""

        def backward(g):
            if self.requires_grad:
                self._accumulate(alpha * g)

        return Tensor._result(alpha * self.data + beta, (self,), backward)

    def relu(self) -> "Tensor":
        def backward(g):
            if self.requires_grad:
                self._accumulate(g * (self.data > 0))  # adjoint at exactly 0 is 0 by convention

        out = Tensor._result(np.maximum(self.data, 0.0), (self,), backward)
        out._kink = self.data  # pre-activations, read by relu_kink_distance
        return out

    def softmax(self) -> "Tensor":
        """Softmax along the last axis."""
        x = self.data
        if x.size == 0:
            raise DimensionError("softmax: empty input")
        if not np.isfinite(x).all():
            raise NumericError("softmax: non-finite input")
        shifted = x - x.max(axis=-1, keepdims=True)
        e = np.exp(shifted)
        s = e / e.sum(axis=-1, keepdims=True)

        def backward(g):
            if self.requires_grad:
                self._accumulate(s * (g - (s * g).sum(axis=-1, keepdims=True)))

        return Tensor._result(s, (self,), backward)

    def cross_entropy_binary(self, labels) -> "Tensor":
        """Mean over rows of the negative log softmax probability of each
        row's label; ``self`` holds (B, 2) logits, or one row of 2, and
        ``labels`` one label in {0, 1} per row."""
        x = self.data
        if x.ndim not in (1, 2) or x.shape[-1] != 2:
            raise DimensionError(f"cross_entropy_binary: need rows of 2 logits, got shape {x.shape}")
        x = x.reshape(-1, 2)
        labels = np.asarray(labels).reshape(-1)
        if labels.shape[0] != x.shape[0]:
            raise DimensionError(f"cross_entropy_binary: {labels.shape[0]} labels for {x.shape[0]} rows")
        if not np.isin(labels, (0, 1)).all():
            raise UsageError(f"cross_entropy_binary: labels must be 0 or 1, got {labels!r}")
        if not np.isfinite(x).all():
            raise NumericError("cross_entropy_binary: non-finite logits")
        rows, labels = np.arange(x.shape[0]), labels.astype(np.intp)
        m = x.max(axis=1, keepdims=True)
        lse = m + np.log(np.exp(x - m).sum(axis=1, keepdims=True))
        scale = 1.0 / x.shape[0]
        loss = scale * (lse[:, 0] - x[rows, labels]).sum()
        probs = np.exp(x - lse)

        def backward(g):
            if self.requires_grad:
                grad = probs.copy()
                grad[rows, labels] -= 1.0
                self._accumulate(((g * scale) * grad).reshape(self.data.shape))

        return Tensor._result(loss, (self,), backward)

    def sum(self, axis=None) -> "Tensor":
        """Sum of every element, or along one ``axis``."""

        def backward(g):
            if self.requires_grad:
                g = g if axis is None else np.expand_dims(g, axis)
                self._accumulate(np.broadcast_to(g, self.data.shape))

        return Tensor._result(self.data.sum(axis=axis), (self,), backward)

    def reshape(self, *shape) -> "Tensor":
        old = self.data.shape

        def backward(g):
            if self.requires_grad:
                self._accumulate(np.asarray(g).reshape(old))

        return Tensor._result(self.data.reshape(*shape), (self,), backward)

    def concat(self, other: "Tensor") -> "Tensor":
        """Concatenate along the last axis."""
        n = self.data.shape[-1]

        def backward(g):
            if self.requires_grad:
                self._accumulate(g[..., :n])
            if other.requires_grad:
                other._accumulate(g[..., n:])

        return Tensor._result(
            np.concatenate([self.data, other.data], axis=-1), (self, other), backward
        )

    def item(self) -> float:
        return float(self.data)

    # -- backward -------------------------------------------------------

    def _tape(self) -> list:
        """This node and every node it depends on, each after its parents."""
        order, seen, stack = [], set(), [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
            elif id(node) not in seen:
                seen.add(id(node))
                stack.append((node, True))
                stack.extend((p, False) for p in node._parents)
        return order

    def backward(self):
        if self.data.size != 1:
            raise UsageError("backward() requires a scalar loss")
        self._accumulate(np.ones_like(self.data))
        for node in reversed(self._tape()):
            if node._backward is not None:
                node._backward(node.grad)


def relu_kink_distance(loss: Tensor) -> float:
    """Smallest |pre-activation| over every ReLU on the tape of ``loss``.

    Finite-difference checks are unreliable when a ReLU input sits within h
    of zero; callers resample such configurations.
    """
    kinks = [np.min(np.abs(n._kink)) for n in loss._tape() if n._kink is not None and n._kink.size]
    return float(min(kinks, default=np.inf))


# -- optimizer ----------------------------------------------------------


@dataclass(frozen=True)
class SgdConfig:
    """Plain SGD with a stepwise learning-rate schedule.

    ``schedule`` holds (epoch, multiplier) pairs; the multiplier applies to
    every epoch strictly after the listed one. Epochs are 1-based.
    """

    learning_rate: float = 0.1
    schedule: tuple = ((10, 0.5),)
    epochs: int = 20
    seed: int = 42
    batch_size: int = 32

    def __post_init__(self):
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ConfigError(f"learning_rate must be finite and positive, got {self.learning_rate}")
        if self.epochs < 1:
            raise ConfigError(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        marks = [e for e, _ in self.schedule]
        if marks != sorted(set(marks)):
            raise ConfigError(f"schedule epochs must be strictly increasing, got {marks}")

    def lr_at_epoch(self, epoch: int) -> float:
        lr = self.learning_rate
        for mark, mult in self.schedule:
            if epoch > mark:
                lr *= mult
        return lr


def sgd_step(params, lr: float):
    """p <- p - lr * grad for every parameter, then zero the grads."""
    for p in params:
        if p.grad is None:
            raise UsageError("sgd_step: parameter has no gradient (call backward first)")
        p.data -= lr * p.grad
        p.grad = None


def fit(params: ParamSet, cfg: SgdConfig, rng: np.random.Generator, draw, batch_loss,
        epoch_losses: list = None):
    """Minibatch SGD, shared by every trainer.

    Each epoch takes its samples from ``draw(rng)``, shuffles them with
    ``rng`` and makes one ``sgd_step`` on the tensors of ``params`` per
    ``cfg.batch_size`` slice, on the mean loss Tensor that
    ``batch_loss(batch)`` builds. The epoch line logs the epoch, the epoch
    count, the learning rate and the mean loss over the epoch, after the
    parameters' PREFIX.
    """
    tensors = params.tensors()
    message = params.PREFIX + " epoch %d/%d lr=%.4g mean_loss=%.6f"
    for epoch in range(1, cfg.epochs + 1):
        lr = cfg.lr_at_epoch(epoch)
        samples = draw(rng)
        order = rng.permutation(len(samples))
        total = 0.0
        for start in range(0, len(order), cfg.batch_size):
            batch = [samples[i] for i in order[start : start + cfg.batch_size]]
            loss = batch_loss(batch)
            loss.backward()
            sgd_step(tensors, lr)
            total += loss.item() * len(batch)
        mean_loss = total / len(order)
        if epoch_losses is not None:
            epoch_losses.append(mean_loss)
        log.info(message, epoch, cfg.epochs, lr, mean_loss)


def glorot_uniform(rng: np.random.Generator, fan_out: int, fan_in: int) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_out, fan_in))


# -- checkpoint format --------------------------------------------------

_CKPT_MAGIC = b"CRCKPT01"
_CKPT_VERSION = 1


def save_checkpoint(path, entries: dict):
    """Write named float64 arrays to ``path``; round-trips bit-exactly.

    Layout: magic, u32 version, u32 entry count, then per entry a u32
    name length + utf-8 name, u32 ndim, u32 dims, raw little-endian
    float64 values in row-major order.
    """
    with open(path, "wb") as f:
        f.write(_CKPT_MAGIC)
        f.write(struct.pack("<II", _CKPT_VERSION, len(entries)))
        for name, arr in entries.items():
            arr = np.asarray(arr, dtype="<f8", order="C")
            encoded = name.encode("utf-8")
            f.write(struct.pack("<I", len(encoded)))
            f.write(encoded)
            f.write(struct.pack("<I", arr.ndim))
            f.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
            f.write(arr.tobytes())


def load_checkpoint(path) -> dict:
    """Read a checkpoint written by ``save_checkpoint``. A short, padded or
    otherwise malformed file raises DataError naming the file and the byte
    offset."""
    with open(path, "rb") as f:
        blob = memoryview(f.read())
    if blob[: len(_CKPT_MAGIC)] != _CKPT_MAGIC:
        raise DataError(f"{path}: not a checkpoint file (bad magic)")
    off = len(_CKPT_MAGIC)

    def take(n, what):
        nonlocal off
        if off + n > len(blob):
            raise DataError(f"{path}: truncated at byte {len(blob)} reading {what} at byte {off}")
        off += n
        return blob[off - n : off]

    def u32s(n, what):
        return struct.unpack(f"<{n}I", take(4 * n, what))

    version, count = u32s(2, "the header")
    if version != _CKPT_VERSION:
        raise DataError(f"{path}: unsupported checkpoint version {version}")
    entries = {}
    for _ in range(count):
        (name_len,) = u32s(1, "a name length")
        try:
            name = bytes(take(name_len, "a name")).decode("utf-8")
        except UnicodeDecodeError as e:
            raise DataError(f"{path}: entry name at byte {off - name_len} is not utf-8") from e
        (ndim,) = u32s(1, f"the rank of {name!r}")
        shape = u32s(ndim, f"the shape of {name!r}")
        raw = take(8 * math.prod(shape), f"the values of {name!r}")
        entries[name] = np.frombuffer(raw, dtype="<f8").reshape(shape).astype(np.float64)
    if off != len(blob):
        raise DataError(f"{path}: {len(blob) - off} trailing bytes after the last entry (byte {off})")
    return entries


class ParamSet:
    """Checkpoint entries of a dataclass of parameter Tensors.

    Every field is a Tensor, except an optional ``layers`` list of Tensors.
    Entries are named ``<PREFIX>/<field>`` and ``<PREFIX>/layer<i>`` and
    written in field order. Every entry is 2-D and finite, every entry under
    the prefix is read, and ``expected_shapes`` holds the class's rule for
    how their shapes fit together.
    """

    PREFIX = ""

    def expected_shapes(self) -> dict:
        """The shape each entry must have, by the name after the prefix; a
        dimension may be a str saying what it must be."""
        return {}

    def _named(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, list):
                yield from ((f"{self.PREFIX}/layer{i}", t) for i, t in enumerate(value))
            else:
                yield f"{self.PREFIX}/{f.name}", value

    def tensors(self) -> list:
        return [t for _, t in self._named()]

    def to_entries(self) -> dict:
        return {name: t.data for name, t in self._named()}

    @classmethod
    def from_entries(cls, entries: dict):
        def leaf(name):
            if name not in entries:
                raise DataError(f"checkpoint is missing {cls.PREFIX} parameter {name!r}")
            if entries[name].ndim != 2:
                raise DataError(f"checkpoint entry {name!r} has shape {entries[name].shape}, expected 2-D")
            if not np.isfinite(entries[name]).all():
                raise DataError(f"checkpoint entry {name!r} holds a non-finite value")
            return Tensor(entries[name], requires_grad=True)

        values = {}
        for f in fields(cls):
            if f.name == "layers":
                n = 1
                while f"{cls.PREFIX}/layer{n}" in entries:
                    n += 1
                values["layers"] = [leaf(f"{cls.PREFIX}/layer{i}") for i in range(n)]
            else:
                values[f.name] = leaf(f"{cls.PREFIX}/{f.name}")
        params = cls(**values)
        read = [name for name, _ in params._named()]
        unread = sorted(name for name in entries if name.startswith(f"{cls.PREFIX}/") and name not in read)
        if unread:
            raise DataError(f"checkpoint entry {unread[0]!r} is not a {cls.PREFIX} parameter; they are {read}")
        for field, want in params.expected_shapes().items():
            name = f"{cls.PREFIX}/{field}"
            if entries[name].shape != want:
                raise DataError(f"checkpoint entry {name!r} has shape {entries[name].shape}, "
                                f"expected ({', '.join(map(str, want))})")
        return params


def multiple_of(n: int, m: int):
    """``n`` where it is a positive multiple of ``m``, for ``expected_shapes``;
    otherwise what it should have been."""
    return n if m > 0 and n > 0 and n % m == 0 else f"a multiple of {m}"


# -- finite-difference oracle -------------------------------------------


def numeric_gradient(f, x: np.ndarray, h: float = 1e-5) -> np.ndarray:
    """Central-difference gradient of scalar-valued ``f`` at ``x``."""
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    flat = x.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        hi = f(x)
        flat[i] = orig - h
        lo = f(x)
        flat[i] = orig
        gflat[i] = (hi - lo) / (2.0 * h)
    return grad


def max_rel_error(analytic: np.ndarray, numeric: np.ndarray, floor: float = 1e-4) -> float:
    """Worst symmetric relative disagreement between two gradients.

    ``floor`` keeps near-zero coordinates (where central differences bottom
    out at round-off) from dominating the ratio.
    """
    a = np.asarray(analytic, dtype=np.float64).reshape(-1)
    n = np.asarray(numeric, dtype=np.float64).reshape(-1)
    if a.shape != n.shape:
        raise DimensionError(f"gradient shape mismatch {a.shape} vs {n.shape}")
    diff = np.abs(a - n)
    rel = diff / (np.abs(a) + np.abs(n) + floor)
    return float(rel.max()) if rel.size else 0.0
