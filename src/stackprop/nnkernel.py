"""Minimal dense feed-forward kernel with manual backpropagation.

One topology: grouped feature embeddings -> concatenation -> ReLU hidden
layer -> softmax. Feature groups are either sparse (rows are vocabulary ids
selecting embedding rows) or dense (rows are vectors, multiplied by the group
embedding matrix, or passed through unembedded). Dense groups also expose
gradients with respect to their input rows so a loss can be backpropagated
into whatever produced them.

Training is mini-batched averaged SGD with momentum; every parameter block
carries its own velocity, running average, and average count so that updates
restricted to a subset of blocks leave the rest bit-identical. While a block
trains, its average is kept as the running sum of its iterates (Polyak &
Juditsky 1992; Bottou 2012), so a step adds the new parameters once instead
of rewriting a mean; the mean is divided out when something reads it.

The ``W1`` products and the updates of large blocks are split over the
usable cores (``_cuts``, ``_run``). A product is cut only along an output
dimension, into aligned pieces above OpenBLAS's small-matrix path, so every
output element is summed as in the whole product and results do not depend
on the core count. Importing this module pins numpy's bundled OpenBLAS to
one thread for the whole process, so that split is the only parallel work:
OpenBLAS's own threads follow the core count and round differently. The
``scipy_openblas_*`` names ``_openblas`` looks up belong to numpy's own
bundled OpenBLAS (numpy wheels ship the scipy-openblas build), not to
scipy, which the library does not use.
"""

from __future__ import annotations

import ctypes
import hashlib
import itertools
import json
import math
import os
import struct
from collections.abc import Mapping
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import asdict, dataclass, fields
from functools import partial
from pathlib import Path
from types import MappingProxyType
from typing import BinaryIO, Callable, Optional, Sequence, Union

import numpy as np

from stackprop.errors import ModelError, StackpropError

DTYPE = np.float64
INIT_SCALE = 0.01  # weights and embeddings start uniform in [-INIT_SCALE, INIT_SCALE]
HIDDEN_BIAS = 0.2  # b1's initial value, so ReLU units start active

MAGIC = b"STPM"
FORMAT_VERSION = 1
SAVE_CHUNK_BYTES = 1 << 20  # most bytes of a block written at once (bounds a saved mean's copy)

# Work splitting. Piece boundaries fall on multiples of ALIGN elements, so
# each piece's BLAS tiles line up with the whole product's. A product piece
# does at least GEMM_FLOOR multiply-adds, which keeps it above OpenBLAS's
# small-matrix path (at most 1e6; it rounds differently) and worth a
# handoff. At default dims a 2-row parser forward splits, and a 1-row one, a
# matrix-vector product that gains nothing from a split, does not. An update
# piece covers at least ASGD_FLOOR elements.
ALIGN = 64
GEMM_FLOOR = 1 << 20
ASGD_FLOOR = 1 << 17


_LIBS = sorted(Path(np.__file__).resolve().parent.parent.glob("numpy.libs/*openblas*.so*"))
_OPENBLAS = ctypes.CDLL(str(_LIBS[0])) if _LIBS else None  # numpy's bundled OpenBLAS


def _openblas(name: str) -> Optional[Callable]:
    """The function ``name`` of numpy's bundled OpenBLAS, under this
    name or one of its older ones; None when there is no such library."""
    names = (f"scipy_openblas_{name}64_", f"openblas_{name}64_", f"openblas_{name}")
    return next((getattr(_OPENBLAS, n) for n in names if hasattr(_OPENBLAS, n)), None)


def blas_build() -> Optional[str]:
    """numpy's OpenBLAS build (version, options, CPU kernel); None without one."""
    config = _openblas("get_config")
    if config is None:
        return None
    config.restype = ctypes.c_char_p
    return config().decode().strip()


# One OpenBLAS thread for the whole process (see the module docstring).
_pin = _openblas("set_num_threads")
if _pin is not None:
    _pin(1)

# Helper threads beside the caller, one per other usable core; threads start
# on the first split. None on a single core.
_HELPERS = len(os.sched_getaffinity(0)) - 1
_POOL = ThreadPoolExecutor(_HELPERS, thread_name_prefix="nnkernel") if _HELPERS else None


@dataclass(frozen=True)
class FeatureGroupSpec:
    """Shape of one feature group: F templates over a V-sized space, embedded
    into D dimensions. Dense groups take vector rows of width V instead of
    ids; an unembedded dense group feeds its rows straight to the hidden
    layer."""

    name: str
    num_templates: int
    vocab_size: int
    embed_dim: int
    dense: bool = False
    embedded: bool = True

    def __post_init__(self):
        # sparse vocabularies always reserve a NULL id, hence the >= 2 floor;
        # dense groups take raw vector rows, which may legitimately be width 1
        min_vocab = 1 if self.dense else 2
        if self.num_templates < 1 or self.vocab_size < min_vocab or self.embed_dim < 1:
            raise StackpropError(f"bad group spec {self}")
        if not self.embedded and not self.dense:
            raise StackpropError(f"sparse group {self.name} must be embedded")

    @property
    def row_width(self) -> int:
        return self.embed_dim if self.embedded else self.vocab_size

    @property
    def width(self) -> int:
        return self.num_templates * self.row_width


@dataclass
class OptimizerConfig:
    eta0: float = 0.05
    gamma: float = 10000.0
    mu: float = 0.9
    batch_size: int = 32
    averaging_start: int = 0

    def __post_init__(self):
        if (
            not 0 < self.eta0 < math.inf
            or not 0 < self.gamma < math.inf
            or not 0 <= self.mu < 1
            or self.batch_size < 1
        ):
            raise StackpropError(f"bad optimizer config {self}")


def block_shapes(
    groups: Sequence[FeatureGroupSpec],
    n_hidden: int,
    n_out: int,
    extra: Optional[dict[str, tuple[int, ...]]] = None,
) -> dict[str, tuple[int, ...]]:
    """Every parameter block of a network, in block order: one embedding
    matrix per embedded group (``E_<group>``), hidden ``W1``/``b1``, softmax
    ``W2``/``b2``, then the extra blocks, each of at least one dimension."""
    if any(not shape for shape in (extra or {}).values()):
        raise StackpropError(f"extra blocks need at least one dimension: {extra}")
    shapes = {f"E_{g.name}": (g.vocab_size, g.embed_dim) for g in groups if g.embedded}
    shapes["W1"] = (sum(g.width for g in groups), n_hidden)
    shapes["b1"] = (n_hidden,)
    shapes["W2"] = (n_hidden, n_out)
    shapes["b2"] = (n_out,)
    shapes.update(extra or {})
    return shapes


class Network:
    """Parameters and optimizer shadow state for one feed-forward unit.

    Blocks are laid out by ``block_shapes``. Extra blocks are caller-managed:
    updated by the optimizer and serialized, but not used by the forward pass
    here.

    ``average`` maps each block to its current average, read-only; a block
    whose ``avg_count`` is 0 holds its initial parameters there. Arrays read
    from it or from ``inference_params`` stay valid until the next step.
    While a block trains, each read divides its running sum afresh;
    ``settle_averages`` makes reads free until the next step.
    """

    def __init__(
        self,
        groups: Sequence[FeatureGroupSpec],
        n_hidden: int,
        n_out: int,
        rng: np.random.Generator,
        extra_blocks: Optional[dict[str, tuple[int, ...]]] = None,
    ):
        self.groups = list(groups)
        self.n_hidden = n_hidden
        self.n_out = n_out
        self.params: dict[str, np.ndarray] = {}
        for name, shape in block_shapes(self.groups, n_hidden, n_out, extra_blocks).items():
            if name == "b1":
                self.params[name] = np.full(shape, HIDDEN_BIAS, dtype=DTYPE)
            elif name == "b2":
                self.params[name] = np.zeros(shape, dtype=DTYPE)
            else:
                self.params[name] = rng.uniform(-INIT_SCALE, INIT_SCALE, size=shape).astype(DTYPE)
        self.block_names = list(self.params)
        self.velocity = {k: np.zeros_like(v) for k, v in self.params.items()}
        self.avg_count = {k: 0 for k in self.params}
        self.step = 0
        self._init_averages({k: v.copy() for k, v in self.params.items()})

    def _init_averages(self, averages: dict[str, np.ndarray]) -> None:
        # _avg holds the running sum of the last avg_count iterates for the
        # blocks in _summed, and the average itself for the others
        self._avg = averages
        self._summed: set[str] = set()

    @property
    def average(self) -> Mapping[str, np.ndarray]:
        return MappingProxyType({k: self._mean(k) for k in self.block_names})

    def _mean(self, name: str) -> np.ndarray:
        """Read-only current average of one block."""
        acc = self._avg[name]
        m = acc / self.avg_count[name] if name in self._summed else acc.view()
        m.flags.writeable = False
        return m

    def _running_sum(self, name: str) -> np.ndarray:
        """Block ``name``'s running sum, counted as holding one more iterate
        than before; the caller adds that iterate."""
        acc = self._avg[name]
        if name not in self._summed:
            acc *= self.avg_count[name]  # the sum of n iterates is n times their mean
            self._summed.add(name)
        self.avg_count[name] += 1
        return acc

    def set_average(self, name: str, value) -> None:
        """Overwrite block ``name``'s average with ``value`` (broadcast to the
        block's shape), counted as at least one iterate."""
        if name not in self._avg:
            raise StackpropError(f"no parameter block {name}")
        np.copyto(self._avg[name], value)
        self._summed.discard(name)
        self.avg_count[name] = max(1, self.avg_count[name])

    def settle_averages(self) -> None:
        """Divide every running sum into its mean in place, so a network
        that has finished training, or is being evaluated, holds one copy of
        its averages and reads them for free. A later step multiplies them
        back into sums."""
        for name in self._summed:
            np.divide(self._avg[name], self.avg_count[name], out=self._avg[name])
        self._summed.clear()

    def inference_params(self) -> dict[str, np.ndarray]:
        """The parameters decoding reads: each block's average, or its raw
        parameters while it has none."""
        return {
            k: (self._mean(k) if self.avg_count[k] > 0 else self.params[k])
            for k in self.block_names
        }

    def count_parameters(self) -> int:
        return sum(v.size for v in self.params.values())


@dataclass
class ForwardCache:
    inputs: dict[str, np.ndarray]
    h0: np.ndarray
    z1: np.ndarray
    h1: np.ndarray
    logits: np.ndarray


def kernel_workers() -> int:
    """Threads that run the pieces of a split product or update: the
    caller and the pool's helpers."""
    return 1 + (_POOL._max_workers if _POOL is not None else 0)


def _cuts(n: int, unit: int, floor: int, equal: bool) -> list[slice]:
    """[0, n) cut into one piece per kernel worker, or fewer: pieces are
    ALIGN-multiples as equal as that allows (all equal when ``equal``), the
    last one shortest, and each is worth at least ``floor`` at ``unit`` per
    index. The whole range when no cut qualifies."""
    for k in range(kernel_workers(), 1, -1):
        w = -(-n // (k * ALIGN)) * ALIGN
        last = n - (k - 1) * w
        if last * unit >= floor and (last == w or not equal):
            return [slice(i, i + w) for i in range(0, n, w)]
    return [slice(0, n)]


def _run(pieces: list[Callable[[], object]]) -> None:
    """Run every piece: the first on the calling thread, the rest on the
    pool. Afterwards the caller runs any piece no helper has started, so a
    busy pool costs nothing and nested pools cannot deadlock. Pieces call
    only numpy."""
    futures = [_POOL.submit(piece) for piece in pieces[1:]]
    pieces[0]()
    for piece, f in zip(pieces[1:], futures):
        if f.cancel():
            piece()
        else:
            f.result()


def _matmul(a: np.ndarray, b: np.ndarray, axis: int) -> np.ndarray:
    """``a @ b`` for 2-D operands, split along output ``axis`` (0: rows of
    ``a``, 1: columns of ``b``) into equal pieces when they are large
    enough; never along the reduction, so the result is bitwise ``a @ b``."""
    out_shape = (a.shape[0], b.shape[1])
    cuts = _cuts(out_shape[axis], a.shape[1] * out_shape[1 - axis], GEMM_FLOOR, equal=True)
    out = np.empty(out_shape, dtype=np.result_type(a, b))
    if axis == 0:
        pieces = [partial(np.matmul, a[s], b, out=out[s]) for s in cuts]
    else:
        pieces = [partial(np.matmul, a, b[:, s], out=out[:, s]) for s in cuts]
    _run(pieces)
    return out


def embed_forward_batch(
    net: Network, inputs: dict[str, np.ndarray], params: Optional[dict] = None
) -> np.ndarray:
    """Concatenated embedding layer for a batch: (B, sum_g F_g * D_g)."""
    params = params if params is not None else net.params
    parts = []
    batch = None
    for g in net.groups:
        try:
            x = inputs[g.name]
        except KeyError:
            raise StackpropError(f"missing input for feature group {g.name}")
        if batch is None:
            batch = x.shape[0]
        if g.dense:
            if x.shape[1:] != (g.num_templates, g.vocab_size):
                raise StackpropError(
                    f"dense input for {g.name} has shape {x.shape}"
                )
            out = x @ params[f"E_{g.name}"] if g.embedded else x
        else:
            if x.shape[1:] != (g.num_templates,):
                raise StackpropError(f"id input for {g.name} has shape {x.shape}")
            out = params[f"E_{g.name}"][x]
        parts.append(np.ascontiguousarray(out, dtype=DTYPE).reshape(batch, -1))
    return np.concatenate(parts, axis=1)


def forward_batch(
    net: Network, inputs: dict[str, np.ndarray], params: Optional[dict] = None
) -> ForwardCache:
    params = params if params is not None else net.params
    h0 = embed_forward_batch(net, inputs, params)
    z1 = _matmul(h0, params["W1"], axis=1)
    z1 += params["b1"]
    h1 = np.maximum(z1, 0.0)
    logits = h1 @ params["W2"] + params["b2"]
    return ForwardCache(inputs, h0, z1, h1, logits)


def softmax_batch(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def softmax_xent_batch(
    logits: np.ndarray, gold: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(probabilities, per-example loss, per-example dlogits) for gold ids."""
    probs = softmax_batch(logits)
    b = np.arange(logits.shape[0])
    losses = -np.log(np.maximum(probs[b, gold], 1e-300))
    dlogits = probs.copy()
    dlogits[b, gold] -= 1.0
    return probs, losses, dlogits


def backward_batch(
    net: Network, cache: ForwardCache, dlogits: np.ndarray
) -> tuple[dict[str, np.ndarray], dict[str, np.ndarray]]:
    """Gradients for all blocks plus gradients w.r.t. dense group inputs:
    the softmax layer's, then ``backward_from_hidden``'s.

    ``dlogits`` carries whatever scaling the caller wants (e.g. 1/B for a
    batch mean); everything downstream inherits it.
    """
    grads, dense_grads = backward_from_hidden(net, cache, dlogits @ net.params["W2"].T)
    grads["W2"] = cache.h1.T @ dlogits
    grads["b2"] = dlogits.sum(axis=0)
    return grads, dense_grads


def backward_from_hidden(
    net: Network, cache: ForwardCache, dh1: np.ndarray
) -> tuple[dict[str, np.ndarray], dict[str, np.ndarray]]:
    """Backward pass entered at the hidden activations, skipping the softmax
    layer entirely (its blocks do not appear in the result)."""
    dz1 = dh1 * (cache.z1 > 0)
    grads = {"W1": _matmul(cache.h0.T, dz1, axis=0), "b1": dz1.sum(axis=0)}
    dh0 = _matmul(dz1, net.params["W1"].T, axis=1)
    dense_grads: dict[str, np.ndarray] = {}
    offset = 0
    batch = dh0.shape[0]
    for g in net.groups:
        seg = dh0[:, offset : offset + g.width]
        offset += g.width
        seg = seg.reshape(batch, g.num_templates, g.row_width)
        x = cache.inputs[g.name]
        if g.dense:
            if g.embedded:
                grads[f"E_{g.name}"] = x.reshape(-1, g.vocab_size).T @ seg.reshape(-1, g.embed_dim)
                dense_grads[g.name] = seg @ net.params[f"E_{g.name}"].T
            else:
                dense_grads[g.name] = seg
        else:
            grads[f"E_{g.name}"] = scatter_rows(
                x.ravel(), seg.reshape(-1, g.embed_dim), g.vocab_size
            )
    return grads, dense_grads


def scatter_rows(ids: np.ndarray, rows: np.ndarray, n: int) -> np.ndarray:
    """(n, D) sums of the (N, D) ``rows`` by their ids in [0, n): row ``i``
    of the result adds up every ``rows[j]`` with ``ids[j] == i``.

    One flat ``np.bincount``: element ``rows[j, c]`` lands in bin
    ``ids[j] * D + c``. Each bin starts at zero and adds its elements in
    input order, as ``np.add.at`` does: the result is bit-identical to it.
    """
    d = rows.shape[1]
    bins = (ids[:, None] * d + np.arange(d)).ravel()
    return np.bincount(bins, weights=rows.ravel(), minlength=n * d).reshape(n, d)


def asgd_step(
    net: Network,
    grads: dict[str, np.ndarray],
    config: OptimizerConfig,
    scope: Optional[Sequence[str]] = None,
) -> None:
    """One momentum step with running-average maintenance on ``scope`` blocks.

    Every scoped gradient is checked (present, float64, writable, the block's
    shape) before anything changes, so a bad call leaves the network as it
    was. The gradients are scaled by the learning rate in place, and every
    block is updated in place with no temporary arrays. Blocks outside the
    scope keep their parameters, velocities, averages, and counts
    bit-identical. The learning rate decays as eta0 / (1 + step/gamma) on
    this network's own step counter. A large block is updated in row
    slices split over the kernel's workers.
    """
    blocks = list(scope) if scope is not None else net.block_names
    for name in blocks:
        if name not in net.params:
            raise StackpropError(f"no parameter block {name}")
        g = grads.get(name)
        if g is None:
            raise StackpropError(f"no gradient supplied for block {name}")
        shape = net.params[name].shape
        if not (
            isinstance(g, np.ndarray)
            and g.dtype == DTYPE
            and g.shape == shape
            and g.flags.writeable
        ):
            raise StackpropError(
                f"gradient for block {name} must be a writable float64 array of shape "
                f"{shape}, got shape {np.shape(g)}"
            )
    lr = config.eta0 / (1.0 + net.step / config.gamma)
    net.step += 1
    averaging = net.step > config.averaging_start
    for name in blocks:
        p, v, g = net.params[name], net.velocity[name], grads[name]
        acc = net._running_sum(name) if averaging else None
        cuts = _cuts(len(p), p.size // max(1, len(p)), ASGD_FLOOR, equal=False)
        _run([
            partial(_asgd_rows, p[s], v[s], g[s], None if acc is None else acc[s], lr, config.mu)
            for s in cuts
        ])


def _asgd_rows(p, v, g, acc, lr: float, mu: float) -> None:
    """The in-place momentum step on matching slices of one block's
    parameters, velocity, gradient and (unless None) running sum."""
    g *= lr
    v *= mu
    v -= g
    p += v
    if acc is not None:
        acc += p


# serialization: versioned container holding any number of networks


def save_model(
    dest: Union[str, BinaryIO], networks: dict[str, Network], meta: dict
) -> None:
    """Write networks and metadata as a checksummed binary container.

    Layout: magic, format version, length-prefixed JSON header, float64
    little-endian blocks (parameters, averages, velocities per network, in
    declared order), and a trailing SHA-256 of everything before it. The
    averages written are the means: a block still holding a running sum is
    divided by its count on the way out, which leaves the network as it was.
    """
    header = {
        "meta": meta,
        "networks": [
            {
                "name": name,
                "groups": [asdict(g) for g in net.groups],
                "n_hidden": net.n_hidden,
                "n_out": net.n_out,
                "step": net.step,
                "blocks": [
                    {
                        "name": b,
                        "shape": list(net.params[b].shape),
                        "avg_count": net.avg_count[b],
                    }
                    for b in net.block_names
                ],
            }
            for name, net in networks.items()
        ],
    }
    header_bytes = json.dumps(header, sort_keys=True, separators=(",", ":")).encode(
        "utf-8"
    )
    head = (MAGIC, struct.pack("<IQ", FORMAT_VERSION, len(header_bytes)), header_bytes)
    digest = hashlib.sha256()
    with open(dest, "wb") if isinstance(dest, str) else nullcontext(dest) as out:
        for part in itertools.chain(head, *map(_container_blocks, networks.values())):
            digest.update(part)
            out.write(part)
        out.write(digest.digest())


def _container_blocks(net: Network):
    """The bytes of a network's parameters, averages and velocities in
    container order, a few rows at a time and with no block-sized copy: an
    average still held as a running sum is divided into its mean per slice."""
    for store in (net.params, net._avg, net.velocity):
        for b in net.block_names:
            rows = np.atleast_2d(store[b])
            step = max(1, SAVE_CHUNK_BYTES // max(1, rows[:1].nbytes))
            for i in range(0, len(rows), step):
                part = rows[i : i + step]
                if store is net._avg and b in net._summed:
                    part = part / net.avg_count[b]
                yield memoryview(np.ascontiguousarray(part, dtype="<f8")).cast("B")


def load_model(src: Union[str, BinaryIO]) -> tuple[dict[str, Network], dict]:
    if isinstance(src, str):
        with open(src, "rb") as f:
            raw = f.read()
    else:
        raw = src.read()
    if len(raw) < len(MAGIC) + 4 + 8 + 32:
        raise ModelError("model file truncated")
    payload = memoryview(raw)[:-32]
    if hashlib.sha256(payload).digest() != raw[-32:]:
        raise ModelError("model file checksum mismatch")
    if payload[: len(MAGIC)] != MAGIC:
        raise ModelError("not a model file (bad magic bytes)")
    version, header_len = struct.unpack_from("<IQ", payload, len(MAGIC))
    if version != FORMAT_VERSION:
        raise ModelError(f"unsupported model format version {version}")
    pos = len(MAGIC) + 12
    try:
        header = json.loads(str(payload[pos : pos + header_len], "utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise ModelError(f"corrupt model header: {e}")
    pos += header_len
    try:
        networks = {}
        for spec in header["networks"]:
            networks[spec["name"]], pos = _read_network(spec, payload, pos)
        meta = header["meta"]
    except ModelError:
        raise
    except (KeyError, TypeError, ValueError, AttributeError, StackpropError) as e:
        raise ModelError(f"malformed model header: {e!r}") from None
    if pos != len(payload):
        raise ModelError("trailing bytes after the parameter blocks")
    return networks, meta


def from_header(cls, entry: dict):
    """``cls(**entry)`` for a header entry that must name every field of the
    dataclass ``cls``, so a dropped field is an error, not a default."""
    if set(entry) != {f.name for f in fields(cls)}:
        raise ModelError(f"{cls.__name__} header entry has fields {sorted(entry)}")
    return cls(**entry)


def _read_network(spec: dict, payload: memoryview, pos: int) -> tuple[Network, int]:
    """One network from its header entry and its blocks' bytes, which start
    at ``payload[pos]``; also returns the position after them. Each block is
    copied once, straight out of the payload."""
    groups = [from_header(FeatureGroupSpec, d) for d in spec["groups"]]
    net = Network.__new__(Network)
    net.groups = groups
    net.n_hidden = spec["n_hidden"]
    net.n_out = spec["n_out"]
    net.step = spec["step"]
    net.block_names = [b["name"] for b in spec["blocks"]]
    shapes = {b["name"]: tuple(b["shape"]) for b in spec["blocks"]}
    expected = block_shapes(groups, net.n_hidden, net.n_out)
    if len(shapes) != len(net.block_names) or any(shapes.get(k) != v for k, v in expected.items()):
        raise ModelError(f"blocks of network {spec['name']!r} do not match its groups")
    if not all(shapes.values()):
        raise ModelError(f"a block of network {spec['name']!r} has no dimension")
    net.avg_count = {b["name"]: b["avg_count"] for b in spec["blocks"]}
    net.params, averages, net.velocity = {}, {}, {}
    for store in (net.params, averages, net.velocity):
        for name in net.block_names:
            shape = shapes[name]
            count = int(np.prod(shape))
            if pos + count * 8 > len(payload):
                raise ModelError("model file truncated inside parameter blocks")
            block = np.frombuffer(payload, dtype="<f8", count=count, offset=pos)
            store[name] = block.reshape(shape).copy()
            pos += count * 8
    net._init_averages(averages)
    return net, pos
