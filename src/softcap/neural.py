"""Dense feedforward substrate for the learner: flat parameter vectors with
per-layer views, ReLU MLP forward/backward passes into reusable workspaces,
the in-place Adam update, and the checkpoint container: named float64
arrays behind one JSON header.  Everything is float64 and hand-derived; no
autodiff framework.
"""

from __future__ import annotations

import json
import math
import os
import struct
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .files import replacing


def param_count(sizes: Sequence[int]) -> int:
    """Number of weights and biases in a dense stack with these layer widths."""
    return sum(fan_out * (fan_in + 1) for fan_in, fan_out in zip(sizes[:-1], sizes[1:]))


class DenseParams:
    """Weights (out x in) and biases per layer, shapes chaining input to output.

    All of them live in one flat float64 vector, ``flat``, layer by layer
    (weights, then biases); ``weights[i]`` and ``biases[i]`` are views into
    it, so a whole-vector operation on ``flat`` updates every layer.  The
    constructor copies the given arrays into a new vector.
    """

    def __init__(self, weights: Sequence[np.ndarray], biases: Sequence[np.ndarray]):
        if len(weights) != len(biases):
            raise ValueError("weights and biases disagree in layer count")
        if not weights:
            raise ValueError("need at least one layer")
        for w, b in zip(weights, biases):
            if np.ndim(w) != 2 or np.ndim(b) != 1 or np.shape(w)[0] != np.shape(b)[0]:
                raise ValueError("layer shapes are inconsistent")
        for prev, nxt in zip(weights[:-1], weights[1:]):
            if np.shape(nxt)[1] != np.shape(prev)[0]:
                raise ValueError("layer widths do not chain")
        sizes = [np.shape(weights[0])[1]] + [np.shape(w)[0] for w in weights]
        self._bind(np.empty(param_count(sizes)), sizes)
        for dst, src in zip(self.weights + self.biases, list(weights) + list(biases)):
            dst[...] = src

    @classmethod
    def zeros(cls, sizes: Sequence[int]) -> "DenseParams":
        return cls.from_flat(np.zeros(param_count(sizes)), sizes)

    @classmethod
    def from_flat(cls, flat: np.ndarray, sizes: Sequence[int]) -> "DenseParams":
        """Parameters laid out for ``sizes`` over ``flat`` itself, not a copy."""
        params = cls.__new__(cls)
        params._bind(flat, sizes)
        return params

    def _bind(self, flat: np.ndarray, sizes: Sequence[int]) -> None:
        if flat.dtype != np.float64 or flat.shape != (param_count(sizes),):
            raise ValueError(f"flat vector {flat.dtype} {flat.shape} does not fit "
                             f"layer sizes {list(sizes)}")
        self.flat = flat
        self.weights: List[np.ndarray] = []
        self.biases: List[np.ndarray] = []
        offset = 0
        for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
            self.weights.append(flat[offset : offset + fan_out * fan_in].reshape(fan_out, fan_in))
            offset += fan_out * fan_in
            self.biases.append(flat[offset : offset + fan_out])
            offset += fan_out

    @property
    def n_layers(self) -> int:
        return len(self.weights)

    @property
    def layer_sizes(self) -> List[int]:
        return [self.weights[0].shape[1]] + [w.shape[0] for w in self.weights]

    def clone(self) -> "DenseParams":
        return DenseParams.from_flat(self.flat.copy(), self.layer_sizes)


class Workspace:
    """Arrays that one network's passes reuse from call to call.

    ``array(key, shape)`` returns a view of the buffer kept under ``key``,
    which is reallocated only to grow, so a caller that keeps one workspace
    per network at a fixed batch size allocates nothing after the first
    call.  Whatever a call returns from a workspace is overwritten by the
    next call that uses it for the same job.

    Arrays needed only during one call (backward's deltas, the optimizer's
    scratch vectors) come from ``temp`` instead, which draws on the
    ``scratch`` workspace when one is given: workspaces whose calls never
    overlap can share a single set of them.

    ``forward`` also records here what ``backward`` reads: the input batch
    and each layer's output (post-ReLU for hidden layers).
    """

    def __init__(self, scratch: Optional["Workspace"] = None):
        self._arrays: Dict[object, np.ndarray] = {}
        self._scratch = self if scratch is None else scratch
        self.inputs: Optional[np.ndarray] = None
        self.layers: List[np.ndarray] = []

    @property
    def output(self) -> np.ndarray:
        return self.layers[-1]

    def array(self, key, shape: Tuple[int, ...], dtype=np.float64) -> np.ndarray:
        return _buffer_view(self._arrays, key, shape, dtype)

    def temp(self, key, shape: Tuple[int, ...], dtype=np.float64) -> np.ndarray:
        """Like ``array``, but from the scratch workspace's buffers."""
        return _buffer_view(self._scratch._arrays, ("temp", key), shape, dtype)


def _buffer_view(store: Dict[object, np.ndarray], key, shape: Tuple[int, ...], dtype) -> np.ndarray:
    size = math.prod(shape)
    buf = store.get(key)
    if buf is None or buf.size < size or buf.dtype != dtype:
        buf = store[key] = np.empty(shape, dtype=dtype)
    if buf.shape == shape:
        return buf
    return buf.reshape(-1)[:size].reshape(shape)


def init_params(seed: int, sizes: List[int]) -> DenseParams:
    """Uniform +-sqrt(1/fan_in) weights, zero biases, deterministic per seed."""
    if len(sizes) < 2 or any(s < 1 for s in sizes):
        raise ValueError("need at least an input and an output size, all >= 1")
    rng = np.random.default_rng(seed)
    params = DenseParams.zeros(sizes)
    for w, fan_in in zip(params.weights, sizes[:-1]):
        bound = (1.0 / fan_in) ** 0.5
        w[...] = rng.uniform(-bound, bound, size=w.shape)
    return params


def forward(params: DenseParams, x: np.ndarray,
            ws: Optional[Workspace] = None) -> Tuple[np.ndarray, Workspace]:
    """Batched forward pass: ReLU hidden layers, linear output.

    Returns the output and the cache that ``backward`` reads.  Both live in
    ``ws`` when one is given, else in a new workspace.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or x.shape[1] != params.weights[0].shape[1]:
        raise ValueError(
            f"input shape {x.shape} does not match first layer width {params.weights[0].shape[1]}"
        )
    ws = Workspace() if ws is None else ws
    layers: List[np.ndarray] = []
    h = x
    last = params.n_layers - 1
    for i, (w, b) in enumerate(zip(params.weights, params.biases)):
        out = ws.array(("layer", i), (x.shape[0], w.shape[0]))
        np.matmul(h, w.T, out=out)
        out += b
        if i < last:
            np.maximum(out, 0.0, out=out)
        layers.append(out)
        h = out
    ws.inputs, ws.layers = x, layers
    return h, ws


def backward(params: DenseParams, cache: Workspace, grad_output: np.ndarray,
             ws: Optional[Workspace] = None, param_grads: bool = True,
             input_grad: bool = True) -> Tuple[Optional[DenseParams], Optional[np.ndarray]]:
    """Exact gradients of the forward map.

    Returns (parameter gradients, gradient w.r.t. the input batch) for the
    scalar objective whose gradient at the network output is grad_output.
    A caller that needs only one of the two turns the other off and gets
    None in its place: ``param_grads=False`` skips every weight-gradient
    matmul, ``input_grad=False`` the first layer's input-gradient matmul.
    The results live in ``ws`` when one is given, else in new arrays.
    """
    grad_output = np.asarray(grad_output, dtype=float)
    if grad_output.shape != cache.output.shape:
        raise ValueError("grad_output shape does not match the forward output")
    if len(cache.layers) != params.n_layers:
        raise ValueError("cache does not match the parameter stack")

    ws = Workspace() if ws is None else ws
    grads = None
    if param_grads:
        grads = DenseParams.from_flat(ws.array("grads", params.flat.shape), params.layer_sizes)
    delta = grad_output
    for i in range(params.n_layers - 1, -1, -1):
        below = cache.inputs if i == 0 else cache.layers[i - 1]
        if grads is not None:
            np.matmul(delta.T, below, out=grads.weights[i])
            np.sum(delta, axis=0, out=grads.biases[i])
        if i == 0:
            if not input_grad:
                return grads, None
            nxt = ws.array("input_grad", below.shape)
        else:
            # Hidden-layer deltas alternate between two scratch buffers.
            nxt = ws.temp(("delta", i % 2), below.shape)
        np.matmul(delta, params.weights[i], out=nxt)
        if i > 0:
            # ReLU passes the gradient where its output is positive.
            mask = ws.temp("mask", below.shape, bool)
            np.greater(below, 0.0, out=mask)
            np.multiply(nxt, mask, out=nxt)
        delta = nxt
    return grads, delta


@dataclass
class AdamState:
    """First/second moment accumulators, flat vectors like the parameters'."""

    m: np.ndarray
    v: np.ndarray
    t: int = 0

    @classmethod
    def zeros(cls, n: int) -> "AdamState":
        return cls(m=np.zeros(n), v=np.zeros(n))


def adam_step(
    params: np.ndarray,
    grads: np.ndarray,
    state: AdamState,
    lr: float = 3e-4,
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
    ws: Optional[Workspace] = None,
) -> None:
    """One bias-corrected Adam update of the flat vector ``params``, made in
    place on it and on ``state``.  Rejects non-finite gradients before
    changing either.  ``ws`` holds the two scratch vectors the step needs.
    """
    if not np.isfinite(grads).all():
        raise FloatingPointError("non-finite gradient, refusing to update parameters")
    ws = Workspace() if ws is None else ws
    g, m, v = grads, state.m, state.v
    step = ws.temp("update", g.shape)
    denom = ws.temp("denom", g.shape)
    state.t += 1
    c1 = 1.0 - beta1**state.t
    c2 = 1.0 - beta2**state.t
    # m = beta1 m + (1 - beta1) g;  v = beta2 v + (1 - beta2) g g
    m *= beta1
    np.multiply(g, 1.0 - beta1, out=step)
    m += step
    v *= beta2
    np.multiply(g, 1.0 - beta2, out=step)
    step *= g
    v += step
    # p -= lr (m / c1) / (sqrt(v / c2) + eps)
    np.divide(v, c2, out=denom)
    np.sqrt(denom, out=denom)
    denom += eps
    np.divide(m, c1, out=step)
    step *= lr
    step /= denom
    params -= step


# ----------------------------------------------------------------------
# Checkpoint container (version 2): named float64 arrays behind one
# length-prefixed JSON header, the layout of safetensors.
#
#   "SCPK" | u32 container version | u64 header length | header | data
#
# The header is UTF-8 JSON with sorted keys and no spaces,
# {"entries": [[name, shape], ...], "meta": <JSON value>}, its entries in
# sorted name order; the data is each entry's little-endian float64 values
# in that order.  So the header fixes the file's length.  Round trips are
# bit exact.
_MAGIC = b"SCPK"
_VERSION = 2
_PREFIX = struct.Struct("<4sIQ")


def save_arrays(path, arrays: Dict[str, np.ndarray], meta) -> None:
    """Write ``arrays`` and the JSON value ``meta`` to ``path`` through
    ``files.replacing``, so a save that fails part-way leaves any previous
    file at ``path`` as it was."""
    data = [(name, np.asarray(arrays[name], dtype="<f8", order="C")) for name in sorted(arrays)]
    header = json.dumps({"entries": [[name, list(arr.shape)] for name, arr in data], "meta": meta},
                        sort_keys=True, separators=(",", ":")).encode("utf-8")
    with replacing(path, "wb") as fh:
        fh.write(_PREFIX.pack(_MAGIC, _VERSION, len(header)))
        fh.write(header)
        for _, arr in data:
            fh.write(arr.data)


def read_header(path) -> Tuple[object, Dict[str, Tuple[int, ...]]]:
    """The meta and the entry shapes of a file written by ``save_arrays``,
    checked as ``load_arrays`` checks them; no entry is read."""
    with open(path, "rb") as fh:
        meta, layout = _read_header(path, fh)
    return meta, {name: shape for name, (_, shape) in layout.items()}


def _read_header(path, fh) -> Tuple[object, Dict[str, Tuple[int, Tuple[int, ...]]]]:
    """The meta and each entry's offset and shape, from the open file
    ``fh`` of ``path``; the header is checked against the file's length, so
    a file cut short, or with bytes after its last entry, is rejected with
    its path and the entry concerned."""
    size = os.fstat(fh.fileno()).st_size
    prefix = fh.read(_PREFIX.size)
    if prefix[:4] != _MAGIC:
        raise ValueError(f"{path}: not a checkpoint file (bad magic)")
    if len(prefix) < _PREFIX.size:
        raise ValueError(f"{path}: header: truncated, {_PREFIX.size} bytes needed but {size} left")
    _, version, header_len = _PREFIX.unpack(prefix)
    if version != _VERSION:
        raise ValueError(f"{path}: checkpoint container v{version}, this program reads v{_VERSION}")
    offset = _PREFIX.size + header_len
    if offset > size:
        raise ValueError(f"{path}: header: truncated, {header_len} bytes needed at offset "
                         f"{_PREFIX.size} but {size - _PREFIX.size} left")
    try:
        header = json.loads(fh.read(header_len))
    except ValueError as exc:
        raise ValueError(f"{path}: header: not JSON ({exc})") from None
    entries = header.get("entries") if isinstance(header, dict) else None
    if not (isinstance(entries, list) and "meta" in header and all(
            isinstance(entry, list) and len(entry) == 2 and isinstance(entry[0], str)
            and isinstance(entry[1], list) and all(type(d) is int and d >= 0 for d in entry[1])
            for entry in entries)):
        raise ValueError(f"{path}: header: not an object of a meta and [name, shape] entries, "
                         f"each name a string and each shape a list of non-negative ints")
    layout = {}
    for name, shape in entries:
        nbytes = 8 * math.prod(shape)
        if offset + nbytes > size:
            raise ValueError(f"{path}: {name}: truncated, {nbytes} bytes needed at offset "
                             f"{offset} but {size - offset} left")
        layout[name] = (offset, tuple(shape))
        offset += nbytes
    if offset != size:
        raise ValueError(f"{path}: {size - offset} bytes after the last entry")
    return header["meta"], layout


def load_arrays(path, into: Optional[Dict[str, np.ndarray]] = None) -> Tuple[object, Dict[str, np.ndarray]]:
    """Read a file written by ``save_arrays``: return its meta and entries.

    By default every entry is read into a new array.  With ``into``, only
    the entries it names are read, each straight into the C-contiguous
    float64 array it maps to, whose shape must match; ``into={}`` reads the
    meta alone.  The whole header is checked, by ``read_header``'s rules,
    before any entry is read.
    """
    with open(path, "rb") as fh:
        meta, layout = _read_header(path, fh)
        if into is None:
            into = {name: np.empty(shape, dtype="<f8") for name, (_, shape) in layout.items()}
        absent = [name for name in into if name not in layout]
        if absent:
            raise ValueError(f"{path}: {absent[0]}: entry missing")
        for name, dst in into.items():
            at, shape = layout[name]
            if dst.shape != shape:
                raise ValueError(f"{path}: {name}: shape {shape}, expected {dst.shape}")
            fh.seek(at)
            if fh.readinto(dst) != dst.nbytes:
                raise ValueError(f"{path}: file changed size while being read")
    return meta, into
