"""Neural building blocks: linear/FFN layers, graph convolutions, the toy
token embedder, node pooling, and checkpoint IO.

Everything is float64 and runs on the tape autodiff in autodiff.py. Each
component exposes params() as an ordered name->Tensor dict so the optimizer
and checkpointing see one flat namespace.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from functools import lru_cache

import numpy as np

from .autodiff import Tensor, dropout, scatter_add
from .document import TokenSequence, read_json, write_atomic
from .elements import NodeSet
from .errors import CheckpointMismatch, EmptySpan, SchemaError, ShapeMismatch
from .graphs import SemanticGraph
from .vocab import VOCAB_SIZE

COORD_SCALE = 1000.0


def glorot(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=(fan_in, fan_out))


class Linear:
    def __init__(self, rng: np.random.Generator, fan_in: int, fan_out: int, name: str):
        self.w = Tensor(glorot(rng, fan_in, fan_out), requires_grad=True, name=f"{name}.w")
        self.b = Tensor(np.zeros(fan_out), requires_grad=True, name=f"{name}.b")

    def __call__(self, x: Tensor) -> Tensor:
        return x @ self.w + self.b

    def params(self) -> dict[str, Tensor]:
        return {self.w.name: self.w, self.b.name: self.b}


class FFN2:
    """Two-layer feed-forward: Linear -> GELU -> dropout -> Linear."""

    def __init__(self, rng: np.random.Generator, fan_in: int, fan_out: int, name: str,
                 drop: float = 0.1):
        self.l1 = Linear(rng, fan_in, fan_in, f"{name}.l1")
        self.l2 = Linear(rng, fan_in, fan_out, f"{name}.l2")
        self.drop = drop

    def __call__(self, x: Tensor, rng: np.random.Generator | None = None,
                 rows: tuple[int, np.ndarray] | None = None) -> Tensor:
        """`rows` = (n, index) says x is the rows `index` of an n-row input;
        the dropout mask is drawn for all n (see autodiff.dropout)."""
        return self.tail(self.l1(x), rng, rows)

    def tail(self, pre: Tensor, rng: np.random.Generator | None = None,
             rows: tuple[int, np.ndarray] | None = None) -> Tensor:
        """The layers after l1 (GELU -> dropout -> l2), applied to an l1
        output that the caller computed, e.g. in factored form."""
        h = dropout(pre.gelu(), self.drop, rng, rows)
        return self.l2(h)

    def params(self) -> dict[str, Tensor]:
        return {**self.l1.params(), **self.l2.params()}


def normalize_adjacency(adj: np.ndarray) -> np.ndarray:
    """D^-1/2 (max(A, A^T) + I) D^-1/2 of a bool or float adjacency, in one
    float64 buffer. The maximum is taken in the input's dtype and converted
    once; a float64 maximum would convert both operands, one transposed."""
    a = np.maximum(adj, adj.T).astype(np.float64)
    a.flat[::a.shape[0] + 1] += 1.0  # the diagonal: + I
    inv_sqrt = 1.0 / np.sqrt(a.sum(axis=1))
    a *= inv_sqrt[:, None]
    a *= inv_sqrt[None, :]
    return a


class GCN:
    """Stack of graph-convolution layers with a private parameter set."""

    def __init__(self, rng: np.random.Generator, dim: int, name: str,
                 layers: int = 2, drop: float = 0.6):
        self.layers = [Linear(rng, dim, dim, f"{name}.layer{i}") for i in range(layers)]
        self.drop = drop

    def __call__(self, graph: SemanticGraph, h: Tensor,
                 rng: np.random.Generator | None = None) -> Tensor:
        if h.data.shape[0] != graph.num_nodes:
            raise ShapeMismatch(
                f"{graph.kind.value}: {h.data.shape[0]} reprs vs {graph.num_nodes} nodes")
        norm = Tensor(normalize_adjacency(graph.adjacency))
        for i, layer in enumerate(self.layers):
            h = layer(norm @ h)
            if i < len(self.layers) - 1:
                h = h.relu()
            h = dropout(h, self.drop, rng)
        return h

    def params(self) -> dict[str, Tensor]:
        return {name: t for layer in self.layers for name, t in layer.params().items()}


def _hash_vector(text: str, dim: int, seed: int) -> np.ndarray:
    digest = hashlib.blake2b(f"{seed}:{text}".encode(), digest_size=8).digest()
    rng = np.random.default_rng(int.from_bytes(digest, "big"))
    return rng.uniform(-0.05, 0.05, size=dim)


_HASH_ROWS_MAX = 65536


class _HashRows:
    """_hash_vector of every token text seen, for one (dim, seed): `table`
    holds one row per text and `index` maps each text to its row. Past
    _HASH_ROWS_MAX rows the table starts over (a single call that needs more
    gets them all)."""

    def __init__(self, dim: int, seed: int):
        self.dim, self.seed = dim, seed
        self.index: dict[str, int] = {}
        self.table = np.empty((0, dim))

    def rows_of(self, texts: list[str]) -> np.ndarray:
        """The table row of each of these distinct texts, hashing the new
        ones into the table first. Read `table` after this call: it may
        grow."""
        new = [t for t in texts if t not in self.index]
        if new:
            n = len(self.index)
            if n + len(new) > _HASH_ROWS_MAX:  # full: start over
                self.index.clear()
                n, new = 0, texts
            if n + len(new) > len(self.table):
                size = max(n + len(new), min(2 * len(self.table), _HASH_ROWS_MAX))
                self.table = np.concatenate((self.table[:n], np.empty((size - n, self.dim))))
            for row, text in enumerate(new, n):
                self.table[row] = _hash_vector(text, self.dim, self.seed)
                self.index[text] = row
        return np.array(list(map(self.index.__getitem__, texts)), dtype=np.intp)


@lru_cache(maxsize=4)
def _shared_hash_rows(dim: int, seed: int) -> _HashRows:
    """One _HashRows per (dim, seed), shared by the embedders that use it, so
    a model rebuilt for each checkpoint load does not hash again."""
    return _HashRows(dim, seed)


def _position_encoding(length: int, dim: int) -> np.ndarray:
    """Sinusoids: sin on the even columns, cos on the odd ones."""
    angle = np.arange(length)[:, None] / np.power(10000.0, (2 * (np.arange(dim) // 2)) / dim)
    enc = np.empty_like(angle)
    enc[:, 0::2] = np.sin(angle[:, 0::2])
    enc[:, 1::2] = np.cos(angle[:, 1::2])
    return 0.05 * enc


class ToyEmbedder:
    """Deterministic stand-in for a pretrained layout encoder.

    Each token row = content hash + learned vocab-slot vector + sinusoidal
    position encoding + quantized box encoding. Only the slot table trains.
    """

    name = "toy"

    def __init__(self, rng: np.random.Generator, dim: int, seed: int):
        self.dim = dim
        self.seed = seed
        self.table = Tensor(rng.uniform(-0.05, 0.05, size=(VOCAB_SIZE, dim)),
                            requires_grad=True, name="embedder.table")
        box_rng = np.random.default_rng(seed + 1)
        self._box_proj = box_rng.uniform(-0.05, 0.05, size=(4, dim))
        self._positions = _position_encoding(0, dim)
        self._hashes = _shared_hash_rows(dim, seed)

    def _position_rows(self, n: int) -> np.ndarray:
        """_position_encoding(n, dim), sliced from a read-only table grown to
        the longest sequence seen: no row depends on the table's length."""
        if n > len(self._positions):
            self._positions = _position_encoding(n, self.dim)
            self._positions.setflags(write=False)
        return self._positions[:n]

    def embed(self, seq: TokenSequence, qid: str | None = None) -> Tensor:
        """One row per token; `qid` is not used. The hash row is looked up
        once per distinct token text and the box encoding computed once per
        source; rows gather them, and the table rows of the token slots, by
        the sequence's index arrays."""
        n = len(seq)
        if n == 0:
            return Tensor(np.zeros((0, self.dim)))
        text_rows = self._hashes.rows_of(seq.texts)
        # one matmul per source: a single (S, 4) @ (4, dim) rounds differently
        box_rows = np.array([f @ self._box_proj for f in seq.source_boxes / COORD_SCALE])
        base = self._hashes.table[text_rows[seq.text_ids]] + box_rows[seq.source_ids]
        base += self._position_rows(n)
        return self.table.take_rows(seq.slots) + Tensor(base)

    def params(self) -> dict[str, Tensor]:
        return {self.table.name: self.table}


class FileEmbedder:
    """Reads precomputed per-token embeddings from a sidecar JSON file, an
    object mapping each qid to one row of `dim` numbers per token, so a
    real pretrained encoder can slot in later."""

    name = "external-file"

    def __init__(self, path: str, dim: int):
        self._rows = read_json(path)
        if not isinstance(self._rows, dict):
            raise SchemaError(f"{path}: embeddings must be a JSON object keyed by qid")
        self.path = path
        self.dim = dim

    def embed(self, seq: TokenSequence, qid: str) -> Tensor:
        if qid not in self._rows:
            raise SchemaError(f"{self.path}: no embeddings for qid {qid!r}")
        try:
            arr = np.asarray(self._rows[qid])
            ok = (arr.dtype.kind in "iuf" and arr.shape == (len(seq), self.dim)
                  and np.isfinite(arr).all())
        except ValueError:  # ragged rows
            ok = False
        if not ok:
            raise SchemaError(f"{self.path}: embeddings of qid {qid!r} are not a finite "
                              f"numeric ({len(seq)}, {self.dim}) array")
        return Tensor(arr.astype(np.float64))

    def params(self) -> dict[str, Tensor]:
        return {}


def init_node_representations(nodes: NodeSet, token_embs: Tensor) -> Tensor:
    """Mean-pool each node's token rows into an (N, dim) matrix: one
    scatter_add of the rows over the inventory's (node, token) pairs, which
    adds each node's rows from 0.0 in token order, then a scale by 1/count.
    The backward scatters the scaled gradient back over the same pairs."""
    counts = np.bincount(nodes.node_of, minlength=len(nodes))
    if not counts.all():
        node = nodes.nodes[np.flatnonzero(counts == 0)[0]]
        raise EmptySpan(f"node {node.node_id} ({node.kind.value}) covers no tokens")
    x = token_embs.data
    node_of, token_of = nodes.node_of, nodes.token_of
    inv_counts = 1.0 / counts
    data = scatter_add(node_of, x[token_of], (len(nodes), x.shape[1])) * inv_counts[:, None]
    shape = x.shape

    def backward(g):
        return (scatter_add(token_of, (g * inv_counts[:, None])[node_of], shape),)

    return Tensor._result(data, (token_embs,), backward)


CHECKPOINT_VERSION = 2
CHECKPOINT_DTYPE = "<f8"


def save_checkpoint(path: str, params: dict[str, Tensor], meta: dict):
    """One line of sorted-key JSON (format_version, meta, dtype, and per
    parameter in name order its name, shape and byte offset), then the raw
    little-endian float64 bytes of each parameter in the same order. Nothing
    in the file depends on the time, so equal inputs give equal bytes."""
    arrays = {name: np.asarray(params[name].data, dtype=CHECKPOINT_DTYPE, order="C")
              for name in sorted(params)}
    entries, offset = [], 0
    for name, arr in arrays.items():
        entries.append({"name": name, "shape": list(arr.shape), "offset": offset})
        offset += arr.nbytes
    header = {"dtype": CHECKPOINT_DTYPE, "format_version": CHECKPOINT_VERSION,
              "meta": meta, "params": entries}
    line = json.dumps(header, sort_keys=True, allow_nan=False).encode() + b"\n"
    write_atomic(path, line, *arrays.values())


def load_checkpoint(path: str) -> tuple[dict[str, np.ndarray], dict]:
    """(arrays, meta). The arrays are writable views into one buffer read
    from the file. A file that cannot be read, or whose header or payload
    is malformed, raises CheckpointMismatch naming the path."""
    try:
        with open(path, "rb") as f:
            buf = bytearray(os.fstat(f.fileno()).st_size)
            if f.readinto(buf) != len(buf):
                raise OSError("file changed size while being read")
    except OSError as exc:
        raise CheckpointMismatch(f"{path}: unreadable checkpoint ({exc})") from None
    end = buf.find(b"\n")
    try:
        # A version-1 file is one JSON object without a newline.
        header = json.loads(buf if end < 0 else buf[:end])
    except ValueError as exc:
        raise CheckpointMismatch(f"{path}: unreadable checkpoint header ({exc})") from None
    if not isinstance(header, dict):
        raise CheckpointMismatch(f"{path}: checkpoint header is not a JSON object")
    if header.get("format_version") != CHECKPOINT_VERSION:
        raise CheckpointMismatch(
            f"{path}: unsupported checkpoint version {header.get('format_version')!r} "
            f"(this build reads version {CHECKPOINT_VERSION}; retrain)")
    if end < 0:
        raise CheckpointMismatch(f"{path}: checkpoint header line has no newline")
    if header.get("dtype") != CHECKPOINT_DTYPE:
        raise CheckpointMismatch(f"{path}: unsupported dtype {header.get('dtype')!r}")
    params, meta = header.get("params"), header.get("meta")
    if not isinstance(params, list) or not isinstance(meta, dict):
        raise CheckpointMismatch(f"{path}: checkpoint needs a 'params' list and a 'meta' object")
    layout: dict[str, tuple[list[int], int, int]] = {}
    size = 0
    for entry in params:
        entry = entry if isinstance(entry, dict) else {}
        name, shape, offset = entry.get("name"), entry.get("shape"), entry.get("offset")
        if not isinstance(name, str) or name in layout:
            raise CheckpointMismatch(f"{path}: missing or duplicate parameter name {name!r}")
        if not isinstance(shape, list) or not all(type(d) is int and d >= 0 for d in shape):
            raise CheckpointMismatch(f"{path}: {name!r} has a bad shape {shape!r}")
        if type(offset) is not int or offset != size:
            raise CheckpointMismatch(
                f"{path}: {name!r} at offset {offset!r}, expected {size} (contiguous)")
        count = math.prod(shape)
        layout[name] = (shape, offset, count)
        size += 8 * count
    body = end + 1
    if len(buf) - body != size:
        fault = "truncated payload" if len(buf) - body < size else "trailing bytes after payload"
        raise CheckpointMismatch(
            f"{path}: {fault} ({len(buf) - body} bytes, header describes {size})")
    arrays = {name: np.frombuffer(buf, CHECKPOINT_DTYPE, count, body + offset).reshape(shape)
              for name, (shape, offset, count) in layout.items()}
    return arrays, meta
