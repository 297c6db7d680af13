"""Class-relation graphs, graph-convolution forward passes, and the derived
pixel classifier.

Nodes are classes. The graph follows the importance ordering: a node sees
every node of equal or lower importance, so top-group rows connect to all
nodes while bottom-group rows stay within their own group. One-hot node
embeddings feed layers H <- activation(A_hat H W); the final layer is linear
and its n x D output acts directly as a C x D feature-selecting classifier.

Matrix products accumulate with exact (order-independent) summation so that
relabeling the nodes permutes the output bit-for-bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import ClassSpec, ProbMap, _frozen_array, _row_blocks
from .fileio import json_field, json_value, load_json
from .errors import (
    DimensionMismatchError,
    DomainError,
    FormatError,
    UngroupedClassError,
    naming,
)
from .metrics import GroupSpec, parse_group_spec


@dataclass(frozen=True)
class GraphSpec:
    """Weighted adjacency over class nodes; entry (i, j) is the edge i -> j.

    Every node needs an outgoing edge, so that its row can be normalized.
    """

    adjacency: np.ndarray

    def __post_init__(self):
        adj = _frozen_array(self.adjacency, np.float64)
        if adj.ndim != 2 or adj.shape[0] != adj.shape[1] or adj.shape[0] == 0:
            raise DimensionMismatchError(f"adjacency must be square, got {adj.shape}")
        if (adj < 0).any() or not np.isfinite(adj).all():
            raise DomainError("adjacency entries must be finite and non-negative")
        dead = np.flatnonzero(adj.sum(axis=1) == 0)
        if dead.size:
            raise DomainError(f"node {int(dead[0])} has no outgoing edges")
        object.__setattr__(self, "adjacency", adj)

    @property
    def num_nodes(self) -> int:
        return self.adjacency.shape[0]


@dataclass(frozen=True)
class GcnWeights:
    """Ordered per-layer transformation matrices plus the leaky-ReLU slope."""

    layers: tuple
    leaky_slope: float = 0.01

    def __post_init__(self):
        if not math.isfinite(self.leaky_slope):
            raise DomainError(f"leaky slope must be finite, got {self.leaky_slope}")
        layers = tuple(_frozen_array(w, np.float64) for w in self.layers)
        if not layers:
            raise DimensionMismatchError("at least one weight matrix is required")
        for w in layers:
            if w.ndim != 2:
                raise DimensionMismatchError(f"weight matrices must be 2-D, got {w.shape}")
        for a, b in zip(layers, layers[1:]):
            if a.shape[1] != b.shape[0]:
                raise DimensionMismatchError(
                    f"layer output dim {a.shape[1]} does not feed layer input dim {b.shape[0]}"
                )
        for i, w in enumerate(layers):
            check_finite(w, f"weight matrix {i}")
        object.__setattr__(self, "layers", layers)

    @property
    def input_dim(self) -> int:
        return self.layers[0].shape[0]


@dataclass(frozen=True)
class ClassifierMatrix:
    """C×D selector: row k scores features for class k."""

    rows: np.ndarray

    def __post_init__(self):
        rows = _frozen_array(self.rows, np.float64)
        if rows.ndim != 2 or rows.size == 0:
            raise DimensionMismatchError(f"classifier must be C*D, got shape {rows.shape}")
        object.__setattr__(self, "rows", rows)

    @property
    def num_classes(self) -> int:
        return self.rows.shape[0]

    @property
    def feature_dim(self) -> int:
        return self.rows.shape[1]


def build_graph(groups: GroupSpec) -> GraphSpec:
    """Directed graph from importance groups: edge i -> j iff i is at least
    as important as j. Every class must be grouped; self-loops are implied."""
    member = groups.membership()
    if (member < 0).any():
        missing = sorted(int(c) for c in np.nonzero(member < 0)[0])
        raise UngroupedClassError(f"class ids {missing} are in no group")
    adjacency = (member[:, None] >= member[None, :]).astype(np.float64)
    return GraphSpec(adjacency=adjacency)


def normalize_adjacency(g: GraphSpec) -> np.ndarray:
    """Row-stochastic D^-1 A."""
    return g.adjacency / g.adjacency.sum(axis=1)[:, None]


def _matmul_exact(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # fsum makes each entry the correctly rounded sum of its products, so the
    # result is independent of summation order (needed for bit-exact node
    # permutation equivariance). Node counts are tiny; speed is irrelevant.
    out = np.empty((a.shape[0], b.shape[1]), dtype=np.float64)
    for i in range(a.shape[0]):
        rows = a[i, :]
        for k in range(b.shape[1]):
            out[i, k] = math.fsum(rows * b[:, k])
    return out


def _leaky_relu(x: np.ndarray, slope: float) -> np.ndarray:
    return np.where(x >= 0, x, slope * x)


def gcn_forward(h: np.ndarray, g: GraphSpec, w: GcnWeights) -> np.ndarray:
    """Stacked graph convolutions A_hat H W with leaky rectification.

    The final layer stays linear so the resulting classifier scores are
    unbounded; squashing happens once, inside :func:`classify_features`.
    """
    h = np.asarray(h, dtype=np.float64)
    if h.ndim != 2 or h.shape[0] != g.num_nodes:
        raise DimensionMismatchError(
            f"node features {h.shape} do not match {g.num_nodes} graph nodes"
        )
    if h.shape[1] != w.input_dim:
        raise DimensionMismatchError(
            f"feature dim {h.shape[1]} does not match first layer input {w.input_dim}"
        )
    a_hat = normalize_adjacency(g)
    out = h
    last = len(w.layers) - 1
    for i, layer in enumerate(w.layers):
        out = _matmul_exact(_matmul_exact(a_hat, out), layer)
        if i != last:
            out = _leaky_relu(out, w.leaky_slope)
    return out


def check_finite(values: np.ndarray, what: str) -> None:
    """Raise DomainError naming ``what`` and the first entry of ``values``
    that is not finite, row-major."""
    finite = np.isfinite(values)
    if not finite.all():
        where = tuple(int(i) for i in np.argwhere(~finite)[0])
        raise DomainError(f"{what} entry {values[where]} at {where} is not finite")


def embed_one_hot(spec: ClassSpec) -> np.ndarray:
    """Initial node features: the C×C identity (one-hot per class node)."""
    return np.eye(spec.num_classes, dtype=np.float64)


# Pixels per feature product. OpenBLAS hands a product to a second thread
# only once M*N*K reaches 2**19; 1024 pixels scored against C classes of D
# features stay below that while C*D < 512 (19 classes of 16 features: 311k).
# So each product runs on the calling thread even where OpenBLAS may use
# more, and no second thread wakes to spin beside the softmax that follows.
_PRODUCT_PIXELS = 1024


def _score_block(features: np.ndarray, cls: ClassifierMatrix, out: np.ndarray) -> None:
    """Softmax of ``features`` (rows×W×D) scored against each class row, into
    ``out`` (rows×W×C float64): products of _PRODUCT_PIXELS pixels at a time,
    then the softmax in place."""
    pixels = features.reshape(-1, cls.feature_dim)
    scores = out.reshape(-1, cls.num_classes)
    for start in range(0, len(pixels), _PRODUCT_PIXELS):
        sub = slice(start, start + _PRODUCT_PIXELS)
        np.matmul(pixels[sub].astype(np.float64), cls.rows.T, out=scores[sub])
    # Row maximum as a running maximum over the columns: exact, so the
    # bits match scores.max(axis=1), and cheaper than that narrow reduction.
    top = scores[:, 0].copy()
    for k in range(1, cls.num_classes):
        np.maximum(top, scores[:, k], out=top)
    scores -= top[:, None]
    np.exp(scores, out=scores)
    scores /= scores.sum(axis=1, keepdims=True)


def score_rows(dims: tuple, blocks, cls: ClassifierMatrix):
    """Score a stream of H×W×D features of ``dims``: ``(shape, blocks)``,
    the (H, W, C) of their probabilities and a ``(rows, probabilities)``
    pair per ``(rows, features)`` pair of ``blocks``. ``dims`` must be a
    non-empty H×W×D for ``cls`` (else DimensionMismatchError, at the call);
    each block is scored into one reused float64 buffer, valid until the
    next is drawn.
    A feature that is not finite raises DomainError naming its pixel before
    its block is scored."""
    if len(dims) != 3:
        raise DimensionMismatchError(f"features must be H*W*D, got shape {dims}")
    if 0 in dims:
        raise DimensionMismatchError(f"features must be H*W*D and non-empty, got shape {dims}")
    if dims[2] != cls.feature_dim:
        raise DimensionMismatchError(
            f"feature depth {dims[2]} does not match classifier width {cls.feature_dim}"
        )

    def scored():
        buf = None
        for rows, block in blocks:
            # A NaN propagates into min and max and fails the test.
            if not (-math.inf < block.min() and block.max() < math.inf):
                y, x, d = np.argwhere(~np.isfinite(block))[0]
                raise DomainError(f"feature {block[y, x, d]} at pixel ({rows.start + y}, {x}) "
                                  f"channel {d} is not finite")
            if buf is None:
                buf = np.empty((*block.shape[:2], cls.num_classes), dtype=np.float64)
            out = buf[: len(block)]
            _score_block(block, cls, out)
            yield rows, out

    return (*dims[:2], cls.num_classes), scored()


def classify_features(features: np.ndarray, cls: ClassifierMatrix) -> ProbMap:
    """Score H×W×D features against each class row and softmax per pixel.

    The map is scored row block by row block through :func:`score_rows`,
    as the ``gcn`` command scores the blocks it streams, so both give the
    same bits and the same errors.
    """
    features = np.asarray(features)
    shape, blocks = score_rows(features.shape, _row_blocks(features), cls)
    probs = np.empty(shape)
    for rows, block in blocks:
        probs[rows] = block
    probs.setflags(write=False)  # handed over: ProbMap adopts it without a copy
    return ProbMap(probs)


def random_weights(dims, seed: int, leaky_slope: float = 0.01) -> GcnWeights:
    """Seeded uniform [-0.1, 0.1] layer stack for property tests and demos."""
    dims = tuple(int(d) for d in dims)
    if len(dims) < 2:
        raise DimensionMismatchError("need at least input and output dimensions")
    rng = np.random.default_rng(seed)
    layers = tuple(
        rng.uniform(-0.1, 0.1, size=(a, b)) for a, b in zip(dims, dims[1:])
    )
    return GcnWeights(layers=layers, leaky_slope=leaky_slope)


def load_graph_spec(path, spec: ClassSpec) -> GraphSpec:
    """Read a GraphSpec from JSON.

    Either {"adjacency": [[...]]} verbatim, or {"groups": [{"name",
    "classes"}...]}, read by :func:`metrics.parse_group_spec` against the
    class spec, to apply the importance rule. Every malformed part raises
    FormatError naming the file.
    """
    payload = load_json(path)
    if "adjacency" in payload:
        rows = json_field(payload, "adjacency", list, path)
        rows = [json_value(row, list, f"{path}: an adjacency row") for row in rows]
        adjacency = [[json_value(v, float, f"{path}: an adjacency entry") for v in r] for r in rows]
        if any(len(r) != len(rows) for r in rows):  # ragged or not square
            raise FormatError(
                f"{path}: 'adjacency' must be a square matrix of non-negative numbers "
                f"(row lengths {[len(r) for r in rows]})"
            )
        with naming(path):
            return GraphSpec(adjacency=np.array(adjacency))
    groups = parse_group_spec(payload, spec, path)
    with naming(path):
        return build_graph(groups)
