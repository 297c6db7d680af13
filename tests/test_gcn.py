import json
import math
import warnings

import numpy as np
import pytest

from oracles import blocked_softmax
from segrecall import (
    ClassSpec,
    GcnWeights,
    GraphSpec,
    GroupSpec,
    build_graph,
    classify_features,
    decide_bayes,
    embed_one_hot,
    gcn_forward,
    normalize_adjacency,
    validate_probmap,
)
from segrecall.datasets import cityscapes_class_spec, cityscapes_groups
from segrecall.errors import (
    DimensionMismatchError,
    DomainError,
    FormatError,
    UngroupedClassError,
)
from segrecall.core import BLOCK_PIXELS
from segrecall.gcn import _PRODUCT_PIXELS, ClassifierMatrix, load_graph_spec, random_weights

from conftest import peak_traced_bytes


class TestBuildGraph:
    def test_one_class_per_group(self):
        # Class 0 in the top group, class 1 in the middle, class 2 in the bottom.
        groups = GroupSpec(num_classes=3, groups=((2,), (1,), (0,)))
        adj = build_graph(groups).adjacency
        assert adj.tolist() == [[1, 1, 1], [0, 1, 1], [0, 0, 1]]

    def test_single_group_is_complete(self):
        groups = GroupSpec(num_classes=4, groups=((0, 1, 2, 3),))
        adj = build_graph(groups).adjacency
        assert adj.tolist() == np.ones((4, 4)).tolist()

    def test_rows_follow_importance_order(self):
        groups = GroupSpec(num_classes=5, groups=((0, 1), (2,), (3, 4)))
        adj = build_graph(groups).adjacency
        np.testing.assert_array_equal(adj[3], np.ones(5))  # top group sees all
        np.testing.assert_array_equal(adj[2], [1, 1, 1, 0, 0])  # middle skips top
        np.testing.assert_array_equal(adj[0], [1, 1, 0, 0, 0])  # bottom stays home
        np.testing.assert_array_equal(np.diag(adj), np.ones(5))

    def test_ungrouped_class_rejected(self):
        with pytest.raises(UngroupedClassError):
            build_graph(GroupSpec(num_classes=3, groups=()))
        with pytest.raises(UngroupedClassError):
            build_graph(GroupSpec(num_classes=3, groups=((0, 1),)))


class TestNormalizeAdjacency:
    def test_row_stochastic(self):
        g = GraphSpec(adjacency=np.array([[1.0, 1.0], [1.0, 1.0]]))
        assert normalize_adjacency(g).tolist() == [[0.5, 0.5], [0.5, 0.5]]

    def test_identity_is_fixed_point(self):
        g = GraphSpec(adjacency=np.eye(3))
        assert normalize_adjacency(g).tolist() == np.eye(3).tolist()

    def test_uneven_rows(self):
        g = GraphSpec(adjacency=np.array([[1.0, 0.0], [1.0, 1.0]]))
        assert normalize_adjacency(g).tolist() == [[1.0, 0.0], [0.5, 0.5]]

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(40)
        for _ in range(10):
            adj = (rng.random((6, 6)) < 0.4).astype(float)
            np.fill_diagonal(adj, 1.0)
            rows = normalize_adjacency(GraphSpec(adjacency=adj)).sum(axis=1)
            np.testing.assert_allclose(rows, 1.0, atol=1e-12)

    def test_isolated_node_detected(self):
        with pytest.raises(DomainError):
            GraphSpec(adjacency=np.array([[0.0, 0.0], [1.0, 1.0]]))


class TestGcnForward:
    def test_identity_path(self):
        g = GraphSpec(adjacency=np.eye(3))
        w = GcnWeights(layers=(np.eye(3),))
        h = np.abs(np.random.default_rng(41).random((3, 3))) + 0.1
        np.testing.assert_allclose(gcn_forward(h, g, w), h, atol=1e-15)

    def test_leaky_rectification_before_final_linear_layer(self):
        g = GraphSpec(adjacency=np.eye(1))
        w = GcnWeights(layers=(np.eye(2), np.eye(2)), leaky_slope=0.01)
        out = gcn_forward(np.array([[1.0, -1.0]]), g, w)
        assert out.tolist() == [[1.0, -0.01]]

    def test_final_layer_is_linear(self):
        g = GraphSpec(adjacency=np.eye(1))
        w = GcnWeights(layers=(np.eye(2),), leaky_slope=0.01)
        out = gcn_forward(np.array([[1.0, -1.0]]), g, w)
        assert out.tolist() == [[1.0, -1.0]]  # no activation on the single layer

    def test_two_layer_dense_oracle(self):
        rng = np.random.default_rng(42)
        adj = np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 1.0], [1.0, 0.0, 1.0]])
        h = rng.normal(size=(3, 4))
        w1 = rng.normal(size=(4, 5))
        w2 = rng.normal(size=(5, 2))
        w = GcnWeights(layers=(w1, w2), leaky_slope=0.01)
        got = gcn_forward(h, GraphSpec(adjacency=adj), w)
        a_hat = adj / adj.sum(axis=1, keepdims=True)
        hidden = a_hat @ h @ w1
        hidden = np.where(hidden >= 0, hidden, 0.01 * hidden)
        want = a_hat @ hidden @ w2
        np.testing.assert_allclose(got, want, atol=1e-12)

    def test_permutation_equivariance_is_bitexact(self):
        rng = np.random.default_rng(43)
        for _ in range(10):
            n = 5
            adj = (rng.random((n, n)) < 0.5).astype(float)
            np.fill_diagonal(adj, 1.0)
            h = rng.normal(size=(n, 3))
            w = GcnWeights(layers=(rng.normal(size=(3, 4)), rng.normal(size=(4, 2))))
            perm = rng.permutation(n)
            base = gcn_forward(h, GraphSpec(adjacency=adj), w)
            permuted = gcn_forward(
                h[perm], GraphSpec(adjacency=adj[np.ix_(perm, perm)]), w
            )
            assert np.array_equal(permuted, base[perm])

    def test_dimension_checks(self):
        g = GraphSpec(adjacency=np.eye(2))
        w = GcnWeights(layers=(np.eye(3),))
        with pytest.raises(DimensionMismatchError):
            gcn_forward(np.zeros((3, 3)), g, w)  # node count mismatch
        with pytest.raises(DimensionMismatchError):
            gcn_forward(np.zeros((2, 2)), g, w)  # feature dim mismatch
        with pytest.raises(DimensionMismatchError):
            GcnWeights(layers=(np.zeros((3, 4)), np.zeros((5, 2))))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_weight_rejected(self, value):
        w = np.eye(3)
        w[1, 2] = value
        with pytest.raises(DomainError) as exc:
            GcnWeights(layers=(np.eye(3), w))
        assert str(exc.value) == f"weight matrix 1 entry {value} at (1, 2) is not finite"


class TestClassifier:
    def test_identity_selector_rows(self):
        cls = ClassifierMatrix(rows=np.eye(3))
        features = np.zeros((1, 1, 3))
        features[0, 0, 2] = 10.0
        probs = classify_features(features, cls)
        assert int(np.argmax(probs.data[0, 0])) == 2

    def test_zero_features_give_uniform(self):
        cls = ClassifierMatrix(rows=np.random.default_rng(44).normal(size=(4, 5)))
        probs = classify_features(np.zeros((2, 3, 5)), cls)
        np.testing.assert_allclose(probs.data, 0.25, atol=1e-15)

    def test_matches_dense_per_pixel_oracle(self):
        rng = np.random.default_rng(45)
        features = rng.normal(size=(2, 2, 4))
        cls = ClassifierMatrix(rows=rng.normal(size=(3, 4)))
        probs = classify_features(features, cls)
        for y in range(2):
            for x in range(2):
                scores = cls.rows @ features[y, x]
                e = np.exp(scores - scores.max())
                np.testing.assert_allclose(probs.data[y, x], e / e.sum(), atol=1e-12)

    def test_output_is_a_valid_probmap(self):
        rng = np.random.default_rng(46)
        for _ in range(5):
            features = rng.normal(size=(3, 3, 6)) * 10
            cls = ClassifierMatrix(rows=rng.normal(size=(4, 6)))
            validate_probmap(classify_features(features, cls))

    @pytest.mark.parametrize("pixels", [BLOCK_PIXELS - 1, 2 * BLOCK_PIXELS + 7],
                             ids=["one-pixel-short-of-a-block", "partial-third-block"])
    def test_matches_per_block_oracle_bit_for_bit(self, pixels):
        # The squarest map of that many pixels (127x129 at 16384-pixel blocks).
        h = max(d for d in range(1, math.isqrt(pixels) + 1) if pixels % d == 0)
        w = pixels // h
        rng = np.random.default_rng(47)
        rows = rng.normal(size=(19, 16))
        rows[5] = rows[2]  # classes 2 and 5 always score alike, so they tie
        features = (rng.normal(size=(h, w, 16)) * 4).astype(np.float32)
        features[:, :3] = 0  # every class scores 0: a 19-way tie
        probs = classify_features(features, ClassifierMatrix(rows=rows))
        assert np.array_equal(probs.data, blocked_softmax(features, rows, BLOCK_PIXELS))
        # The Bayes labels are the argmax; a tie goes to the lowest class id.
        labels = decide_bayes(probs).data
        assert np.array_equal(labels, np.argmax(probs.data, axis=2))
        top = probs.data == probs.data.max(axis=2, keepdims=True)
        assert (top[:, :, 2] & top[:, :, 5]).any() and top[:, :3].all()
        assert not (labels == 5).any() and (labels[:, :3] == 0).all()

    def test_no_product_exceeds_the_slice(self, monkeypatch):
        # Each product stays below OpenBLAS's threading threshold (see
        # gcn._PRODUCT_PIXELS), so a caller whose numpy runs several BLAS
        # threads scores on its own thread; together they cover every pixel.
        h, w, c, d = 70, 300, 19, 16  # three blocks, the last one short
        rng = np.random.default_rng(49)
        features = rng.random((h, w, d), dtype=np.float32)
        cls = ClassifierMatrix(rows=rng.normal(size=(c, d)))
        products, real = [], np.matmul

        def spy(a, b, **kwargs):
            products.append(a.shape)
            return real(a, b, **kwargs)

        monkeypatch.setattr(np, "matmul", spy)
        classify_features(features, cls)
        assert max(m for m, _ in products) <= _PRODUCT_PIXELS
        assert sum(m for m, _ in products) == h * w and {k for _, k in products} == {d}

    def test_extra_memory_is_the_output_and_a_few_blocks(self):
        h, w, c, d = 512, 512, 19, 16  # 32 blocks
        rng = np.random.default_rng(48)
        features = rng.random((h, w, d), dtype=np.float32)
        cls = ClassifierMatrix(rows=rng.normal(size=(c, d)))
        peak = peak_traced_bytes(classify_features, features, cls)
        # The float64 output plus a few blocks of scores and float64 features;
        # a whole-map float64 copy of the features (h*w*d*8, 33.5 MB) breaks it.
        assert peak <= h * w * c * 8 + 3 * BLOCK_PIXELS * (c + d) * 8

    def test_feature_depth_checked(self):
        with pytest.raises(DimensionMismatchError):
            classify_features(np.zeros((1, 1, 3)), ClassifierMatrix(np.zeros((2, 4))))

    @pytest.mark.parametrize("shape", [(0, 2, 3), (2, 0, 3)], ids=["zero-height", "zero-width"])
    def test_zero_size_features_rejected(self, shape):
        with pytest.raises(DimensionMismatchError) as exc:
            classify_features(np.zeros(shape), ClassifierMatrix(np.ones((2, 3))))
        assert str(exc.value) == f"features must be H*W*D and non-empty, got shape {shape}"

    def test_non_finite_feature_is_named_without_a_warning(self):
        features = np.zeros((BLOCK_PIXELS // 64 + 2, 64, 3))
        features[-1, 5, 1] = np.nan  # in the second block
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # numpy must not warn either
            with pytest.raises(DomainError) as exc:
                classify_features(features, ClassifierMatrix(np.ones((2, 3))))
        rows = features.shape[0] - 1
        assert str(exc.value) == f"feature nan at pixel ({rows}, 5) channel 1 is not finite"


class TestOneHotEmbedding:
    def test_identity_of_class_count(self):
        assert embed_one_hot(ClassSpec(names=("a", "b", "c"))).tolist() == np.eye(3).tolist()
        assert embed_one_hot(cityscapes_class_spec()).shape == (19, 19)

    def test_rows_sum_to_one(self):
        h0 = embed_one_hot(ClassSpec(names=("a", "b")))
        np.testing.assert_array_equal(h0.sum(axis=1), np.ones(2))

    def test_end_to_end_identity_reduction(self, spec3):
        # Identity graph and identity weights: scores are the raw one-hot rows.
        h0 = embed_one_hot(spec3)
        out = gcn_forward(h0, GraphSpec(adjacency=np.eye(3)), GcnWeights(layers=(np.eye(3),)))
        features = np.zeros((1, 2, 3))
        features[0, 0, 1] = 4.0
        features[0, 1, 0] = 2.0
        probs = classify_features(features, ClassifierMatrix(rows=out))
        raw = np.exp(features) / np.exp(features).sum(axis=2, keepdims=True)
        np.testing.assert_allclose(probs.data, raw, atol=1e-12)


class TestRandomWeights:
    def test_seeded_and_bounded(self):
        a = random_weights((3, 4, 2), seed=7)
        b = random_weights((3, 4, 2), seed=7)
        for wa, wb in zip(a.layers, b.layers):
            assert np.array_equal(wa, wb)
            assert np.abs(wa).max() <= 0.1
        assert a.layers[0].shape == (3, 4) and a.layers[1].shape == (4, 2)


class TestGraphJson:
    def test_explicit_adjacency(self, tmp_path):
        path = tmp_path / "graph.json"
        path.write_text(json.dumps({"adjacency": [[1, 0], [1, 1]], "directed": True}))
        g = load_graph_spec(path, ClassSpec(names=("a", "b")))
        assert g.adjacency.tolist() == [[1.0, 0.0], [1.0, 1.0]]

    def test_group_rule_matches_build_graph(self, tmp_path):
        path = tmp_path / "graph.json"
        payload = {
            "groups": [
                {"name": name, "classes": list(classes)}
                for name, classes in zip(
                    ("G1", "G2", "G3"),
                    (
                        ("road", "building", "wall", "tree", "terrain", "sky"),
                        ("car", "sidewalk", "fence", "pole", "pedestrian"),
                        ("sign", "rider", "truck", "bus", "train", "motorcycle",
                         "bicycle", "traffic light"),
                    ),
                )
            ]
        }
        path.write_text(json.dumps(payload))
        g = load_graph_spec(path, cityscapes_class_spec())
        want = build_graph(cityscapes_groups())
        assert np.array_equal(g.adjacency, want.adjacency)

    def test_rejects_unknown_layout(self, tmp_path):
        path = tmp_path / "graph.json"
        path.write_text(json.dumps({"nodes": 3}))
        with pytest.raises(FormatError):
            load_graph_spec(path, cityscapes_class_spec())
