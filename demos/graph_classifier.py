"""The class-relation graph and the GCN-derived pixel classifier.

Importance groups define a directed graph: the most important classes see
every node, the least important only their own group. One-hot node features
pass through normalized graph convolutions; the final layer output is used
directly as the feature-selecting classifier.
"""

import numpy as np

from segrecall import (
    ClassifierMatrix,
    build_graph,
    classify_features,
    decide_bayes,
    embed_one_hot,
    gcn_forward,
    normalize_adjacency,
    validate_probmap,
)
from segrecall.datasets import camvid_class_spec, camvid_groups
from segrecall.gcn import random_weights

spec = camvid_class_spec()
groups = camvid_groups()
graph = build_graph(groups)

print(f"{spec.num_classes} class nodes; adjacency row sums by group:")
member = groups.membership()
for gi, name in enumerate(groups.names):
    ids = [c for c in range(spec.num_classes) if member[c] == gi]
    degrees = graph.adjacency[ids].sum(axis=1).astype(int)
    print(f"  {name} ({', '.join(spec.names[c] for c in ids)}): out-degree {degrees[0]}")

a_hat = normalize_adjacency(graph)
print(f"normalized rows all sum to 1: {np.allclose(a_hat.sum(axis=1), 1.0)}")

# Forward pass with seeded random weights (real weights are file inputs).
feature_dim = 16
weights = random_weights((spec.num_classes, 24, feature_dim), seed=42)
classifier = ClassifierMatrix(rows=gcn_forward(embed_one_hot(spec), graph, weights))
print(f"classifier shape: {classifier.rows.shape} (one selector row per class)")

rng = np.random.default_rng(1)
features = rng.normal(size=(6, 6, feature_dim))
probs = classify_features(features, classifier)
validate_probmap(probs)
pred = decide_bayes(probs, ignore_id=spec.ignore_id)
print("pixel scores softmax to a valid probability map; sample decisions:")
print("  " + " ".join(spec.names[k] for k in pred.data[0, :4]))
