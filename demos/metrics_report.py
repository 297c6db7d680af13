"""Confusion accumulation and the per-class / per-group CSV report.

Predictions are scored per class (precision, recall, IoU) and summarized
with unweighted means, overall and per importance group. A class absent
from both prediction and truth stays undefined instead of polluting means.
"""

import numpy as np

from segrecall import (
    ConfusionMatrix,
    LabelMap,
    accumulate,
    class_metrics,
    iou_from_pr,
    merge,
    render_metrics_csv,
    summarize,
)
from segrecall.datasets import (
    camvid_class_spec,
    camvid_groups,
    cityscapes_class_spec,
    cityscapes_groups,
)

rng = np.random.default_rng(11)
spec = camvid_class_spec()

# Two synthetic frames: mostly-correct predictions with sign/pole confusion.
cm = ConfusionMatrix.empty(spec.num_classes)
for _ in range(2):
    gt = rng.integers(0, spec.num_classes, size=(32, 32))
    gt[rng.random((32, 32)) < 0.05] = spec.ignore_id  # void regions
    pred = gt.copy()
    flip = rng.random((32, 32)) < 0.12
    pred[flip] = rng.integers(0, spec.num_classes, size=int(flip.sum()))
    pred[pred == spec.ignore_id] = 0
    sign = spec.index_of("sign")
    pole = spec.index_of("pole")
    confuse = (gt == sign) & (rng.random((32, 32)) < 0.5)
    pred[confuse] = pole  # signs often mistaken for poles
    frame_cm = accumulate(
        ConfusionMatrix.empty(spec.num_classes),
        LabelMap(pred.astype(np.int64)),
        LabelMap(gt.astype(np.int64)),
    )
    cm = merge(cm, frame_cm)  # per-frame matrices merge associatively

report = summarize(class_metrics(cm), camvid_groups())
print(render_metrics_csv(report, spec.names))
print(f"sign recall suffers from the injected confusion: "
      f"{report.per_class[spec.index_of('sign')].recall:.3f}")
print(f"G3 mean recall {report.groups[2].recall:.3f} vs overall {report.mean_recall:.3f}")
sign_metrics = report.per_class[spec.index_of("sign")]
print(f"sign IoU {sign_metrics.iou:.3f} = 1 / (1/P + 1/R - 1) = "
      f"{iou_from_pr(sign_metrics.precision, sign_metrics.recall):.3f}")

# The Cityscapes preset groups its 19 classes the same way, least important first.
cs_spec, cs_groups = cityscapes_class_spec(), cityscapes_groups()
for name, ids in zip(cs_groups.names, cs_groups.groups):
    print(f"Cityscapes {name}: {', '.join(cs_spec.names[c] for c in ids)}")
