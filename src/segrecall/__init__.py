"""segrecall: decisions, losses, metrics, and decoder analytics for
high-recall semantic segmentation.

The library consumes per-pixel class-probability maps produced upstream and
provides: Bayes and Maximum-Likelihood labeling with spatial class priors,
per-class / grouped precision-recall-IoU reports, importance-aware loss
values with verified analytic gradients, a graph-convolutional classifier
over an importance-structured class graph, and analytic shape / receptive
field / parameter accounting for the decoder-block variants.
"""

from .archcalc import (
    LayerSpec,
    UdbVariant,
    param_count,
    receptive_field,
    report_variant,
)
from .core import (
    ClassSpec,
    LabelMap,
    ProbMap,
    validate_probmap,
)
from .datasets import (
    camvid_class_spec,
    camvid_groups,
    cityscapes_class_spec,
    cityscapes_groups,
)
from .decision import (
    PriorsMap,
    compare_rules,
    decide_bayes,
    decide_ml,
    estimate_priors,
    gaussian_smooth,
)
from .gcn import (
    ClassifierMatrix,
    GcnWeights,
    GraphSpec,
    build_graph,
    classify_features,
    embed_one_hot,
    gcn_forward,
    normalize_adjacency,
)
from .losses import (
    FrequencyWeights,
    IALBreakdown,
    ImportanceConfig,
    cross_entropy,
    ial,
    ial_gradient,
)
from .metrics import (
    ClassMetrics,
    ConfusionMatrix,
    GroupSpec,
    SummaryReport,
    accumulate,
    class_metrics,
    iou_from_pr,
    merge,
    render_metrics_csv,
    summarize,
)

__version__ = "0.1.0"

__all__ = [
    "ClassSpec",
    "LabelMap",
    "ProbMap",
    "validate_probmap",
    "ConfusionMatrix",
    "ClassMetrics",
    "GroupSpec",
    "SummaryReport",
    "accumulate",
    "merge",
    "class_metrics",
    "iou_from_pr",
    "summarize",
    "render_metrics_csv",
    "FrequencyWeights",
    "ImportanceConfig",
    "IALBreakdown",
    "cross_entropy",
    "ial",
    "ial_gradient",
    "PriorsMap",
    "estimate_priors",
    "gaussian_smooth",
    "decide_bayes",
    "decide_ml",
    "compare_rules",
    "GraphSpec",
    "GcnWeights",
    "ClassifierMatrix",
    "build_graph",
    "normalize_adjacency",
    "gcn_forward",
    "classify_features",
    "embed_one_hot",
    "LayerSpec",
    "UdbVariant",
    "receptive_field",
    "param_count",
    "report_variant",
    "camvid_class_spec",
    "camvid_groups",
    "cityscapes_class_spec",
    "cityscapes_groups",
    "__version__",
]
