"""segrecall: decisions, losses, metrics, and decoder analytics for
high-recall semantic segmentation.

The library consumes per-pixel class-probability maps produced upstream and
provides: Bayes and Maximum-Likelihood labeling with spatial class priors,
per-class / grouped precision-recall-IoU reports, importance-aware loss
values with verified analytic gradients, a graph-convolutional classifier
over an importance-structured class graph, and analytic shape / receptive
field / parameter accounting for the decoder-block variants.

Importing the package loads none of its modules: each public name, and each
submodule, is imported on first use (PEP 562), so a command that needs only
``archcalc`` never imports numpy.
"""

import importlib

__version__ = "0.1.0"

# Each submodule and the public names it defines.
_EXPORTS = {
    "archcalc": ("LayerSpec", "UdbVariant", "param_count", "receptive_field", "report_variant"),
    "core": ("ClassSpec", "LabelMap", "ProbMap", "validate_probmap"),
    "datasets": (
        "camvid_class_spec", "camvid_groups", "cityscapes_class_spec", "cityscapes_groups",
    ),
    "decision": (
        "PriorsMap", "compare_rules", "decide_bayes", "decide_ml", "estimate_priors",
        "gaussian_smooth",
    ),
    "gcn": (
        "ClassifierMatrix", "GcnWeights", "GraphSpec", "build_graph", "classify_features",
        "embed_one_hot", "gcn_forward", "normalize_adjacency",
    ),
    "losses": (
        "FrequencyWeights", "IALBreakdown", "ImportanceConfig", "cross_entropy", "ial",
        "ial_gradient",
    ),
    "metrics": (
        "ClassMetrics", "ConfusionMatrix", "GroupSpec", "SummaryReport", "accumulate",
        "class_metrics", "iou_from_pr", "merge", "render_metrics_csv", "summarize",
    ),
}
# Public name -> the submodule that defines it.
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_HOME, "__version__"]

_SUBMODULES = (*_EXPORTS, "atomic", "cli", "errors", "fileio")


def __getattr__(name):
    if name in _HOME:
        value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    elif name in _SUBMODULES:
        value = importlib.import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_HOME, *_SUBMODULES})
