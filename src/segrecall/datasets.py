"""Shipped class specs and importance groupings for CamVid and Cityscapes.

Group order is ascending importance: G1 (background surfaces) up to G3
(traffic participants and signage that must be detected with high recall).
Cityscapes class names follow the common table naming (vegetation -> tree,
person -> pedestrian, traffic sign -> sign).
"""

from __future__ import annotations

from .core import ClassSpec
from .metrics import GroupSpec, parse_group_spec

CAMVID_NAMES = (
    "sky",
    "building",
    "pole",
    "road",
    "sidewalk",
    "tree",
    "sign",
    "fence",
    "car",
    "pedestrian",
    "bicyclist",
)

CAMVID_GROUP_NAMES = (
    ("sky", "building", "tree"),
    ("pole", "road", "sidewalk", "fence"),
    ("sign", "car", "pedestrian", "bicyclist"),
)

CITYSCAPES_NAMES = (
    "road",
    "sidewalk",
    "building",
    "wall",
    "fence",
    "pole",
    "traffic light",
    "sign",
    "tree",
    "terrain",
    "sky",
    "pedestrian",
    "rider",
    "car",
    "truck",
    "bus",
    "train",
    "motorcycle",
    "bicycle",
)

CITYSCAPES_GROUP_NAMES = (
    ("road", "building", "wall", "tree", "terrain", "sky"),
    ("car", "sidewalk", "fence", "pole", "pedestrian"),
    ("sign", "rider", "truck", "bus", "train", "motorcycle", "bicycle", "traffic light"),
)


# Name tables of the group presets, as selected by ``--groups``.
GROUP_PRESETS = {"camvid": CAMVID_GROUP_NAMES, "cityscapes": CITYSCAPES_GROUP_NAMES}


def preset_groups(preset: str, spec: ClassSpec) -> GroupSpec:
    """A preset's groups G1..G3, resolved by class name against ``spec``.

    The name table goes through the groups-file parser, so a preset class
    missing from ``spec`` raises FormatError naming the preset and the class.
    """
    table = GROUP_PRESETS[preset]
    items = [{"name": f"G{i + 1}", "classes": list(g)} for i, g in enumerate(table)]
    return parse_group_spec({"groups": items}, spec, f"preset {preset!r}")


def camvid_class_spec() -> ClassSpec:
    return ClassSpec(names=CAMVID_NAMES)


def camvid_groups() -> GroupSpec:
    return preset_groups("camvid", camvid_class_spec())


def cityscapes_class_spec() -> ClassSpec:
    return ClassSpec(names=CITYSCAPES_NAMES)


def cityscapes_groups() -> GroupSpec:
    return preset_groups("cityscapes", cityscapes_class_spec())
