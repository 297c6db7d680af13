"""Analytic calculator for the segmentation network: feature-map shapes,
receptive fields, and parameter counts.

No tensors are touched. The encoder is modeled as a /32 five-stage hierarchy
with ResNet-18 channel widths (64, 64, 128, 256, 512) and standard basic
blocks, followed by a four-branch pooled-context module and three upsampling
decoder blocks (UDBs), each doubling resolution, plus a final x4 bilinear
step back to the input size.

Receptive fields follow the usual recurrence RF = 1 + sum (k-1) * d * jump,
where jump is the product of the strides of all earlier layers. Every layer
kind spans its dilated k x k kernel: a factorized pair (k x 1 then 1 x k)
matches the k x k receptive field at lower cost, and a large-kernel block
sums two such parallel branches of equal extent.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    DimensionMismatchError,
    DomainError,
    EmptyInputError,
    IndivisibleInputError,
)

LAYER_KINDS = ("conv", "pointwise", "factorized-pair", "gcnet-block")

UDB_KINDS = ("basic", "erf", "gcnet-late", "gcnet-early")
ENCODER_STRIDE = 32


@dataclass(frozen=True)
class LayerSpec:
    """One analytic layer: a dilated kernel between two channel widths."""

    kind: str
    kernel: tuple[int, int] = (1, 1)
    stride: int = 1
    dilation: int = 1
    in_channels: int = 0
    out_channels: int = 0

    def __post_init__(self):
        if self.kind not in LAYER_KINDS:
            raise DomainError(f"unknown layer kind {self.kind!r}")
        if min(self.kernel) < 1 or self.stride < 1 or self.dilation < 1:
            raise DomainError(f"kernel, stride, dilation must be >= 1 in {self}")


def conv(k: int, cin: int, cout: int, stride: int = 1, dilation: int = 1) -> LayerSpec:
    return LayerSpec("conv", (k, k), stride, dilation, cin, cout)


def pointwise(cin: int, cout: int) -> LayerSpec:
    return LayerSpec("pointwise", (1, 1), 1, 1, cin, cout)


def factorized_pair(k: int, cin: int, cout: int, dilation: int = 1) -> LayerSpec:
    return LayerSpec("factorized-pair", (k, k), 1, dilation, cin, cout)


def gcnet_block(k: int, channels: int) -> LayerSpec:
    return LayerSpec("gcnet-block", (k, k), 1, 1, channels, channels)


def receptive_field(chain) -> tuple[int, int]:
    """Receptive field (rf_h, rf_w) of a layer chain at its input scale."""
    chain = tuple(chain)
    if not chain:
        raise EmptyInputError("receptive field of an empty chain is undefined")
    rf_h = rf_w = jump = 1
    for layer in chain:
        kh, kw = layer.kernel
        rf_h += (kh - 1) * layer.dilation * jump
        rf_w += (kw - 1) * layer.dilation * jump
        jump *= layer.stride
    return rf_h, rf_w


def param_count(chain) -> int:
    """Convolution parameter total of a chain, no biases; channel dims must connect."""
    total = 0
    current = None
    for layer in chain:
        cin, cout = layer.in_channels, layer.out_channels
        if current is not None and cin != current:
            raise DimensionMismatchError(
                f"layer {layer.kind} expects {cin} channels but receives {current}"
            )
        k = layer.kernel[0]
        if layer.kind == "factorized-pair":
            total += k * cin * cout + k * cout * cout
        elif layer.kind == "gcnet-block":
            if cin != cout:
                raise DimensionMismatchError(
                    f"gcnet block must preserve channels, got {cin} -> {cout}"
                )
            total += 4 * k * cin * cin  # two branches of two 1-D convs
        else:
            total += layer.kernel[0] * layer.kernel[1] * cin * cout
        current = cout
    return total


@dataclass(frozen=True)
class UdbVariant:
    """Upsampling decoder block flavor: plain 3x3 blend, factorized-dilated
    stack, or a large-kernel block merged late or early."""

    kind: str
    dilations: tuple[int, ...] = ()
    kernel: int = 7

    def __post_init__(self):
        if self.kind not in UDB_KINDS:
            raise DomainError(f"unknown UDB variant {self.kind!r}")
        object.__setattr__(self, "dilations", tuple(int(d) for d in self.dilations))
        if self.kind == "erf":
            if not self.dilations or any(d < 1 for d in self.dilations):
                raise DomainError("erf variant needs a non-empty list of positive dilations")
        if self.kind.startswith("gcnet") and self.kernel < 1:
            raise DomainError(f"kernel must be positive, got {self.kernel}")

    def label(self) -> str:
        if self.kind == "erf":
            return f"erf({','.join(map(str, self.dilations))})"
        if self.kind.startswith("gcnet"):
            return f"{self.kind}(k={self.kernel})"
        return self.kind


def udb_steps(variant: UdbVariant, width: int, skip_channels: int) -> tuple:
    """The UDB's sub-steps in order, merge position included, as (label, layer)
    pairs; upsampling and merging carry no parameters and have layer None."""
    lateral = ("lateral 1x1", pointwise(skip_channels, width))
    join = (("upsample x2", None), ("merge", None))
    if variant.kind == "erf":
        pairs = tuple(
            (f"factorized 3x1+1x3 d={d}", factorized_pair(3, width, width, dilation=d))
            for d in variant.dilations
        )
        return (lateral, *join, *pairs)
    blend = ("conv 3x3", conv(3, width, width))
    if variant.kind == "basic":
        return (lateral, *join, blend)
    block = (f"gcnet k={variant.kernel}", gcnet_block(variant.kernel, width))
    if variant.kind == "gcnet-late":
        return (lateral, block, *join, blend)
    return (lateral, *join, block, blend)


@dataclass(frozen=True)
class StageReport:
    name: str
    output_shape: tuple[int, int, int]  # (H, W, C)
    params: int
    rf: tuple[int, int] | None = None
    detail: tuple[str, ...] = ()


@dataclass(frozen=True)
class ArchReport:
    variant: UdbVariant
    input_hw: tuple[int, int]
    width: int
    stages: tuple[StageReport, ...]
    total_params: int


def _encoder_stages(h: int, w: int) -> list:
    stages = [
        StageReport("encoder/conv1", (h // 2, w // 2, 64), param_count([conv(7, 3, 64, stride=2)])),
        StageReport(
            "encoder/stage1",
            (h // 4, w // 4, 64),
            param_count([conv(3, 64, 64)] * 4),
        ),
    ]
    cin = 64
    for i, cout in enumerate((128, 256, 512), start=2):
        scale = 2 ** (i + 1)
        main = [conv(3, cin, cout, stride=2)] + [conv(3, cout, cout)] * 3
        projection = [pointwise(cin, cout)]
        stages.append(
            StageReport(
                f"encoder/stage{i}",
                (h // scale, w // scale, cout),
                param_count(main) + param_count(projection),
            )
        )
        cin = cout
    return stages


def report_variant(variant: UdbVariant, input_hw, width: int = 128) -> ArchReport:
    """Stage-by-stage shape/RF/parameter report for one decoder variant.

    The input resolution must be positive and divisible by 32 (the encoder
    stride), and the decoder width positive and divisible by 4 (the
    pooled-context module splits it across its four branches).
    """
    h, w = (int(v) for v in input_hw)
    if h <= 0 or w <= 0:
        raise DomainError(f"input resolution must be positive, got {h}x{w}")
    if width <= 0:
        raise DomainError(f"decoder width must be positive, got {width}")
    if h % ENCODER_STRIDE or w % ENCODER_STRIDE:
        raise IndivisibleInputError(
            f"input {h}x{w} is not divisible by the encoder stride {ENCODER_STRIDE}"
        )
    if width % 4:
        raise DomainError(f"decoder width must be divisible by 4, got {width}")

    stages = _encoder_stages(h, w)
    spp_params = 4 * param_count([pointwise(512, width // 4)])
    stages.append(
        StageReport(
            "spp",
            (h // 32, w // 32, width),
            spp_params,
            detail=("4 branches: adaptive pool + 1x1, concatenated",),
        )
    )
    skips = (256, 128, 64)
    for i, skip in enumerate(skips, start=1):
        scale = 32 >> i
        steps = udb_steps(variant, width, skip)
        chain = [layer for _, layer in steps if layer is not None]
        stages.append(
            StageReport(
                f"udb{i}",
                (h // scale, w // scale, width),
                param_count(chain),
                rf=receptive_field(chain),
                detail=tuple(label for label, _ in steps),
            )
        )
    stages.append(StageReport("upsample x4", (h, w, width), 0))
    return ArchReport(
        variant=variant,
        input_hw=(h, w),
        width=width,
        stages=tuple(stages),
        total_params=sum(s.params for s in stages),
    )


def render_arch_report(report: ArchReport) -> str:
    """Plain-text stage table with a parameter total."""
    header = f"{'stage':<16}{'output':<16}{'rf':<10}{'params':>12}"
    lines = [
        f"variant: {report.variant.label()}   input: "
        f"{report.input_hw[0]}x{report.input_hw[1]}   width: {report.width}",
        header,
        "-" * len(header),
    ]
    for s in report.stages:
        shape = f"{s.output_shape[0]}x{s.output_shape[1]}x{s.output_shape[2]}"
        rf = f"{s.rf[0]}x{s.rf[1]}" if s.rf else "-"
        lines.append(f"{s.name:<16}{shape:<16}{rf:<10}{s.params:>12}")
        for step in s.detail:
            lines.append(f"{'':<16}  . {step}")
    lines.append("-" * len(header))
    lines.append(f"{'total':<42}{report.total_params:>12}")
    return "\n".join(lines) + "\n"


def arch_report_to_dict(report: ArchReport) -> dict:
    return {
        "variant": report.variant.label(),
        "input": list(report.input_hw),
        "width": report.width,
        "total_params": report.total_params,
        "stages": [
            {
                "name": s.name,
                "output_shape": list(s.output_shape),
                "rf": list(s.rf) if s.rf else None,
                "params": s.params,
                "detail": list(s.detail),
            }
            for s in report.stages
        ],
    }
