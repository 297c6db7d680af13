"""Analytic comparison of the four upsampling decoder block variants.

Shapes, receptive fields, and parameter counts are pure arithmetic: the
factorized-dilated stack buys a 13x13 receptive field for two thirds of a
3x3 conv's parameters per pair, and the two large-kernel variants differ
only in where the lateral features merge.
"""

from segrecall import param_count, receptive_field
from segrecall.archcalc import (
    UdbVariant,
    conv,
    factorized_pair,
    render_arch_report,
    report_variant,
    udb_steps,
)

variants = (
    UdbVariant("basic"),
    UdbVariant("erf", dilations=(1, 2, 3)),
    UdbVariant("erf", dilations=(2, 4, 8)),
    UdbVariant("gcnet-late", kernel=7),
    UdbVariant("gcnet-early", kernel=7),
)

print(f"{'variant':<18}{'UDB rf':<10}{'UDB params':<12}{'total params':>14}")
for variant in variants:
    report = report_variant(variant, (768, 768), width=128)
    udb = {s.name: s for s in report.stages}["udb1"]
    print(f"{variant.label():<18}{f'{udb.rf[0]}x{udb.rf[1]}':<10}"
          f"{udb.params:<12}{report.total_params:>14}")

print("\none layer at a time: receptive field and parameters of a 128-channel chain")
chains = {
    "3x3 conv": [conv(3, 128, 128)],
    "two 3x3 convs": [conv(3, 128, 128), conv(3, 128, 128)],
    "3x1+1x3 pair, dilation 2": [factorized_pair(3, 128, 128, dilation=2)],
}
for name, chain in chains.items():
    rf = receptive_field(chain)
    print(f"  {name:<26} rf {rf[0]}x{rf[1]:<4} params {param_count(chain)}")

print("\nmerge order inside the two large-kernel blocks:")
for variant in variants[-2:]:
    labels = [label for label, _ in udb_steps(variant, width=128, skip_channels=256)]
    print(f"  {variant.label():<18} {' -> '.join(labels)}")

print("\nfull stage table for the early-merge variant:\n")
print(render_arch_report(report_variant(UdbVariant("gcnet-early", kernel=7), (768, 768))))
