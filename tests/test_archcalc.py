import pytest

from segrecall import UdbVariant, param_count, receptive_field, report_variant
from segrecall.archcalc import (
    arch_report_to_dict,
    conv,
    factorized_pair,
    gcnet_block,
    pointwise,
    render_arch_report,
    udb_steps,
)
from segrecall.errors import (
    DimensionMismatchError,
    DomainError,
    EmptyInputError,
    IndivisibleInputError,
)


class TestReceptiveField:
    def test_two_3x3_convs(self):
        assert receptive_field([conv(3, 8, 8), conv(3, 8, 8)]) == (5, 5)

    def test_stride_grows_later_contributions(self):
        # 3x3 stride 2, then 3x3: 1 + 2 + 2*2 = 7 per axis.
        assert receptive_field([conv(3, 8, 8, stride=2), conv(3, 8, 8)]) == (7, 7)

    def test_dilation_scales_kernel_extent(self):
        assert receptive_field([conv(3, 8, 8, dilation=4)]) == (9, 9)

    def test_factorized_pair_equals_square_kernel(self):
        assert receptive_field([factorized_pair(3, 8, 8)]) == receptive_field([conv(3, 8, 8)])
        assert receptive_field([factorized_pair(3, 8, 8)]) == (3, 3)

    def test_erf_dilation_preset(self):
        chain = [factorized_pair(3, 8, 8, dilation=d) for d in (1, 2, 3)]
        assert receptive_field(chain) == (13, 13)

    def test_gcnet_block_matches_large_kernel(self):
        assert receptive_field([gcnet_block(7, 8)]) == (7, 7)

    def test_empty_chain_rejected(self):
        with pytest.raises(EmptyInputError):
            receptive_field([])

    def test_monotone_in_kernel_and_dilation(self):
        base = receptive_field([conv(3, 8, 8), conv(3, 8, 8)])
        bigger_kernel = receptive_field([conv(5, 8, 8), conv(3, 8, 8)])
        bigger_dilation = receptive_field([conv(3, 8, 8, dilation=2), conv(3, 8, 8)])
        assert bigger_kernel >= base and bigger_dilation >= base


class TestParamCount:
    def test_square_conv(self):
        assert param_count([conv(3, 16, 16)]) == 9 * 16 * 16

    def test_factorized_pair_is_cheaper(self):
        c = 16
        square = param_count([conv(3, c, c)])
        pair = param_count([factorized_pair(3, c, c)])
        assert pair == 6 * c * c
        assert pair < square

    def test_gcnet_block(self):
        assert param_count([gcnet_block(7, 16)]) == 28 * 16 * 16

    def test_bias_flag(self):
        # No biases are counted; a pair's second 1-D conv runs at the output width.
        assert param_count([conv(3, 4, 8)]) == 9 * 4 * 8
        assert param_count([factorized_pair(3, 4, 8)]) == 3 * 4 * 8 + 3 * 8 * 8

    def test_channel_chain_enforced(self):
        with pytest.raises(DimensionMismatchError):
            param_count([conv(3, 4, 8), conv(3, 4, 8)])
        with pytest.raises(DimensionMismatchError):
            param_count([gcnet_block(7, 16), conv(3, 8, 8)])

    def test_factorized_cheaper_beyond_k_two(self):
        # 2k*C^2 vs k^2*C^2: equal at k = 2, strictly cheaper from k = 3 on.
        c = 32
        assert param_count([factorized_pair(2, c, c)]) == param_count([conv(2, c, c)])
        for k in range(3, 10):
            assert param_count([factorized_pair(k, c, c)]) < param_count([conv(k, c, c)])


class TestUdbVariant:
    def test_validation(self):
        with pytest.raises(DomainError):
            UdbVariant("wavelet")
        with pytest.raises(DomainError):
            UdbVariant("erf", dilations=())
        with pytest.raises(DomainError):
            UdbVariant("erf", dilations=(0,))

    def test_chain_and_trace(self):
        erf = UdbVariant("erf", dilations=(1, 2, 3))
        steps = udb_steps(erf, width=128, skip_channels=256)
        chain = [layer for _, layer in steps if layer is not None]
        assert chain[0] == pointwise(256, 128)
        assert len(chain) == 4
        assert [label for label, layer in steps if layer is None] == ["upsample x2", "merge"]


class TestReportVariant:
    def test_shapes_for_768_input(self):
        report = report_variant(UdbVariant("erf", dilations=(1, 2, 3)), (768, 768), width=128)
        by_name = {s.name: s for s in report.stages}
        assert by_name["encoder/stage4"].output_shape == (24, 24, 512)
        assert by_name["udb3"].output_shape == (192, 192, 128)
        assert report.stages[-1].output_shape == (768, 768, 128)

    def test_erf_rf_column(self):
        report = report_variant(UdbVariant("erf", dilations=(1, 2, 3)), (768, 768))
        for i in (1, 2, 3):
            assert {s.name: s for s in report.stages}[f"udb{i}"].rf == (13, 13)

    def test_erf_beats_basic_rf(self):
        basic = report_variant(UdbVariant("basic"), (256, 256))
        erf = report_variant(UdbVariant("erf", dilations=(1, 2, 3)), (256, 256))
        rf_of = lambda rep: {s.name: s.rf for s in rep.stages}["udb1"]
        assert rf_of(erf) > rf_of(basic)

    def test_gcnet_merge_position_only(self):
        early = report_variant(UdbVariant("gcnet-early", kernel=7), (256, 256))
        late = report_variant(UdbVariant("gcnet-late", kernel=7), (256, 256))
        assert early.total_params == late.total_params
        early_udb = {s.name: s for s in early.stages}["udb1"]
        late_udb = {s.name: s for s in late.stages}["udb1"]
        assert early_udb.params == late_udb.params
        assert early_udb.rf == late_udb.rf
        assert early_udb.detail != late_udb.detail
        assert early_udb.detail.index("merge") < early_udb.detail.index("gcnet k=7")
        assert late_udb.detail.index("gcnet k=7") < late_udb.detail.index("merge")

    def test_total_is_sum_of_stages(self):
        report = report_variant(UdbVariant("basic"), (128, 96), width=64)
        assert report.total_params == sum(s.params for s in report.stages)

    def test_encoder_parameter_totals(self):
        # Standard 18-layer residual encoder, conv parameters only.
        report = report_variant(UdbVariant("basic"), (64, 64), width=64)
        params = {s.name: s.params for s in report.stages}
        assert params["encoder/conv1"] == 9408
        assert params["encoder/stage1"] == 147456
        assert params["encoder/stage2"] == 524288
        assert params["encoder/stage3"] == 2097152
        assert params["encoder/stage4"] == 8388608

    def test_indivisible_input_rejected(self):
        with pytest.raises(IndivisibleInputError):
            report_variant(UdbVariant("basic"), (100, 96))

    def test_width_must_split_across_branches(self):
        with pytest.raises(DomainError):
            report_variant(UdbVariant("basic"), (64, 64), width=30)

    def test_render_and_json(self):
        report = report_variant(UdbVariant("erf", dilations=(1, 2, 3)), (768, 768))
        text = render_arch_report(report)
        assert "13x13" in text and "768x768x128" in text
        payload = arch_report_to_dict(report)
        assert payload["stages"][-1]["output_shape"] == [768, 768, 128]

    @pytest.mark.parametrize("variant, total, udb_params, rf", [
        (UdbVariant("basic"), 11732160, (180224, 163840, 155648), (3, 3)),
        (UdbVariant("erf", dilations=(1, 2, 3)), 12174528, (327680, 311296, 303104), (13, 13)),
        (UdbVariant("erf", dilations=(2, 4, 8)), 12174528, (327680, 311296, 303104), (29, 29)),
        (UdbVariant("gcnet-late", kernel=7), 13108416, (638976, 622592, 614400), (9, 9)),
        (UdbVariant("gcnet-early", kernel=7), 13108416, (638976, 622592, 614400), (9, 9)),
    ], ids=lambda v: v.label() if isinstance(v, UdbVariant) else None)
    def test_udb_params_and_rf_per_variant(self, variant, total, udb_params, rf):
        report = report_variant(variant, (768, 768), width=128)
        udbs = [s for s in report.stages if s.name.startswith("udb")]
        assert report.total_params == total
        assert tuple(s.params for s in udbs) == udb_params
        assert all(s.rf == rf for s in udbs)
