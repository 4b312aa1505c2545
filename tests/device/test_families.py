"""Unit tests for architecture parameters and the family catalog."""

import math
from functools import cached_property

import pytest

from repro.device import FAMILIES, Architecture, Rect, get_family


class TestValidation:
    def test_tiny_array_rejected(self):
        with pytest.raises(ValueError):
            Architecture("bad", 1, 4)

    def test_k_range(self):
        with pytest.raises(ValueError):
            Architecture("bad", 4, 4, k=1)
        with pytest.raises(ValueError):
            Architecture("bad", 4, 4, k=7)

    def test_channel_width(self):
        with pytest.raises(ValueError):
            Architecture("bad", 4, 4, channel_width=1)


class TestDerived:
    def test_counts(self):
        a = Architecture("t", 4, 6, io_per_edge=2)
        assert a.n_clbs == 24
        assert a.n_pins == 2 * (2 * 4 + 2 * 6)
        assert a.full_rect.area == 24

    def test_sel_bits(self):
        a = Architecture("t", 4, 4, channel_width=8)
        # 4*8 = 32 candidates + open = 33 values -> 6 bits
        assert a.input_sel_bits == 6
        assert a.iob_sel_bits == math.ceil(math.log2(9))

    def test_clb_config_bits(self):
        a = Architecture("t", 4, 4, k=4, channel_width=8)
        assert a.clb_config_bits == 16 + 3 + 4 * 6 + 32

    def test_frame_accounting(self):
        a = Architecture("t", 4, 4)
        assert a.n_frames == 5
        assert a.total_config_bits == a.n_frames * a.frame_bits
        # CLB frame must fit its column + switch column
        assert a.frame_bits >= a.clb_column_bits + a.switchbox_column_bits
        assert a.frame_bits >= a.switchbox_column_bits + a.iob_total_bits

    def test_full_config_time_near_paper_figure(self):
        """Paper §2: XC4000-class full serial download <= 200 ms.  The
        largest catalog device must land in that era (tens to ~200 ms)."""
        big = get_family("VF32")
        assert 0.02 <= big.full_config_time <= 0.25

    def test_config_time_scales_with_area(self):
        assert get_family("VF32").full_config_time > get_family("VF8").full_config_time

    def test_scaled_override(self):
        a = get_family("VF8").scaled(serial_rate=2e6)
        assert a.serial_rate == 2e6
        assert a.width == 8


class TestCatalog:
    def test_monotone_sizes(self):
        sizes = [f.n_clbs for f in FAMILIES.values()]
        assert sizes == sorted(sizes)

    def test_get_family_error(self):
        with pytest.raises(KeyError, match="unknown family"):
            get_family("XC9999")

    def test_gate_counts_span_paper_range(self):
        gates = [f.equivalent_gates for f in FAMILIES.values()]
        assert min(gates) < 1000
        assert max(gates) > 20000


def layout_formulas(a):
    """Every derived layout value of ``a``, computed from its fields."""
    input_sel = math.ceil(math.log2(4 * a.channel_width + 1))
    iob_sel = math.ceil(math.log2(a.channel_width + 1))
    clb = (1 << a.k) + 3 + a.k * input_sel + 4 * a.channel_width
    switchbox = 6 * a.channel_width + 2 * a.long_per_channel
    n_pins = a.io_per_edge * (2 * a.width + 2 * a.height)
    clb_column = a.height * clb
    switchbox_column = (a.height + 1) * switchbox
    iob_total = n_pins * (2 + iob_sel)
    frame = max(clb_column + switchbox_column, switchbox_column + iob_total)
    return {
        "n_clbs": a.width * a.height,
        "n_pins": n_pins,
        "full_rect": Rect(0, 0, a.width, a.height),
        "equivalent_gates": a.width * a.height * Architecture.GATES_PER_CLB,
        "input_sel_bits": input_sel,
        "iob_sel_bits": iob_sel,
        "clb_config_bits": clb,
        "switchbox_config_bits": switchbox,
        "iob_config_bits": 2 + iob_sel,
        "n_frames": a.width + 1,
        "clb_column_bits": clb_column,
        "switchbox_column_bits": switchbox_column,
        "iob_total_bits": iob_total,
        "frame_bits": frame,
        "total_config_bits": (a.width + 1) * frame,
    }


class TestCachedLayout:
    """The derived layout values are computed once per (frozen) instance."""

    def test_formulas_cover_every_cached_value(self):
        cached = {
            name for name, attr in vars(Architecture).items()
            if isinstance(attr, cached_property)
        }
        assert cached == set(layout_formulas(get_family("VF4")))

    @pytest.mark.parametrize("name", sorted(FAMILIES))
    def test_cached_values_equal_formulas(self, name):
        a = FAMILIES[name]
        for attr, want in layout_formulas(a).items():
            assert getattr(a, attr) == want, attr
            assert vars(a)[attr] == want, attr

    def test_scaled_recomputes(self):
        parent = get_family("VF8")
        parent_values = {k: getattr(parent, k) for k in layout_formulas(parent)}
        child = parent.scaled(channel_width=4)
        assert not set(vars(child)) & set(parent_values)
        assert {k: getattr(child, k) for k in parent_values} == \
            layout_formulas(child)
        assert child.clb_config_bits != parent_values["clb_config_bits"]
        assert child.frame_bits != parent_values["frame_bits"]

    def test_cached_instance_keeps_equality_and_hash(self):
        a = Architecture("t", 5, 7, channel_width=6)
        for attr in layout_formulas(a):
            getattr(a, attr)
        fresh = Architecture("t", 5, 7, channel_width=6)
        assert a == fresh
        assert hash(a) == hash(fresh)
        assert a.scaled() == fresh
        assert a != a.scaled(channel_width=4)
