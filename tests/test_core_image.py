"""Tests for binary images and the validated memory extraction (§3.4)."""

import pytest

from repro.core.errors import MemoryModelError
from repro.core.image import Image, Symbol, build_memory
from repro.sym import bv_val


def image_with(*symbols):
    return Image(base=0x1000, word_size=4, words={}, symbols=list(symbols))


class TestExtraction:
    def test_shapes_extract(self):
        img = image_with(
            Symbol("a", 0x2000, 4, "object", ("cell", 4)),
            Symbol("b", 0x3000, 16, "object", ("array", 4, ("cell", 4))),
            Symbol(
                "c",
                0x4000,
                24,
                "object",
                ("array", 2, ("struct", [("x", ("cell", 4)), ("y", ("cell", 8))])),
            ),
        )
        mem = build_memory(img, addr_width=32)
        assert mem.region("a").block.size() == 4
        assert mem.region("b").block.size() == 16
        assert mem.region("c").block.size() == 24

    def test_symbolic_contents_by_default(self):
        img = image_with(Symbol("a", 0x2000, 4, "object", ("cell", 4)))
        mem = build_memory(img, addr_width=32)
        value = mem.load(bv_val(0x2000, 32), 4)
        assert not value.is_concrete

    def test_concrete_zero_for_boot(self):
        img = image_with(Symbol("a", 0x2000, 4, "object", ("cell", 4)))
        mem = build_memory(img, addr_width=32, symbolic=False)
        assert mem.load(bv_val(0x2000, 32), 4).as_int() == 0

    def test_size_mismatch_rejected(self):
        """The §3.4 validity check: shape must match the symbol size."""
        img = image_with(Symbol("a", 0x2000, 8, "object", ("cell", 4)))
        with pytest.raises(MemoryModelError):
            build_memory(img, addr_width=32)

    def test_misaligned_symbol_rejected(self):
        img = image_with(Symbol("a", 0x2001, 4, "object", ("cell", 4)))
        with pytest.raises(MemoryModelError):
            build_memory(img, addr_width=32)

    def test_overlapping_symbols_rejected(self):
        img = image_with(
            Symbol("a", 0x2000, 8, "object", ("cell", 8)),
            Symbol("b", 0x2004, 4, "object", ("cell", 4)),
        )
        with pytest.raises(MemoryModelError):
            build_memory(img, addr_width=32)

    def test_func_symbols_skipped(self):
        img = image_with(Symbol("handler", 0x1000, 64, "func"))
        mem = build_memory(img, addr_width=32)
        assert mem.regions == []

    def test_default_shape_is_word_array(self):
        img = image_with(Symbol("blob", 0x2000, 16, "object", None))
        mem = build_memory(img, addr_width=32)
        assert mem.region("blob").block.size() == 16

    def test_bad_shape_rejected(self):
        img = image_with(Symbol("a", 0x2000, 4, "object", ("weird", 4)))
        with pytest.raises(MemoryModelError):
            build_memory(img, addr_width=32)


class TestImageApi:
    def test_text_range_empty(self):
        img = Image(base=0x1000, word_size=4, words={})
        assert img.text_range() == (0x1000, 0x1000)

    def test_text_range_spans_words(self):
        img = Image(base=0x1000, word_size=4, words={0x1000: 1, 0x1008: 2})
        assert img.text_range() == (0x1000, 0x100C)


class TestMonitorImages:
    @pytest.mark.parametrize("monitor", ["certikos", "komodo"])
    def test_verifiers_at_one_opt_share_one_image(self, monitor):
        """A monitor's image is built once per optimization level, so a
        daemon that makes a verifier per op compiles each image once."""
        if monitor == "certikos":
            from repro.certikos import CertikosVerifier as Verifier
        else:
            from repro.komodo import KomodoVerifier as Verifier
        first, second = Verifier(opt=1), Verifier(opt=1)
        assert first.image is second.image
        assert Verifier(opt=0).image is not first.image
