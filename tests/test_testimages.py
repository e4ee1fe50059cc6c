import hashlib

import pytest

from lumamark.pixmap import write_rgb_image, write_watermark
from lumamark.testimages import (
    CORPUS_NAMES,
    corpus_image,
    logo_watermark,
    main,
    random_watermark,
)

from support import traced_peak


def sha256(array) -> str:
    return hashlib.sha256(array.tobytes()).hexdigest()


# Every workload, test and demo renders its images from these generators, so
# their bytes are pinned: a rewrite must reproduce them exactly.
CORPUS_SHA256 = {
    ("fine_texture", 8): "6b4eb0c38c9489361e0fa93cd9b1ec03643a31e98ef1c9a02ff4642a13a09c52",
    ("smooth_blobs", 8): "87fb46078e27d820afad9201565395431a63562778fb13628199a05523356919",
    ("soft_gradient", 8): "4374998989fa3b9b2f2ac1a2c1e33243c99f4a69b7f5c8ce541bfa95fb70a3fe",
    ("fine_texture", 100): "59c4f7737043c8dd6119386945b0fb4e93b6314a2dfa7dd4fe0834860bc3926e",
    ("smooth_blobs", 100): "d4f28fecf5cda4d24c4e7450c5531eaf05ec19de6d6d04d8b0a7df90f5e4e3dd",
    ("soft_gradient", 100): "3ee14b57a4b96bb88715c369ed7818cbf142e140d27623dd597494bebb050642",
    ("fine_texture", 511): "3a0f3b7f2330849f7475eeaffbc334d0446313acc7544d8d03134afd5efe3e28",
    ("smooth_blobs", 511): "e0ba47e7bfd35df6ac3d238e25cb63f44fbb8df907c7dd17e81dab4d886b366e",
    ("soft_gradient", 511): "db5d2cebb23a5f8a35b2f75b622b20b1aa457d4c9ef2107bdf140eb605ab6994",
    ("fine_texture", 512): "3a09173c52afea2676d3bd8b8def6e6e86515766938648b2caca64836fa25ad6",
    ("smooth_blobs", 512): "663e0d71752163cb6d7fee94ac8afee1ba12643862d3f5ed55a168aef80ebc7f",
    ("soft_gradient", 512): "63150cc65fc69ba77dd2634f00852eca45e7ecff69381efd938be469a19661d5",
}


class TestPinnedBytes:
    @pytest.mark.parametrize("name, size", sorted(CORPUS_SHA256))
    def test_corpus_image(self, name, size):
        img = corpus_image(name, size)
        assert (img.width, img.height) == (size, size)
        assert sha256(img.pixels) == CORPUS_SHA256[name, size]

    def test_logo_watermark(self):
        assert sha256(logo_watermark().bits) == (
            "2ec0a8a3961e63e629971ca729cbe4c5cffb95facde6ce7d4c05c647a3d1d310"
        )

    def test_random_watermark(self):
        assert sha256(random_watermark(7).bits) == (
            "cf432a0eb058aeb52f879b29223d946e7ffeb500f1ed184d9a293269db724a54"
        )


class TestCorpusImage:
    @pytest.mark.parametrize("name", CORPUS_NAMES)
    def test_peak_stays_under_ten_float_planes(self, name):
        # The noise is blended separably and each channel is written straight
        # into the uint8 result, so no full-size gather or float RGB stack lives.
        size = 512
        _, peak = traced_peak(corpus_image, name, size)
        assert peak <= 10 * size * size * 8

    @pytest.mark.parametrize("size", [0, -1])
    def test_bad_size_is_named(self, size):
        with pytest.raises(ValueError, match=rf"^corpus image size must be at least 1, got {size}$"):
            corpus_image("smooth_blobs", size)

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown corpus image 'nope'"):
            corpus_image("nope")


class TestCorpusTool:
    def test_main_writes_the_corpus_files(self, tmp_path, capsys):
        assert main([str(tmp_path)]) == 0
        expected = {f"{name}.ppm": write_rgb_image(corpus_image(name)) for name in CORPUS_NAMES}
        expected["logo.pbm"] = write_watermark(logo_watermark())
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(expected)
        for filename, data in expected.items():
            assert (tmp_path / filename).read_bytes() == data
        assert capsys.readouterr().out.split() == [str(tmp_path / f) for f in expected]
