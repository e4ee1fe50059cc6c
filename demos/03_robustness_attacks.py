"""The robustness experiment grid: crop, compression ladder, grayscale.

Extraction only reads luminance signs at 1024 known pixels, so attacks
that preserve central luminance (border crop, grayscale) leave the
watermark fully intact, while DCT quantization erodes it gradually as
quality drops. A similarity above 0.5 still counts as a detection.
"""

from lumamark import decide, embed, extract, psnr, similarity
from lumamark.attacks import (
    center_keep_rect,
    compress_attack,
    crop_attack,
    grayscale_attack,
)
from lumamark.testimages import CORPUS_NAMES, corpus_image, logo_watermark


def run_grid(name, logo):
    image = corpus_image(name)
    marked = embed(image, logo)
    keep = center_keep_rect(image.width, image.height)
    rows = [
        ("no change", marked, True),
        ("crop (keep center)", crop_attack(marked, keep), True),
        ("compress q=0.75", compress_attack(marked, 0.75), True),
        ("grayscale", grayscale_attack(marked), False),
    ]
    print(f"{name} ({image.width}x{image.height})")
    print(f"  {'test':<20} {'psnr_db':>8} {'sigma':>6} {'matched':>8}")
    for label, attacked, with_psnr in rows:
        psnr_text = f"{psnr(image, attacked):.3f}" if with_psnr else "-"
        sigma = similarity(logo, extract(image, attacked))
        print(f"  {label:<20} {psnr_text:>8} {sigma:6.3f} {str(decide(sigma)).lower():>8}")
    print()


def compression_ladder(name, logo):
    image = corpus_image(name)
    marked = embed(image, logo)
    steps = []
    for quality in (1.0, 0.9, 0.75, 0.5, 0.25):
        sigma = similarity(logo, extract(image, compress_attack(marked, quality)))
        steps.append(f"q={quality}: {sigma:.3f}")
    print(f"{name} compression ladder -> " + "  ".join(steps))


def main():
    logo = logo_watermark()
    for name in CORPUS_NAMES:
        run_grid(name, logo)

    print("similarity decays monotonically as quality drops:")
    for name in CORPUS_NAMES:
        compression_ladder(name, logo)


if __name__ == "__main__":
    main()
