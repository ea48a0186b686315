#!/usr/bin/env python3
"""Report parameter counts and compute ratios for the full-scale preset.

No training happens at this scale; the script documents what sharing and
depth policies buy on the 8-layer, 512-dim architecture.

Usage:
    python3 scripts/report_paper_scale.py [--frames 100]
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from sharedformer.diagnostics import flop_report
from sharedformer.encoder import ConformerConfig, param_count


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--frames", type=int, default=100,
                    help="utterance length used for the compute estimate")
    args = ap.parse_args()

    base = dict(input_dim=80, model_dim=512, num_heads=4, ff_dim=2048,
                conv_kernel=15, max_layers=8)
    shared = param_count(ConformerConfig(**base))
    unshared = param_count(ConformerConfig(share_params=False, **base))

    print("parameters (full-scale architecture):")
    print(f"  per layer            {shared['per_layer'] / 1e6:8.2f}M")
    print(f"  shared encoder       {shared['total_encoder'] / 1e6:8.2f}M")
    print(f"  unshared encoder     {unshared['total_encoder'] / 1e6:8.2f}M")
    layer_ratio = ((unshared["total_encoder"] - unshared["frontend"])
                   / (shared["total_encoder"] - shared["frontend"]))
    print(f"  layer-portion ratio  {layer_ratio:8.1f}x")

    rep = flop_report(ConformerConfig(**base), args.frames)
    print(f"\ncompute at T={args.frames} (multiply-accumulates):")
    for n in (2, 5, 8):
        print(f"  {n} layers: {rep.flops(n) / 1e6:10.1f}M total, "
              f"{rep.block_flops(n) / 1e6:10.1f}M in blocks")
    print(f"  shallow inference M=5 vs full: {rep.sli_ratio_at(5):.3f} of block compute")
    print(f"  uniform depth sampling U(2,8): {rep.expected_training_ratio(2, 8):.3f} "
          f"of fixed-depth training block compute")


if __name__ == "__main__":
    main()
