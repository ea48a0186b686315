#!/usr/bin/env python3
"""Train the shared and unshared desk models and compare their diagnostics.

Reproduces the core comparison on the synthetic corpus: a parameter-shared
encoder trained with uniformly sampled depth against an unshared baseline at
fixed full depth. Writes metrics, checkpoints, transition reports, and a
shallow-inference probe sweep for both models, then prints a summary.

Usage:
    python3 scripts/run_desk_comparison.py --out runs/desk [--steps 2000]
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from sharedformer.config import DataSection, DiagSection
from sharedformer.diagnostics import (collect_traces, flop_report,
                                      gradient_decomposition, layer_transitions,
                                      sli_sweep, write_report)
from sharedformer.encoder import ConformerConfig
from sharedformer.errors import ConfigError, InputError
from sharedformer.features import synth_corpus
from sharedformer.training import TrainConfig, parse_depth, split_corpus, train


def probe_depths(text: str, max_layers: int) -> list[int]:
    """The --probe-layers depths, each an integer in 0..max_layers."""
    try:
        layers = [int(tok) for tok in text.split(",")]
    except ValueError:
        raise InputError(f"--probe-layers must be comma-separated integers, got {text!r}") from None
    bad = [m for m in layers if not 0 <= m <= max_layers]
    if bad:
        raise InputError(f"--probe-layers depths must be in 0..{max_layers}, got {bad}")
    return layers


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", required=True, help="output directory")
    ap.add_argument("--steps", type=int, default=2000)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--corpus-seed", type=int, default=DataSection().seed)
    ap.add_argument("--probe-layers", default="2,3,4,5,6,7,8")
    args = ap.parse_args()

    variants = {
        "shared_u28": (ConformerConfig(share_params=True), "uniform:2:8"),
        "unshared_8": (ConformerConfig(share_params=False), "fixed:8"),
    }
    # every input is checked before the first model trains
    try:
        train_cfgs = {tag: TrainConfig(max_steps=args.steps, seed=args.seed, depth=depth)
                      for tag, (_, depth) in variants.items()}
        layers = probe_depths(args.probe_layers,
                              min(m.max_layers for m, _ in variants.values()))
    except (ConfigError, InputError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2

    out = Path(args.out)
    d = DataSection()
    corpus = synth_corpus(args.corpus_seed, d.num_utts, (d.t_min, d.t_max), d.dim,
                          d.num_classes, d.noise_sigma)
    eval_idx = split_corpus(corpus, args.seed, 0.1)[1]

    summary = {}
    for tag, (model_cfg, depth) in variants.items():
        cfg = train_cfgs[tag]
        print(f"== training {tag} for {args.steps} steps")
        result = train(corpus, model_cfg, cfg, out_dir=out / tag)

        report = layer_transitions(collect_traces(result.store, corpus, eval_idx))
        rows = [[i, i + 1, report.l2_mean[i], report.cos_mean[i]]
                for i in range(len(report.l2_mean))]
        write_report(out / tag / "transitions",
                     ["layer_from", "layer_to", "l2_mean", "cos_mean"], rows)

        sweep = sli_sweep(result.store, corpus, layers, seed=args.seed)
        write_report(out / tag / "sweep", ["layer", "accuracy"],
                     [[r.layer, r.accuracy] for r in sweep])

        summary[tag] = {
            "final_train_loss": result.metrics[-1]["train_loss"],
            "best_val_loss": result.best_val_loss,
            "cum_layer_apps": result.cum_layer_apps,
            "mean_cosine_2_8": report.mean_cosine(from_layer=2),
            "probe": {r.layer: r.accuracy for r in sweep},
        }
        if model_cfg.share_params:
            decomp = gradient_decomposition(result.store, corpus.sequences[:8], 8)
            decomp.assert_sum_identity()
            write_report(out / tag / "grad_norms", ["layer", "contribution_norm"],
                         [[i + 1, n] for i, n in enumerate(decomp.norms)])
            summary[tag]["grad_last_layer_ratio"] = decomp.last_layer_ratio

    print("\n== summary")
    for tag, s in summary.items():
        print(f"{tag}: final loss {s['final_train_loss']:.4f}, "
              f"best val {s['best_val_loss']:.4f}, "
              f"layer apps {s['cum_layer_apps']}, "
              f"mean cosine(2..8) {s['mean_cosine_2_8']:.4f}")
        accs = " ".join(f"M={m}:{a:.3f}" for m, a in sorted(s["probe"].items()))
        print(f"  probe accuracy {accs}")
    a, b = summary["shared_u28"], summary["unshared_8"]
    model_cfg, depth = variants["shared_u28"]
    expected = flop_report(model_cfg, DiagSection().flop_frames).expected_training_ratio(
        *parse_depth(depth))
    print(f"\ntraining compute ratio (shared/unshared): "
          f"{a['cum_layer_apps'] / b['cum_layer_apps']:.4f} (expected {expected})")
    print(f"layer-consistency gap: {a['mean_cosine_2_8'] - b['mean_cosine_2_8']:+.4f} "
          f"(positive means sharing + depth sampling raised consistency)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
