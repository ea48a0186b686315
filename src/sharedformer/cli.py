"""Command-line interface: synth, pretrain, diagnose, probe.

Exit codes: 0 success, 2 bad input or contract violation, 3 I/O failure,
4 training divergence, 5 internal invariant violation.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .config import PRESETS, SECTIONS, RunConfig, apply_override, apply_preset, load_config
from .diagnostics import (collect_traces, flop_report, gradient_decomposition,
                          layer_transitions, project_2d, sli_sweep, write_report)
from .encoder import (Checkpoint, ConformerConfig, load_checkpoint, param_count,
                      store_from_checkpoint)
from .errors import (ConfigError, ContractError, DimensionError,
                     DivergenceError, InputError, InvariantError,
                     SharedformerError)
from .features import (LabeledCorpus, load_features, load_labels, save_features,
                       save_labels, synth_corpus)
from .training import parse_depth, train, train_state


def _split_overrides(argv: list[str]) -> tuple[list[str], list[tuple[str, str]]]:
    """Pull --section.key=value flags out of argv before argparse sees them."""
    plain, overrides = [], []
    for arg in argv:
        if arg.startswith("--") and "." in arg.split("=", 1)[0] and "=" in arg:
            dotted, _, value = arg[2:].partition("=")
            overrides.append((dotted, value))
        else:
            plain.append(arg)
    return plain, overrides


def _build_config(args, overrides) -> RunConfig:
    cfg = load_config(args.config) if args.config else RunConfig()
    if args.preset:
        apply_preset(cfg, args.preset)
    for dotted, value in overrides:
        apply_override(cfg, dotted, value)
    cfg.validate()
    return cfg


def _load_corpus(path, input_dim: int, labels_path=None) -> LabeledCorpus:
    """The corpus at `path`, non-empty and of the feature dim of the model that runs."""
    sequences = load_features(path)
    if not sequences:
        raise InputError(f"feature file {path} holds no utterances: the corpus is empty")
    labels, num_classes = ([], 0)
    if labels_path is not None:
        by_id, num_classes = load_labels(labels_path)
        labels = []
        for seq in sequences:
            if seq.utterance_id not in by_id:
                raise InputError(f"no labels for utterance {seq.utterance_id!r}")
            labels.append(by_id[seq.utterance_id])
    corpus = LabeledCorpus(sequences, labels, num_classes)
    corpus.check_dim(input_dim)
    return corpus


# ---- subcommands -------------------------------------------------------------


def cmd_synth(args, cfg: RunConfig, ckpt: Checkpoint | None) -> int:
    d = cfg.data
    corpus = synth_corpus(d.seed, d.num_utts, (d.t_min, d.t_max), d.dim,
                          d.num_classes, d.noise_sigma)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    save_features(corpus.sequences, out / "features.bin")
    save_labels(corpus, out / "labels.bin")
    cfg.write_echo(out)
    frames = sum(s.num_frames for s in corpus.sequences)
    print(f"wrote {d.num_utts} utterances, {frames} frames, {d.num_classes} classes to {out}")
    return 0


def cmd_pretrain(args, cfg: RunConfig, ckpt: Checkpoint | None) -> int:
    if ckpt is not None:  # a resume continues its run's streams: --train.seed is for a fresh run
        seed = train_state(ckpt[0]).seed
        if seed is not None:
            cfg.train.seed = seed
        echo = Path(args.out) / "resolved_config.ini"
        if echo.exists():  # the run's own settings: a resume may only move max_steps
            run = load_config(echo)
            run.train.max_steps = cfg.train.max_steps
            for name in SECTIONS:
                for f in fields(getattr(cfg, name)):
                    was, now = (getattr(getattr(c, name), f.name) for c in (run, cfg))
                    if was != now:
                        raise ConfigError(f"resume cannot change {name}.{f.name} from {was} to "
                                          f"{now}: only train.max_steps may change")
    corpus = _load_corpus(args.data, cfg.model.input_dim)
    result = train(corpus, cfg.model, cfg.train, cfg.mask, out_dir=Path(args.out),
                   resume_from=ckpt, echo=cfg.echo())
    best = (f"best validation loss {result.best_val_loss:.6f} at step {result.best_step}"
            if result.best_step else "no validation point ran")
    print(f"trained to step {cfg.train.max_steps}; {best}")
    return 0


def cmd_diagnose(args, cfg: RunConfig, ckpt: Checkpoint | None) -> int:
    # each branch creates --out only once its checks and its computation pass,
    # so a rejected run leaves no output directory behind
    out = Path(args.out)
    if args.which == "flops":
        rep = flop_report(cfg.model, cfg.diag.flop_frames)
        low, high = parse_depth(cfg.train.depth)
        shared, unshared = (param_count(replace(cfg.model, share_params=share))["total_encoder"]
                            for share in (True, False))
        rows2 = [["expected_training_ratio", rep.expected_training_ratio(low, high)],
                 ["sli_ratio_min_layers", rep.sli_ratio_at(low)],
                 ["params_per_layer", param_count(cfg.model)["per_layer"]],
                 ["params_encoder_shared", shared],
                 ["params_encoder_unshared", unshared],
                 ["param_reduction", unshared / shared]]
        rows = [[n, rep.flops(n), rep.block_flops(n)]
                for n in range(1, cfg.model.max_layers + 1)]
        cfg.write_echo(out)
        write_report(out / "flops", ["layers", "total_macs", "block_macs"], rows)
        write_report(out / "flop_ratios", ["quantity", "value"], rows2)
        print(f"wrote FLOP report for {cfg.model.max_layers}-layer model to {out}")
        return 0

    if ckpt is None or not args.data:
        raise InputError(f"diagnose --which={args.which} needs --checkpoint and --data")
    if args.which == "grads" and cfg.diag.grad_depth > cfg.model.max_layers:
        raise ConfigError(f"diag.grad_depth={cfg.diag.grad_depth} is above the checkpoint's "
                          f"model.max_layers={cfg.model.max_layers}")
    corpus = _load_corpus(args.data, cfg.model.input_dim)
    if args.which == "grads":
        with ad.precision("float64"):
            store64 = store_from_checkpoint(*ckpt)
            batch = corpus.sequences[:cfg.train.batch_size]
            decomp = gradient_decomposition(store64, batch, cfg.diag.grad_depth, cfg.mask)
            decomp.assert_sum_identity()
        rows = [[i + 1, decomp.norms[i]] for i in range(len(decomp.norms))]
        cfg.write_echo(out)
        write_report(out / "grad_norms", ["layer", "contribution_norm"], rows)
        rows2 = [["sum_rel_error", decomp.sum_rel_error],
                 ["total_norm", float(np.linalg.norm(decomp.total))],
                 ["last_layer_ratio", decomp.last_layer_ratio],
                 ["mean_pairwise_cosine", float(
                     decomp.pairwise_cosine[np.triu_indices(len(decomp.norms), 1)].mean())
                     if len(decomp.norms) > 1 else 1.0]]
        write_report(out / "grad_summary", ["quantity", "value"], rows2)
        print(f"gradient decomposition over {len(decomp.norms)} layers written to {out}")
        return 0

    store = store_from_checkpoint(*ckpt)
    if args.which == "transitions":
        idx = list(range(len(corpus.sequences)))
        report = layer_transitions(collect_traces(store, corpus, idx, cfg.mask))
        rows = [[i, i + 1, report.l2_mean[i], report.cos_mean[i]]
                for i in range(len(report.l2_mean))]
        cfg.write_echo(out)
        write_report(out / "transitions", ["layer_from", "layer_to", "l2_mean", "cos_mean"], rows)
        print(f"wrote {len(rows)} transition rows ({report.num_frames} frames) to {out}")
        return 0

    idx = [cfg.diag.utterance]
    if idx[0] >= len(corpus.sequences):
        raise InputError(f"diag.utterance={idx[0]} but corpus has {len(corpus.sequences)} utterances")
    trace = collect_traces(store, corpus, idx, cfg.mask)
    end = min(cfg.diag.frame_end, trace.embeddings[0].shape[0])
    proj = project_2d(trace, (cfg.diag.frame_start, end))
    rows = []
    for layer, coords in enumerate(proj.coords):
        for frame, (pc1, pc2) in enumerate(coords):
            rows.append([layer, cfg.diag.frame_start + frame, float(pc1), float(pc2)])
    cfg.write_echo(out)
    write_report(out / "projection", ["layer", "frame", "pc1", "pc2"], rows)
    print(f"wrote 2-D projection ({len(rows)} points, degenerate={proj.degenerate}) to {out}")
    return 0


def cmd_probe(args, cfg: RunConfig, ckpt: Checkpoint | None) -> int:
    try:
        layers = [int(tok) for tok in args.layers.split(",") if tok.strip()]
    except ValueError:
        raise InputError(f"--layers must be comma-separated integers, got {args.layers!r}") from None
    if not layers:
        raise InputError(f"--layers names no depth, got {args.layers!r}")
    store = store_from_checkpoint(*ckpt)
    corpus = _load_corpus(args.data, cfg.model.input_dim, args.labels)
    if len(set(layers)) != len(layers):
        print("warning: duplicate layer entries removed", file=sys.stderr)
    results = sli_sweep(store, corpus, layers, seed=cfg.train.seed)
    out = Path(args.out)
    cfg.write_echo(out)
    rows = [[r.layer, r.accuracy] for r in results]
    write_report(out / "sweep", ["layer", "accuracy"], rows)
    for r in results:
        print(f"layer {r.layer}: frame accuracy {r.accuracy:.4f}")
    return 0


# ---- entry point -------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="sharedformer",
        description="Parameter-shared Conformer pretraining with sampled depth, "
                    "shallow inference, and layer-similarity diagnostics.")
    p.add_argument("--config", help="config file ([section] key=value lines)")
    p.add_argument("--preset", help=f"named preset: {', '.join(PRESETS)}")
    sub = p.add_subparsers(dest="command", required=True)

    s = sub.add_parser("synth", help="generate the synthetic labeled corpus")
    s.add_argument("--out", required=True)

    s = sub.add_parser("pretrain", help="run masked-reconstruction pretraining")
    s.add_argument("--data", required=True, help="feature file")
    s.add_argument("--out", required=True)
    s.add_argument("--resume", dest="checkpoint", help="checkpoint to resume from")

    s = sub.add_parser("diagnose", help="run one diagnostic and write reports")
    s.add_argument("--checkpoint")
    s.add_argument("--data")
    s.add_argument("--out", required=True)
    s.add_argument("--which", required=True,
                   choices=["transitions", "grads", "project", "flops"])

    s = sub.add_parser("probe", help="linear probes over shallow-inference depths")
    s.add_argument("--checkpoint", required=True)
    s.add_argument("--data", required=True)
    s.add_argument("--labels", required=True)
    s.add_argument("--layers", required=True,
                   help="comma-separated depths in 0..max_layers, e.g. 0,2,5,8 "
                        "(0 is the frontend output)")
    s.add_argument("--out", required=True)

    return p


_HANDLERS = {"synth": cmd_synth, "pretrain": cmd_pretrain,
             "diagnose": cmd_diagnose, "probe": cmd_probe}


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    plain, overrides = _split_overrides(argv)
    try:
        args = build_parser().parse_args(plain)
    except SystemExit as e:  # argparse rejected the command line (exit 2) or printed --help
        return e.code
    try:
        cfg = _build_config(args, overrides)
        ckpt = None
        if getattr(args, "checkpoint", None) is not None:  # the command's one read of it
            ckpt = load_checkpoint(args.checkpoint)
            cfg.model = ConformerConfig.from_dict(ckpt[0])  # --model.* is for a fresh model
        return _HANDLERS[args.command](args, cfg, ckpt)
    except (InputError, ContractError, ConfigError, DimensionError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except DivergenceError as e:
        print(f"divergence: {e}", file=sys.stderr)
        return 4
    except InvariantError as e:
        print(f"invariant violation: {e}", file=sys.stderr)
        return 5
    except OSError as e:
        print(f"I/O error: {e}", file=sys.stderr)
        return 3
    except SharedformerError as e:
        print(f"error: {e}", file=sys.stderr)
        return 5


if __name__ == "__main__":
    sys.exit(main())
