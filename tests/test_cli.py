import json
import os
import struct
from dataclasses import replace

import numpy as np
import pytest

from sharedformer import autodiff as ad
from sharedformer.autodiff import Tensor
from sharedformer.cli import main
from sharedformer.config import PRESETS, RunConfig, apply_preset, load_config
from sharedformer.encoder import (ConformerConfig, ParameterStore, load_checkpoint,
                                  param_count, save_checkpoint, store_from_checkpoint)
from sharedformer.errors import ConfigError, FormatError
from sharedformer.features import FeatureSequence, load_features, save_features

QUICK = [
    "--data.num_utts=14", "--data.t_min=15", "--data.t_max=25",
    "--train.max_steps=4", "--train.warmup_steps=2", "--train.batch_size=4",
    "--train.validation_every=2",
]


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("corpus")
    assert main(["synth", "--out", str(out)] + QUICK) == 0
    return out


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory, corpus_dir):
    out = tmp_path_factory.mktemp("run")
    code = main(["pretrain", "--data", str(corpus_dir / "features.bin"),
                 "--out", str(out)] + QUICK)
    assert code == 0
    return out


# ---- synth -------------------------------------------------------------------


def test_synth_outputs(corpus_dir, capsys):
    assert (corpus_dir / "features.bin").exists()
    assert (corpus_dir / "labels.bin").exists()
    assert (corpus_dir / "resolved_config.ini").exists()
    seqs = load_features(corpus_dir / "features.bin")
    assert len(seqs) == 14
    assert all(15 <= s.num_frames <= 25 for s in seqs)


def test_synth_deterministic(tmp_path, corpus_dir):
    assert main(["synth", "--out", str(tmp_path)] + QUICK) == 0
    assert (tmp_path / "features.bin").read_bytes() == (corpus_dir / "features.bin").read_bytes()
    assert (tmp_path / "labels.bin").read_bytes() == (corpus_dir / "labels.bin").read_bytes()


def test_synth_echo_reflects_overrides(corpus_dir):
    echo = (corpus_dir / "resolved_config.ini").read_text()
    assert "num_utts=14" in echo
    assert "[data]" in echo and "[train]" in echo


def test_synth_empty_corpus_warns(tmp_path, capsys):
    assert main(["synth", "--out", str(tmp_path), "--data.num_utts=0"]) == 0
    assert "empty corpus" in capsys.readouterr().err


def test_unknown_override_key_is_input_error(tmp_path, capsys):
    code = main(["synth", "--out", str(tmp_path), "--data.bogus=1"])
    assert code == 2
    assert "bogus" in capsys.readouterr().err


def test_unknown_preset_is_input_error(tmp_path, capsys):
    assert main(["--preset", "huge", "synth", "--out", str(tmp_path)]) == 2


def test_missing_config_file_is_input_error(tmp_path, capsys):
    code = main(["--config", str(tmp_path / "nope.ini"), "synth", "--out", str(tmp_path)])
    assert code == 2


@pytest.mark.parametrize("flag", ["--train.max_steps=abc", "--model.dropout=high",
                                  "--model.share_params=maybe"])
def test_malformed_config_value_is_input_error(tmp_path, capsys, flag):
    assert main(["synth", "--out", str(tmp_path), flag]) == 2
    assert flag[2:].split("=")[0] in capsys.readouterr().err


def test_threads_key_in_config_file_is_unknown(tmp_path, capsys):
    ini = tmp_path / "run.ini"
    ini.write_text("[train]\nthreads=2\n")
    assert main(["--config", str(ini), "synth", "--out", str(tmp_path)]) == 2
    assert "threads" in capsys.readouterr().err


@pytest.mark.parametrize("text", [
    b"[train]\nmax_steps=2\n[train]\nbatch_size=2\n",
    b"max_steps=2\n",
    b"[train]\nmax_steps\n",
    b"[train]\nmax_steps=2\xff\n",
    b"[train]\nmax_steps=2\nmax_steps=3\n",
    b"[DEFAULT]\nseed=5\n[train]\nmax_steps=2\n[data]\nnum_utts=2\n",
], ids=["duplicate-section", "no-section-header", "no-equals", "non-utf8", "duplicate-option",
        "default-section"])
def test_malformed_config_file_is_input_error(tmp_path, capsys, text):
    ini = tmp_path / "run.ini"
    ini.write_bytes(text)
    out = tmp_path / "out"
    assert main(["--config", str(ini), "synth", "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


def test_default_section_is_an_unknown_section(tmp_path):
    ini = tmp_path / "run.ini"
    ini.write_text("[DEFAULT]\nseed=5\n[train]\nmax_steps=2\n[data]\nnum_utts=2\n")
    with pytest.raises(ConfigError, match="DEFAULT"):
        load_config(ini)


@pytest.mark.parametrize("preset", [None, *PRESETS])
def test_resolved_config_reloads_to_the_same_config(tmp_path, preset):
    cfg = RunConfig()
    if preset is not None:
        apply_preset(cfg, preset)
    cfg.write_echo(tmp_path)
    assert load_config(tmp_path / "resolved_config.ini") == cfg


@pytest.mark.parametrize("argv", [
    ["pretrain", "--train.validation_every=0"],
    ["pretrain", "--train.max_steps=-3"],
    ["pretrain", "--mask.policy=bogus"],
    ["pretrain", "--mask.policy=tera", "--mask.p_zero=1.5"],
    ["pretrain", "--train.depth=uniform:2:9"],
    ["pretrain", "--mask.ratio=0.7"],
    ["pretrain", "--mask.block_len=0"],
    ["pretrain", "--train.precision=float16"],
    ["pretrain", "--model.min_layers=2"],
    ["pretrain", "--model.num_heads=0"],
    ["pretrain", "--model.model_dim=4", "--model.num_heads=4"],
    ["pretrain", "--model.model_dim=1", "--model.num_heads=1", "--model.pos_bias=none"],
    ["pretrain", "--model.ff_dim=0"],
    ["pretrain", "--train.val_fraction=nan"],
    ["pretrain", "--train.val_fraction=0"],
    ["pretrain", "--train.val_fraction=1"],
    ["pretrain", "--train.peak_scale=0"],
    ["pretrain", "--train.peak_scale=-1"],
    ["pretrain", "--train.peak_scale=inf"],
    ["pretrain", "--train.peak_scale=nan"],
    ["pretrain", "--train.grad_clip=-1"],
    ["pretrain", "--train.grad_clip=inf"],
    ["pretrain", "--train.grad_clip=nan"],
    ["synth", "--data.noise_sigma=nan"],
    ["synth", "--data.noise_sigma=-0.1"],
    ["synth", "--data.noise_sigma=inf"],
    ["diagnose", "--which", "grads", "--diag.grad_depth=0"],
    ["diagnose", "--which", "grads", "--diag.grad_depth=9"],
    ["diagnose", "--which", "project", "--diag.utterance=-1"],
    ["probe", "--layers", "2,x"],
    ["probe", "--layers", ","],
    ["probe", "--layers", ""],
    ["probe", "--layers", "9"],
    ["probe", "--layers", "-1"],
    ["diagnose", "--which", "project", "--diag.utterance=99"],
    ["synth", "--data.num_classes=70000"],
    ["synth", "--data.num_utts=-3"],
    ["diagnose", "--which", "project", "--diag.frame_start=-5"],
    ["diagnose", "--which", "flops", "--diag.flop_frames=-4"],
    ["synth", "--data.seed=-1"],
    ["pretrain", "--train.seed=-1"],
    ["probe", "--layers", "2", "--train.seed=-3"],
], ids=lambda argv: " ".join(argv[1:]))
def test_bad_value_exits_before_any_output(tmp_path, corpus_dir, run_dir, capsys, argv):
    data = ["--data", str(corpus_dir / "features.bin")]
    ckpt = ["--checkpoint", str(run_dir / "final.ckpt")]
    inputs = {"synth": [], "pretrain": data, "diagnose": ckpt + data,
              "probe": ckpt + data + ["--labels", str(corpus_dir / "labels.bin")]}
    out = tmp_path / "out"
    # a short run comes first, so a case that slips through ends quickly
    short = ["--train.max_steps=2", "--train.batch_size=2"]
    assert main([argv[0], *inputs[argv[0]], *short, *argv[1:], "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    if "--diag.grad_depth=9" in argv:  # deeper than the 8-layer checkpoint
        assert "diag.grad_depth" in err
    assert not out.exists()


# ---- pretrain ----------------------------------------------------------------


def test_pretrain_outputs(run_dir):
    assert (run_dir / "final.ckpt").exists()
    assert (run_dir / "best.ckpt").exists()
    rows = [json.loads(l) for l in (run_dir / "metrics.jsonl").read_text().splitlines()]
    assert [r["step"] for r in rows] == [1, 2, 3, 4]
    assert all(np.isfinite(r["train_loss"]) for r in rows)


@pytest.mark.parametrize("case", ["missing-data", "missing-resume", "no-training-utterance",
                                  "bad-magic", "too-shallow", "dim-mismatch",
                                  "resume-dim-mismatch"])
def test_rejected_pretrain_input_leaves_no_output(tmp_path, corpus_dir, capsys, case):
    data = str(corpus_dir / "features.bin")
    (tmp_path / "random.ckpt").write_bytes(np.random.default_rng(0).bytes(100))
    four = ParameterStore.init(ConformerConfig(max_layers=4), np.random.default_rng(0))
    save_checkpoint(tmp_path / "four.ckpt", four)
    wide = ParameterStore.init(ConformerConfig(input_dim=20), np.random.default_rng(0))
    save_checkpoint(tmp_path / "wide.ckpt", wide)
    argv, code, prefix = {
        "missing-data": (["--data", str(tmp_path / "missing.bin")], 3, "I/O error: "),
        "missing-resume": (["--data", data, "--resume", str(tmp_path / "missing.ckpt")],
                           3, "I/O error: "),
        # 14 utterances at a 0.99 validation fraction leave none to train on
        "no-training-utterance": (["--data", data, "--train.val_fraction=0.99"], 2, "error: "),
        "bad-magic": (["--data", data, "--resume", str(tmp_path / "random.ckpt")], 2, "error: "),
        # a 4-layer checkpoint cannot train at depths up to 8
        "too-shallow": (["--data", data, "--resume", str(tmp_path / "four.ckpt"),
                         "--train.depth=uniform:2:8"], 2, "error: "),
        # the corpus has 16-dim frames; the model's input_dim comes from the
        # config, or from the checkpoint on resume
        "dim-mismatch": (["--data", data, "--model.input_dim=20"], 2, "error: "),
        "resume-dim-mismatch": (["--data", data, "--resume", str(tmp_path / "wide.ckpt")],
                                2, "error: "),
    }[case]
    out = tmp_path / "out"
    assert main(["pretrain", *argv, *QUICK, "--out", str(out)]) == code
    assert capsys.readouterr().err.startswith(prefix)
    assert not out.exists()


def test_rejected_resume_leaves_the_run_directory_as_it_was(tmp_path, corpus_dir, capsys):
    out = tmp_path / "out"
    data = ["--data", str(corpus_dir / "features.bin")]
    quick = [*QUICK[:-1], "--train.validation_every=3"]
    assert main(["pretrain", *data, *quick, "--train.max_steps=12", "--out", str(out)]) == 0
    (out / "metrics.jsonl").write_bytes(b"")
    echo = (out / "resolved_config.ini").read_bytes()
    assert b"max_steps=12" in echo
    # the empty file has lost the rows up to the checkpoint's step
    code = main(["pretrain", *data, *quick, "--train.max_steps=16", "--out", str(out),
                 "--resume", str(out / "best.ckpt")])
    assert code == 2
    assert "before the resume checkpoint" in capsys.readouterr().err
    assert (out / "resolved_config.ini").read_bytes() == echo
    assert (out / "metrics.jsonl").read_bytes() == b""


def test_resume_continues_under_the_checkpoint_seed(tmp_path, corpus_dir):
    data = ["--data", str(corpus_dir / "features.bin")]
    seeded = [*QUICK, "--train.seed=5"]
    assert main(["pretrain", *data, *seeded, "--train.max_steps=8",
                 "--out", str(tmp_path / "full")]) == 0
    assert main(["pretrain", *data, *seeded, "--out", str(tmp_path / "part")]) == 0
    # no --train.seed: the resume takes seed 5 from the checkpoint
    assert main(["pretrain", *data, *QUICK, "--train.max_steps=8", "--out", str(tmp_path / "part"),
                 "--resume", str(tmp_path / "part/final.ckpt")]) == 0
    for name in ("metrics.jsonl", "best.ckpt", "final.ckpt", "resolved_config.ini"):
        assert (tmp_path / "part" / name).read_bytes() == (tmp_path / "full" / name).read_bytes()
    assert "seed=5" in (tmp_path / "part/resolved_config.ini").read_text().split("[train]")[1]


def test_resume_below_the_checkpoint_step_is_rejected(tmp_path, corpus_dir, capsys):
    out = tmp_path / "out"
    data = ["--data", str(corpus_dir / "features.bin")]
    assert main(["pretrain", *data, *QUICK, "--train.max_steps=8", "--out", str(out)]) == 0
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    capsys.readouterr()
    resume = ["--out", str(out), "--resume", str(out / "final.ckpt")]
    assert main(["pretrain", *data, *QUICK, *resume]) == 2  # max_steps=4 < step 8
    assert "below the resume checkpoint's step 8" in capsys.readouterr().err
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before
    # resuming to the checkpoint's own step trains nothing and rewrites the same bytes
    assert main(["pretrain", *data, *QUICK, "--train.max_steps=8", *resume]) == 0
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


def _edit_config_line(ckpt, key, value):
    """Rewrite one key=value line of a checkpoint's config block in place."""
    data = ckpt.read_bytes()
    (size,) = struct.unpack_from("<I", data, 8)
    lines = data[12:12 + size].decode().splitlines(keepends=True)
    edited = [f"{key}={value}\n" if l.startswith(f"{key}=") else l for l in lines]
    assert edited != lines
    block = "".join(edited).encode()
    ckpt.write_bytes(data[:8] + struct.pack("<I", len(block)) + block + data[12 + size:])


def _first_row(out, row):
    path = out / "metrics.jsonl"
    rows = path.read_bytes().splitlines(keepends=True)
    path.write_bytes(row + b"\n" + b"".join(rows[1:]))


@pytest.mark.parametrize("doctor", [
    lambda out: _first_row(out, b"[" * 200_000),
    lambda out: _first_row(out, b'{"step": "1"}'),
    lambda out: _first_row(out, b'{"step": true}'),
    lambda out: _first_row(out, b'{"step": 1, "lr": {"nested": 1}}'),
    lambda out: _first_row(out, b"[1]"),
    lambda out: _edit_config_line(out / "final.ckpt", "train.step", "x"),
    lambda out: _edit_config_line(out / "final.ckpt", "train.step", "-2"),
    lambda out: _edit_config_line(out / "final.ckpt", "train.best_val_loss", "0.3.1"),
    lambda out: _edit_config_line(out / "final.ckpt", "train.best_val_loss", "nan"),
    lambda out: _edit_config_line(out / "final.ckpt", "train.cum_layer_apps", "1e3"),
    lambda out: _edit_config_line(out / "final.ckpt", "train.seed", "x"),
    lambda out: _edit_config_line(out / "final.ckpt", "train.seed", "-1"),
], ids=["deep-row", "string-step", "bool-step", "nested-row", "list-row", "step-x",
        "negative-step", "garbled-best-val", "nan-best-val", "float-layer-count",
        "garbled-seed", "negative-seed"])
def test_malformed_resume_input_is_input_error(tmp_path, corpus_dir, capsys, doctor):
    out = tmp_path / "out"
    data = ["--data", str(corpus_dir / "features.bin")]
    assert main(["pretrain", *data, *QUICK, "--out", str(out)]) == 0
    doctor(out)
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    capsys.readouterr()
    code = main(["pretrain", *data, *QUICK, "--train.max_steps=6", "--out", str(out),
                 "--resume", str(out / "final.ckpt")])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


def _rewrite_moments(path, per_name):
    """Checkpoint `path` rewritten without its flat adam.m and adam.v, or, when
    `per_name`, with them as one adam.m.<name> and adam.v.<name> per parameter."""
    ck_cfg, tensors = load_checkpoint(path)
    store = store_from_checkpoint(ck_cfg, tensors)
    moments = {f"{flat}.{name}": a for flat in ("adam.m", "adam.v") if per_name
               for name, a in store.unflatten(tensors[flat]).items()}
    save_checkpoint(path, store, {k: v for k, v in ck_cfg.items() if k.startswith("train.")},
                    moments)


@pytest.mark.parametrize("per_name", [False, True], ids=["no-moments", "per-name-moments"])
def test_resume_past_step_zero_without_flat_moments_is_input_error(tmp_path, corpus_dir,
                                                                   capsys, per_name):
    out = tmp_path / "out"
    data = ["--data", str(corpus_dir / "features.bin")]
    assert main(["pretrain", *data, *QUICK, "--out", str(out)]) == 0
    _rewrite_moments(out / "final.ckpt", per_name)
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    capsys.readouterr()
    code = main(["pretrain", *data, *QUICK, "--train.max_steps=6", "--out", str(out),
                 "--resume", str(out / "final.ckpt")])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: checkpoint at train.step=4 needs adam.m")
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before
    # the model itself still loads for the commands that read no moments
    assert main(["diagnose", "--which", "transitions", "--checkpoint", str(out / "final.ckpt"),
                 *data, "--out", str(tmp_path / "diag")]) == 0


@pytest.mark.parametrize("command", ["pretrain", "diagnose", "probe", "flops"])
def test_one_checkpoint_read_per_command(tmp_path, corpus_dir, run_dir, monkeypatch, command):
    from sharedformer import cli
    reads = []

    def counted(path):
        reads.append(path)
        return load_checkpoint(path)

    monkeypatch.setattr(cli, "load_checkpoint", counted)
    ckpt, data = str(run_dir / "final.ckpt"), str(corpus_dir / "features.bin")
    argv = {"pretrain": ["pretrain", "--resume", ckpt, *QUICK, "--train.max_steps=6"],
            "diagnose": ["diagnose", "--which", "grads", "--checkpoint", ckpt,
                         "--diag.grad_depth=2", "--train.batch_size=2"],
            "probe": ["probe", "--checkpoint", ckpt, "--layers", "2",
                      "--labels", str(corpus_dir / "labels.bin")],
            "flops": ["diagnose", "--which", "flops", "--checkpoint", ckpt]}[command]
    assert main([*argv, "--data", data, "--out", str(tmp_path / "out")]) == 0
    assert reads == [ckpt]


WIDE = ["--model.model_dim=32", "--model.ff_dim=64"]


@pytest.fixture(scope="module")
def wide_run(tmp_path_factory, corpus_dir):
    """A 6-step run of a 32-dim model, which the config's defaults do not describe."""
    out = tmp_path_factory.mktemp("wide")
    assert main(["pretrain", "--data", str(corpus_dir / "features.bin"), "--out", str(out),
                 *QUICK, *WIDE, "--train.max_steps=6"]) == 0
    return out


def test_resume_runs_the_checkpoint_model_without_its_flags(tmp_path, corpus_dir):
    data = ["--data", str(corpus_dir / "features.bin")]
    quick = [*QUICK[:-1], "--train.validation_every=3"]
    full, part = tmp_path / "full", tmp_path / "part"
    assert main(["pretrain", *data, *quick, *WIDE, "--train.max_steps=12",
                 "--out", str(full)]) == 0
    assert main(["pretrain", *data, *quick, *WIDE, "--train.max_steps=6",
                 "--out", str(part)]) == 0
    # the resume names no --model.* flag: the checkpoint's model runs, with
    # its learning rate schedule, and the echo shows it
    assert main(["pretrain", *data, *quick, "--train.max_steps=12", "--out", str(part),
                 "--resume", str(part / "final.ckpt")]) == 0
    for name in ("metrics.jsonl", "best.ckpt", "final.ckpt", "resolved_config.ini"):
        assert (part / name).read_bytes() == (full / name).read_bytes(), name
    assert load_config(part / "resolved_config.ini").model.model_dim == 32


@pytest.mark.parametrize("argv", [
    ["diagnose", "--which", "transitions"],
    ["diagnose", "--which", "grads", "--diag.grad_depth=2", "--train.batch_size=2"],
    ["diagnose", "--which", "project", "--diag.frame_end=10"],
    ["diagnose", "--which", "flops"],
    ["probe", "--layers", "2,8", "--labels", "LABELS"],
    ["pretrain", *QUICK, "--train.max_steps=8", "--resume"],
], ids=lambda argv: " ".join(argv[:3]) if argv[0] == "diagnose" else argv[0])
def test_checkpoint_commands_echo_the_checkpoint_model(tmp_path, corpus_dir, wide_run, argv):
    ckpt = wide_run / "final.ckpt"
    flag = [] if argv[-1] == "--resume" else ["--checkpoint"]
    argv = [str(corpus_dir / "labels.bin") if a == "LABELS" else a for a in argv]
    out = tmp_path / "out"
    assert main([*argv, *flag, str(ckpt), "--data", str(corpus_dir / "features.bin"),
                 "--out", str(out)]) == 0
    model = ConformerConfig.from_dict(load_checkpoint(ckpt)[0])
    assert model.model_dim == 32
    assert load_config(out / "resolved_config.ini").model == model


def test_depth_is_checked_against_the_checkpoint_model(tmp_path, corpus_dir):
    data = ["--data", str(corpus_dir / "features.bin")]
    deep = ["--train.depth=uniform:2:12", "--train.max_steps=2"]
    out = tmp_path / "deep"
    assert main(["pretrain", *data, *QUICK, "--model.max_layers=12", *deep,
                 "--out", str(out)]) == 0
    # 12 layers come from the checkpoint, not from a repeated --model.max_layers
    assert main(["pretrain", *data, *QUICK, *deep[:1], "--train.max_steps=4",
                 "--out", str(out), "--resume", str(out / "final.ckpt")]) == 0
    # the default train.depth (up to 8) is no reason to reject a 4-layer
    # checkpoint in a command that trains nothing
    four = ParameterStore.init(ConformerConfig(max_layers=4), np.random.default_rng(0))
    save_checkpoint(tmp_path / "four.ckpt", four)
    ckpt = ["--checkpoint", str(tmp_path / "four.ckpt"), *data]
    assert main(["probe", *ckpt, "--labels", str(corpus_dir / "labels.bin"),
                 "--layers", "2,4", "--out", str(tmp_path / "probe")]) == 0
    assert main(["diagnose", "--which", "transitions", *ckpt,
                 "--out", str(tmp_path / "transitions")]) == 0
    assert len((tmp_path / "transitions/transitions.csv").read_text().splitlines()) == 1 + 4


def test_pretrain_without_data_is_input_error(tmp_path, capsys):
    assert main(["pretrain", "--out", str(tmp_path)]) == 2
    assert "--data" in capsys.readouterr().err


def test_pretrain_config_file_steers_run(tmp_path, corpus_dir):
    ini = tmp_path / "run.ini"
    ini.write_text("[train]\nmax_steps=3\nwarmup_steps=2\nbatch_size=4\n"
                   "validation_every=2\n[data]\nnum_utts=14\n")
    out = tmp_path / "out"
    code = main(["--config", str(ini), "pretrain",
                 "--data", str(corpus_dir / "features.bin"), "--out", str(out)])
    assert code == 0
    rows = (out / "metrics.jsonl").read_text().splitlines()
    assert len(rows) == 3
    assert "max_steps=3" in (out / "resolved_config.ini").read_text()


def test_pretrain_bad_depth_spec_is_input_error(tmp_path, corpus_dir, capsys):
    code = main(["pretrain", "--data", str(corpus_dir / "features.bin"),
                 "--out", str(tmp_path), "--train.depth=linear:3"] + QUICK)
    assert code == 2


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the run diverges on purpose
def test_pretrain_divergence_exit_code(tmp_path, corpus_dir, capsys):
    code = main(["pretrain", "--data", str(corpus_dir / "features.bin"),
                 "--out", str(tmp_path), "--train.peak_scale=1e30",
                 "--train.warmup_steps=1", "--train.max_steps=10",
                 "--train.batch_size=4"] + ["--data.num_utts=14"])
    assert code == 4
    assert "divergence" in capsys.readouterr().err
    assert (tmp_path / "final.ckpt").exists()  # last good state is kept


def test_pretrain_non_finite_gradient_keeps_last_good_state(tmp_path, corpus_dir, monkeypatch):
    from sharedformer import training
    original = training.adam_step

    def poisoned(state, store, lr, **kwargs):
        if state.step == 2:  # the update of step 3
            store.params["predictor.b"].grad[0] = np.nan
        return original(state, store, lr, **kwargs)

    monkeypatch.setattr(training, "adam_step", poisoned)
    code = main(["pretrain", "--data", str(corpus_dir / "features.bin"),
                 "--out", str(tmp_path)] + QUICK)
    assert code == 4
    cfg, _ = load_checkpoint(tmp_path / "final.ckpt")
    assert cfg["train.step"] == "2"


def test_pretrain_checkpoint_write_failure_is_io_error(tmp_path, corpus_dir, monkeypatch, capsys):
    from sharedformer import encoder

    def disk_full(fd):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(encoder.os, "fsync", disk_full)
    code = main(["pretrain", "--data", str(corpus_dir / "features.bin"),
                 "--out", str(tmp_path)] + QUICK)
    assert code == 3
    assert "I/O error" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.ckpt*"))


def test_pretrain_resume_continues(tmp_path, corpus_dir, run_dir):
    out = tmp_path / "resumed"
    code = main(["pretrain", "--data", str(corpus_dir / "features.bin"),
                 "--out", str(out), "--resume", str(run_dir / "final.ckpt")]
                + QUICK[:-1] + ["--train.validation_every=2", "--train.max_steps=6"])
    assert code == 0
    rows = [json.loads(l) for l in (out / "metrics.jsonl").read_text().splitlines()]
    assert [r["step"] for r in rows] == [5, 6]


@pytest.mark.parametrize("depth", ["uniform:0:3", "fixed:0"])
def test_pretrain_depth_range_may_start_at_zero(tmp_path, corpus_dir, depth):
    code = main(["pretrain", "--data", str(corpus_dir / "features.bin"),
                 "--out", str(tmp_path), f"--train.depth={depth}"] + QUICK)
    assert code == 0
    rows = [json.loads(l) for l in (tmp_path / "metrics.jsonl").read_text().splitlines()]
    assert [r["step"] for r in rows] == [1, 2, 3, 4]
    assert all(0 <= r["sampled_depth"] <= 3 for r in rows)


KILLED = 86  # the exit status of a child stopped at its I/O boundary


def _pretrain_killed_at(argv, k):
    """Run `main(argv)` in a forked child that dies by os._exit at I/O boundary k.

    The boundaries are, in order: after each metrics row is flushed, after
    each checkpoint's .tmp file is written but before its os.replace, and
    after each os.replace. Like a SIGKILL, os._exit skips every buffer flush
    and `finally` block. Returns the child's exit status: KILLED, the status
    of a run that ended before boundary k, or 70 if the child raised.
    """
    pid = os.fork()
    if pid:
        return os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    try:  # the child: patched here only, and never returns to pytest
        from sharedformer import training
        passed = 0

        def boundary():
            nonlocal passed
            passed += 1
            if passed == k:
                os._exit(KILLED)

        class Rows:
            def __init__(self, f):
                self.f = f

            def write(self, text):
                self.f.write(text)

            def flush(self):
                self.f.flush()
                boundary()

            def fileno(self):
                return self.f.fileno()

            def close(self):
                self.f.close()

        replace_file = os.replace

        def replace_then_die(src, dst):
            boundary()
            replace_file(src, dst)
            boundary()

        training.open = lambda *args, **kwargs: Rows(open(*args, **kwargs))
        os.replace = replace_then_die
        os._exit(main(argv))
    finally:
        os._exit(70)


def test_killed_pretrain_resumes_to_the_same_bytes(tmp_path, capsys):
    assert main(["synth", "--out", str(tmp_path / "corpus"), "--data.num_utts=20",
                 "--data.t_min=15", "--data.t_max=25"]) == 0
    argv = ["pretrain", "--data", str(tmp_path / "corpus/features.bin"), *QUICK[4:-1],
            "--train.max_steps=8", "--train.validation_every=2"]
    assert main([*argv, "--out", str(tmp_path / "ref")]) == 0
    files = ("metrics.jsonl", "best.ckpt", "final.ckpt")
    ref = {name: (tmp_path / "ref" / name).read_bytes() for name in files}
    for k in range(1, 100):  # one child at a time, each killed one boundary later
        out = tmp_path / f"k{k}"
        status = _pretrain_killed_at([*argv, "--out", str(out)], k)
        if status == 0:  # the run ended before boundary k
            break
        assert status == KILLED, f"boundary {k}: exit status {status}"
        saved = [p for p in (out / "best.ckpt", out / "final.ckpt") if p.exists()]
        newest = max(saved, key=lambda p: int(load_checkpoint(p)[0]["train.step"]), default=None)
        resume = ["--resume", str(newest)] if newest else []
        assert main([*argv, "--out", str(out), *resume]) == 0, f"boundary {k}"
        for name in files:
            assert (out / name).read_bytes() == ref[name], f"boundary {k}: {name}"
    else:
        pytest.fail("the run never ended")
    rows = len(ref["metrics.jsonl"].splitlines())
    assert k - 1 >= rows + 2 * 2  # each row, and both boundaries of best.ckpt and final.ckpt


def test_checkpoint_with_min_layers_line_still_loads(tmp_path, run_dir):
    store = store_from_checkpoint(*load_checkpoint(run_dir / "final.ckpt"))
    save_checkpoint(tmp_path / "old.ckpt", store, {"min_layers": "2"})
    ck_cfg, tensors = load_checkpoint(tmp_path / "old.ckpt")
    assert ck_cfg["min_layers"] == "2"
    assert store_from_checkpoint(ck_cfg, tensors).config == store.config


# ---- diagnose ----------------------------------------------------------------


def test_diagnose_flops_from_defaults(tmp_path):
    assert main(["diagnose", "--which", "flops", "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "flops.csv").read_text().splitlines()
    assert lines[0] == "layers,total_macs,block_macs"
    assert len(lines) == 1 + 8
    ratios = {json.loads(l)["quantity"]: json.loads(l)["value"]
              for l in (tmp_path / "flop_ratios.jsonl").read_text().splitlines()}
    assert ratios["expected_training_ratio"] == pytest.approx(0.625)
    assert ratios["sli_ratio_min_layers"] == pytest.approx(0.25)


def test_paper_preset_flops_report_is_the_paper_table(tmp_path):
    assert main(["--preset", "paper", "diagnose", "--which", "flops",
                 "--out", str(tmp_path)]) == 0
    assert "model_dim=512" in (tmp_path / "resolved_config.ini").read_text()
    rows = [json.loads(l) for l in (tmp_path / "flops.jsonl").read_text().splitlines()]
    assert [r["layers"] for r in rows] == list(range(1, 9))
    block = {r["layers"]: r["block_macs"] for r in rows}
    assert block[5] / block[8] == 0.625  # shallow inference at M = 5 against full depth
    ratios = {json.loads(l)["quantity"]: json.loads(l)["value"]
              for l in (tmp_path / "flop_ratios.jsonl").read_text().splitlines()}
    assert ratios["expected_training_ratio"] == pytest.approx(0.625)
    assert ratios["sli_ratio_min_layers"] == pytest.approx(0.25)
    cfg = RunConfig()
    apply_preset(cfg, "paper")
    shared = param_count(cfg.model)
    unshared = param_count(replace(cfg.model, share_params=False))
    assert ratios["params_per_layer"] == shared["per_layer"]
    assert ratios["params_encoder_shared"] == shared["total_encoder"]
    assert ratios["params_encoder_unshared"] == unshared["total_encoder"]
    assert ratios["param_reduction"] == pytest.approx(
        unshared["total_encoder"] / shared["total_encoder"])


def test_pretrain_paper_preset_emits_config_only(tmp_path, capsys):
    # The paper preset trains nothing here: pretrain without --data writes nothing,
    # and the preset's config and analytic report come from diagnose --which flops.
    out = tmp_path / "out"
    assert main(["--preset", "paper", "pretrain", "--out", str(out)]) == 2
    assert "--data" in capsys.readouterr().err
    assert not out.exists()
    assert main(["--preset", "paper", "diagnose", "--which", "flops",
                 "--out", str(tmp_path)]) == 0
    assert not list(tmp_path.glob("*.ckpt*"))
    echo = (tmp_path / "resolved_config.ini").read_text()
    assert "model_dim=512" in echo and "warmup_steps=8000" in echo
    report = {json.loads(l)["quantity"]: json.loads(l)["value"]
              for l in (tmp_path / "flop_ratios.jsonl").read_text().splitlines()}
    assert report["expected_training_ratio"] == pytest.approx(0.625)
    assert report["params_encoder_shared"] > 1e6


def test_diagnose_flops_follow_train_depth(tmp_path):
    assert main(["diagnose", "--which", "flops", "--out", str(tmp_path),
                 "--train.depth=uniform:4:8"]) == 0
    ratios = {json.loads(l)["quantity"]: json.loads(l)["value"]
              for l in (tmp_path / "flop_ratios.jsonl").read_text().splitlines()}
    assert ratios["expected_training_ratio"] == pytest.approx(0.75)
    assert ratios["sli_ratio_min_layers"] == pytest.approx(0.5)


def test_diagnose_flops_depth_beyond_checkpoint_is_input_error(tmp_path):
    store = ParameterStore.init(ConformerConfig(max_layers=3), np.random.default_rng(0))
    save_checkpoint(tmp_path / "three.ckpt", store)
    out = tmp_path / "out"
    code = main(["diagnose", "--which", "flops", "--checkpoint", str(tmp_path / "three.ckpt"),
                 "--out", str(out)])
    assert code == 2
    assert not (out / "flops.csv").exists()


def test_diagnose_needs_checkpoint_and_data(tmp_path, capsys):
    code = main(["diagnose", "--which", "transitions", "--out", str(tmp_path)])
    assert code == 2
    assert "--checkpoint" in capsys.readouterr().err


def test_diagnose_transitions(tmp_path, corpus_dir, run_dir):
    code = main(["diagnose", "--which", "transitions",
                 "--checkpoint", str(run_dir / "final.ckpt"),
                 "--data", str(corpus_dir / "features.bin"), "--out", str(tmp_path)])
    assert code == 0
    rows = [json.loads(l) for l in (tmp_path / "transitions.jsonl").read_text().splitlines()]
    assert len(rows) == 8
    assert [r["layer_from"] for r in rows] == list(range(8))
    assert all(-1.0 <= r["cos_mean"] <= 1.0 for r in rows)


def test_diagnose_transitions_past_the_attention_tile_budget(tmp_path, corpus_dir, run_dir,
                                                            monkeypatch):
    # a budget of 8 cells per head: every 15-25 frame slot takes one-row
    # tiles wider than the budget in the forward-only pass
    monkeypatch.setattr(ad, "_TILE_BYTES", 8 * ConformerConfig().num_heads * 4)
    code = main(["diagnose", "--which", "transitions",
                 "--checkpoint", str(run_dir / "final.ckpt"),
                 "--data", str(corpus_dir / "features.bin"), "--out", str(tmp_path)])
    assert code == 0
    assert len((tmp_path / "transitions.jsonl").read_text().splitlines()) == 8


def test_diagnose_dim_mismatch_is_input_error(tmp_path, run_dir, capsys):
    other = tmp_path / "narrow"
    assert main(["synth", "--out", str(other), "--data.dim=8",
                 "--data.num_utts=4"]) == 0
    code = main(["diagnose", "--which", "transitions",
                 "--checkpoint", str(run_dir / "final.ckpt"),
                 "--data", str(other / "features.bin"), "--out", str(tmp_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert "16" in err and "8" in err


def test_diagnose_grads_sum_identity_holds(tmp_path, corpus_dir, run_dir):
    code = main(["diagnose", "--which", "grads",
                 "--checkpoint", str(run_dir / "final.ckpt"),
                 "--data", str(corpus_dir / "features.bin"),
                 "--out", str(tmp_path), "--diag.grad_depth=3",
                 "--train.batch_size=2"])
    assert code == 0
    summary = {json.loads(l)["quantity"]: json.loads(l)["value"]
               for l in (tmp_path / "grad_summary.jsonl").read_text().splitlines()}
    assert summary["sum_rel_error"] <= 1e-6
    norms = (tmp_path / "grad_norms.csv").read_text().splitlines()
    assert len(norms) == 1 + 3


def test_diagnose_project(tmp_path, corpus_dir, run_dir):
    code = main(["diagnose", "--which", "project",
                 "--checkpoint", str(run_dir / "final.ckpt"),
                 "--data", str(corpus_dir / "features.bin"),
                 "--out", str(tmp_path), "--diag.frame_end=10"])
    assert code == 0
    rows = [json.loads(l) for l in (tmp_path / "projection.jsonl").read_text().splitlines()]
    assert len(rows) == 9 * 10  # frontend plus 8 layers, 10 frames each
    assert {r["layer"] for r in rows} == set(range(9))


def test_diagnose_project_utterance_out_of_range(tmp_path, corpus_dir, run_dir, capsys):
    code = main(["diagnose", "--which", "project",
                 "--checkpoint", str(run_dir / "final.ckpt"),
                 "--data", str(corpus_dir / "features.bin"),
                 "--out", str(tmp_path), "--diag.utterance=99"])
    assert code == 2


# ---- probe -------------------------------------------------------------------


def test_probe_sweep_outputs(tmp_path, corpus_dir, run_dir, capsys):
    code = main(["probe", "--checkpoint", str(run_dir / "final.ckpt"),
                 "--data", str(corpus_dir / "features.bin"),
                 "--labels", str(corpus_dir / "labels.bin"),
                 "--layers", "8,2", "--out", str(tmp_path)])
    assert code == 0
    rows = [json.loads(l) for l in (tmp_path / "sweep.jsonl").read_text().splitlines()]
    assert [r["layer"] for r in rows] == [2, 8]
    assert all(0.0 <= r["accuracy"] <= 1.0 for r in rows)
    out = capsys.readouterr().out
    assert "layer 2" in out and "layer 8" in out


def test_probe_duplicate_layers_warns(tmp_path, corpus_dir, run_dir, capsys):
    code = main(["probe", "--checkpoint", str(run_dir / "final.ckpt"),
                 "--data", str(corpus_dir / "features.bin"),
                 "--labels", str(corpus_dir / "labels.bin"),
                 "--layers", "2,2", "--out", str(tmp_path)])
    assert code == 0
    assert "duplicate" in capsys.readouterr().err


def test_probe_missing_labels_names_utterance(tmp_path, corpus_dir, run_dir, capsys):
    other = tmp_path / "small"
    assert main(["synth", "--out", str(other), "--data.num_utts=6",
                 "--data.t_min=15", "--data.t_max=25"]) == 0
    code = main(["probe", "--checkpoint", str(run_dir / "final.ckpt"),
                 "--data", str(corpus_dir / "features.bin"),
                 "--labels", str(other / "labels.bin"),
                 "--layers", "2", "--out", str(tmp_path)])
    assert code == 2
    assert "synth-7-00006" in capsys.readouterr().err


def test_probe_layer_zero_is_the_frontend_baseline(tmp_path, corpus_dir, run_dir, capsys):
    code = main(["probe", "--checkpoint", str(run_dir / "final.ckpt"),
                 "--data", str(corpus_dir / "features.bin"),
                 "--labels", str(corpus_dir / "labels.bin"),
                 "--layers", "2,0", "--out", str(tmp_path)])
    assert code == 0
    rows = [json.loads(l) for l in (tmp_path / "sweep.jsonl").read_text().splitlines()]
    assert [r["layer"] for r in rows] == [0, 2]
    assert "layer 0" in capsys.readouterr().out


def test_probe_layer_out_of_range(tmp_path, corpus_dir, run_dir, capsys):
    code = main(["probe", "--checkpoint", str(run_dir / "final.ckpt"),
                 "--data", str(corpus_dir / "features.bin"),
                 "--labels", str(corpus_dir / "labels.bin"),
                 "--layers", "9", "--out", str(tmp_path)])
    assert code == 2


@pytest.mark.parametrize("command", [
    ["diagnose", "--which", "transitions"],
    ["diagnose", "--which", "project"],
    ["diagnose", "--which", "grads"],
    ["probe", "--layers", "2"],
    ["pretrain"],
], ids=["transitions", "project", "grads", "probe", "pretrain"])
def test_empty_corpus_is_input_error(tmp_path, run_dir, capsys, command):
    empty = tmp_path / "empty"
    assert main(["synth", "--out", str(empty), "--data.num_utts=0"]) == 0
    capsys.readouterr()
    labels = ["--labels", str(empty / "labels.bin")] if command[0] == "probe" else []
    ckpt = [] if command[0] == "pretrain" else ["--checkpoint", str(run_dir / "final.ckpt")]
    code = main([*command, *labels, *ckpt,
                 "--data", str(empty / "features.bin"), "--out", str(tmp_path / "o")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "no utterances" in err
    assert str(empty / "features.bin") in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", [
    ["pretrain"],
    ["diagnose", "--which", "transitions"],
], ids=["pretrain", "transitions"])
def test_mixed_feature_dims_is_input_error(tmp_path, run_dir, capsys, command):
    r = np.random.default_rng(0)
    seqs = [FeatureSequence(f"u{i}", r.normal(size=(20, 12 if i == 3 else 16)))
            for i in range(6)]
    save_features(seqs, tmp_path / "mixed.bin")
    ckpt = ["--checkpoint", str(run_dir / "final.ckpt")] if command[0] == "diagnose" else []
    code = main([*command, *ckpt, "--data", str(tmp_path / "mixed.bin"),
                 "--train.max_steps=2", "--train.batch_size=6", "--out", str(tmp_path / "o")])
    assert code == 2
    assert "feature dim" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


# ---- malformed checkpoints ---------------------------------------------------


def test_checkpoint_with_zero_heads_is_input_error(tmp_path, corpus_dir, run_dir, capsys):
    store = store_from_checkpoint(*load_checkpoint(run_dir / "final.ckpt"))
    save_checkpoint(tmp_path / "bad.ckpt", store, {"num_heads": "0"})
    code = main(["diagnose", "--which", "transitions", "--checkpoint", str(tmp_path / "bad.ckpt"),
                 "--data", str(corpus_dir / "features.bin"), "--out", str(tmp_path / "d")])
    assert code == 2
    assert "num_heads" in capsys.readouterr().err


def test_checkpoint_lacking_a_model_key_is_input_error(tmp_path, corpus_dir, capsys):
    save_checkpoint(tmp_path / "four-heads.ckpt",
                    ParameterStore.init(ConformerConfig(num_heads=4), np.random.default_rng(0)))
    # cut the num_heads= line from the config block; no tensor shape depends
    # on the head count, so only the config block can tell
    data = (tmp_path / "four-heads.ckpt").read_bytes()
    (size,) = struct.unpack_from("<I", data, 8)
    lines = data[12:12 + size].decode().splitlines(keepends=True)
    assert "num_heads=4\n" in lines
    block = "".join(l for l in lines if l != "num_heads=4\n").encode()
    ckpt = tmp_path / "no-heads.ckpt"
    ckpt.write_bytes(data[:8] + struct.pack("<I", len(block)) + block + data[12 + size:])
    with pytest.raises(FormatError, match="num_heads"):
        store_from_checkpoint(*load_checkpoint(ckpt))
    out = tmp_path / "out"
    code = main(["diagnose", "--which", "transitions", "--checkpoint", str(ckpt),
                 "--data", str(corpus_dir / "features.bin"), "--out", str(out)])
    assert code == 2
    assert "num_heads" in capsys.readouterr().err
    assert not out.exists()


def _poisoned_checkpoint(src, path, name, value):
    """Copy of checkpoint `src` at `path` with tensor `name`'s first element set to `value`."""
    data = bytearray(src.read_bytes())
    key = struct.pack("<I", len(name)) + name.encode()
    at = data.index(key) + len(key)
    (rank,) = struct.unpack_from("<I", data, at)
    struct.pack_into("<f", data, at + 4 + 4 * rank, value)
    path.write_bytes(bytes(data))
    return path


@pytest.mark.parametrize("command,tensor,value", [
    ("diagnose", "layer.shared.ff1.w1", np.nan),
    ("probe", "layer.shared.ff1.w1", np.nan),
    ("pretrain", "layer.shared.ff1.w1", np.nan),
    ("pretrain", "adam.m", np.inf),
], ids=["diagnose-nan-parameter", "probe-nan-parameter", "resume-nan-parameter",
        "resume-inf-adam-moment"])
def test_non_finite_checkpoint_is_input_error(tmp_path, corpus_dir, run_dir, capsys,
                                              command, tensor, value):
    ckpt = str(_poisoned_checkpoint(run_dir / "final.ckpt", tmp_path / "bad.ckpt", tensor, value))
    data = str(corpus_dir / "features.bin")
    argv = {"diagnose": ["diagnose", "--which", "transitions", "--checkpoint", ckpt],
            "probe": ["probe", "--layers", "2,8", "--checkpoint", ckpt,
                      "--labels", str(corpus_dir / "labels.bin")],
            "pretrain": ["pretrain", *QUICK, "--train.max_steps=6", "--resume", ckpt]}[command]
    out = tmp_path / "out"
    assert main([*argv, "--data", data, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"{tensor!r} holds NaN or inf" in err
    assert not out.exists()


def _doctored_checkpoint(run_dir, path, edit):
    store = store_from_checkpoint(*load_checkpoint(run_dir / "final.ckpt"))
    edit(store.params)
    save_checkpoint(path, store)
    return path


@pytest.mark.parametrize("edit", [
    lambda params: params.pop("layer.shared.attn.wq"),
    lambda params: params.update({"layer.shared.attn.wq": Tensor(np.zeros((3, 3)))}),
    lambda params: params.update({"layer.3.attn.wq": Tensor(np.zeros((16, 16)))}),
], ids=["missing", "wrong-shape", "foreign"])
def test_malformed_checkpoint_is_input_error(tmp_path, corpus_dir, run_dir, capsys, edit):
    ckpt = _doctored_checkpoint(run_dir, tmp_path / "bad.ckpt", edit)
    code = main(["diagnose", "--which", "transitions", "--checkpoint", str(ckpt),
                 "--data", str(corpus_dir / "features.bin"), "--out", str(tmp_path / "d")])
    assert code == 2
    assert "attn.wq" in capsys.readouterr().err
