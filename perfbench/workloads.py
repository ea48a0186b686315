"""Set-up, rounds and output checks of the three benchmark workloads.

Every workload runs the same round: pretraining of both desk presets, SLI at
M = 2, 5 and 8, and the three diagnostics commands. What differs is the input
each phase gets. The phase a workload is named after runs on its full-size
input; the other two run on a small corpus, only so that every workload
reports every end-to-end metric. See README.md for why each workload exists.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from sharedformer import cli, encoder, features

from tracer import COUNT_METRICS, Bucket, Instrumentation
from yardstick import Yardstick

PRESETS = {"shared": "desk-shared-u28", "unshared": "desk-unshared-8"}
SLI_DEPTHS = (2, 5, 8)
PROBE_LAYERS = "2,5,8"
SETUP_REPS = 7

# corpus name -> utterance count; all use the synth defaults otherwise (T 40-100)
DESK_CORPORA = {"desk": 300, "diag": 100, "small": 32}
LONG_LENGTHS = (50, 100, 200, 400, 800)
LONG_PER_LENGTH = 4              # utterances of each length in the long corpus


@dataclass(frozen=True)
class Profile:
    train_corpus: str
    train_steps: int
    validation_every: int
    sli_corpus: str              # "long" | "small"
    diag_corpus: str


PROFILES = {
    "pretrain-desk": Profile("desk", 16, 4, "small", "small"),
    "sli-long": Profile("small", 8, 4, "long", "small"),
    "diagnose": Profile("small", 8, 4, "small", "diag"),
}


@dataclass
class Inputs:
    root: Path
    corpora: dict[str, Path]            # name -> synth output dir
    corpus_utts: dict[str, int]
    checkpoint: Path
    store: object = None                # ParameterStore for SLI
    sli_frames: list[np.ndarray] = field(default_factory=list)
    sli_refs: list[list[np.ndarray]] = field(default_factory=list)  # [utt][layer]


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def add(self, attempted: int, failed: int, what: str = "") -> None:
        failed = min(failed, attempted)
        self.attempted += attempted
        self.failed += failed
        if failed and what:
            self.problems.append(what)


@dataclass
class RoundResult:
    """Times of one round, per unit of work; every round does the same units."""
    wall_s: float = 0.0
    # per preset: [command start -> first adam_step call, each step interval,
    # last adam_step call -> command end], in seconds; they sum to the wall time
    pretrain_parts: dict[str, list[float]] = field(default_factory=dict)
    val_loss: dict[str, float] = field(default_factory=dict)   # last validation
    val_ratio: dict[str, float] = field(default_factory=dict)  # last / first validation
    sli_s: dict[int, list[list[float]]] = field(default_factory=dict)  # per M: per pass, per call
    sli_frames: int = 0
    diag_s: dict[str, float] = field(default_factory=dict)
    scales: list[float] = field(default_factory=list)          # yardstick, per unit


def run_cli(argv: list[str]) -> tuple[int, float, float]:
    """One in-process `sharedformer` command; returns (exit code, start, end)."""
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
    except SystemExit as e:          # argparse rejects the command line
        rc = e.code if isinstance(e.code, int) else 2
    except Exception:                # an exception the CLI failed to map
        rc = -1
        err.write(traceback.format_exc())
    t1 = time.perf_counter()
    if rc != 0:
        print(f"command failed ({rc}): sharedformer {' '.join(argv)}\n{err.getvalue()}",
              file=sys.stderr)
    return rc, t0, t1


def _data_seed(seed: int, k: int) -> int:
    return seed * 1000 + k


# ---- set-up ------------------------------------------------------------------


def setup(workload: str, seed: int, root: Path,
          ys: Yardstick) -> tuple[Inputs, float, float]:
    """Synthesize the corpora, write a fresh shared checkpoint and read it back.

    Returns the inputs, the wall time and the yardstick scale around it.
    """
    prof = PROFILES[workload]
    before = ys.read()
    t0 = time.perf_counter()
    corpora, utts = {}, {}

    def synth(name: str, extra: list[str], k: int, num_utts: int) -> None:
        # one data seed per corpus, derived from the workload seed
        out = root / name
        argv = ["synth", "--out", str(out), f"--data.seed={_data_seed(seed, k)}"] + extra
        if run_cli(argv)[0] != 0:
            raise RuntimeError(f"set-up command failed: {argv}")
        corpora[name], utts[name] = out, num_utts

    for k, (name, count) in enumerate(DESK_CORPORA.items()):
        if name in (prof.train_corpus, prof.sli_corpus, prof.diag_corpus):
            synth(name, [f"--data.num_utts={count}"], k, count)
    if prof.sli_corpus == "long":
        for T in LONG_LENGTHS:
            synth(f"long-{T}", [f"--data.num_utts={LONG_PER_LENGTH}",
                                f"--data.t_min={T}", f"--data.t_max={T}"], 3 + T,
                  LONG_PER_LENGTH)

    ckpt_dir = root / "init"
    argv = ["--preset", PRESETS["shared"], "pretrain", "--data",
            str(corpora["small"] / "features.bin"), "--out", str(ckpt_dir),
            "--train.max_steps=0"]
    if run_cli(argv)[0] != 0:
        raise RuntimeError(f"set-up command failed: {argv}")
    inputs = Inputs(root, corpora, utts, ckpt_dir / "final.ckpt")

    cfg, tensors = encoder.load_checkpoint(inputs.checkpoint)
    inputs.store = encoder.store_from_checkpoint(cfg, tensors)
    names = ([f"long-{T}" for T in LONG_LENGTHS] if prof.sli_corpus == "long"
             else ["small"])
    for name in names:
        inputs.sli_frames += [s.frames for s in
                              features.load_features(corpora[name] / "features.bin")]
    wall = time.perf_counter() - t0
    return inputs, wall, ys.scale(before, ys.read())


def sli_references(inputs: Inputs) -> None:
    """Full-depth traced forward per SLI utterance: the prefix-property oracle."""
    depth = inputs.store.config.max_layers
    for x in inputs.sli_frames:
        _, trace = encoder.forward(x, inputs.store, depth, collect_trace=True)
        inputs.sli_refs.append(trace.embeddings)


# ---- one round ---------------------------------------------------------------


def run_round(workload: str, inputs: Inputs, rdir: Path, instr: Instrumentation,
              ys: Yardstick, tally: Tally) -> RoundResult:
    """One round; every time in the result is scaled to nominal machine speed."""
    prof = PROFILES[workload]
    rdir.mkdir(parents=True)
    bucket = instr.bucket
    if bucket is not None:
        bucket.watch_store(inputs.store)
    t_round = time.perf_counter()
    res = RoundResult()

    # SLI calls are short, so each round times them twice, at its start and end
    res.sli_frames = sum(x.shape[0] for x in inputs.sli_frames)
    sli_pass(inputs, instr, ys, res, tally)
    train_data = inputs.corpora[prof.train_corpus] / "features.bin"
    for tag, preset in PRESETS.items():
        out = rdir / f"pretrain-{tag}"
        argv = ["--preset", preset, "pretrain", "--data", str(train_data), "--out", str(out),
                f"--train.max_steps={prof.train_steps}",
                f"--train.validation_every={prof.validation_every}"]
        instr.step_stamps.clear()
        instr.step_unit_prefix = f"pretrain-{tag}"
        instr.unit = f"pretrain-{tag}:step1"
        before = ys.read()
        rc, t0, t1 = run_cli(argv)
        res.scales.append(ys.scale(before, ys.read()))
        res.pretrain_parts[tag] = [d * res.scales[-1]
                                   for d in np.diff([t0, *instr.step_stamps, t1])]
        with instr.paused():
            check_pretrain(tag, out, rc, prof, inputs.corpus_utts[prof.train_corpus],
                           bucket, res, tally)

    diag_dir = inputs.corpora[prof.diag_corpus]
    common = ["--checkpoint", str(inputs.checkpoint), "--data", str(diag_dir / "features.bin")]
    commands = {
        "transitions": ["diagnose", "--which", "transitions", *common],
        "grads": ["diagnose", "--which", "grads", *common],
        "probe": ["probe", *common, "--labels", str(diag_dir / "labels.bin"),
                  "--layers", PROBE_LAYERS],
    }
    for name, argv in commands.items():
        out = rdir / name
        instr.unit = f"cmd-{name}"
        before = ys.read()
        rc, t0, t1 = run_cli(argv + ["--out", str(out)])
        res.scales.append(ys.scale(before, ys.read()))
        res.diag_s[name] = (t1 - t0) * res.scales[-1]
        with instr.paused():
            ok, why = check_diag(name, out, rc, diag_dir, inputs.store.config.max_layers)
        tally.add(1, 0 if ok else 1, f"{name}: {why}")

    sli_pass(inputs, instr, ys, res, tally)
    res.wall_s = time.perf_counter() - t_round
    instr.unit = "-"
    shutil.rmtree(rdir)
    return res


def sli_pass(inputs: Inputs, instr: Instrumentation, ys: Yardstick, res: RoundResult,
             tally: Tally) -> None:
    """Every SLI utterance at each M, timed per call; one yardstick bracket."""
    raw: dict[int, list[float]] = {}
    before = ys.read()
    for m in SLI_DEPTHS:
        raw[m], bad = [], 0
        for i, x in enumerate(inputs.sli_frames):
            instr.unit = f"sli-m{m}:utt{i}"
            t0 = time.perf_counter()
            emb = encoder.sli_forward(x, inputs.store, m)
            raw[m].append(time.perf_counter() - t0)
            ref = inputs.sli_refs[i][m]
            if emb.data.shape != ref.shape or not np.allclose(emb.data, ref, rtol=1e-4, atol=1e-5):
                bad += 1
        tally.add(len(inputs.sli_frames), bad, f"sli m={m}: {bad} outputs differ from the "
                                               "full-depth trace")
    res.scales.append(ys.scale(before, ys.read()))
    for m, times in raw.items():
        res.sli_s.setdefault(m, []).append([t * res.scales[-1] for t in times])


# ---- output checks -----------------------------------------------------------


def _read_resolved(out: Path) -> dict[str, str]:
    values, section = {}, ""
    for line in (out / "resolved_config.ini").read_text(encoding="utf-8").splitlines():
        if line.startswith("["):
            section = line.strip("[]")
        elif "=" in line:
            key, _, value = line.partition("=")
            values[f"{section}.{key}"] = value
    return values


def check_pretrain(tag: str, out: Path, rc: int, prof: Profile, num_utts: int,
                   bucket: Bucket | None, res: RoundResult, tally: Tally) -> None:
    steps = prof.train_steps
    if rc != 0:
        tally.add(steps, steps, f"pretrain {tag}: exit code {rc}")
        return
    rows = [json.loads(line) for line in
            (out / "metrics.jsonl").read_text(encoding="utf-8").splitlines()]
    good = sum(1 for i, r in enumerate(rows)
               if r.get("step") == i + 1 and math.isfinite(r.get("train_loss", math.nan)))
    failed = steps - good if len(rows) == steps else steps
    problems = [f"{steps - good} bad rows of {len(rows)}"] if failed else []

    vals = [r["val_loss"] for r in rows if r.get("val_loss") is not None]
    if len(vals) < 2 or not vals[-1] < vals[0]:
        failed += 1
        problems.append(f"validation loss did not fall: {vals}")
    else:
        res.val_loss[tag] = vals[-1]
        res.val_ratio[tag] = vals[-1] / vals[0]

    try:
        cfg, tensors = encoder.load_checkpoint(out / "final.ckpt")
        store = encoder.store_from_checkpoint(cfg, tensors)
        if cfg.get("train.step") != str(steps) or store.config.share_params != (tag == "shared"):
            raise ValueError(f"step {cfg.get('train.step')}, share {store.config.share_params}")
    except Exception as e:           # any reload failure is a failed check
        failed += 1
        problems.append(f"final.ckpt does not reload: {e!r}")

    if bucket is not None:
        # the store's block counter must equal the logged training applications
        # plus one full-depth pass per validation utterance per validation
        resolved = _read_resolved(out)
        n_val = max(1, int(round(num_utts * float(resolved["train.val_fraction"]))))
        expected = (rows[-1]["cum_layer_apps"] if rows else 0) + \
            len(vals) * n_val * int(resolved["model.max_layers"])
        seen = [apps for d, apps in bucket.train_runs if d == str(out)]
        if seen != [expected]:
            failed += 1
            problems.append(f"block_applications {seen} != {expected}")
    tally.add(steps, failed, f"pretrain {tag}: " + "; ".join(problems))


def check_diag(name: str, out: Path, rc: int, data_dir: Path, depth: int) -> tuple[bool, str]:
    if rc != 0:
        return False, f"exit code {rc}"

    def rows(base: str) -> list[dict]:
        text = (out / f"{base}.jsonl").read_text(encoding="utf-8")
        return [json.loads(line) for line in text.splitlines()]

    if name == "transitions":
        cos = [r["cos_mean"] for r in rows("transitions")]
        ok = len(cos) == depth and all(-1.0 - 1e-9 <= c <= 1.0 + 1e-9 for c in cos)
        return ok, f"transition cosines {cos}"
    if name == "grads":
        summary = {r["quantity"]: r["value"] for r in rows("grad_summary")}
        # the same tolerance GradDecomposition.assert_sum_identity() applies
        ok = len(rows("grad_norms")) == depth and summary["sum_rel_error"] <= 1e-6
        return ok, f"gradient sum identity off by {summary['sum_rel_error']}"
    classes = int(_read_resolved(data_dir)["data.num_classes"])
    acc = {r["layer"]: r["accuracy"] for r in rows("sweep")}
    want = [int(t) for t in PROBE_LAYERS.split(",")]
    ok = sorted(acc) == want and all(a > 1.0 / classes for a in acc.values())
    return ok, f"probe accuracies {acc} vs chance 1/{classes}"


# ---- aggregation -------------------------------------------------------------


def _typical(rows: list[list[float]]) -> list[float]:
    """Per unit of work, the median of its scaled repetitions across rounds."""
    return [statistics.median(col) for col in zip(*rows)]


def end_to_end(rounds: list[RoundResult], setup_walls: list[float],
               peak_rss_mb: float) -> dict[str, float]:
    m = {"setup_s": statistics.median(setup_walls)}
    for tag in PRESETS:
        parts = _typical([r.pretrain_parts[tag] for r in rounds])
        m[f"pretrain_s.{tag}"] = sum(parts)
        steps_ms = [p * 1e3 for p in parts[1:-1]]
        m[f"train_step_ms.{tag}.p50"] = float(np.percentile(steps_ms, 50))
        if tag == "shared":
            m["train_step_ms.shared.p95"] = float(np.percentile(steps_ms, 95))
    for tag in PRESETS:   # deterministic: the same in every round
        m[f"val_loss_ratio.{tag}"] = rounds[-1].val_ratio.get(tag, math.nan)
    for depth in SLI_DEPTHS:
        busy = sum(_typical([p for r in rounds for p in r.sli_s[depth]]))
        m[f"sli_frames_per_s.m{depth}"] = rounds[0].sli_frames / busy
    typical = _typical([[r.diag_s[c] for c in ("transitions", "grads", "probe")]
                        for r in rounds])
    m["diag_transitions_s"], m["diag_grads_s"], m["probe_sweep_s"] = typical
    m["peak_rss_mb"] = peak_rss_mb
    return m


def details(rounds: list[RoundResult]) -> dict:
    """Side facts printed before the result: sample counts and raw readings."""
    return {
        "rounds": len(rounds),
        "round_wall_s": [round(r.wall_s, 3) for r in rounds],
        "step_intervals": {tag: len(rounds[0].pretrain_parts[tag]) - 2 for tag in PRESETS},
        "pretrain_s_per_round": {tag: [round(sum(r.pretrain_parts[tag]), 3) for r in rounds]
                            for tag in PRESETS},
        "diag_s_per_round": [{k: round(v, 3) for k, v in r.diag_s.items()} for r in rounds],
        "final_val_loss": rounds[-1].val_loss,
        "yardstick_scale_range": [round(min(x for r in rounds for x in r.scales), 3),
                                  round(max(x for r in rounds for x in r.scales), 3)],
    }


def per_layer(setup_bucket: Bucket, round_buckets: list[Bucket]) -> tuple[dict[str, float], list[str]]:
    """Per-layer metrics of one set-up plus one round (times averaged over rounds).

    Counts must repeat exactly across rounds; each mismatch is reported.
    """
    setup_m = setup_bucket.metrics()
    per_round = [b.metrics() for b in round_buckets]
    mismatches = [k for k in COUNT_METRICS
                  if len({pr[k] for pr in per_round}) != 1]
    out = {}
    for key, value in setup_m.items():
        round_mean = statistics.fmean(pr[key] for pr in per_round)
        if key == "masking.masked_frame_ratio":
            out[key] = per_round[0][key]   # set-up masks nothing
        else:
            out[key] = value + round_mean
    return out, mismatches

