"""The three workloads and the closed loop that times them.

Every operation calls ``penscript.cli.main(argv)`` in this process on files
generated during set-up, captures the JSON summary it prints, and checks
the outputs. One client, one operation at a time.
"""

from __future__ import annotations

import contextlib
import dataclasses
import gc
import hashlib
import io
import json
import math
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import datagen
import stages
from refdecode import prefix_beam_search
from tracer import PROCESS_COUNTERS, Counters, Tracer, delta

import penscript.cli
from penscript.dataio import Sample, equations_alphabet
from penscript.netcore.model import ModelConfig, RecognitionModel, forward_seq2seq, load_checkpoint
from penscript.preprocess import interpolate

AUGMENT_METHODS = "scale,shift,jitter,mag_warp,time_warp"

# paper shape: default ModelConfig, target_len 800 (400 frames after pooling).
# Corpus sizes: recordings per training writer for train_ctc (4 writers),
# for the decode checkpoint (5 writers) and per prep shard (6 writers);
# recordings decoded in turn; prep shards used in turn.
FULL = {
    "target_len": 800, "batch": 10, "model": {},
    "train_per_writer": 5, "ckpt_per_writer": 2, "shard_per_writer": 2, "decode_pool": 4, "shards": 3,
}
# smoke-test shape: same code paths, a tiny model and short sequences
TINY = {
    "target_len": 64, "batch": 4, "model": {"conv_filters": 8, "bilstm_units": 4},
    "train_per_writer": 2, "ckpt_per_writer": 1, "shard_per_writer": 1, "decode_pool": 2, "shards": 2,
}


class CheckFailed(Exception):
    """An operation ran but its output is wrong."""


def _sha(*paths: Path) -> str:
    h = hashlib.sha256()
    for p in paths:
        h.update(p.name.encode())
        h.update(p.read_bytes())
    return h.hexdigest()


def _expect(cond: bool, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


class Harness:
    """Runs CLI commands in-process, optionally inside a root span."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self.tracing = False

    def cli(self, command: str, *args: str, seed: int | None = None) -> dict:
        argv = ([] if seed is None else ["--seed", str(seed)]) + [command, *args]
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            if self.tracing:
                idx = self.tracer.open(f"cli.{command}")
                try:
                    rc = penscript.cli.main(argv)
                finally:
                    self.tracer.close(idx)
            else:
                rc = penscript.cli.main(argv)
        _expect(rc == 0, f"penscript {command} exited with {rc}")
        return json.loads(buf.getvalue())


class Workload:
    """The constructor fixes every path and argument, so op(i) runs on files
    written by generate() in this process or another. generate() writes the
    inputs and keeps what the checks need; build() is the repeatable set-up
    step; op(i) runs operation i and returns its summaries; check(i, out)
    raises CheckFailed on a wrong output. Operations cycle through `items`
    distinct inputs. stage_batch is the batch of the isolated stage calls in
    a traced run, None where netcore is not used."""

    name = ""
    stream = 0  # keeps each workload's inputs independent for one seed
    items = 1
    stage_batch: int | None = None
    stage_mode = "eval"

    def __init__(self, work: Path, seed: int, shape: dict, harness: Harness) -> None:
        self.work, self.seed, self.shape, self.h = work, seed, shape, harness
        self.rng = np.random.default_rng(np.random.SeedSequence([seed, self.stream]))
        self.config_args: list[str] = []
        if shape["model"]:
            self.config_args = ["--config", str(work / "config.json")]

    def generate(self) -> None:
        if self.shape["model"]:
            (self.work / "config.json").write_text(json.dumps({"model": self.shape["model"]}))

    def build(self) -> None:
        pass


class TrainCTC(Workload):
    """Repeated ``penscript train --loss ctc`` on a writer-independent fold.

    Writers 0-3 train and writer 4 validates on one recording. An eval
    forward costs about the same at any validation size, and the data file
    is parsed once for all epochs, so one validation recording and two
    epochs keep most of an operation in the training step."""

    name = "train_ctc"
    epochs = 2
    stage_mode = "train"

    def __init__(self, work: Path, seed: int, shape: dict, harness: Harness) -> None:
        super().__init__(work, seed, shape, harness)
        self.stage_batch = shape["batch"]
        self.samples_per_op = 4 * shape["train_per_writer"] * self.epochs
        self.argv = [
            "--data", str(work / "data.csv"), "--labels", str(work / "labels.jsonl"),
            "--loss", "ctc", "--epochs", str(self.epochs), "--batch-size", str(shape["batch"]),
            "--target-len", str(shape["target_len"]),
            "--folds", str(work / "folds.json"), "--fold", "0",
            "--out", str(work / "run"), *self.config_args,
        ]
        self.reference: str | None = None

    def generate(self) -> None:
        super().generate()
        rng = self.rng
        corpus = datagen.make_corpus(rng, writers=4, per_writer=self.shape["train_per_writer"])
        corpus.append(dataclasses.replace(datagen.make_corpus(rng, writers=1, per_writer=1)[0], writer_id=4))
        datagen.write_dataset(corpus, self.work / "data.csv", self.work / "labels.jsonl")
        # writer-independent 5-fold plan, one writer per validation split;
        # fold 0, the one trained, validates on writer 4
        folds = []
        for w in (4, *rng.permutation(4)):
            val = [i for i, eq in enumerate(corpus) if eq.writer_id == w]
            folds.append({"train": [i for i in range(len(corpus)) if i not in val], "val": val})
        plan = {"mode": "WI", "k": 5, "seed": self.seed, "folds": folds}
        (self.work / "folds.json").write_text(json.dumps(plan), encoding="utf-8")

    def build(self) -> None:
        RecognitionModel(
            ModelConfig(num_classes=15, **self.shape["model"]), 13, "seq2seq",
            np.random.default_rng(self.seed),
        )

    def op(self, i: int) -> dict:
        return self.h.cli("train", *self.argv, seed=self.seed)

    def check(self, i: int, summary: dict) -> None:
        _expect(summary["epochs"] == self.epochs, "train ran a wrong number of epochs")
        final = summary["final"]
        _expect(math.isfinite(final["train_loss"]), "train loss is not finite")
        _expect(final["skipped"] == 0, "feasible CTC targets were skipped")
        digest = _sha(self.work / "run" / "model.ckpt", self.work / "run" / "history.jsonl")
        if self.reference is None:
            self.reference = digest
        _expect(digest == self.reference, "same-seed train runs differ in model.ckpt or history.jsonl")


class DecodeBeam(Workload):
    """One ``penscript decode --beam 10`` per single-recording file."""

    name = "decode_beam"
    stream = 1
    stage_batch = 1
    samples_per_op = 1

    def __init__(self, work: Path, seed: int, shape: dict, harness: Harness) -> None:
        super().__init__(work, seed, shape, harness)
        self.items = shape["decode_pool"]
        self.ckpt = work / "ckpt" / "model.ckpt"
        self.expected: list[str] = []

    def generate(self) -> None:
        super().generate()
        rng = self.rng
        train = datagen.make_corpus(rng, writers=5, per_writer=self.shape["ckpt_per_writer"])
        datagen.write_dataset(train, self.work / "train.csv", self.work / "train.jsonl")
        self.pool = datagen.make_corpus(rng, writers=self.items, per_writer=1)
        for p, eq in enumerate(self.pool):
            datagen.write_dataset([eq], self.work / f"rec{p}.csv", self.work / f"rec{p}.jsonl")
        # the checkpoint takes one train step (so batchnorm has running stats),
        # in a child process so its memory peak stays out of this one's
        argv = [
            sys.executable, "-m", "penscript.cli", "--seed", str(self.seed), "train",
            "--data", str(self.work / "train.csv"), "--labels", str(self.work / "train.jsonl"),
            "--loss", "ctc", "--epochs", "1", "--batch-size", str(len(train)),
            "--target-len", str(self.shape["target_len"]), "--out", str(self.ckpt.parent),
            *self.config_args,
        ]
        subprocess.run(argv, check=True, capture_output=True, timeout=170)

    def build(self) -> None:
        load_checkpoint(str(self.ckpt))

    def _expected(self) -> list[str]:
        """Decode each recording directly: forward_seq2seq, then the
        benchmark's own prefix beam search, so a wrong beam_decode in the
        program shows as a failed check.

        Computed at the first check, after the warm-up operation, so it warms
        nothing that set-up time should include."""
        model, _ = load_checkpoint(str(self.ckpt))
        alphabet = equations_alphabet()
        self.expected = []
        for eq in self.pool:
            sample = Sample(eq.values, alphabet.encode_label(eq.label), eq.writer_id, datagen.RATE_HZ)
            log_probs = forward_seq2seq(interpolate(sample, self.shape["target_len"]), model)
            self.expected.append(alphabet.decode_label(prefix_beam_search(log_probs, 10)))
        return self.expected

    def op(self, i: int) -> dict:
        p = i % self.items
        return self.h.cli(
            "decode", "--data", str(self.work / f"rec{p}.csv"),
            "--labels", str(self.work / f"rec{p}.jsonl"),
            "--checkpoint", str(self.ckpt), "--beam", "10",
        )

    def check(self, i: int, summary: dict) -> None:
        p = i % self.items
        decoded = summary["decoded"]
        _expect(len(decoded) == 1, "decode returned a wrong number of hypotheses")
        _expect(decoded[0]["reference"] == self.pool[p].label, "decode misread the reference label")
        _expect(
            decoded[0]["hypothesis"] == (self.expected or self._expected())[p],
            "decode disagrees with forward_seq2seq + a reference prefix beam search on the same recording",
        )


class PrepCorpus(Workload):
    """ingest, split --mode WI, augment (all five methods), segment, evaluate."""

    name = "prep_corpus"
    stream = 2

    def __init__(self, work: Path, seed: int, shape: dict, harness: Harness) -> None:
        super().__init__(work, seed, shape, harness)
        self.items = shape["shards"]
        self.samples_per_op = 6 * shape["shard_per_writer"]

    def generate(self) -> None:
        rng = self.rng
        self.shards = []
        for k in range(self.items):
            corpus = datagen.make_corpus(rng, writers=6, per_writer=self.shape["shard_per_writer"])
            d = self.work / f"shard{k}"
            d.mkdir()
            datagen.write_dataset(corpus, d / "data.csv", d / "labels.jsonl")
            planted = [datagen.plant_edits(rng, eq.label) for eq in corpus]
            (d / "refs.txt").write_text("".join(eq.label + "\n" for eq in corpus), encoding="utf-8")
            (d / "hyps.txt").write_text("".join(h + "\n" for h, _ in planted), encoding="utf-8")
            cer = sum(k for _, k in planted) / sum(len(eq.label) for eq in corpus)
            self.shards.append({"corpus": corpus, "cer": cer, "digest": None})

    def op(self, i: int) -> dict:
        d = self.work / f"shard{i % self.items}"
        out = d / "out"
        ingested = ["--data", str(out / "ingest" / "data.csv"), "--labels", str(out / "ingest" / "labels.jsonl")]
        return {
            "ingest": self.h.cli(
                "ingest", "--data", str(d / "data.csv"), "--labels", str(d / "labels.jsonl"),
                "--out", str(out / "ingest"),
            ),
            "split": self.h.cli("split", *ingested, "--mode", "WI", "--k", "5", "--out", str(out / "split"), seed=self.seed),
            "augment": self.h.cli(
                "augment", *ingested, "--methods", AUGMENT_METHODS, "--out", str(out / "augment"), seed=self.seed
            ),
            "segment": self.h.cli("segment", *ingested, "--out", str(out / "segment")),
            "evaluate": self.h.cli("evaluate", "--refs", str(d / "refs.txt"), "--hyps", str(d / "hyps.txt")),
        }

    def check(self, i: int, s: dict) -> None:
        k = i % self.items
        shard = self.shards[k]
        corpus, out = shard["corpus"], self.work / f"shard{k}" / "out"
        n = len(corpus)
        _expect(s["ingest"]["samples"] == n, "ingest counted a wrong number of samples")
        _expect(s["split"]["k"] == 5, "split wrote a wrong fold count")
        _expect(s["augment"]["samples"] == n, "augment dropped samples")
        _expect(s["segment"]["characters"] == sum(len(eq.label) for eq in corpus), "segment lost characters")
        _expect(s["evaluate"]["cer"] == shard["cer"], "evaluate does not report the planted CER")
        files = sorted(p for p in out.rglob("*") if p.is_file())
        digest = _sha(*files)
        if shard["digest"] is None:
            self._check_files(corpus, out)
            shard["digest"] = digest
        _expect(digest == shard["digest"], "repeated runs on the same shard wrote different files")

    def _check_files(self, corpus: list, out: Path) -> None:
        """Full content checks, once per shard; later runs must match by hash."""
        rows = datagen.read_rows(out / "ingest" / "data.csv")
        _expect(
            np.array_equal(rows, np.concatenate([eq.values for eq in corpus])),
            "parse_recording(write_recording(x)) is not bit-exact",
        )
        writer = [eq.writer_id for eq in corpus]
        plan = json.loads((out / "split" / "folds.json").read_text(encoding="utf-8"))
        seen_val = []
        for fold in plan["folds"]:
            tr, va = set(fold["train"]), set(fold["val"])
            _expect(tr | va == set(range(len(corpus))) and not tr & va, "a fold does not partition the samples")
            _expect(not {writer[i] for i in tr} & {writer[i] for i in va}, "WI fold shares writers")
            seen_val += fold["val"]
        _expect(sorted(seen_val) == list(range(len(corpus))), "WI folds do not validate each sample once")

        aug = datagen.read_labels(out / "augment" / "labels.jsonl")
        _expect(
            [(a["label"], a["writer_id"], a["end"] - a["start"]) for a in aug]
            == [(eq.label, eq.writer_id, len(eq.values) - 1) for eq in corpus],
            "augment changed labels, writers or lengths",
        )

        manifest = json.loads((out / "segment" / "manifest.json").read_text(encoding="utf-8"))
        for i, eq in enumerate(corpus):
            _expect(tuple(manifest[i]["assignment"]) == eq.counts, f"segment chose other stroke counts for {i}")
            pieces = datagen.read_labels(out / "segment" / f"sample{i:04d}.jsonl")
            values = datagen.read_rows(out / "segment" / f"sample{i:04d}.csv")
            _expect(len(pieces) == len(eq.windows), f"segment split equation {i} into a wrong count")
            for piece, ch, (a, b) in zip(pieces, eq.label, eq.windows):
                _expect(piece["label"] == ch, f"segment mislabelled a character of equation {i}")
                got = values[piece["start"] : piece["end"] + 1]
                _expect(np.array_equal(got, eq.values[a : b + 1]), f"segment missed a window of equation {i}")


WORKLOADS = {w.name: w for w in (TrainCTC, DecodeBeam, PrepCorpus)}

SPAN_NAMES = (
    "cli.train", "cli.decode", "cli.ingest", "cli.split", "cli.augment", "cli.segment", "cli.evaluate",
    "dataio.parse_recording", "dataio.write_recording", "dataio.make_splits",
    "preprocess.augment", "preprocess.interpolate",
    "segment.split_equation", "metrics.edit_distance",
    "losses.ctc_loss", "losses.beam_decode", "losses.greedy_decode",
    "netcore.train_loop", "netcore.forward_train", "netcore.forward_eval", "netcore.backward",
    "netcore.adam_step", "netcore.checkpoint_save", "netcore.checkpoint_load",
    "trace.tape_walk",
)


def _percentile_report(times: list[float]) -> dict:
    """Median, plus the highest percentile with at least ten samples beyond it."""
    n = len(times)
    report = {"n": n, "p50_s": statistics.median(times)}
    if n >= 11:
        p = math.floor(100 * (1 - 10 / n))
        ordered = sorted(times)
        report[f"p{p}_s"] = ordered[min(n - 1, math.ceil(p / 100 * n) - 1)]
    return report


def _attempt(wl: Workload, i: int, counters: Counters) -> dict:
    """One timed operation, then its checks outside the timed region."""
    before = counters.snapshot()
    t0 = time.perf_counter()
    error = None
    try:
        out = wl.op(i)
    except Exception:  # an operation that raises counts as failed; keep going
        error, out = traceback.format_exc(), None
    wall = time.perf_counter() - t0
    after = counters.snapshot()
    if error is None:
        try:
            wl.check(i, out)
        except Exception as exc:  # a wrong or missing output counts as failed
            error = f"check failed: {type(exc).__name__}: {exc}"
    if error is not None:
        print(f"op {i}: {error}", file=sys.stderr)
    return {"i": i, "wall_s": wall, "ok": error is None, **delta(before, after)}


def open_workload(name: str, seed: int, tiny: bool, work: Path) -> Workload:
    return WORKLOADS[name](work, seed, TINY if tiny else FULL, Harness(Tracer(Counters())))


def probe_setup(wl: Workload) -> dict:
    """One cold set-up in this fresh process: one build, one warm-up operation.

    Runs on inputs another process generated; checks, and counting a failed
    operation, are that process's job."""
    t0 = time.perf_counter()
    wl.build()
    build_s = time.perf_counter() - t0
    gc.collect()
    t0 = time.perf_counter()
    try:
        wl.op(0)
    except Exception:  # the parent's own warm-up reports the failure
        traceback.print_exc()
    return {"build_s": build_s, "warmup_s": time.perf_counter() - t0}


def run(wl: Workload, seconds: float, trace: bool, import_s: float, other_setups_s: list[float]) -> dict:
    """Set up, run the closed loop for `seconds`, check, and return the record.

    other_setups_s are the set-up times of fresh processes on the same inputs;
    setup_s is the median of those and this process's own."""
    counters = wl.h.tracer.counters
    # set-up, as in probe_setup: one cold build, then one warm-up operation
    t0 = time.perf_counter()
    wl.build()
    build_s = time.perf_counter() - t0
    # a command normally starts in a fresh process: clear the previous
    # operation's cyclic garbage so no operation pays for another's
    gc.collect()
    warm = _attempt(wl, 0, counters)

    # a traced run alternates whole cycles over the inputs, traced and not,
    # so both halves see the same inputs; it needs one operation of each
    ops = []
    loop_start = time.perf_counter()
    while time.perf_counter() - loop_start < seconds or len(ops) < (wl.items + 1 if trace else 1):
        gc.collect()
        traced = trace and (len(ops) // wl.items) % 2 == 0
        if traced:
            wl.h.tracer.install()
            wl.h.tracing = True
        ops.append(_attempt(wl, len(ops), counters) | {"traced": traced})
        wl.h.tracing = False
        wl.h.tracer.uninstall()
    counters.close()

    times = [o["wall_s"] for o in ops]
    failed = sum(1 for o in ops if not o["ok"])
    setup = {"import_s": import_s, "build_s": build_s, "warmup_s": warm["wall_s"], "other_setups_s": other_setups_s}
    record = {
        "workload": wl.name, "seed": wl.seed, "trace": int(trace), "attempted": len(ops), "failed": failed,
        "correct": failed == 0 and warm["ok"], "ops": ops, "setup": setup,
        "samples_per_op": wl.samples_per_op,
        "latency": _percentile_report(times),
        "process_per_op": {k: sum(o[k] for o in ops) / len(ops) for k in PROCESS_COUNTERS},
    }
    if trace:
        record["metrics"] = _layer_metrics(wl, ops)
        return record
    own_setup_s = import_s + build_s + warm["wall_s"]
    # medians over operations: a burst of machine noise moves a mean, not these
    rates = [wl.samples_per_op / o["wall_s"] if o["ok"] else 0.0 for o in ops]
    record["metrics"] = {
        "samples_per_s": (statistics.median(rates), "samples/s"),
        "op_s_p50": (statistics.median(times), "s"),
        "setup_s": (statistics.median([own_setup_s, *other_setups_s]), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }
    return record


def _layer_metrics(wl: Workload, ops: list[dict]) -> dict:
    tracer = wl.h.tracer
    traced = [o for o in ops if o["traced"]]
    plain = [o for o in ops if not o["traced"]]
    n = len(traced)
    self_s, calls, errors, root_s = tracer.self_times()
    m: dict[str, tuple[float, str]] = {}
    for span in SPAN_NAMES:
        m[f"{span}_s"] = (self_s.get(span, 0.0) / n, "s")
    m["losses.ctc_loss_calls"] = (calls.get("losses.ctc_loss", 0) / n, "count")
    m["losses.ctc_skipped"] = (errors.get("losses.ctc_loss", 0) / n, "count")
    m["segment.failed"] = (errors.get("segment.split_equation", 0) / n, "count")
    nodes = tracer.tape_nodes
    m["netcore.tape_nodes"] = (sum(nodes) / len(nodes) if nodes else 0.0, "count")
    if wl.stage_batch is not None:
        timed = stages.stage_times(
            wl.stage_batch, wl.shape["target_len"], wl.stage_mode, wl.shape["model"], wl.seed
        )
    else:
        timed = {s: (0.0, 0.0) for s in stages.STAGES}
    for s, (fwd, bwd) in timed.items():
        m[f"netcore.stage.{s}.forward_s"] = (fwd, "s")
        m[f"netcore.stage.{s}.backward_s"] = (bwd, "s")
    for k in PROCESS_COUNTERS:
        m[f"process.{k}"] = (sum(o[k] for o in traced) / n, "s" if k.endswith("_s") else "count")
    traced_wall = [o["wall_s"] for o in traced]
    overhead = statistics.median(traced_wall) - statistics.median(o["wall_s"] for o in plain)
    m["trace.overhead_s"] = (overhead, "s")
    m["trace.overhead_share"] = (overhead / statistics.median(o["wall_s"] for o in plain), "ratio")
    m["trace.op_wall_s"] = (sum(traced_wall) / n, "s")
    m["trace.unaccounted_share"] = ((sum(traced_wall) - root_s) / sum(traced_wall), "ratio")
    return m
