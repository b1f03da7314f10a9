"""The three workloads: inputs made from the seed, the commands, and the checks.

Every workload drives the real CLI (``attnens.cli.main``) in this process as a
closed loop: one client, and each command starts only after the previous one
has returned. Set-up makes the inputs on disk and is timed on its own; an
iteration is the group of commands whose wall time, scaled by the speed
probe timed around it, gives the throughput.

Every CLI command and every output check is one operation in the ledger; a
non-zero exit or a failed check counts as a failed operation.
"""

from __future__ import annotations

import contextlib
import csv
import gc
import hashlib
import json
import math
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

import attnens.checkpoint
from attnens import cli
from attnens.experiments import (
    BENCH_AUGMENT,
    BENCH_BATCH,
    BENCH_DROPOUT,
    BENCH_LR,
    SOURCE_SPEC,
    TARGET_SPEC,
)
from attnens.data import Dataset, load_dataset
from attnens.imageops import AugmentConfig, augment_config_to_dict
from attnens.model import build_model, config_to_dict, desk_config
from attnens.seeding import derive_seed
from attnens.synth import synth_spec_to_dict
from attnens.trainer import TrainConfig, train

# The checks use references bound here, before any tracing is installed, so
# they never add to the traced library's spans. Set-up saves checkpoints
# through the module attribute instead, so the traced run does see those.
from attnens.checkpoint import load_checkpoint
from attnens.ensemble import read_matrix


EPOCHS = 1
MEMBERS = 3
WEIGHTS = (2.0, 1.0, 1.0)
MEMBER_LR = 0.05
# A quarter of each class trains, so the predicted test split is large.
PREDICT_TRAIN_FRACTION = 0.25


@dataclass(frozen=True)
class Sizes:
    source_per_class: int = SOURCE_SPEC.per_class
    target_per_class: int = TARGET_SPEC.per_class
    predict_per_class: int = 240
    # Set up at least this many times and for at least this many seconds.
    setups: int = 3
    setup_seconds: float = 2.0


FULL = Sizes()
TINY = Sizes(
    source_per_class=4, target_per_class=4, predict_per_class=8, setups=1, setup_seconds=0.0
)


class Ledger:
    """Counts attempted and failed operations and keeps what failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(what)
            print(f"perfbench: FAILED {what}", file=sys.stderr)
        return ok


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def manifest_ids(data_dir: Path, split: str) -> list[str]:
    with open(data_dir / "labels.csv", newline="") as f:
        return [row["id"] for row in csv.DictReader(f) if row["split"] == split]


def _write_json(obj, path: Path) -> None:
    path.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")


class Workload:
    """Base: one workload bound to a seed, a size and a ledger."""

    def __init__(self, seed: int, sizes: Sizes, ledger: Ledger, tracer=None):
        self.seed = seed
        self.sizes = sizes
        self.ledger = ledger
        self.tracer = tracer

    def _span(self, name: str):
        return self.tracer.span(name) if self.tracer else contextlib.nullcontext()

    def _untraced(self):
        return self.tracer.paused() if self.tracer else contextlib.nullcontext()

    def cli(self, *argv: str) -> float | None:
        """Run one CLI command; its wall seconds, or None when it failed."""
        # A command run from a shell starts with no garbage from the one
        # before it; collecting here, outside the timed region, does the same.
        gc.collect()
        started = time.perf_counter()
        try:
            with self._span(f"cli.{argv[0]}"), contextlib.redirect_stdout(sys.stderr):
                code = cli.main(list(argv))
        except SystemExit as e:
            code = e.code
        except Exception:
            traceback.print_exc()
            code = "an exception"
        seconds = time.perf_counter() - started
        ok = self.ledger.check(code == 0, f"attnens {' '.join(argv)} exited with {code}")
        return seconds if ok else None

    def synth(self, spec, out: Path) -> None:
        spec_path = out.with_suffix(".spec.json")
        _write_json(synth_spec_to_dict(spec), spec_path)
        self.cli("synth", "--spec", str(spec_path), "--out", str(out))

    def set_up(self, work: Path) -> dict:
        """Make this workload's inputs under ``work``; return their fingerprint."""
        work.mkdir(parents=True)
        with self._span("setup"):
            self.prepare(work)
        return self.setup_fingerprint()

    def prepare(self, work: Path) -> None:
        raise NotImplementedError

    def setup_fingerprint(self) -> dict:
        raise NotImplementedError

    def iteration(self) -> tuple[int, float | None, dict]:
        """Run one group of commands: (images, wall seconds or None, fingerprint)."""
        raise NotImplementedError

    def check_checkpoint(self, path: Path) -> None:
        try:
            load_checkpoint(path)
            ok, why = True, ""
        except Exception as e:  # any failure to reload is the finding
            ok, why = False, f": {type(e).__name__}: {e}"
        self.ledger.check(ok, f"{path.name} reloads with load_checkpoint{why}")

    def check_predictions(self, path: Path, expected_ids: list[str]) -> None:
        try:
            ids = list(read_matrix(path).sample_ids)
        except Exception as e:  # any failure to parse is the finding
            self.ledger.check(False, f"{path.name} parses with read_matrix: {e}")
            return
        self.ledger.check(ids == expected_ids, f"{path.name} lists ids in manifest order")


def bench_config(num_classes: int):
    return replace(desk_config(num_classes), dropout_rate=BENCH_DROPOUT)


class TrainWorkload(Workload):
    """One training command per iteration on a 300-image, 48x48 training split."""

    role = ""
    command = ""

    def task_spec(self):
        raise NotImplementedError

    def extra_argv(self) -> tuple[str, ...]:
        return ()

    def prepare(self, work: Path) -> None:
        spec = self.task_spec()
        self.data = work / "data"
        self.synth(spec, self.data)
        self.n_train = len(manifest_ids(self.data, "train"))
        self.out = work / "run"
        self.config_path = work / "run.json"
        _write_json(
            {
                "seed": derive_seed(self.seed, self.role, "model"),
                "data_dir": str(self.data),
                "out_dir": str(self.out),
                "model": config_to_dict(bench_config(spec.num_classes)),
                "train": {
                    "batch_size": BENCH_BATCH,
                    "epochs": EPOCHS,
                    "learning_rate": BENCH_LR,
                    "momentum": 0.9,
                    "shuffle_seed": derive_seed(self.seed, self.role, "shuffle"),
                    "augment": augment_config_to_dict(BENCH_AUGMENT),
                },
            },
            self.config_path,
        )

    def setup_fingerprint(self) -> dict:
        return {"labels.csv": sha256(self.data / "labels.csv")}

    def iteration(self):
        shutil.rmtree(self.out, ignore_errors=True)
        seconds = self.cli(self.command, "--config", str(self.config_path), *self.extra_argv())
        checkpoint = self.out / "checkpoint.aens"
        self.check_checkpoint(checkpoint)
        history = self.check_history(self.out / "history.csv")
        fingerprint = {
            "checkpoint.aens": sha256(checkpoint) if checkpoint.is_file() else None,
            "history_without_seconds": history,
        }
        return EPOCHS * self.n_train, seconds, fingerprint

    def check_history(self, path: Path) -> list[list[str]]:
        try:
            with open(path, newline="") as f:
                rows = list(csv.DictReader(f))
            losses = [float(r["train_loss"]) for r in rows]
        except (OSError, ValueError, KeyError) as e:
            self.ledger.check(False, f"history.csv reads: {e}")
            return []
        finite = len(losses) == EPOCHS and all(math.isfinite(v) for v in losses)
        self.ledger.check(finite, f"history.csv has {EPOCHS} rows of finite losses")
        return [[v for k, v in r.items() if k != "seconds"] for r in rows]


class TrainScratch(TrainWorkload):
    """attnens pretrain from scratch on SOURCE_SPEC-shaped data."""

    role = "train_scratch"
    command = "pretrain"

    def task_spec(self):
        return replace(
            SOURCE_SPEC,
            per_class=self.sizes.source_per_class,
            seed=derive_seed(self.seed, self.role, "synth"),
        )


class TransferFrozen(TrainWorkload):
    """attnens finetune --policy freeze from a source checkpoint made in set-up."""

    role = "transfer_frozen"
    command = "finetune"

    def task_spec(self):
        return replace(
            TARGET_SPEC,
            per_class=self.sizes.target_per_class,
            seed=derive_seed(self.seed, self.role, "synth"),
        )

    def prepare(self, work: Path) -> None:
        super().prepare(work)
        self.source = work / "source.aens"
        source_config = bench_config(SOURCE_SPEC.num_classes)
        source = build_model(source_config, derive_seed(self.seed, self.role, "source"))
        attnens.checkpoint.save_model(source, self.source)

    def extra_argv(self):
        return ("--from", str(self.source), "--policy", "freeze")

    def setup_fingerprint(self) -> dict:
        return dict(super().setup_fingerprint(), **{"source.aens": sha256(self.source)})


class PredictEnsemble(Workload):
    """Three predict commands (the last with --crop), then one weighted ensemble."""

    role = "predict_ensemble"

    def prepare(self, work: Path) -> None:
        spec = replace(
            TARGET_SPEC,
            per_class=self.sizes.predict_per_class,
            train_fraction=PREDICT_TRAIN_FRACTION,
            seed=derive_seed(self.seed, self.role, "synth"),
        )
        self.data = work / "data"
        self.synth(spec, self.data)
        self.test_ids = manifest_ids(self.data, "test")
        self.labels = self._labels()
        # Initialised members predict nearly the same class for every image,
        # which would leave the ensemble check nothing to catch. Eight SGD
        # steps on a fifth of the training split make them disagree. Their
        # training is not traced: it is set-up, not this forward-only path.
        train_split = load_dataset(self.data, "train")
        subset = Dataset(train_split.samples[::5], train_split.class_names, "train")
        self.members = []
        for k in range(MEMBERS):
            seed = derive_seed(self.seed, self.role, "member", k)
            model = build_model(bench_config(spec.num_classes), seed)
            settings = TrainConfig(
                batch_size=BENCH_BATCH,
                epochs=1,
                learning_rate=MEMBER_LR,
                shuffle_seed=derive_seed(self.seed, self.role, "member_shuffle", k),
                augment=AugmentConfig.none(),
            )
            with self._untraced():
                model, _ = train(model, subset, subset, settings)
            path = work / f"member{k}.aens"
            attnens.checkpoint.save_model(model, path)
            self.members.append(path)
        self.out = work / "predictions"

    def _labels(self) -> dict[str, int]:
        with open(self.data / "labels.csv", newline="") as f:
            rows = list(csv.DictReader(f))
        names = sorted({row["class_name"] for row in rows})
        return {row["id"]: names.index(row["class_name"]) for row in rows}

    def setup_fingerprint(self) -> dict:
        paths = [self.data / "labels.csv", *self.members]
        return {p.name: sha256(p) for p in paths}

    def iteration(self):
        shutil.rmtree(self.out, ignore_errors=True)
        csvs = [self.out / f"{m.stem}.csv" for m in self.members]
        report = self.out / "ensemble.json"
        times = []
        for k, (member, out) in enumerate(zip(self.members, csvs)):
            crop = ("--crop",) if k == MEMBERS - 1 else ()
            argv = ("predict", "--model", str(member), "--data", str(self.data), "--out", str(out))
            times.append(self.cli(*argv, *crop))
        times.append(
            self.cli(
                "ensemble",
                "--members",
                *map(str, csvs),
                "--weights",
                ",".join(f"{w:g}" for w in WEIGHTS),
                "--labels",
                str(self.data / "labels.csv"),
                "--out",
                str(report),
            )
        )
        for path in csvs:
            self.check_predictions(path, self.test_ids)
        self.check_report(report, csvs)
        fingerprint = {p.name: sha256(p) if p.is_file() else None for p in (*csvs, report)}
        seconds = None if None in times else sum(times)
        return MEMBERS * len(self.test_ids), seconds, fingerprint

    def check_report(self, report: Path, csvs: list[Path]) -> None:
        """The report's accuracy must equal a weighted average computed here."""
        try:
            reported = json.loads(report.read_text())["accuracy"]
            rows = [self._read_rows(path) for path in csvs]
            hits = 0
            for sid, first in rows[0].items():
                mixed = [
                    sum(w * member[sid][c] for w, member in zip(WEIGHTS, rows)) / sum(WEIGHTS)
                    for c in range(len(first))
                ]
                hits += mixed.index(max(mixed)) == self.labels[sid]
            expected = hits / len(rows[0])
        except (OSError, ValueError, KeyError, IndexError, ZeroDivisionError) as e:
            self.ledger.check(False, f"ensemble report and member CSVs read: {e!r}")
            return
        self.ledger.check(
            reported == expected,
            f"ensemble accuracy {reported} equals the recomputed {expected}",
        )

    @staticmethod
    def _read_rows(path: Path) -> dict[str, list[float]]:
        with open(path, newline="") as f:
            reader = csv.reader(f)
            next(reader)
            return {row[0]: [float(v) for v in row[1:]] for row in reader}


WORKLOADS = {w.role: w for w in (TrainScratch, TransferFrozen, PredictEnsemble)}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


_PROBE_MATRIX = np.random.default_rng(0).random((256, 256), dtype=np.float32)


def probe_seconds() -> float:
    """Wall time of a fixed piece of interpreter and BLAS work.

    The 2-core host this benchmark was tuned on changes speed by up to half
    for tens of seconds at a time: over three minutes of one-epoch training
    commands, throughput ranged from 155 to 283 img/s while this probe ranged
    from 23 to 13 ms (correlation 0.79). Timing the probe next to each
    iteration measures the host's speed at that moment, so throughput per
    probe time divides it out; the probe is the benchmark's own code, so no
    change to the library can move it.
    """
    started = time.perf_counter()
    total = 0
    for i in range(200_000):
        total += i & 7
    for _ in range(20):
        _PROBE_MATRIX @ _PROBE_MATRIX
    return time.perf_counter() - started


class Phase:
    """One set-up-and-measure pass of a workload."""

    def __init__(self, workload_cls, seed, sizes, ledger, seconds, work: Path, tracer=None):
        self.setup_s: list[float] = []
        self.throughputs: list[float] = []
        self.per_probe: list[float] = []
        workload = workload_cls(seed, sizes, ledger, tracer)
        setup_prints = []
        while len(self.setup_s) < sizes.setups or sum(self.setup_s) < sizes.setup_seconds:
            shutil.rmtree(work, ignore_errors=True)
            started = time.perf_counter()
            setup_prints.append(digest(workload.set_up(work)))
            self.setup_s.append(time.perf_counter() - started)
            same = setup_prints[-1] == setup_prints[0]
            ledger.check(same, f"set-up {len(self.setup_s)} made the same inputs")
        prints = []
        started = time.perf_counter()
        while not prints or time.perf_counter() - started < seconds:
            before = probe_seconds()
            images, secs, fingerprint = workload.iteration()
            after = probe_seconds()
            prints.append(digest(fingerprint))
            ledger.check(prints[-1] == prints[0], f"iteration {len(prints)} repeated the outputs")
            if secs is not None:
                self.throughputs.append(images / secs)
                self.per_probe.append(images / secs * (before + after) / 2)
        self.fingerprint = {"setup": setup_prints[0], "iteration": prints[0], "detail": fingerprint}
        self.peak_rss_mb = peak_rss_mb()
        shutil.rmtree(work, ignore_errors=True)

    def metrics(self, import_s: float) -> dict[str, float]:
        return {
            "setup_s": import_s + statistics.median(self.setup_s),
            "img_per_probe": statistics.median(self.per_probe) if self.per_probe else 0.0,
            "peak_rss_mb": self.peak_rss_mb,
        }
