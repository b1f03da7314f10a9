"""Command-line interface.

Subcommands cover the full workflow: ``synth`` materializes a synthetic
dataset, ``pretrain`` trains from scratch, ``finetune`` transfers a
checkpoint to a new label space, ``predict`` writes a prediction matrix,
``ensemble`` combines matrices into a report, and ``gradcheck`` audits every
analytic gradient.

Exit codes are a stable scripting contract: 0 on success, 2 for user,
config, or I/O errors, 3 for numeric failures.  Every training command
writes a ``resolved_config.json`` snapshot beside its outputs so any
artifact can be reproduced from its output directory alone.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass

from . import _requested_threads
from .atomic import atomic_write
from .checkpoint import load_checkpoint, load_model, save_model
from .data import Dataset, crop_bbox, load_dataset, read_label_table
from .ensemble import (
    EnsembleSpec,
    accuracy,
    combine,
    per_class_accuracy,
    read_matrix,
    write_matrix,
)
from .errors import (
    AlignmentError,
    CheckpointError,
    ConfigError,
    IngestError,
    MatrixParseError,
    MissingBboxError,
    NumericError,
    PrecisionError,
    ShapeError,
    TransferError,
    decode_config,
    encode_config,
)
from .gradcheck import audit_gradients
from .model import FINETUNE_ALL, POLICIES, ModelConfig, build_model, transfer
from .synth import SynthSpec, write_synth_dataset
from .trainer import TrainConfig, evaluate, history_summary, train, write_history_csv

USER_ERRORS = (
    ConfigError,
    ShapeError,
    PrecisionError,
    CheckpointError,
    TransferError,
    IngestError,
    MissingBboxError,
    MatrixParseError,
    AlignmentError,
    json.JSONDecodeError,
    OSError,
)


def _load_json(path) -> dict:
    with open(path) as f:
        loaded = json.load(f)
    if not isinstance(loaded, dict):
        raise ConfigError(f"{path}: top level must be a JSON object")
    return loaded


@dataclass(frozen=True)
class RunConfig:
    """A pretrain or finetune run config, as its JSON file spells it.

    ``model`` is the model to build; a finetune restates the source
    checkpoint's backbone and attention in it and gives the new head.
    """

    data_dir: str
    out_dir: str
    model: ModelConfig
    seed: int = 0
    train: TrainConfig = TrainConfig()

    def __post_init__(self):
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")


def _run_config(path, restated: dict) -> RunConfig:
    """Read the run config at ``path`` for the run ``restated`` describes.

    ``restated`` maps the keys a ``resolved_config.json`` snapshot adds
    (``command``, and finetune's ``from`` and ``policy``) to this run's
    values.  A config may hold those keys only with those values, so a
    snapshot replays as the run that wrote it and no other.
    """
    raw = _load_json(path)
    context = f"{restated['command']} config"
    for key, value in restated.items():
        given = raw.pop(key, value)
        if given != value:
            raise ConfigError(f"{context}: {key} is {given!r}, this run's is {value!r}")
    return decode_config(RunConfig, raw, context)


def _ensure_parent(path) -> None:
    parent = os.path.dirname(os.fspath(path))
    if parent:
        os.makedirs(parent, exist_ok=True)


def _write_json(obj, path) -> None:
    _ensure_parent(path)
    with atomic_write(path, "w") as f:
        json.dump(obj, f, indent=2, sort_keys=True)
        f.write("\n")


def _train_and_save(model, run: RunConfig, restated: dict) -> None:
    """Train ``model`` on the run's splits, then write its checkpoint, its
    ``history.csv`` and the ``resolved_config.json`` snapshot that replays it."""
    train_set = load_dataset(run.data_dir, "train")
    test_set = load_dataset(run.data_dir, "test")
    model, history = train(model, train_set, test_set, run.train)
    os.makedirs(run.out_dir, exist_ok=True)
    checkpoint = os.path.join(run.out_dir, "checkpoint.aens")
    save_model(model, checkpoint, history_summary(history))
    write_history_csv(history, os.path.join(run.out_dir, "history.csv"))
    _write_json(
        {**restated, **encode_config(run)}, os.path.join(run.out_dir, "resolved_config.json")
    )
    if history:
        last = history[-1]
        print(
            f"epoch {last.epoch}: train_loss={last.train_loss:.4f} "
            f"train_acc={last.train_acc:.4f} test_acc={last.test_acc:.4f}"
        )
    print(f"wrote {checkpoint}")


def cmd_synth(args) -> int:
    spec = decode_config(SynthSpec, _load_json(args.spec), "synth spec")
    count = write_synth_dataset(spec, args.out)
    _write_json(
        {"command": "synth", "spec": encode_config(spec)},
        os.path.join(args.out, "resolved_config.json"),
    )
    print(f"wrote {count} samples across {spec.num_classes} classes to {args.out}")
    return 0


def cmd_pretrain(args) -> int:
    restated = {"command": "pretrain"}
    run = _run_config(args.config, restated)
    _train_and_save(build_model(run.model, run.seed), run, restated)
    return 0


def cmd_finetune(args) -> int:
    restated = {"command": "finetune", "from": args.source, "policy": args.policy}
    run = _run_config(args.config, restated)
    source, _ = load_checkpoint(args.source)
    model = transfer(source, run.model, args.policy, run.seed)
    _train_and_save(model, run, restated)
    return 0


def cmd_predict(args) -> int:
    model = load_model(args.model)
    dataset = load_dataset(args.data, args.split)
    if args.crop:
        cropped = tuple(crop_bbox(s) for s in dataset.samples)
        dataset = Dataset(samples=cropped, class_names=dataset.class_names, split=dataset.split)
    name = args.name or os.path.splitext(os.path.basename(args.out))[0]
    acc, matrix = evaluate(model, dataset, model_name=name)
    _ensure_parent(args.out)
    write_matrix(matrix, args.out)
    print(f"{name}: accuracy={acc:.4f} over {len(matrix)} samples -> {args.out}")
    return 0


def _parse_weights(text: str, count: int) -> list[float]:
    try:
        weights = [float(w) for w in text.split(",")]
    except ValueError:
        raise ConfigError(f"--weights must be comma-separated numbers, got {text!r}") from None
    if len(weights) != count:
        raise ConfigError(f"--weights lists {len(weights)} values for {count} members")
    return weights


def cmd_ensemble(args) -> int:
    paths = [p for chunk in args.members for p in chunk.split(",") if p]
    matrices = [read_matrix(path) for path in paths]
    # The report's rule says whether weights were given, not whether they differ.
    if args.weights is not None:
        weights = _parse_weights(args.weights, len(matrices))
        rule = "weighted_average"
    else:
        weights = [1.0] * len(matrices)
        rule = "average"
    label_of, class_names = read_label_table(args.labels)
    combined = combine(EnsembleSpec(members=tuple(zip(matrices, weights))))

    def labels_for(matrix):
        missing = [sid for sid in matrix.sample_ids if sid not in label_of]
        if missing:
            raise AlignmentError(
                f"label table has no entry for sample id {missing[0]!r}"
            )
        return [label_of[sid] for sid in matrix.sample_ids]

    member_rows = []
    for matrix, weight in zip(matrices, weights):
        acc = accuracy(matrix, labels_for(matrix))
        member_rows.append({"name": matrix.model_name, "weight": weight, "accuracy": acc})
        print(f"member {matrix.model_name}: weight={weight:g} accuracy={acc:.4f}")
    labels = labels_for(combined)
    ens_acc = accuracy(combined, labels)
    by_class = per_class_accuracy(combined, labels)
    report = {
        "rule": rule,
        "members": member_rows,
        "accuracy": ens_acc,
        "per_class_accuracy": {class_names[c]: a for c, a in by_class.items()},
        "num_samples": len(combined),
    }
    _write_json(report, args.out)
    print(f"ensemble ({rule}): accuracy={ens_acc:.4f} -> {args.out}")
    return 0


def cmd_gradcheck(args) -> int:
    rows = audit_gradients(seed=args.seed, corrupt=args.corrupt)
    width = max(len(r.name) for r in rows)
    for r in rows:
        status = "PASS" if r.passed else "FAIL"
        print(f"{r.name:<{width}}  max_rel_err={r.max_rel_err:.3e}  {status}")
    if all(r.passed for r in rows):
        print(f"all {len(rows)} gradient checks passed (tolerance {rows[0].tolerance:g})")
        return 0
    failed = [r.name for r in rows if not r.passed]
    print(f"gradient check FAILED for: {', '.join(failed)}", file=sys.stderr)
    return 3


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="attnens",
        description="Train, transfer, and ensemble channel-gated CNN classifiers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic shape-classification dataset")
    p.add_argument("--spec", required=True, help="JSON spec file")
    p.add_argument("--out", required=True, help="output dataset directory")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("pretrain", help="train a model from scratch")
    p.add_argument("--config", required=True, help="JSON run config")
    p.set_defaults(func=cmd_pretrain)

    p = sub.add_parser("finetune", help="transfer a checkpoint to a new task")
    p.add_argument("--config", required=True, help="JSON run config")
    p.add_argument("--from", dest="source", required=True, help="source checkpoint")
    p.add_argument(
        "--policy",
        choices=POLICIES,
        default=FINETUNE_ALL,
        help="freeze the copied backbone or finetune everything",
    )
    p.set_defaults(func=cmd_finetune)

    p = sub.add_parser("predict", help="write a prediction matrix for a dataset split")
    p.add_argument("--model", required=True, help="checkpoint file")
    p.add_argument("--data", required=True, help="dataset directory")
    p.add_argument("--split", choices=("train", "test"), default="test")
    p.add_argument("--out", required=True, help="output CSV path")
    p.add_argument("--crop", action="store_true", help="crop each sample to its bbox first")
    p.add_argument("--name", default=None, help="model name recorded in the matrix")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("ensemble", help="combine prediction matrices and report accuracy")
    p.add_argument("--members", nargs="+", required=True, help="prediction matrix CSVs")
    p.add_argument("--weights", default=None, help="comma-separated member weights")
    p.add_argument("--labels", required=True, help="labels.csv with true classes")
    p.add_argument("--out", required=True, help="output report JSON")
    p.set_defaults(func=cmd_ensemble)

    p = sub.add_parser("gradcheck", help="audit analytic gradients by finite differences")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--corrupt", default=None, help=argparse.SUPPRESS)
    p.set_defaults(func=cmd_gradcheck)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _requested_threads()
        return args.func(args)
    except USER_ERRORS as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except NumericError as e:
        print(f"numeric failure: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
