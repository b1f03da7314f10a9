"""Self-contained transfer-learning benchmark on synthetic tasks.

The benchmark pretrains a small gated CNN on one synthetic task, transfers
it to a disjoint target task, and measures three things: the transferred
model's test accuracy, the gated model against an ungated control across
several seeds, and the gain of a weighted-average ensemble of seed-varied
models over its best single member.  Everything is seeded from ``BASE_SEED``
and every run trains for ``EPOCHS`` epochs, so repeated runs return identical
numbers.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

import numpy as np

from .ensemble import EnsembleSpec, PredictionMatrix, accuracy, combine, select_best_k
from .imageops import AugmentConfig
from .model import FINETUNE_ALL, build_model, desk_config, transfer
from .seeding import derive_seed
from .synth import SynthSpec, synth_dataset
from .trainer import TrainConfig, evaluate, train

SOURCE_SPEC = SynthSpec(num_classes=6, per_class=67, image_size=48, seed=11, class_offset=0)
TARGET_SPEC = SynthSpec(num_classes=5, per_class=80, image_size=48, seed=13, class_offset=6)

BENCH_AUGMENT = AugmentConfig(
    rotation_deg=15.0, h_flip=True, width_shift_frac=0.10, height_shift_frac=0.10
)
BENCH_LR = 0.02
BENCH_BATCH = 8
BENCH_DROPOUT = 0.2
BASE_SEED = 0
EPOCHS = 20
# Each ensemble trial combines a window of 4 consecutive attention finetunes,
# so the pool holds N_TRIALS + 3 of them; the first N_SEEDS are also scored
# against as many control finetunes.
N_SEEDS = 5
N_TRIALS = 5
POOL_SIZE = N_TRIALS + 3


@dataclass(frozen=True)
class TransferBenchmark:
    """Measured accuracies from one full benchmark run."""

    transfer_accuracy: float
    attention_accuracies: tuple[float, ...]
    control_accuracies: tuple[float, ...]
    ensemble_accuracies: tuple[float, ...]
    ensemble_gains: tuple[float, ...]
    elapsed_seconds: float

    @property
    def attention_mean(self) -> float:
        return float(np.mean(self.attention_accuracies))

    @property
    def control_mean(self) -> float:
        return float(np.mean(self.control_accuracies))

    @property
    def mean_ensemble_gain(self) -> float:
        return float(np.mean(self.ensemble_gains))


def _train_config(shuffle_seed: int) -> TrainConfig:
    return TrainConfig(
        batch_size=BENCH_BATCH,
        epochs=EPOCHS,
        learning_rate=BENCH_LR,
        momentum=0.9,
        shuffle_seed=shuffle_seed,
        augment=BENCH_AUGMENT,
    )


def run_transfer_benchmark() -> TransferBenchmark:
    """Run the full pretrain/transfer/ensemble study; see module docstring.

    The ensemble trials choose with the labels they are scored on: each
    window's members are ranked by ``select_best_k`` on target-test
    accuracy, the top one gets weight 2, and the gain is measured against
    the best single member's target-test accuracy.  Weights and baseline
    chosen this way can move the gain for reasons unrelated to ensembling;
    a study meant to test the ensemble should choose them on a validation
    split and score only on the test split.
    """
    started = time.perf_counter()
    source_train = synth_dataset(SOURCE_SPEC, "train")
    source_test = synth_dataset(SOURCE_SPEC, "test")
    target_train = synth_dataset(TARGET_SPEC, "train")
    target_test = synth_dataset(TARGET_SPEC, "test")

    pretrained = {}
    for label, use_attention in (("attn", True), ("ctrl", False)):
        config = replace(
            desk_config(SOURCE_SPEC.num_classes, attention=use_attention),
            dropout_rate=BENCH_DROPOUT,
        )
        model = build_model(config, seed=derive_seed(BASE_SEED, "pretrain", label))
        shuffle_seed = derive_seed(BASE_SEED, "pretrain_shuffle", label)
        model, _ = train(model, source_train, source_test, _train_config(shuffle_seed))
        pretrained[label] = model

    def finetune(label: str, index: int):
        seed = derive_seed(BASE_SEED, "finetune", label, index)
        source = pretrained[label]
        config = replace(source.config, head=(128,), num_classes=TARGET_SPEC.num_classes)
        model = transfer(source, config, FINETUNE_ALL, seed)
        shuffle_seed = derive_seed(BASE_SEED, "finetune_shuffle", label, index)
        model, _ = train(model, target_train, target_test, _train_config(shuffle_seed))
        acc, matrix = evaluate(model, target_test, model_name=f"{label}_{index}")
        return acc, matrix

    attention_runs = [finetune("attn", i) for i in range(POOL_SIZE)]
    control_runs = [finetune("ctrl", i) for i in range(N_SEEDS)]

    attention_accs = tuple(acc for acc, _ in attention_runs[:N_SEEDS])
    control_accs = tuple(acc for acc, _ in control_runs)

    labels = target_test.labels()
    ensemble_accs = []
    gains = []
    for trial in range(N_TRIALS):
        members: list[tuple[PredictionMatrix, float]] = []
        window = attention_runs[trial : trial + 4]
        ranked = select_best_k([(m.model_name, acc) for acc, m in window], k=4)
        best_name = ranked[0][0]
        for acc, matrix in window:
            weight = 2.0 if matrix.model_name == best_name else 1.0
            members.append((matrix, weight))
        combined = combine(EnsembleSpec(members=tuple(members)))
        ens_acc = accuracy(combined, labels)
        best_single = max(acc for acc, _ in window)
        ensemble_accs.append(ens_acc)
        gains.append(ens_acc - best_single)

    return TransferBenchmark(
        transfer_accuracy=attention_accs[0],
        attention_accuracies=attention_accs,
        control_accuracies=control_accs,
        ensemble_accuracies=tuple(ensemble_accs),
        ensemble_gains=tuple(gains),
        elapsed_seconds=time.perf_counter() - started,
    )
