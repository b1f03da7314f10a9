"""Transfer a pretrained backbone to new classes, then ensemble the results.

The study mirrors the usual recipe at desk scale:

  1. pretrain one model on a source shape task,
  2. fine-tune several seed-varied copies on a disjoint target task,
  3. compare freezing the backbone against fine-tuning everything,
  4. weighted-average the members, giving the strongest one double weight.

Runs in roughly half a minute on a laptop CPU.
"""

from dataclasses import replace

from attnens.ensemble import EnsembleSpec, accuracy, combine, select_best_k
from attnens.imageops import AugmentConfig
from attnens.model import FINETUNE_ALL, FREEZE_BACKBONE, build_model, desk_config, transfer
from attnens.synth import SynthSpec, synth_dataset
from attnens.trainer import TrainConfig, evaluate, train


def cfg_for(seed, epochs):
    return TrainConfig(
        batch_size=8, epochs=epochs, learning_rate=0.02, momentum=0.9,
        shuffle_seed=seed,
        augment=AugmentConfig(rotation_deg=15.0, h_flip=True,
                              width_shift_frac=0.10, height_shift_frac=0.10),
    )


def main():
    source = SynthSpec(num_classes=3, per_class=40, image_size=48, seed=1)
    target = SynthSpec(num_classes=3, per_class=40, image_size=48, seed=2, class_offset=3)
    src_train, src_test = synth_dataset(source, "train"), synth_dataset(source, "test")
    tgt_train, tgt_test = synth_dataset(target, "train"), synth_dataset(target, "test")
    print(f"source classes: {src_train.class_names}")
    print(f"target classes: {tgt_train.class_names}\n")

    base = build_model(desk_config(source.num_classes), seed=0)
    base, history = train(base, src_train, src_test, cfg_for(seed=0, epochs=8))
    print(f"pretrained source accuracy: {history[-1].test_acc:.3f}\n")

    target_config = replace(base.config, head=(128,), num_classes=target.num_classes)
    print("fine-tuning policies on the target task:")
    for policy in (FREEZE_BACKBONE, FINETUNE_ALL):
        model = transfer(base, target_config, policy, 1)
        model, hist = train(model, tgt_train, tgt_test, cfg_for(seed=1, epochs=8))
        print(f"  {policy:<16} target accuracy {hist[-1].test_acc:.3f}")

    print("\nseed-varied members (backbone fine-tuned):")
    members = []
    for seed in range(4):
        model = transfer(base, target_config, FINETUNE_ALL, seed)
        model, _ = train(model, tgt_train, tgt_test, cfg_for(seed=seed, epochs=8))
        acc, matrix = evaluate(model, tgt_test, model_name=f"member{seed}")
        members.append((matrix, acc))
        print(f"  member{seed}: accuracy {acc:.3f}")

    ranked = select_best_k([(m.model_name, a) for m, a in members], k=len(members))
    best_name = ranked[0][0]
    weighted = tuple(
        (matrix, 2.0 if matrix.model_name == best_name else 1.0)
        for matrix, _ in members
    )
    combined = combine(EnsembleSpec(members=weighted))
    labels = [s.label for s in tgt_test.samples]
    ens_acc = accuracy(combined, labels)
    best_acc = ranked[0][1]
    print(f"\nweighted ensemble ({best_name} weighted 2x): accuracy {ens_acc:.3f}")
    print(f"best single member: {best_acc:.3f}  (gain {ens_acc - best_acc:+.3f})")


if __name__ == "__main__":
    main()
