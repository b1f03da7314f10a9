"""Release gate: one test per shipped guarantee, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines;
the transfer benchmark at the end trains dozens of small models and dominates
the runtime (a few minutes on a laptop CPU).
"""

import json
import time
from dataclasses import replace

import numpy as np
import pytest

from attnens.checkpoint import (
    UnsupportedVersionError,
    load_checkpoint,
    load_model,
    save_model,
)
from attnens.cli import main
from attnens.ensemble import (
    EnsembleSpec,
    MatrixParseError,
    PredictionMatrix,
    combine,
    read_matrix,
    select_best_k,
    write_matrix,
)
from attnens.errors import CheckpointError
from attnens.gradcheck import audit_gradients
from attnens.imageops import AugmentConfig, augment
from attnens.model import ForwardMode, Model, build_model, desk_config, forward, forward_cached
from attnens.trainer import cross_entropy
from reference import combine_naive, cross_entropy_scalar


def gate(label, ok, detail=""):
    line = f"[acceptance] {label}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


def random_stochastic(rng, n, k):
    raw = rng.random((n, k)) + 1e-3
    return raw / raw.sum(axis=1, keepdims=True)


def matrix(name, probs):
    ids = tuple(f"s{i}" for i in range(probs.shape[0]))
    return PredictionMatrix(model_name=name, sample_ids=ids, probs=probs)


def test_gradient_audit():
    start = time.perf_counter()
    rows = audit_gradients(seed=0)
    elapsed = time.perf_counter() - start
    worst = max(r.max_rel_err for r in rows)
    ok = len(rows) == 9 and worst < 1e-4 and elapsed < 60.0
    gate("gradient audit", ok, f"9 kinds, worst rel err {worst:.2e}, {elapsed:.1f}s")


def test_loss_matches_scalar_oracle():
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(100):
        n, k = int(rng.integers(1, 17)), int(rng.integers(2, 9))
        probs = random_stochastic(rng, n, k)
        onehot = np.eye(k)[rng.integers(0, k, n)]
        got = cross_entropy(onehot, probs)
        ref = cross_entropy_scalar(onehot, probs)
        worst = max(worst, abs(got - ref) / max(1.0, abs(ref)))
    y = np.eye(5)
    perfect = abs(cross_entropy(y, y))
    halves = abs(cross_entropy(np.array([[1.0, 0.0]]), np.array([[0.5, 0.5]])) - np.log(2.0))
    ok = worst < 1e-12 and perfect < 1e-9 and halves < 1e-9
    gate("cross-entropy oracle", ok,
         f"100 batches worst rel err {worst:.2e}, analytic errs {perfect:.1e}/{halves:.1e}")


def test_ensemble_algebra():
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(100):
        members = int(rng.integers(1, 6))
        n, k = int(rng.integers(1, 9)), int(rng.integers(2, 7))
        mats = [matrix(f"m{j}", random_stochastic(rng, n, k)) for j in range(members)]
        weights = rng.uniform(0.1, 3.0, members)
        got = combine(EnsembleSpec(members=tuple(zip(mats, weights))))
        ref = combine_naive([m.probs for m in mats], list(weights))
        worst = max(worst, float(np.abs(got.probs - ref).max()))

    mats = [matrix(f"m{j}", random_stochastic(rng, 6, 4)) for j in range(4)]
    fwd = combine(EnsembleSpec(members=tuple((m, 1.0) for m in mats)))
    rev = combine(EnsembleSpec(members=tuple((m, 1.0) for m in reversed(mats))))
    permutation_ok = np.array_equal(fwd.probs, rev.probs)

    w1 = combine(EnsembleSpec(members=tuple(zip(mats, (2.0, 1.0, 1.0, 1.0)))))
    w2 = combine(EnsembleSpec(members=tuple(zip(mats, (4.0, 2.0, 2.0, 2.0)))))
    scale_ok = np.allclose(w1.probs, w2.probs, rtol=0, atol=1e-12)

    closure_ok = np.allclose(w1.probs.sum(axis=1), 1.0, atol=1e-9)
    solo = combine(EnsembleSpec(members=((mats[0], 3.0),)))
    identity_ok = np.array_equal(solo.probs, mats[0].probs)

    pair = combine(EnsembleSpec(
        members=((matrix("a", np.array([[0.8, 0.2]])), 2.0),
                 (matrix("b", np.array([[0.2, 0.8]])), 1.0))))
    example_ok = np.array_equal(pair.probs, np.array([[0.6, 0.4]]))

    ok = (worst < 1e-12 and permutation_ok and scale_ok and closure_ok
          and identity_ok and example_ok)
    gate("ensemble algebra", ok,
         f"100 specs worst abs err {worst:.2e}, worked example exact={example_ok}")


def test_member_selection():
    table = [
        ("VGG-16", 72.61),
        ("ResNet50", 85.39),
        ("InceptionV3", 88.81),
        ("InceptionResNetV2", 89.71),
        ("DenseNet201", 86.08),
        ("Xception", 88.83),
        ("NASNet-Mobile", 85.67),
        ("NASNet-Large", 91.47),
        ("NASNet-Large-cropped", 83.92),
    ]
    got = [name for name, _ in select_best_k(table, 4)]
    expected = ["NASNet-Large", "InceptionResNetV2", "Xception", "InceptionV3"]
    gate("best-member selection", got == expected, f"top four {got}")


def test_persistence(tmp_path):
    model = build_model(desk_config(4, input_size=(16, 16, 3)), seed=9)
    p1, p2 = tmp_path / "a.aens", tmp_path / "b.aens"
    save_model(model, p1, {"epochs": 3, "final_test_acc": 0.5})
    save_model(load_model(p1), p2, load_checkpoint(p1)[1])
    checkpoint_ok = p1.read_bytes() == p2.read_bytes()

    rng = np.random.default_rng(0)
    m = matrix("rt", random_stochastic(rng, 12, 5))
    mpath = tmp_path / "m.csv"
    write_matrix(m, mpath)
    matrix_ok = np.allclose(read_matrix(mpath).probs, m.probs, atol=1e-9)

    blob = bytearray(p1.read_bytes())
    corrupt_ok = []
    bad_magic = tmp_path / "magic.aens"
    bad_magic.write_bytes(b"XXXX" + bytes(blob[4:]))
    with pytest.raises(CheckpointError):
        load_checkpoint(bad_magic)
    corrupt_ok.append(True)
    truncated = tmp_path / "trunc.aens"
    truncated.write_bytes(bytes(blob[: len(blob) // 2]))
    with pytest.raises(CheckpointError):
        load_checkpoint(truncated)
    corrupt_ok.append(True)
    versioned = bytearray(blob)
    versioned[4] = 99
    bad_version = tmp_path / "ver.aens"
    bad_version.write_bytes(bytes(versioned))
    with pytest.raises(UnsupportedVersionError):
        load_checkpoint(bad_version)
    corrupt_ok.append(True)
    bad_rows = tmp_path / "bad.csv"
    bad_rows.write_text("sample_id,p_0,p_1\ns0,0.5,0.3\n")
    with pytest.raises(MatrixParseError):
        read_matrix(bad_rows)
    corrupt_ok.append(True)

    ok = checkpoint_ok and matrix_ok and all(corrupt_ok)
    gate("persistence round trips", ok,
         f"checkpoint bitwise={checkpoint_ok}, matrix<=1e-9={matrix_ok}, "
         f"{len(corrupt_ok)} corruption modes rejected")


def test_repeat_runs_are_identical(tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(
        {"num_classes": 3, "per_class": 12, "image_size": 24, "seed": 5}))
    data = str(tmp_path / "data")
    assert main(["synth", "--spec", str(spec), "--out", data]) == 0

    outs = []
    for i in range(2):
        out_dir = tmp_path / f"run{i}"
        cfg = tmp_path / f"cfg{i}.json"
        cfg.write_text(json.dumps({
            "seed": 1, "data_dir": data, "out_dir": str(out_dir),
            "model": {"input_size": [24, 24, 3], "backbone": [6, 8], "num_classes": 3,
                      "head": [16], "attention": {"channels": 8, "reduction": 4},
                      "dropout_rate": 0.1},
            "train": {"batch_size": 8, "epochs": 2, "learning_rate": 0.05,
                      "momentum": 0.9, "shuffle_seed": 1,
                      "augment": {"rotation_deg": 10.0, "h_flip": True,
                                  "width_shift_frac": 0.1, "height_shift_frac": 0.1}},
        }))
        assert main(["pretrain", "--config", str(cfg)]) == 0
        outs.append(out_dir)

    ckpt_ok = (outs[0] / "checkpoint.aens").read_bytes() == \
              (outs[1] / "checkpoint.aens").read_bytes()

    # History rows must agree bitwise in every column except wall time.
    h0 = (outs[0] / "history.csv").read_text().splitlines()
    h1 = (outs[1] / "history.csv").read_text().splitlines()
    seconds_col = h0[0].split(",").index("seconds")
    history_ok = len(h0) == len(h1) and h0[0] == h1[0] and all(
        [c for j, c in enumerate(a.split(",")) if j != seconds_col]
        == [c for j, c in enumerate(b.split(",")) if j != seconds_col]
        for a, b in zip(h0[1:], h1[1:])
    )

    rng = np.random.default_rng(3)
    img = rng.random((3, 24, 24)).astype(np.float32)
    cfg = AugmentConfig(rotation_deg=15.0, h_flip=True,
                        width_shift_frac=0.1, height_shift_frac=0.1)
    augment_ok = np.array_equal(augment(img, cfg, seed=123), augment(img, cfg, seed=123))

    ok = ckpt_ok and history_ok and augment_ok
    gate("repeat-run determinism", ok,
         f"checkpoint bitwise={ckpt_ok}, history (excl. wall time)={history_ok}, "
         f"augment repeat={augment_ok}")


def test_attention_saturation_identity():
    cfg = desk_config(5, input_size=(24, 24, 3), attention=True)
    base = build_model(cfg, seed=6)
    saturated = replace(base, params=tuple(
        replace(p, bias=np.full_like(p.bias, 30.0)) if p.name == "attn_expand" else p
        for p in base.params))
    twin = Model(config=replace(cfg, attention=None),
                 params=tuple(p for p in base.params if not p.name.startswith("attn_")),
                 frozen=frozenset())

    rng = np.random.default_rng(0)
    batch = rng.random((6, 3, 24, 24)).astype(np.float32)
    diff = float(np.abs(forward(saturated, batch) - forward(twin, batch)).max())

    _, tape = forward_cached(saturated, batch, ForwardMode.eval())
    gates = next(cache for kind, _, cache in tape if kind == "attention")[4]
    min_gate = float(gates.min())

    ok = diff <= 1e-5 and min_gate > 1 - 1e-6
    gate("attention saturation identity", ok,
         f"max output diff {diff:.2e}, min gate {min_gate:.8f}")


def test_transfer_benchmark():
    from attnens.experiments import run_transfer_benchmark

    bench = run_transfer_benchmark()
    attn, ctrl = bench.attention_mean, bench.control_mean
    gain = bench.mean_ensemble_gain
    checks = (
        bench.transfer_accuracy >= 0.85,
        attn >= ctrl - 0.01,
        gain >= -0.005,
        bench.elapsed_seconds < 900.0,
    )
    gate("transfer benchmark", all(checks),
         f"transfer {bench.transfer_accuracy:.3f} (>=0.85), "
         f"attention {attn:.3f} vs control {ctrl:.3f} (-1pp slack), "
         f"ensemble gain {gain:+.4f} (>=-0.005), "
         f"{bench.elapsed_seconds:.0f}s (<900s)")
