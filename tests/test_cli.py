"""End-to-end command line workflow on a small synthetic task.

A module-scoped fixture drives synth -> pretrain -> finetune -> predict once;
the tests then assert on the artifacts and on the failure-path exit codes.
"""

import json
import os
import shutil
from pathlib import Path

import numpy as np
import pytest

from attnens.checkpoint import load_checkpoint
from attnens.cli import main
from attnens.ensemble import read_matrix

MODEL = {
    "input_size": [24, 24, 3],
    "backbone": [6, 8],
    "num_classes": 3,
    "head": [16],
    "attention": {"channels": 8, "reduction": 4},
    "dropout_rate": 0.1,
}
TRAIN = {
    "batch_size": 8,
    "epochs": 2,
    "learning_rate": 0.05,
    "momentum": 0.9,
    "shuffle_seed": 1,
}


def write_json(path, payload):
    with open(path, "w") as f:
        json.dump(payload, f)
    return str(path)


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    source_data = str(root / "source_data")
    target_data = str(root / "target_data")

    spec = write_json(root / "source_spec.json",
                      {"num_classes": 3, "per_class": 12, "image_size": 24, "seed": 5})
    assert main(["synth", "--spec", spec, "--out", source_data]) == 0
    spec = write_json(root / "target_spec.json",
                      {"num_classes": 3, "per_class": 12, "image_size": 24, "seed": 7,
                       "class_offset": 3})
    assert main(["synth", "--spec", spec, "--out", target_data]) == 0

    pre_dir = str(root / "pretrained")
    cfg = write_json(root / "pretrain.json",
                     {"seed": 1, "data_dir": source_data, "out_dir": pre_dir,
                      "model": MODEL, "train": TRAIN})
    assert main(["pretrain", "--config", cfg]) == 0
    source_ckpt = os.path.join(pre_dir, "checkpoint.aens")

    runs = {}
    for label, policy in (("frozen", "freeze"), ("full", "all")):
        out_dir = str(root / f"finetuned_{label}")
        cfg = write_json(root / f"finetune_{label}.json",
                         {"seed": 2, "data_dir": target_data, "out_dir": out_dir,
                          "model": MODEL, "train": TRAIN})
        assert main(["finetune", "--config", cfg, "--from", source_ckpt,
                     "--policy", policy]) == 0
        runs[label] = os.path.join(out_dir, "checkpoint.aens")

    preds = root / "preds"
    preds.mkdir()
    for label in runs:
        assert main(["predict", "--model", runs[label], "--data", target_data,
                     "--split", "test", "--out", str(preds / f"{label}.csv"),
                     "--name", label]) == 0

    return {
        "root": root,
        "source_data": source_data,
        "target_data": target_data,
        "source_ckpt": source_ckpt,
        "runs": runs,
        "preds": preds,
        "labels": os.path.join(target_data, "labels.csv"),
    }


class TestSynth:
    def test_dataset_files_on_disk(self, pipeline):
        files = os.listdir(pipeline["source_data"])
        assert "labels.csv" in files
        assert "resolved_config.json" in files
        assert sum(f.endswith(".ppm") for f in files) == 36

    def test_bad_spec_key_exits_2(self, pipeline, capsys):
        spec = write_json(pipeline["root"] / "bad_spec.json",
                          {"num_classes": 2, "per_class": 4, "shapes": "disk"})
        assert main(["synth", "--spec", spec, "--out", str(pipeline["root"] / "x")]) == 2
        assert "error:" in capsys.readouterr().err


class TestTrainingRuns:
    def test_artifacts_written(self, pipeline):
        pre_dir = os.path.dirname(pipeline["source_ckpt"])
        for name in ("checkpoint.aens", "history.csv", "resolved_config.json"):
            assert os.path.exists(os.path.join(pre_dir, name))
        history = Path(pre_dir, "history.csv").read_text().splitlines()
        assert len(history) == 1 + TRAIN["epochs"]

    def test_resolved_config_replays_inputs(self, pipeline):
        pre_dir = os.path.dirname(pipeline["source_ckpt"])
        resolved = json.loads(Path(pre_dir, "resolved_config.json").read_text())
        assert resolved["command"] == "pretrain"
        assert resolved["model"]["num_classes"] == 3
        assert resolved["train"]["epochs"] == TRAIN["epochs"]

    def test_pretrain_snapshot_replays_to_the_same_bytes(self, pipeline, tmp_path):
        out_dir = tmp_path / "pretrained"
        cfg = write_json(tmp_path / "pretrain.json",
                         {"seed": 1, "data_dir": pipeline["source_data"],
                          "out_dir": str(out_dir), "model": MODEL, "train": TRAIN})
        assert main(["pretrain", "--config", cfg]) == 0
        checkpoint, snapshot = out_dir / "checkpoint.aens", out_dir / "resolved_config.json"
        first = checkpoint.read_bytes(), snapshot.read_bytes()
        assert main(["pretrain", "--config", str(snapshot)]) == 0
        assert (checkpoint.read_bytes(), snapshot.read_bytes()) == first

    @pytest.mark.parametrize("policy", ["freeze", "all"])
    def test_finetune_snapshot_replays_to_the_same_bytes(self, pipeline, tmp_path, policy):
        out_dir = tmp_path / "finetuned"
        cfg = write_json(tmp_path / "finetune.json",
                         {"seed": 2, "data_dir": pipeline["target_data"],
                          "out_dir": str(out_dir), "model": MODEL, "train": TRAIN})
        source = ["--from", pipeline["source_ckpt"], "--policy", policy]
        assert main(["finetune", "--config", cfg, *source]) == 0
        checkpoint, snapshot = out_dir / "checkpoint.aens", out_dir / "resolved_config.json"
        first = checkpoint.read_bytes(), snapshot.read_bytes()
        assert json.loads(first[1])["policy"] == policy
        assert main(["finetune", "--config", str(snapshot), *source]) == 0
        assert (checkpoint.read_bytes(), snapshot.read_bytes()) == first

    @pytest.mark.parametrize("command,restated,key", [
        ("pretrain", {"command": "finetune"}, "command"),
        ("pretrain", {"policy": "freeze"}, "policy"),
        ("finetune", {"command": "pretrain"}, "command"),
        ("finetune", {"from": "/elsewhere/checkpoint.aens"}, "from"),
        ("finetune", {"policy": "all"}, "policy"),
    ])
    def test_snapshot_of_another_run_exits_2(self, pipeline, capsys, tmp_path,
                                             command, restated, key):
        out_dir = tmp_path / "out"
        data = pipeline["source_data" if command == "pretrain" else "target_data"]
        cfg = write_json(tmp_path / "snapshot.json",
                         {"seed": 1, "data_dir": data, "out_dir": str(out_dir),
                          "model": MODEL, "train": TRAIN, **restated})
        argv = [command, "--config", cfg]
        if command == "finetune":
            argv += ["--from", pipeline["source_ckpt"], "--policy", "freeze"]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "error:" in err and key in err
        assert not out_dir.exists()

    def test_freeze_policy_preserves_backbone_bytes(self, pipeline):
        source = {p.name: p for p in load_checkpoint(pipeline["source_ckpt"])[0].params}
        frozen, _ = load_checkpoint(pipeline["runs"]["frozen"])
        tuned = {p.name: p for p in frozen.params}
        for name in ("conv1", "conv2", "attn_reduce", "attn_expand"):
            np.testing.assert_array_equal(tuned[name].weights, source[name].weights)
            np.testing.assert_array_equal(tuned[name].bias, source[name].bias)
            assert name in frozen.frozen
        assert not np.array_equal(tuned["logits"].weights, source["logits"].weights)

    def test_full_policy_moves_backbone(self, pipeline):
        source = {p.name: p for p in load_checkpoint(pipeline["source_ckpt"])[0].params}
        full, _ = load_checkpoint(pipeline["runs"]["full"])
        tuned = {p.name: p for p in full.params}
        assert full.frozen == frozenset()
        assert not np.array_equal(tuned["conv1"].weights, source["conv1"].weights)

    def test_finetune_backbone_mismatch_exits_2(self, pipeline, capsys):
        other = dict(MODEL, backbone=[6, 8, 8])
        cfg = write_json(pipeline["root"] / "mismatch.json",
                         {"seed": 2, "data_dir": pipeline["target_data"],
                          "out_dir": str(pipeline["root"] / "mm"),
                          "model": other, "train": TRAIN})
        code = main(["finetune", "--config", cfg, "--from", pipeline["source_ckpt"],
                     "--policy", "freeze"])
        assert code == 2
        assert "backbone" in capsys.readouterr().err

    def test_finetune_attention_mismatch_exits_2(self, pipeline, capsys):
        other = dict(MODEL, attention={"channels": 8, "reduction": 2})
        cfg = write_json(pipeline["root"] / "attention_mismatch.json",
                         {"seed": 2, "data_dir": pipeline["target_data"],
                          "out_dir": str(pipeline["root"] / "am"),
                          "model": other, "train": TRAIN})
        code = main(["finetune", "--config", cfg, "--from", pipeline["source_ckpt"],
                     "--policy", "all"])
        assert code == 2
        assert "attention" in capsys.readouterr().err
        assert not os.path.exists(pipeline["root"] / "am")

    def test_config_missing_key_exits_2(self, pipeline, capsys):
        cfg = write_json(pipeline["root"] / "incomplete.json",
                         {"seed": 1, "model": MODEL})
        assert main(["pretrain", "--config", cfg]) == 2
        assert "data_dir" in capsys.readouterr().err

    def test_config_unknown_key_exits_2(self, pipeline):
        cfg = write_json(pipeline["root"] / "extra.json",
                         {"seed": 1, "data_dir": pipeline["source_data"],
                          "out_dir": str(pipeline["root"] / "y"),
                          "model": MODEL, "train": TRAIN, "optimizer": "adam"})
        assert main(["pretrain", "--config", cfg]) == 2

    def test_snapshot_with_loss_clamp_eps_exits_2(self, pipeline, capsys):
        # The clamp is a constant now; a snapshot written while it was a
        # run-config key replays once the key is deleted.
        cfg = write_json(pipeline["root"] / "clamp.json",
                         {"seed": 1, "data_dir": pipeline["source_data"],
                          "out_dir": str(pipeline["root"] / "clamp"),
                          "model": MODEL, "train": dict(TRAIN, loss_clamp_eps=1e-7)})
        assert main(["pretrain", "--config", cfg]) == 2
        assert "unknown keys ['loss_clamp_eps']" in capsys.readouterr().err
        assert not os.path.exists(pipeline["root"] / "clamp")

    @pytest.mark.parametrize("command,override,key", [
        ("pretrain", {"train": dict(TRAIN, batch_size="abc")}, "batch_size"),
        ("pretrain", {"train": dict(TRAIN, batch_size=None)}, "batch_size"),
        ("pretrain", {"train": dict(TRAIN, augment=[])}, "augment"),
        ("pretrain", {"model": dict(MODEL, backbone=5)}, "backbone"),
        ("pretrain", {"model": dict(MODEL, input_size="abc")}, "input_size"),
        ("pretrain", {"seed": "x"}, "seed"),
        ("pretrain", {"data_dir": 5}, "data_dir"),
        ("pretrain", {"out_dir": ["o"]}, "out_dir"),
        ("synth", {"num_classes": "x"}, "num_classes"),
    ])
    def test_wrong_typed_value_exits_2(self, pipeline, capsys, command, override, key):
        root = pipeline["root"]
        out_dir = str(root / "wrong_type_out")
        if command == "synth":
            payload = {"num_classes": 2, "per_class": 4, **override}
            argv = ["synth", "--spec", write_json(root / "wrong_type.json", payload),
                    "--out", out_dir]
        else:
            payload = {"seed": 1, "data_dir": pipeline["source_data"], "out_dir": out_dir,
                       "model": MODEL, "train": TRAIN, **override}
            argv = ["pretrain", "--config", write_json(root / "wrong_type.json", payload)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "error:" in err and key in err
        assert not os.path.exists(out_dir)

    @pytest.mark.parametrize("override,key", [
        ({"seed": -1}, "seed"),
        # An int stands for a config only inside a list of configs.
        ({"model": dict(MODEL, attention=8)}, "attention"),
    ])
    def test_refused_run_config_value_exits_2(self, pipeline, capsys, override, key):
        root = pipeline["root"]
        out_dir = str(root / "refused_out")
        payload = {"seed": 1, "data_dir": pipeline["source_data"], "out_dir": out_dir,
                   "model": MODEL, "train": TRAIN, **override}
        assert main(["pretrain", "--config", write_json(root / "refused.json", payload)]) == 2
        err = capsys.readouterr().err
        assert "error:" in err and key in err
        assert not os.path.exists(out_dir)

    def test_snapshot_holds_the_run_config_and_the_restated_keys(self, pipeline):
        def snapshot_keys(checkpoint):
            path = Path(os.path.dirname(checkpoint), "resolved_config.json")
            return set(json.loads(path.read_text()))

        run_keys = {"data_dir", "out_dir", "model", "seed", "train"}
        assert snapshot_keys(pipeline["source_ckpt"]) == run_keys | {"command"}
        for checkpoint in pipeline["runs"].values():
            assert snapshot_keys(checkpoint) == run_keys | {"command", "from", "policy"}

    def test_manifest_row_missing_class_name_exits_2(self, capsys, tmp_path):
        data = tmp_path / "data"
        data.mkdir()
        (data / "labels.csv").write_text("id,split,class_name\na,train,x\nb,train\n")
        cfg = write_json(tmp_path / "pretrain.json",
                         {"data_dir": str(data), "out_dir": str(tmp_path / "out"),
                          "model": MODEL})
        assert main(["pretrain", "--config", cfg]) == 2
        assert "error:" in capsys.readouterr().err

    def test_malformed_json_exits_2(self, pipeline):
        path = pipeline["root"] / "broken.json"
        path.write_text("{not json")
        assert main(["pretrain", "--config", str(path)]) == 2

    def test_missing_checkpoint_file_exits_2(self, pipeline):
        cfg = write_json(pipeline["root"] / "ft_missing.json",
                         {"seed": 2, "data_dir": pipeline["target_data"],
                          "out_dir": str(pipeline["root"] / "z"),
                          "model": MODEL, "train": TRAIN})
        assert main(["finetune", "--config", cfg, "--from", "/no/such/file.aens",
                     "--policy", "all"]) == 2


class TestPredict:
    def test_row_count_matches_test_split(self, pipeline):
        matrix = read_matrix(str(pipeline["preds"] / "frozen.csv"))
        # 12 per class, 0.75 train fraction -> 3 test samples per class
        assert len(matrix) == 9
        assert matrix.model_name == "frozen"

    def test_repeat_prediction_is_byte_identical(self, pipeline):
        out1 = str(pipeline["root"] / "again1.csv")
        out2 = str(pipeline["root"] / "again2.csv")
        for out in (out1, out2):
            assert main(["predict", "--model", pipeline["runs"]["frozen"],
                         "--data", pipeline["target_data"], "--split", "test",
                         "--out", out, "--name", "again"]) == 0
        assert Path(out1).read_bytes() == Path(out2).read_bytes()

    def test_crop_flag_uses_bboxes(self, pipeline):
        out = str(pipeline["root"] / "cropped.csv")
        assert main(["predict", "--model", pipeline["runs"]["frozen"],
                     "--data", pipeline["target_data"], "--split", "test",
                     "--out", out, "--crop", "--name", "cropped"]) == 0
        assert len(read_matrix(out)) == 9

    def test_crop_without_bboxes_exits_2(self, pipeline, capsys):
        stripped = str(pipeline["root"] / "no_bbox_data")
        shutil.copytree(pipeline["target_data"], stripped)
        manifest = os.path.join(stripped, "labels.csv")
        rows = [line.split(",")[:3] for line in Path(manifest).read_text().splitlines()]
        with open(manifest, "w") as f:
            f.write("\n".join(",".join(r) for r in rows) + "\n")
        code = main(["predict", "--model", pipeline["runs"]["frozen"],
                     "--data", stripped, "--split", "test",
                     "--out", str(pipeline["root"] / "nope.csv"), "--crop"])
        assert code == 2
        assert "bounding box" in capsys.readouterr().err


    def test_corrupt_checkpoint_exits_2(self, pipeline, capsys):
        raw = Path(pipeline["runs"]["frozen"]).read_bytes()
        header_len = int.from_bytes(raw[8:12], "little")
        bad = str(pipeline["root"] / "bad.aens")
        with open(bad, "wb") as f:
            f.write(raw[:8] + (1).to_bytes(4, "little") + b"5" + raw[12 + header_len :])
        code = main(["predict", "--model", bad, "--data", pipeline["target_data"],
                     "--split", "test", "--out", str(pipeline["root"] / "bad.csv")])
        assert code == 2
        assert "error:" in capsys.readouterr().err


    def test_oversized_ppm_header_exits_2(self, pipeline, capsys):
        data = str(pipeline["root"] / "huge_ppm_data")
        shutil.copytree(pipeline["target_data"], data)
        lines = Path(data, "labels.csv").read_text().splitlines()
        test_id = next(line.split(",")[0] for line in lines if line.split(",")[2] == "test")
        with open(os.path.join(data, f"{test_id}.ppm"), "wb") as f:
            f.write(b"P6\n300000 300000\n255\n" + bytes(12))
        code = main(["predict", "--model", pipeline["runs"]["frozen"], "--data", data,
                     "--split", "test", "--out", str(pipeline["root"] / "huge.csv")])
        assert code == 2
        assert "truncated" in capsys.readouterr().err

    def test_non_utf8_manifest_exits_2(self, pipeline, capsys):
        data = str(pipeline["root"] / "non_utf8_data")
        shutil.copytree(pipeline["target_data"], data)
        manifest = Path(data, "labels.csv")
        manifest.write_bytes(manifest.read_bytes() + b"\xff,c\xffat,test\n")
        code = main(["predict", "--model", pipeline["runs"]["frozen"], "--data", data,
                     "--split", "test", "--out", str(pipeline["root"] / "non_utf8.csv")])
        assert code == 2
        assert "error:" in capsys.readouterr().err


    def test_id_with_comma_exits_2(self, pipeline, capsys):
        data = str(pipeline["root"] / "comma_id_data")
        shutil.copytree(pipeline["target_data"], data)
        manifest = Path(data, "labels.csv")
        lines = manifest.read_text().splitlines()
        row = next(i for i, line in enumerate(lines) if line.split(",")[2] == "test")
        sid = lines[row].split(",")[0]
        os.rename(os.path.join(data, f"{sid}.ppm"), os.path.join(data, "a,b.ppm"))
        lines[row] = '"a,b"' + lines[row][len(sid):]
        manifest.write_text("\n".join(lines) + "\n")
        out = pipeline["root"] / "comma_id.csv"
        code = main(["predict", "--model", pipeline["runs"]["frozen"], "--data", data,
                     "--split", "test", "--out", str(out)])
        assert code == 2
        assert f"row {row + 1}" in capsys.readouterr().err
        assert not out.exists()
        code = main(["ensemble", "--members", str(pipeline["preds"] / "frozen.csv"),
                     "--labels", str(manifest),
                     "--out", str(pipeline["root"] / "comma_id.json")])
        assert code == 2
        assert f"row {row + 1}" in capsys.readouterr().err

    @pytest.mark.parametrize("ch", "\v\f\x1c\x1d\x1e\x85\u2028\u2029")
    def test_id_with_line_boundary_exits_2(self, pipeline, capsys, ch):
        # read_matrix splits a prediction CSV with str.splitlines, which also
        # breaks on these characters.
        data = pipeline["root"] / f"boundary_id_data_{ord(ch):x}"
        shutil.copytree(pipeline["target_data"], data)
        manifest = data / "labels.csv"
        lines = manifest.read_text().splitlines()
        row = next(i for i, line in enumerate(lines) if line.split(",")[2] == "test")
        sid = lines[row].split(",")[0]
        (data / f"{sid}.ppm").rename(data / f"{sid}{ch}x.ppm")
        lines[row] = f"{sid}{ch}x" + lines[row][len(sid):]
        manifest.write_text("\n".join(lines) + "\n")
        out = pipeline["root"] / "boundary_id.csv"
        code = main(["predict", "--model", pipeline["runs"]["frozen"], "--data", str(data),
                     "--split", "test", "--out", str(out)])
        assert code == 2
        assert f"row {row + 1}" in capsys.readouterr().err
        assert not out.exists()

    def test_id_with_nul_byte_exits_2(self, pipeline, capsys):
        data = pipeline["root"] / "nul_id_data"
        shutil.copytree(pipeline["target_data"], data)
        manifest = data / "labels.csv"
        lines = manifest.read_text().splitlines()
        row = next(i for i, line in enumerate(lines) if line.split(",")[2] == "test")
        sid = lines[row].split(",")[0]
        lines[row] = f"{sid}\x00x" + lines[row][len(sid):]
        manifest.write_text("\n".join(lines) + "\n")
        out = pipeline["root"] / "nul_id.csv"
        code = main(["predict", "--model", pipeline["runs"]["frozen"], "--data", str(data),
                     "--split", "test", "--out", str(out)])
        assert code == 2
        assert f"row {row + 1}" in capsys.readouterr().err
        assert not out.exists()


class TestEnsemble:
    def test_single_member_report_matches_member(self, pipeline):
        report_path = str(pipeline["root"] / "solo.json")
        assert main(["ensemble", "--members", str(pipeline["preds"] / "frozen.csv"),
                     "--labels", pipeline["labels"], "--out", report_path]) == 0
        report = json.loads(Path(report_path).read_text())
        assert report["rule"] == "average"
        assert report["num_samples"] == 9
        assert len(report["members"]) == 1
        assert report["accuracy"] == report["members"][0]["accuracy"]

    def test_weighted_pair_echoes_weights(self, pipeline):
        report_path = str(pipeline["root"] / "pair.json")
        members = [str(pipeline["preds"] / "frozen.csv"),
                   str(pipeline["preds"] / "full.csv")]
        assert main(["ensemble", "--members", *members, "--weights", "2,1",
                     "--labels", pipeline["labels"], "--out", report_path]) == 0
        report = json.loads(Path(report_path).read_text())
        assert report["rule"] == "weighted_average"
        assert [m["weight"] for m in report["members"]] == [2.0, 1.0]
        assert set(report["per_class_accuracy"]) == {"triangle1", "ring1", "diamond1"}
        assert 0.0 <= report["accuracy"] <= 1.0

    def test_equal_weights_report_weighted_average_with_the_plain_scores(self, pipeline):
        # The report's rule records whether --weights was given, not whether
        # the weights differ; equal weights score as the plain average.
        members = [str(pipeline["preds"] / "frozen.csv"),
                   str(pipeline["preds"] / "full.csv")]
        reports = {}
        for label, extra in (("plain", []), ("equal", ["--weights", "1,1"])):
            report_path = str(pipeline["root"] / f"{label}.json")
            assert main(["ensemble", "--members", *members, *extra,
                         "--labels", pipeline["labels"], "--out", report_path]) == 0
            reports[label] = json.loads(Path(report_path).read_text())
        plain, equal = reports["plain"], reports["equal"]
        assert plain["rule"] == "average"
        assert equal["rule"] == "weighted_average"
        assert equal["accuracy"] == plain["accuracy"]
        assert equal["per_class_accuracy"] == plain["per_class_accuracy"]

    def test_comma_separated_members_accepted(self, pipeline):
        report_path = str(pipeline["root"] / "csv_members.json")
        joined = ",".join([str(pipeline["preds"] / "frozen.csv"),
                           str(pipeline["preds"] / "full.csv")])
        assert main(["ensemble", "--members", joined,
                     "--labels", pipeline["labels"], "--out", report_path]) == 0
        assert len(json.loads(Path(report_path).read_text())["members"]) == 2

    def test_misaligned_members_exit_2(self, pipeline, capsys):
        lines = (pipeline["preds"] / "frozen.csv").read_text().splitlines()
        lines[1], lines[2] = lines[2], lines[1]
        shuffled = pipeline["root"] / "shuffled.csv"
        shuffled.write_text("\n".join(lines) + "\n")
        code = main(["ensemble", "--members", str(shuffled),
                     str(pipeline["preds"] / "full.csv"),
                     "--labels", pipeline["labels"],
                     "--out", str(pipeline["root"] / "bad.json")])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_weight_count_mismatch_exits_2(self, pipeline):
        code = main(["ensemble", "--members", str(pipeline["preds"] / "frozen.csv"),
                     "--weights", "2,1",
                     "--labels", pipeline["labels"],
                     "--out", str(pipeline["root"] / "bad2.json")])
        assert code == 2

    def test_short_label_row_exits_2(self, pipeline, capsys):
        labels = pipeline["root"] / "short_labels.csv"
        labels.write_text("id,class_name,split\na,cat,test\nb\n")
        code = main(["ensemble", "--members", str(pipeline["preds"] / "frozen.csv"),
                     "--labels", str(labels),
                     "--out", str(pipeline["root"] / "short.json")])
        assert code == 2
        assert "row 3" in capsys.readouterr().err


    def test_non_utf8_labels_exit_2(self, pipeline, capsys):
        labels = pipeline["root"] / "non_utf8_labels.csv"
        labels.write_bytes(Path(pipeline["labels"]).read_bytes() + b"z,c\xffat,test\n")
        code = main(["ensemble", "--members", str(pipeline["preds"] / "frozen.csv"),
                     "--labels", str(labels),
                     "--out", str(pipeline["root"] / "non_utf8.json")])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_nan_member_row_exits_2(self, pipeline, capsys):
        lines = (pipeline["preds"] / "frozen.csv").read_text().splitlines()
        sid = lines[1].split(",")[0]
        lines[1] = sid + ",nan" * (len(lines[0].split(",")) - 1)
        member = pipeline["root"] / "nan_member.csv"
        member.write_text("\n".join(lines) + "\n")
        code = main(["ensemble", "--members", str(member),
                     "--labels", pipeline["labels"],
                     "--out", str(pipeline["root"] / "nan_member.json")])
        assert code == 2
        assert "row 0: probabilities must lie in [0, 1]" in capsys.readouterr().err

    def test_non_utf8_member_exits_2(self, pipeline, capsys):
        member = pipeline["root"] / "non_utf8_member.csv"
        member.write_bytes((pipeline["preds"] / "frozen.csv").read_bytes() + b"\xff,1,0,0\n")
        code = main(["ensemble", "--members", str(member),
                     "--labels", pipeline["labels"],
                     "--out", str(pipeline["root"] / "non_utf8_member.json")])
        assert code == 2
        assert "error:" in capsys.readouterr().err


class TestGradcheck:
    def test_clean_audit_exits_0(self, capsys):
        assert main(["gradcheck", "--seed", "0"]) == 0
        out = capsys.readouterr().out
        assert "all 9 gradient checks passed" in out

    def test_negative_seed_exits_2(self, capsys):
        assert main(["gradcheck", "--seed", "-1"]) == 2
        assert "seed" in capsys.readouterr().err

    def test_corrupted_gradient_exits_3(self, capsys):
        assert main(["gradcheck", "--seed", "0", "--corrupt", "dense"]) == 3
        assert "gradient check FAILED for: dense" in capsys.readouterr().err


class TestThreadsEnv:
    def test_invalid_value_exits_2(self, monkeypatch, capsys):
        monkeypatch.setenv("ATTN_ENS_THREADS", "many")
        assert main(["gradcheck", "--seed", "0"]) == 2
        assert "ATTN_ENS_THREADS" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["\u00b2", "\u0663"])
    def test_non_ascii_digit_exits_2(self, monkeypatch, capsys, value):
        # str.isdigit() holds for a superscript two and an Arabic-Indic three.
        monkeypatch.setenv("ATTN_ENS_THREADS", value)
        assert main(["gradcheck", "--seed", "0"]) == 2
        assert "ATTN_ENS_THREADS" in capsys.readouterr().err

    def test_auto_value_accepted(self, monkeypatch):
        monkeypatch.setenv("ATTN_ENS_THREADS", "0")
        assert main(["gradcheck", "--seed", "0"]) == 0
