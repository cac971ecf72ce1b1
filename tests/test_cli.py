import csv
import hashlib
import json
import shutil
import warnings

import numpy as np
import pytest

import adsq.cli
import adsq.encoder
import adsq.trainer
from adsq.cli import main
from adsq.codes import encode_matrix, load_codes, pack
from adsq.config import make_hyperparams
from adsq.data import Dataset, load_features, write_features
from adsq.encoder import (EncoderParams, forward, init_params, load_params, pre_activation,
                          save_params)
from adsq.errors import ConfigError, FormatError
from adsq.metrics import RelevanceJudge, mean_ap
from adsq.synth import SynthSpec, generate
from adsq.trainer import MODEL_FILES, save_run, train
from memtrace import traced_peak
from references import unpack

TRAIN_OVERRIDES = [
    "--set", "encoder_hidden=8",
    "--set", "semantic_dim=6",
    "--set", "t_label=4",
    "--set", "t_img=2",
    "--set", "outer_rounds=2",
    "--set", "batch_size=8",
]


def synth_args(out, seed=5):
    return ["synth", "--classes", "3", "--dim", "8", "--per-class", "12",
            "--queries-per-class", "4", "--seed", str(seed), "--out", str(out)]


def train_args(data_dir, out, extra=()):
    return ["train", "--features", str(data_dir / "train.adsqf"),
            "--labels", str(data_dir / "train.adsql"),
            "--out", str(out), "--k-half", "4", "--seed", "3",
            *TRAIN_OVERRIDES, *extra]


def record_model(model):
    """Record every file of the model directory ``model``, some of them
    written by hand, in the training manifest that ``adsq encode`` checks."""
    outputs = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
               for p in model.iterdir() if p.name != "manifest.json"}
    (model / "manifest.json").write_text(json.dumps({"outputs": outputs}))


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """One synth + train + encode pipeline shared by the read-only tests."""
    root = tmp_path_factory.mktemp("cli")
    data = root / "data"
    model = root / "model"
    assert main(synth_args(data)) == 0
    assert main(train_args(data, model)) == 0
    assert main(["encode", "--model", str(model),
                 "--features", str(data / "train.adsqf"),
                 "--out", str(root / "db.adsqb")]) == 0
    assert main(["encode", "--model", str(model),
                 "--features", str(data / "query.adsqf"),
                 "--out", str(root / "query.adsqb")]) == 0
    return root, data, model


class TestSynth:
    def test_writes_four_files_and_manifest(self, workspace):
        _, data, _ = workspace
        for name in ("train.adsqf", "train.adsql", "query.adsqf", "query.adsql",
                     "manifest.json"):
            assert (data / name).exists()

    def test_idempotent_digests(self, tmp_path):
        assert main(synth_args(tmp_path / "a")) == 0
        assert main(synth_args(tmp_path / "b")) == 0
        da = json.loads((tmp_path / "a" / "manifest.json").read_text())
        db = json.loads((tmp_path / "b" / "manifest.json").read_text())
        assert da["outputs"] == db["outputs"]

    @pytest.mark.parametrize("flag, value", [("--per-class", "0"), ("--per-class", "-1"),
                                             ("--dim", "0"), ("--queries-per-class", "0")])
    def test_size_below_one_exits_1_and_writes_nothing(self, tmp_path, capsys, flag, value):
        out = tmp_path / "data"
        args = synth_args(out)
        args[args.index(flag) + 1] = value
        assert main(args) == 1
        assert f"{flag[2:].replace('-', '_')} must be at least 1" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_out_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["synth", "--classes", "3"])
        assert exc.value.code == 2


class TestTrain:
    def test_writes_models_codes_log(self, workspace):
        _, _, model = workspace
        for name in ("label.net", "imgx.net", "imgy.net", "codes_x.adsqb",
                     "codes_y.adsqb", "train_log.csv", "manifest.json"):
            assert (model / name).exists()

    def test_shipped_defaults_in_manifest(self, workspace):
        _, _, model = workspace
        cfg = json.loads((model / "manifest.json").read_text())["config"]
        assert cfg["alpha"] == 1.0 and cfg["beta"] == 1.0
        assert cfg["gamma"] == pytest.approx(1e-2)
        assert cfg["nu"] == 10.0 and cfg["eta"] == 10.0
        assert cfg["momentum"] == 0.9 and cfg["weight_decay"] == pytest.approx(5e-4)

    def test_symmetric_writes_identical_networks(self, tmp_path, workspace):
        _, data, _ = workspace
        out = tmp_path / "sym"
        assert main(train_args(data, out, extra=["--set", "variant=sym"])) == 0
        assert (out / "imgx.net").read_bytes() == (out / "imgy.net").read_bytes()
        assert (out / "codes_x.adsqb").read_bytes() == (out / "codes_y.adsqb").read_bytes()

    def test_writes_what_in_process_training_on_float32_features_writes(self, tmp_path,
                                                                        workspace):
        """``adsq train`` on ``adsq synth``'s files is in-process ``train`` on
        the same spec's features rounded to float32, byte for byte; on the
        float64 features the image networks and the log differ."""
        _, data, model = workspace
        train_split, _ = generate(SynthSpec(classes=3, dim=8, per_class=12,
                                            queries_per_class=4, seed=5))
        hp = make_hyperparams({"k_half": 4, "seed": 3,
                               **dict(pair.split("=") for pair in TRAIN_OVERRIDES[1::2])})
        out = tmp_path / "in-process"
        save_run(train(Dataset(train_split.features.astype(np.float32), train_split.labels),
                       hp), out)
        for name in (*MODEL_FILES, "codes_x.adsqb", "codes_y.adsqb", "train_log.csv"):
            assert (out / name).read_bytes() == (model / name).read_bytes(), name

    def test_unknown_config_key_names_it(self, tmp_path, workspace, capsys):
        _, data, _ = workspace
        code = main(train_args(data, tmp_path / "x", extra=["--set", "bogus_key=1"]))
        assert code == 1
        assert "bogus_key" in capsys.readouterr().err

    def test_config_file_with_flag_override(self, tmp_path, workspace):
        _, data, _ = workspace
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"k_half": 2, "t_label": 1, "t_img": 1,
                                        "outer_rounds": 1, "batch_size": 8,
                                        "encoder_hidden": [8], "semantic_dim": 6}))
        out = tmp_path / "cfgrun"
        assert main(["train", "--features", str(data / "train.adsqf"),
                     "--labels", str(data / "train.adsql"), "--out", str(out),
                     "--config", str(cfg_path), "--k-half", "3"]) == 0
        merged = json.loads((out / "manifest.json").read_text())["config"]
        assert merged["k_half"] == 3  # flag beats file

    def test_diverging_train_exits_1_with_only_its_error(self, tmp_path, workspace, capsys):
        """A learning rate of 1e3 overflows the first label step: the run
        fails naming its round, phase and term, with no numpy warning."""
        _, data, _ = workspace
        out = tmp_path / "run"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(train_args(data, out, extra=["--set", "lr_min=1e3",
                                                     "--set", "lr_max=1e3"]))
        assert code == 1
        assert caught == []
        assert capsys.readouterr().err == \
            "adsq train: error: round 0, phase label: non-finite sem_pair logits\n"
        assert not out.exists()


class TestEncode:
    def test_codes_match_forward_signs(self, workspace):
        root, data, model = workspace
        codes = unpack(load_codes(root / "db.adsqb"))
        imgx = load_params(model / "imgx.net")
        imgy = load_params(model / "imgy.net")
        feats = load_features(data / "train.adsqf")
        want = np.concatenate([np.where(forward(net, feats).u >= 0, 1.0, -1.0)
                               for net in (imgx, imgy)], axis=1)
        np.testing.assert_array_equal(codes, want)

    def test_forward_never_sees_more_than_a_block(self, tmp_path, workspace, monkeypatch):
        root, data, model = workspace
        block = 5
        rows = []

        def recording_pre_activation(params, x, keep_hidden):
            rows.append(np.shape(x)[0])
            return pre_activation(params, x, keep_hidden)

        monkeypatch.setattr(adsq.encoder, "FORWARD_BLOCK_ROWS", block)
        monkeypatch.setattr(adsq.encoder, "pre_activation", recording_pre_activation)
        out = tmp_path / "blocked.adsqb"
        assert main(["encode", "--model", str(model),
                     "--features", str(data / "train.adsqf"), "--out", str(out)]) == 0
        n = load_features(data / "train.adsqf").shape[0]
        assert n > 2 * block
        assert max(rows) <= block and sum(rows) == 2 * n
        assert out.read_bytes() == (root / "db.adsqb").read_bytes()

    @pytest.mark.parametrize("damage, message", [
        (lambda blob: blob[:-1], "truncated payload"),
        (lambda blob: blob + b"\0", "1 trailing bytes"),
        (lambda blob: b"NOTMAGIC" + blob[8:], "feature-file magic"),
        (lambda blob: blob[:8] + np.array([0, 8], dtype="<u4").tobytes(), "no rows to encode"),
    ], ids=["truncated", "trailing", "magic", "no-rows"])
    def test_bad_feature_file_refused_before_any_forward(self, tmp_path, workspace,
                                                         monkeypatch, capsys, damage, message):
        """The file is refused whole before its first block is encoded, though
        it spans several blocks."""
        _, data, model = workspace
        features = tmp_path / "bad.adsqf"
        features.write_bytes(damage((data / "train.adsqf").read_bytes()))
        calls = []

        def recording_pre_activation(params, x, keep_hidden):
            calls.append(np.shape(x)[0])
            return pre_activation(params, x, keep_hidden)

        monkeypatch.setattr(adsq.encoder, "FORWARD_BLOCK_ROWS", 5)
        monkeypatch.setattr(adsq.encoder, "pre_activation", recording_pre_activation)
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        assert main(["encode", "--model", str(model), "--features", str(features),
                     "--out", str(out_dir / "db.adsqb")]) == 1
        err = capsys.readouterr().err
        assert message in err and str(features) in err
        assert calls == []
        assert list(out_dir.iterdir()) == []

    def test_nan_in_last_block_fails_before_any_write(self, tmp_path, workspace, monkeypatch,
                                                      capsys):
        _, data, model = workspace
        blob = bytearray((data / "train.adsqf").read_bytes())
        blob[-4:] = np.array([np.nan], dtype="<f4").tobytes()
        features = tmp_path / "nan.adsqf"
        features.write_bytes(blob)
        monkeypatch.setattr(adsq.encoder, "FORWARD_BLOCK_ROWS", 5)
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        assert main(["encode", "--model", str(model), "--features", str(features),
                     "--out", str(out_dir / "db.adsqb")]) == 1
        assert f"{features}: feature payload contains NaN or Inf" in capsys.readouterr().err
        assert list(out_dir.iterdir()) == []

    def test_encode_streams_its_features(self, tmp_path):
        """Traced memory of a 20k x 64 encode stays below a quarter of the
        features in float64: the file is read one block at a time."""
        x = np.random.default_rng(0).normal(size=(20_000, 64))
        write_features(tmp_path / "f.adsqf", x)
        model = tmp_path / "model"
        model.mkdir()
        for seed, name in enumerate(MODEL_FILES[1:]):  # retrieve-100k's widths
            save_params(model / name, init_params([64, 64, 32, 32], seed))
        record_model(model)
        argv = ["encode", "--model", str(model), "--features", str(tmp_path / "f.adsqf"),
                "--out", str(tmp_path / "c.adsqb")]
        code, peak = traced_peak(main, argv)
        assert code == 0
        assert peak < x.nbytes / 4
        want = encode_matrix(load_features(tmp_path / "f.adsqf"),
                             *(load_params(model / name) for name in MODEL_FILES[1:]))
        np.testing.assert_array_equal(load_codes(tmp_path / "c.adsqb").payload, want.payload)

    def test_nan_weight_fails_before_any_write(self, tmp_path, workspace, capsys):
        _, data, model = workspace
        bad_model = tmp_path / "model"
        shutil.copytree(model, bad_model)
        imgy = load_params(bad_model / "imgy.net")
        imgy.weights[0][0, 0] = np.nan
        save_params(bad_model / "imgy.net", imgy)
        record_model(bad_model)
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        code = main(["encode", "--model", str(bad_model),
                     "--features", str(data / "train.adsqf"),
                     "--out", str(out_dir / "db.adsqb")])
        assert code == 1
        assert "finite" in capsys.readouterr().err
        assert list(out_dir.iterdir()) == []

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    @pytest.mark.parametrize("kind, layer", [("weights", 1), ("biases", 0)])
    def test_nonfinite_model_value_names_the_file(self, tmp_path, workspace, capsys,
                                                  kind, layer, value):
        _, data, model = workspace
        bad_model = tmp_path / "model"
        shutil.copytree(model, bad_model)
        imgx = load_params(bad_model / "imgx.net")
        getattr(imgx, kind)[layer][0] = value
        save_params(bad_model / "imgx.net", imgx)
        record_model(bad_model)
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        assert main(["encode", "--model", str(bad_model),
                     "--features", str(data / "train.adsqf"),
                     "--out", str(out_dir / "db.adsqb")]) == 1
        assert f"imgx.net: layer {layer} {kind} are not all finite" in capsys.readouterr().err
        assert list(out_dir.iterdir()) == []

    @pytest.mark.parametrize("name", ["imgx.net", "imgy.net"])
    def test_overflowing_model_names_the_file(self, tmp_path, workspace, capsys, name):
        """Finite weights that overflow in use fail naming the model file and
        the features file, with no numpy warning and nothing written."""
        _, data, model = workspace
        bad_model = tmp_path / "model"
        shutil.copytree(model, bad_model)
        params = load_params(bad_model / name)
        params.weights[0][0] = 1e308
        save_params(bad_model / name, params)
        record_model(bad_model)
        out = tmp_path / "db.adsqb"
        features = data / "train.adsqf"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["encode", "--model", str(bad_model), "--features", str(features),
                         "--out", str(out)])
        assert code == 1
        assert caught == []
        err = capsys.readouterr().err
        assert f"outputs of {bad_model / name} on {features} are not finite" in err
        assert "RuntimeWarning" not in err
        assert list(tmp_path.glob("db.adsqb*")) == []

    def test_zero_width_hash_layer_fails_before_any_write(self, tmp_path, workspace, capsys):
        _, data, model = workspace
        bad_model = tmp_path / "model"
        shutil.copytree(model, bad_model)
        imgy = load_params(bad_model / "imgy.net")
        sem = imgy.weights[-1].shape[1]
        save_params(bad_model / "imgy.net",
                    EncoderParams(weights=imgy.weights[:-1] + [np.zeros((0, sem))],
                                  biases=imgy.biases[:-1] + [np.zeros(0)]))
        record_model(bad_model)
        out = tmp_path / "db.adsqb"
        code = main(["encode", "--model", str(bad_model),
                     "--features", str(data / "train.adsqf"), "--out", str(out)])
        assert code == 1
        assert f"layer {len(imgy.weights) - 1} has zero width" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("wrong", ["features", "imgy.net"])
    def test_width_mismatch_names_both_files(self, tmp_path, workspace, capsys, wrong):
        """9-wide features against the 8-wide model, or an imgy.net taken
        from a 6-wide model: exit 1 naming the feature file, the model file
        and both widths, before any output is written."""
        _, data, model = workspace
        run_model, features = tmp_path / "model", data / "train.adsqf"
        shutil.copytree(model, run_model)
        if wrong == "features":
            features = tmp_path / "wide.adsqf"
            write_features(features, np.ones((5, 9)))
            net, want = run_model / "imgx.net", f"{features} has 9 features per row"
        else:
            net, want = run_model / "imgy.net", f"{features} has 8 features per row"
            save_params(net, init_params([6, 8, 6, 4], seed=0))
            record_model(run_model)
        out = tmp_path / "db.adsqb"
        assert main(["encode", "--model", str(run_model), "--features", str(features),
                     "--out", str(out)]) == 1
        width = 8 if wrong == "features" else 6
        assert f"{want}, but {net} takes {width}" in capsys.readouterr().err
        assert list(tmp_path.glob("db.adsqb*")) == []

    @pytest.mark.parametrize("stop", range(7))
    def test_train_stopped_inside_save_run_never_mixes_runs(self, tmp_path, workspace,
                                                            monkeypatch, capsys, stop):
        """A second train (seed 4) into a finished run's directory stops
        before its ``stop``-th write (6: its manifest). Encode then gives
        the first run's codes byte for byte, or exits 1 naming a model file
        and writes nothing; it refuses once imgx.net is the second run's."""
        root, data, model = workspace
        run_model = tmp_path / "model"
        shutil.copytree(model, run_model)
        written = []

        class Stopped(Exception):
            pass

        def stopping(write):
            def wrapper(*args, **kwargs):
                if len(written) == stop:
                    raise Stopped
                written.append(args[0])
                return write(*args, **kwargs)
            return wrapper

        for module, name in ((adsq.trainer, "save_params"), (adsq.trainer, "write_codes"),
                             (adsq.trainer, "write_csv"), (adsq.cli, "_write_manifest")):
            monkeypatch.setattr(module, name, stopping(getattr(module, name)))
        with pytest.raises(Stopped):
            main(train_args(data, run_model, ["--seed", "4"]))
        monkeypatch.undo()
        assert len(written) == stop
        out = tmp_path / "db.adsqb"
        code = main(["encode", "--model", str(run_model),
                     "--features", str(data / "train.adsqf"), "--out", str(out)])
        if code == 0:
            assert out.read_bytes() == (root / "db.adsqb").read_bytes()
        else:
            err = capsys.readouterr().err
            assert code == 1 and "is not the file that" in err
            assert any(f"{run_model / name} is not" in err for name in MODEL_FILES[1:])
            assert list(tmp_path.glob("db.adsqb*")) == []
        assert (code == 0) == (stop < 2)  # label.net alone does not encode

    def test_model_without_manifest_is_refused(self, tmp_path, workspace, capsys):
        _, data, model = workspace
        run_model = tmp_path / "model"
        shutil.copytree(model, run_model)
        (run_model / "manifest.json").unlink()
        assert main(["encode", "--model", str(run_model),
                     "--features", str(data / "train.adsqf"),
                     "--out", str(tmp_path / "db.adsqb")]) == 1
        err = capsys.readouterr().err
        assert f"{run_model / 'manifest.json'}: no record of the model's files" in err
        assert list(tmp_path.glob("db.adsqb*")) == []

    def test_each_model_file_is_hashed_once(self, tmp_path, workspace, monkeypatch):
        """The hash checked against the training manifest is the one the
        encode manifest records."""
        _, data, model = workspace
        real, hashed = adsq.cli._sha256, []
        monkeypatch.setattr(adsq.cli, "_sha256", lambda path: hashed.append(path) or real(path))
        out = tmp_path / "db.adsqb"
        assert main(["encode", "--model", str(model),
                     "--features", str(data / "train.adsqf"), "--out", str(out)]) == 0
        models = [str(model / name) for name in MODEL_FILES[1:]]
        assert sorted(p for p in hashed if p in models) == models
        trained = json.loads((model / "manifest.json").read_text())["outputs"]
        inputs = json.loads((tmp_path / "db.adsqb.manifest.json").read_text())["inputs"]
        assert all(inputs[name] == trained[name] for name in MODEL_FILES[1:])

    def test_k_total_recorded(self, workspace):
        root, _, _ = workspace
        assert load_codes(root / "db.adsqb").k_total == 8

    def test_deterministic(self, tmp_path, workspace):
        root, data, model = workspace
        out = tmp_path / "again.adsqb"
        assert main(["encode", "--model", str(model),
                     "--features", str(data / "train.adsqf"),
                     "--out", str(out)]) == 0
        assert out.read_bytes() == (root / "db.adsqb").read_bytes()

    def test_manifest_independent_of_run_directory(self, tmp_path, workspace):
        """The same encode run from two directories records the same
        manifest: every path in it is keyed by base name."""
        _, data, model = workspace
        manifests = []
        for run in ("a", "b"):
            shutil.copytree(model, tmp_path / run / "model")
            assert main(["encode", "--model", str(tmp_path / run / "model"),
                         "--features", str(data / "query.adsqf"),
                         "--out", str(tmp_path / run / "q.adsqb")]) == 0
            manifest = json.loads((tmp_path / run / "q.adsqb.manifest.json").read_text())
            del manifest["timings_s"]
            manifests.append(manifest)
        assert manifests[0] == manifests[1]
        assert manifests[0]["config"] == {"model": "model"}

    def test_missing_feature_file_fails(self, tmp_path, workspace, capsys):
        _, _, model = workspace
        code = main(["encode", "--model", str(model),
                     "--features", str(tmp_path / "nope.adsqf"),
                     "--out", str(tmp_path / "o.adsqb")])
        assert code == 1


class TestEval:
    def eval_args(self, root, data, out, extra=()):
        return ["eval", "--query-codes", str(root / "query.adsqb"),
                "--db-codes", str(root / "db.adsqb"),
                "--query-labels", str(data / "query.adsql"),
                "--db-labels", str(data / "train.adsql"),
                "--map-r", "20", "--out", str(out), *extra]

    def test_metrics_csv_matches_library(self, tmp_path, workspace):
        root, data, _ = workspace
        out = tmp_path / "metrics.csv"
        assert main(self.eval_args(root, data, out)) == 0
        rows = list(csv.DictReader(out.read_text().splitlines()))
        got = {r["metric"]: r for r in rows if r["metric"] in ("map", "ph2")}
        from adsq.data import load_labels
        judge = RelevanceJudge(load_labels(data / "query.adsql"),
                               load_labels(data / "train.adsql"))
        lib = mean_ap(load_codes(root / "query.adsqb"), load_codes(root / "db.adsqb"),
                      judge, 20)
        assert float(got["map"]["value"]) == pytest.approx(lib, abs=1e-15)
        assert got["map"]["grid"] == "20"
        assert got["map"]["k_total"] == "8"

    def test_manifest_splits_eval_time(self, tmp_path, workspace):
        """Scan, rank, relevance and metric seconds, each summed over
        queries, are finite and together within the whole command's time."""
        root, data, _ = workspace
        out = tmp_path / "metrics.csv"
        assert main(self.eval_args(root, data, out)) == 0
        timings = json.loads((tmp_path / "metrics.csv.manifest.json").read_text())["timings_s"]
        parts = [timings[key] for key in ("scan", "rank", "relevance", "metrics")]
        assert all(np.isfinite(t) and t >= 0 for t in parts)
        assert sum(parts) <= timings["eval"]

    def test_manifest_keeps_every_input_digest(self, tmp_path, workspace):
        """Inputs are keyed by role, so inputs that share a base name each
        keep their own digest."""
        root, data, _ = workspace
        files = {"query_codes": (root / "query.adsqb", "a/codes.adsqb"),
                 "db_codes": (root / "db.adsqb", "b/codes.adsqb"),
                 "query_labels": (data / "query.adsql", "a/labels.adsql"),
                 "db_labels": (data / "train.adsql", "b/labels.adsql")}
        (tmp_path / "a").mkdir()
        (tmp_path / "b").mkdir()
        for src, dst in files.values():
            shutil.copyfile(src, tmp_path / dst)
        argv = ["eval", "--out", str(tmp_path / "metrics.csv")]
        for role, (_, dst) in files.items():
            argv += [f"--{role.replace('_', '-')}", str(tmp_path / dst)]
        assert main(argv) == 0
        inputs = json.loads((tmp_path / "metrics.csv.manifest.json").read_text())["inputs"]
        assert inputs == {role: hashlib.sha256(src.read_bytes()).hexdigest()
                          for role, (src, _) in files.items()}
        assert len(set(inputs.values())) == 4

    def test_self_retrieval_beats_chance(self, tmp_path, workspace):
        """Database queried with itself: every item is its own nearest hit."""
        root, data, _ = workspace
        out = tmp_path / "self.csv"
        assert main(["eval", "--query-codes", str(root / "db.adsqb"),
                     "--db-codes", str(root / "db.adsqb"),
                     "--query-labels", str(data / "train.adsql"),
                     "--db-labels", str(data / "train.adsql"),
                     "--metrics", "map", "--map-r", "10",
                     "--out", str(out)]) == 0
        row = next(csv.DictReader(out.read_text().splitlines()))
        assert float(row["value"]) > 1 / 3  # 3 balanced classes -> chance ~ 1/3

    def test_curve_rows_present(self, tmp_path, workspace):
        root, data, _ = workspace
        out = tmp_path / "curves.csv"
        assert main(self.eval_args(root, data, out, extra=["--metrics", "pr,pn"])) == 0
        rows = list(csv.DictReader(out.read_text().splitlines()))
        kinds = {r["metric"] for r in rows}
        assert kinds == {"pr", "pn"}
        assert all(r["grid"] != "" for r in rows)

    def test_width_mismatch_fails(self, tmp_path, workspace, capsys):
        root, data, model = workspace
        from adsq.codes import write_codes
        bad = tmp_path / "bad.adsqb"
        write_codes(bad, pack(np.ones((4, 6))))
        code = main(["eval", "--query-codes", str(bad),
                     "--db-codes", str(root / "db.adsqb"),
                     "--query-labels", str(data / "query.adsql"),
                     "--db-labels", str(data / "train.adsql"),
                     "--out", str(tmp_path / "m.csv")])
        assert code == 1
        assert "mismatch" in capsys.readouterr().err

    def test_item_count_mismatch_fails(self, tmp_path, workspace, capsys):
        """The database's labels given for the queries: exit 1, nothing written."""
        root, data, _ = workspace
        from adsq.data import load_labels
        n_q, n_db = load_codes(root / "query.adsqb").n, len(load_labels(data / "train.adsql"))
        out = tmp_path / "m.csv"
        code = main(["eval", "--query-codes", str(root / "query.adsqb"),
                     "--db-codes", str(root / "db.adsqb"),
                     "--query-labels", str(data / "train.adsql"),
                     "--db-labels", str(data / "train.adsql"), "--out", str(out)])
        assert code == 1
        assert f"{n_db} query label rows for {n_q} codes" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_label_width_mismatch_fails(self, tmp_path, workspace, capsys):
        """3-class query labels against a 4-class database exit 1."""
        root, data, _ = workspace
        from adsq.data import load_labels, write_labels
        db_labels = load_labels(data / "train.adsql")
        assert db_labels.shape[1] == 3
        wide = tmp_path / "wide.adsql"
        write_labels(wide, np.hstack([db_labels, np.zeros((len(db_labels), 1), np.int8)]))
        code = main(["eval", "--query-codes", str(root / "query.adsqb"),
                     "--db-codes", str(root / "db.adsqb"),
                     "--query-labels", str(data / "query.adsql"),
                     "--db-labels", str(wide), "--out", str(tmp_path / "m.csv")])
        assert code == 1
        assert "equal widths" in capsys.readouterr().err

    @pytest.mark.parametrize("metrics", [",", "", " , "])
    def test_no_metric_requested_fails_before_loading(self, tmp_path, metrics, capsys):
        """Checked before any input is read, so the missing files never matter."""
        missing = tmp_path / "missing"
        out = tmp_path / "m.csv"
        code = main(["eval", "--query-codes", str(missing), "--db-codes", str(missing),
                     "--query-labels", str(missing), "--db-labels", str(missing),
                     "--metrics", metrics, "--out", str(out)])
        assert code == 1
        assert "no metric requested" in capsys.readouterr().err
        assert not out.exists()

    def test_empty_query_set_fails(self, tmp_path, workspace, capsys):
        root, data, _ = workspace
        from adsq.codes import write_codes
        from adsq.data import load_labels, write_labels
        codes, labels = tmp_path / "none.adsqb", tmp_path / "none.adsql"
        write_codes(codes, pack(np.ones((0, 8))))
        n_labels = load_labels(data / "train.adsql").shape[1]
        write_labels(labels, np.zeros((0, n_labels), dtype=np.int8))
        out = tmp_path / "m.csv"
        code = main(["eval", "--query-codes", str(codes),
                     "--db-codes", str(root / "db.adsqb"),
                     "--query-labels", str(labels),
                     "--db-labels", str(data / "train.adsql"),
                     "--metrics", "ph2,pr,pn", "--out", str(out)])
        assert code == 1
        assert "must be nonempty" in capsys.readouterr().err
        assert not out.exists() or "nan" not in out.read_text()


def test_train_idempotent_output_digests(tmp_path):
    data = tmp_path / "d"
    assert main(synth_args(data)) == 0
    assert main(train_args(data, tmp_path / "r1")) == 0
    assert main(train_args(data, tmp_path / "r2")) == 0
    m1 = json.loads((tmp_path / "r1" / "manifest.json").read_text())
    m2 = json.loads((tmp_path / "r2" / "manifest.json").read_text())
    assert m1["outputs"] == m2["outputs"]
    assert m1["inputs"] == m2["inputs"]


def test_parser_is_built_once_and_each_call_parses_its_own_arguments(monkeypatch, capsys):
    """``main`` reuses one parser; a call gets none of an earlier call's
    ``--set`` pairs, flags or subcommand."""
    assert adsq.cli.build_parser() is adsq.cli.build_parser()
    seen = []

    def stop_train(path, overrides):
        seen.append(("train", path, overrides))
        raise ConfigError("stopped")

    def stop_eval(path):
        seen.append(("eval", path))
        raise FormatError("stopped")

    monkeypatch.setattr(adsq.cli, "load_config", stop_train)
    monkeypatch.setattr(adsq.cli, "load_codes", stop_eval)
    train = ["train", "--features", "f", "--labels", "l", "--out", "o"]
    assert main([*train, "--set", "a=1", "--set", "b=2", "--seed", "3", "--config", "c"]) == 1
    assert main(["eval", "--query-codes", "q", "--db-codes", "d", "--query-labels", "ql",
                 "--db-labels", "dl", "--out", "m"]) == 1
    assert main([*train, "--set", "c=3"]) == 1
    assert main(train) == 1
    assert seen == [("train", "c", {"a": "1", "b": "2", "seed": 3}), ("eval", "q"),
                    ("train", None, {"c": "3"}), ("train", None, {})]
    assert capsys.readouterr().err.count("stopped") == 4
