import csv
import json
import shutil
import warnings

import numpy as np
import pytest

import adsq.encoder
from adsq.cli import main
from adsq.codes import load_codes, pack
from adsq.data import load_features
from adsq.encoder import EncoderParams, forward, load_params, save_params
from adsq.metrics import RelevanceJudge, mean_ap
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
        assert main(train_args(data, out, extra=["--variant", "sym"])) == 0
        assert (out / "imgx.net").read_bytes() == (out / "imgy.net").read_bytes()
        assert (out / "codes_x.adsqb").read_bytes() == (out / "codes_y.adsqb").read_bytes()

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

        def recording_forward(params, x, keep_hidden=False):
            rows.append(np.shape(x)[0])
            return forward(params, x, keep_hidden)

        monkeypatch.setattr(adsq.encoder, "FORWARD_BLOCK_ROWS", block)
        monkeypatch.setattr(adsq.encoder, "forward", recording_forward)
        out = tmp_path / "blocked.adsqb"
        assert main(["encode", "--model", str(model),
                     "--features", str(data / "train.adsqf"), "--out", str(out)]) == 0
        n = load_features(data / "train.adsqf").shape[0]
        assert n > 2 * block
        assert max(rows) <= block and sum(rows) == 2 * n
        assert out.read_bytes() == (root / "db.adsqb").read_bytes()

    def test_nan_weight_fails_before_any_write(self, tmp_path, workspace, capsys):
        _, data, model = workspace
        bad_model = tmp_path / "model"
        shutil.copytree(model, bad_model)
        imgy = load_params(bad_model / "imgy.net")
        imgy.weights[0][0, 0] = np.nan
        save_params(bad_model / "imgy.net", imgy)
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
        out = tmp_path / "db.adsqb"
        code = main(["encode", "--model", str(bad_model),
                     "--features", str(data / "train.adsqf"), "--out", str(out)])
        assert code == 1
        assert f"layer {len(imgy.weights) - 1} has zero width" in capsys.readouterr().err
        assert not out.exists()

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
