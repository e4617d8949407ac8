"""CLI subcommands: prepare, train, eval, ablate, verify; exit codes."""

import hashlib
import json

import numpy as np
import pytest

from mrgsrec import cli
from mrgsrec import data as dp
from mrgsrec.embeddings import load_arrays, save_arrays
from mrgsrec.errors import ParseError
from mrgsrec.model import init_model, load_checkpoint, save_checkpoint
from mrgsrec.seqenc import SeqEncoderConfig


@pytest.fixture
def raw_log(tmp_path):
    rows = []
    g = np.random.Generator(np.random.PCG64(0))
    for u in range(12):
        for j in range(7):
            rows.append(f"user{u}\titem{(u + 2 * j) % 9}\t{j * 100 + u}")
    path = tmp_path / "raw.tsv"
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    return path


@pytest.fixture
def snapshot(tmp_path, raw_log):
    out = tmp_path / "data.snap"
    assert cli.main(["prepare", str(raw_log), str(out), "--min-count", "3"]) == 0
    return out


def tiny_config(tmp_path, snapshot, **overrides):
    config = {
        "data": str(snapshot),
        "window_length": 4, "embedding_dim": 8, "graph_layers": 1,
        "encoder_layers": 1, "attention_heads": 2, "dropout_rate": 0.0,
        "negative_samples": 2, "batch_size": 8, "max_epochs": 2,
        "patience": 2, "seed": 1, "learning_rate": 1e-3,
    }
    config.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    return path


class TestPrepare:
    def test_prints_stats_and_writes_snapshot(self, tmp_path, raw_log,
                                              capsys):
        out = tmp_path / "d.snap"
        assert cli.main(["prepare", str(raw_log), str(out),
                         "--min-count", "3"]) == 0
        printed = capsys.readouterr().out
        for key in ("users:", "items:", "interactions:", "avg_length:",
                    "fingerprint:"):
            assert key in printed
        assert out.exists()

    def test_rerun_byte_identical(self, tmp_path, raw_log):
        a, b = tmp_path / "a.snap", tmp_path / "b.snap"
        cli.main(["prepare", str(raw_log), str(a), "--min-count", "3"])
        cli.main(["prepare", str(raw_log), str(b), "--min-count", "3"])
        assert hashlib.sha256(a.read_bytes()).digest() == \
            hashlib.sha256(b.read_bytes()).digest()

    def test_missing_input_exit_code_3(self, tmp_path, capsys):
        code = cli.main(["prepare", str(tmp_path / "absent.tsv"),
                         str(tmp_path / "o.snap")])
        assert code == 3

    def test_malformed_line_exit_code_2(self, tmp_path):
        bad = tmp_path / "bad.tsv"
        bad.write_text("u1 i1 notatimestamp\n", encoding="utf-8")
        assert cli.main(["prepare", str(bad), str(tmp_path / "o.snap")]) == 2


class TestTrain:
    def test_zero_lr_checkpoint_equals_initialization(self, tmp_path,
                                                      snapshot):
        config = tiny_config(tmp_path, snapshot, learning_rate=0.0,
                             max_epochs=1)
        ckpt = tmp_path / "model.ckpt"
        assert cli.main(["train", "--config", str(config),
                         "--out", str(ckpt)]) == 0
        params, meta = load_checkpoint(ckpt)
        dataset, _, _ = dp.load_snapshot(snapshot)
        fresh = init_model(dataset.n_users, dataset.n_items, 4,
                           params.seq_config, seed=1)
        for name, tensor in fresh.named().items():
            np.testing.assert_array_equal(params.named()[name].data,
                                          tensor.data)

    def test_fixed_seed_reproducible_output(self, tmp_path, snapshot,
                                            capsys):
        config = tiny_config(tmp_path, snapshot)
        outs = []
        for name in ("m1.ckpt", "m2.ckpt"):
            assert cli.main(["train", "--config", str(config),
                             "--out", str(tmp_path / name)]) == 0
            outs.append(capsys.readouterr().out)
        a = [ln for ln in outs[0].splitlines() if ln.startswith("best")]
        b = [ln for ln in outs[1].splitlines() if ln.startswith("best")]
        assert a == b

    def test_log_records_components_per_epoch(self, tmp_path, snapshot):
        log = tmp_path / "run.log"
        config = tiny_config(tmp_path, snapshot, log=str(log))
        assert cli.main(["train", "--config", str(config),
                         "--out", str(tmp_path / "m.ckpt")]) == 0
        lines = log.read_text().splitlines()
        assert len(lines) == 2
        for line in lines:
            record = json.loads(line)
            assert set(record["losses"]) >= {"local", "global", "fused",
                                             "contrastive"}

    def test_unknown_config_key_exit_code_2(self, tmp_path, snapshot):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"data": str(snapshot), "typo_key": 3}),
                        encoding="utf-8")
        assert cli.main(["train", "--config", str(path)]) == 2

    def test_invalid_json_exit_code_2(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        assert cli.main(["train", "--config", str(path)]) == 2

    @pytest.mark.parametrize("key,value", [
        ("patience", 0), ("user_state", "last"), ("window_length", "5"),
        ("scoring_head", "fuse")])
    def test_bad_config_value_exit_code_2_before_training(
            self, tmp_path, snapshot, monkeypatch, capsys, key, value):
        def no_training(*args, **kwargs):
            raise AssertionError("training started on an invalid config")

        monkeypatch.setattr("mrgsrec.training.fit", no_training)
        config = tiny_config(tmp_path, snapshot, **{key: value})
        assert cli.main(["train", "--config", str(config)]) == 2
        assert key in capsys.readouterr().err


class TestEval:
    def test_eval_prints_report(self, tmp_path, snapshot, capsys):
        config = tiny_config(tmp_path, snapshot, max_epochs=1)
        ckpt = tmp_path / "model.ckpt"
        cli.main(["train", "--config", str(config), "--out", str(ckpt)])
        capsys.readouterr()
        assert cli.main(["eval", str(ckpt), str(snapshot),
                         "--split", "test"]) == 0
        printed = capsys.readouterr().out
        assert "split: test" in printed
        assert "ndcg10:" in printed

    def test_eval_head_override(self, tmp_path, snapshot, capsys):
        config = tiny_config(tmp_path, snapshot, max_epochs=1)
        ckpt = tmp_path / "model.ckpt"
        cli.main(["train", "--config", str(config), "--out", str(ckpt)])
        capsys.readouterr()
        assert cli.main(["eval", str(ckpt), str(snapshot),
                         "--split", "validation",
                         "--head", "sequential"]) == 0


def corrupt_missing_block(path):
    arrays, meta = load_arrays(path)
    del arrays["fusion.w2"]
    save_arrays(path, arrays, meta)


def corrupt_block_shape(path):
    arrays, meta = load_arrays(path)
    arrays["tables.user"] = arrays["tables.user"][:1]  # (1, d) would broadcast
    save_arrays(path, arrays, meta)


def corrupt_truncate(path):
    path.write_bytes(path.read_bytes()[:-8])


def corrupt_trailing_bytes(path):
    path.write_bytes(path.read_bytes() + b"\0" * 8)


@pytest.mark.parametrize("corrupt", [
    corrupt_missing_block, corrupt_block_shape, corrupt_truncate,
    corrupt_trailing_bytes])
def test_damaged_checkpoint_rejected_exit_code_2(tmp_path, snapshot, corrupt):
    ckpt = tmp_path / "model.ckpt"
    config = tiny_config(tmp_path, snapshot, max_epochs=0)
    assert cli.main(["train", "--config", str(config), "--out", str(ckpt)]) == 0
    corrupt(ckpt)
    with pytest.raises(ParseError):
        load_checkpoint(ckpt)
    assert cli.main(["eval", str(ckpt), str(snapshot)]) == 2


class TestAblate:
    def test_variants_share_data_fingerprint(self, tmp_path, snapshot,
                                             capsys):
        config = tiny_config(tmp_path, snapshot, max_epochs=1)
        assert cli.main(["ablate", "--config", str(config)]) == 0
        printed = capsys.readouterr().out
        lines = printed.splitlines()
        assert lines[0].startswith("data fingerprint: ")
        body = [ln for ln in lines if ln.split("\t")[0] in
                ("full", "sequential", "graph")]
        assert len(body) == 3
        # all three variants evaluated on the same snapshot
        assert len({ln.split("\t")[0] for ln in body}) == 3


class TestVerify:
    def test_quick_verify_passes(self, capsys):
        assert cli.main(["verify", "--quick"]) == 0
        assert "PASS" in capsys.readouterr().out


def test_checkpoint_roundtrip_preserves_everything(tmp_path):
    cfg = SeqEncoderConfig(d=8, n_layers=2, n_heads=2, dropout_rate=0.1,
                           attention_mode="bidirectional",
                           user_state="last_position")
    params = init_model(5, 9, 6, cfg, seed=3)
    path = tmp_path / "round.ckpt"
    save_checkpoint(path, params, {"fingerprint": "zz", "seed": 3})
    loaded, meta = load_checkpoint(path)
    assert meta["fingerprint"] == "zz"
    assert sorted(meta["model"]) == [  # older checkpoints carry these keys
        "attention_mode", "c", "d", "d_ff", "dropout_rate", "n_heads",
        "n_items", "n_layers", "n_users", "user_state"]
    assert loaded.seq_config == cfg
    for name, tensor in params.named().items():
        np.testing.assert_array_equal(loaded.named()[name].data, tensor.data)
