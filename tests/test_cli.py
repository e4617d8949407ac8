"""CLI subcommands: prepare, train, eval, ablate, verify; exit codes."""

import contextlib
import hashlib
import io
import json
import math
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from mrgsrec import cli
from mrgsrec import config as cfg
from mrgsrec import data as dp
from mrgsrec import evaluation as ev
from mrgsrec import verification
from mrgsrec.errors import ParseError
from mrgsrec.evaluation import evaluate
from mrgsrec.model import init_model, load_checkpoint, save_checkpoint
from mrgsrec.seqenc import SeqEncoderConfig
from mrgsrec.training import Hyperparams


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

    @pytest.mark.parametrize("count", ["0", "-3"])
    def test_min_count_below_one_exit_code_2(self, tmp_path, raw_log, capsys,
                                             count):
        out = tmp_path / "o.snap"
        with pytest.raises(SystemExit) as exc:
            cli.main(["prepare", str(raw_log), str(out), "--min-count", count])
        assert exc.value.code == 2
        errors = [ln for ln in capsys.readouterr().err.splitlines()
                  if "error:" in ln]
        assert len(errors) == 1 and "--min-count" in errors[0]
        assert not out.exists()

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
        dataset, _ = dp.load_snapshot(snapshot)
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
        ("scoring_head", "fuse"), ("negative_samples", 0), ("batch_size", 2.5),
        ("window_length", 2.5), ("seed", 1.5), ("learning_rate", "0.1"),
        ("graph_layer_mean", "yes"), ("exclude_seen", 0),
        ("feed_forward_dim", -1), ("feed_forward_dim", 0),
        ("learning_rate", -1.0), ("adam_beta1", 2.0), ("adam_beta1", -0.1),
        ("adam_beta2", 1.0), ("adam_epsilon", -1.0), ("adam_epsilon", 0.0),
        ("attention_mode", "bidirectional"), ("seed", -1), ("data", 5),
        ("log", 1), ("checkpoint", ["m.ckpt"]), ("adam_epsilon", math.inf),
        ("learning_rate", math.inf), ("lambda_reg", math.inf),
        ("alpha", math.inf)])
    def test_bad_config_value_exit_code_2_before_training(
            self, tmp_path, snapshot, monkeypatch, capsys, key, value):
        def no_training(*args, **kwargs):
            raise AssertionError("training started on an invalid config")

        monkeypatch.setattr("mrgsrec.training.fit", no_training)
        config = tiny_config(tmp_path, snapshot, **{key: value})
        assert cli.main(["train", "--config", str(config)]) == 2
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize("out,reason", [
        ("missing/dir/m.ckpt", "[Errno 2] No such file or directory"),
        (".", "[Errno 21] Is a directory")])
    def test_unwritable_checkpoint_path_exit_code_3_before_training(
            self, tmp_path, snapshot, monkeypatch, capsys, out, reason):
        def no_training(*args, **kwargs):
            raise AssertionError("training started with nowhere to save")

        monkeypatch.setattr("mrgsrec.training.fit", no_training)
        config = tiny_config(tmp_path, snapshot)
        out = tmp_path / out
        assert cli.main(["train", "--config", str(config), "--out", str(out)]) == 3
        printed = capsys.readouterr()
        assert printed.out == ""
        assert printed.err.splitlines() == [f"error: {reason}: '{out}'"]


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

    def test_eval_rejects_a_leaking_graph(self, tmp_path, snapshot,
                                          monkeypatch, capsys):
        config = tiny_config(tmp_path, snapshot, max_epochs=0)
        ckpt = tmp_path / "model.ckpt"
        assert cli.main(["train", "--config", str(config), "--out", str(ckpt)]) == 0
        dataset, _ = dp.load_snapshot(snapshot)
        original = ev.build_adjacency

        def leaking(train, m, n):  # validation targets become graph edges
            return original([seq + [dataset.val[u]]
                             for u, seq in enumerate(train)], m, n)

        monkeypatch.setattr(ev, "build_adjacency", leaking)
        capsys.readouterr()
        assert cli.main(["eval", str(ckpt), str(snapshot),
                         "--split", "validation"]) == 3
        assert "leaked into the graph" in capsys.readouterr().err


@pytest.mark.parametrize("key,value", [
    ("config", 5), ("config", "run.json"), ("config", [{}]),
    ("fingerprint", 5), ("fingerprint", None), ("fingerprint", ["a"])])
def test_eval_rejects_meta_it_cannot_read_exit_code_2(tmp_path, snapshot,
                                                      capsys, key, value):
    ckpt = tmp_path / "model.ckpt"
    config = tiny_config(tmp_path, snapshot, max_epochs=0)
    assert cli.main(["train", "--config", str(config), "--out", str(ckpt)]) == 0

    def change(header, blobs):
        header["meta"][key] = value
    rewrite_checkpoint(ckpt, change)
    capsys.readouterr()
    assert cli.main(["eval", str(ckpt), str(snapshot)]) == 2
    printed = capsys.readouterr()
    assert printed.out == ""
    assert printed.err.startswith("error:") and "checkpoint meta" in printed.err
    assert len(printed.err.splitlines()) == 1


def rewrite_checkpoint(path, change):
    """Split a checkpoint into its JSON header and one byte string per block,
    apply ``change(header, blobs)``, and write both back with the header
    length updated."""
    raw = path.read_bytes()
    magic = b"MRGS-CKPT-v1\n"
    (header_len,) = struct.unpack_from("<Q", raw, len(magic))
    offset = len(magic) + 8 + header_len
    header = json.loads(raw[len(magic) + 8:offset])
    blobs = []
    for entry in header["arrays"]:
        size = 8 * math.prod(entry["shape"])
        blobs.append(raw[offset:offset + size])
        offset += size
    change(header, blobs)
    body = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    path.write_bytes(magic + struct.pack("<Q", len(body)) + body + b"".join(blobs))


def block_index(header, name):
    return [entry["name"] for entry in header["arrays"]].index(name)


def corrupt_missing_block(path):
    def change(header, blobs):
        i = block_index(header, "fusion.w2")
        del header["arrays"][i], blobs[i]
    rewrite_checkpoint(path, change)


def corrupt_block_shape(path):
    def change(header, blobs):  # (1, d) would broadcast
        i = block_index(header, "tables.user")
        d = header["arrays"][i]["shape"][1]
        header["arrays"][i]["shape"] = [1, d]
        blobs[i] = blobs[i][:8 * d]
    rewrite_checkpoint(path, change)


def corrupt_repeated_block_name(path):
    def change(header, blobs):  # same shape, so only the name differs
        i = block_index(header, "encoder.layer0.wk")
        header["arrays"][i]["name"] = "encoder.layer0.wq"
    rewrite_checkpoint(path, change)


def corrupt_negative_shape(path):
    def change(header, blobs):
        i = block_index(header, "tables.user")
        header["arrays"][i]["shape"][0] *= -1
    rewrite_checkpoint(path, change)


def corrupt_reordered_blocks(path):
    def change(header, blobs):  # names, shapes and byte count all still valid
        i = block_index(header, "encoder.layer0.wq")
        j = block_index(header, "encoder.layer0.wk")
        arrays = header["arrays"]
        arrays[i], arrays[j] = arrays[j], arrays[i]
        blobs[i], blobs[j] = blobs[j], blobs[i]
    rewrite_checkpoint(path, change)


def corrupt_float_byte(path):
    def change(header, blobs):  # one value changes, and every byte still parses
        i = block_index(header, "tables.user")
        blobs[i] = blobs[i][:5] + bytes([blobs[i][5] ^ 0x10]) + blobs[i][6:]
    rewrite_checkpoint(path, change)


def corrupt_larger_model_header(path):
    def change(header, blobs):  # the blocks still hold the original model
        header["meta"]["model"]["n_users"] = 2_000_000
    rewrite_checkpoint(path, change)


def corrupt_unreadable_header(path):
    raw = bytearray(path.read_bytes())
    raw[len(b"MRGS-CKPT-v1\n") + 8] = ord("[")  # '{' -> '[': invalid JSON
    path.write_bytes(bytes(raw))


def corrupt_truncate(path):
    path.write_bytes(path.read_bytes()[:-8])


def corrupt_trailing_bytes(path):
    path.write_bytes(path.read_bytes() + b"\0" * 8)


@pytest.mark.parametrize("corrupt", [
    corrupt_missing_block, corrupt_block_shape, corrupt_truncate,
    corrupt_trailing_bytes, corrupt_repeated_block_name, corrupt_negative_shape,
    corrupt_reordered_blocks, corrupt_unreadable_header, corrupt_float_byte,
    corrupt_larger_model_header])
def test_damaged_checkpoint_rejected_exit_code_2(tmp_path, snapshot, corrupt):
    ckpt = tmp_path / "model.ckpt"
    config = tiny_config(tmp_path, snapshot, max_epochs=0)
    assert cli.main(["train", "--config", str(config), "--out", str(ckpt)]) == 0
    corrupt(ckpt)
    with pytest.raises(ParseError):
        load_checkpoint(ckpt)
    assert cli.main(["eval", str(ckpt), str(snapshot)]) == 2


def rewrite_payload(path, change):
    magic, _, body = path.read_text(encoding="utf-8").partition("\n")
    payload = json.loads(body)
    change(payload)
    path.write_text(magic + "\n" + json.dumps(payload), encoding="utf-8")


@pytest.mark.parametrize("change", [
    lambda p: p.pop("val"),
    lambda p: p["train"][0].append(999),
    lambda p: p["val"].pop(),
    lambda p: p["train"][0].clear(),
    lambda p: p["user_tokens"].__setitem__(slice(0, 3), [1, None, {"a": 2}]),
    lambda p: p["item_tokens"].__setitem__(1, p["item_tokens"][0]),
], ids=["missing_val", "item_out_of_range", "short_val", "empty_train",
        "non_string_tokens", "duplicate_tokens"])
def test_damaged_snapshot_rejected_exit_code_2(tmp_path, snapshot, change):
    rewrite_payload(snapshot, change)
    with pytest.raises(ParseError):
        dp.load_snapshot(snapshot)
    config = tiny_config(tmp_path, snapshot, max_epochs=1)
    assert cli.main(["train", "--config", str(config),
                     "--out", str(tmp_path / "m.ckpt")]) == 2


def bad_inputs(tmp_path):
    """Text inputs that are binary, JSON-broken, or directories."""
    ckpt = tmp_path / "model.ckpt"
    save_checkpoint(ckpt, init_model(5, 9, 4, SeqEncoderConfig(d=8), seed=0),
                    {"fingerprint": "", "seed": 0})
    broken = tmp_path / "broken.snap"
    broken.write_text(dp.SNAPSHOT_MAGIC + "\n{not json", encoding="utf-8")
    folder = tmp_path / "folder"
    folder.mkdir()
    paths = {"ckpt": ckpt, "folder": folder}
    for ts in ("nan", "inf", "-inf", "1e999"):
        paths[f"{ts}_log"] = tmp_path / f"{ts}.tsv"
        paths[f"{ts}_log"].write_text(f"u1\ti1\t10\nu1\ti2\t{ts}\n",
                                      encoding="utf-8")
    for name, data in (("ckpt_data", ckpt), ("broken_data", broken)):
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps({"data": str(data)}),
                               encoding="utf-8")
    return paths


@pytest.mark.parametrize("argv,code", [
    (["train", "--config", "{ckpt}"], 2),
    (["train", "--config", "{ckpt_data}"], 2),
    (["train", "--config", "{broken_data}"], 2),
    (["eval", "{ckpt}", "{ckpt}"], 2),
    (["prepare", "{ckpt}", "{folder}/out.snap"], 2),
    (["prepare", "{raw_log}", "{folder}/out.snap", "--delimiter", ""], 2),
    *[(["prepare", f"{{{ts}_log}}", "{folder}/out.snap"], 2)
      for ts in ("nan", "inf", "-inf", "1e999")],
    (["train", "--config", "{folder}"], 3),
    (["eval", "{ckpt}", "{folder}"], 3),
    *[(["eval", "{ckpt}", "{snapshot}", "--head", head], 3)
      for head in ("fused", "sequential", "graph")],
], ids=["binary_config", "binary_snapshot", "snapshot_bad_json",
        "eval_binary_snapshot", "binary_raw_log", "empty_delimiter",
        "nan_timestamp", "inf_timestamp", "neg_inf_timestamp",
        "huge_timestamp",
        "config_is_directory", "snapshot_is_directory", "more_users_fused",
        "more_users_sequential", "more_users_graph"])
def test_unreadable_input_exits_cleanly(tmp_path, raw_log, snapshot, argv,
                                       code):
    paths = {**bad_inputs(tmp_path), "raw_log": raw_log, "snapshot": snapshot}
    env = dict(os.environ,
               PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    result = subprocess.run(
        [sys.executable, "-m", "mrgsrec.cli",
         *[arg.format(**paths) for arg in argv]],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert result.returncode == code, result.stderr
    assert result.stderr.startswith("error:")
    assert "Traceback" not in result.stderr
    assert len(result.stderr.splitlines()) == 1


def test_eval_takes_window_length_from_the_model(tmp_path, snapshot):
    # No config in the meta: c comes from the positional table, not the
    # default 50, and evaluate never reads hyper.c.
    dataset, _ = dp.load_snapshot(snapshot)
    params = init_model(dataset.n_users, dataset.n_items, 4,
                        SeqEncoderConfig(d=8), seed=0)
    ckpt = tmp_path / "model.ckpt"
    save_checkpoint(ckpt, params, {"fingerprint": "", "seed": 0})
    assert cli.main(["eval", str(ckpt), str(snapshot)]) == 0
    assert (evaluate(params, dataset, "validation", Hyperparams(c=50))
            == evaluate(params, dataset, "validation", Hyperparams(c=4)))


def run_fresh(*args):
    """Run a fresh interpreter with ``args`` and no thread cap inherited
    from this process's environment."""
    env = {key: value for key, value in os.environ.items()
           if not key.endswith("_NUM_THREADS")}
    env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
    return subprocess.run([sys.executable, *args], env=env,
                          capture_output=True, text=True, timeout=60)


@pytest.mark.parametrize("argv,expected", [
    (["--threads=1", "verify"], "1"), (["--threads", "3", "verify"], "3"),
    (["--deterministic", "verify"], "1"),
    (["--deterministic", "--threads=2", "verify"], "2"), (["verify"], "unset"),
    (["--threads=0", "verify"], "unset")])
def test_thread_flags_cap_blas_at_import(argv, expected):
    # Under ``-c`` the argv after the code is ``argv``, as for ``mrgsrec``.
    result = run_fresh(
        "-c", "import os, mrgsrec.cli; "
        "print(os.environ.get('OPENBLAS_NUM_THREADS', 'unset'))", *argv)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == expected


@pytest.mark.parametrize("argv", [["--threads", "0", "verify"],
                                  ["--threads=0", "verify"],
                                  ["--threads=-2", "verify"]])
def test_thread_count_below_one_exit_code_2(argv):
    result = run_fresh("-m", "mrgsrec.cli", *argv)
    assert result.returncode == 2
    assert "argument --threads: must be >= 1" in result.stderr


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
        variants = verification.ablation_configs(cfg.load_config(config))
        assert {ln.split("\t")[0]: ln.split("\t")[-1] for ln in body} == \
            {name: cfg.fingerprint(run) for name, run in variants.items()}

    def test_variant_breaking_a_rule_exit_code_2_before_training(
            self, tmp_path, snapshot, monkeypatch, capsys):
        # Legal for the run; the sequential variant sets alpha = 1.0, which
        # bidirectional attention forbids.
        def no_training(*args, **kwargs):
            raise AssertionError("a variant trained before all were checked")

        monkeypatch.setattr(verification, "fit", no_training)
        config = tiny_config(tmp_path, snapshot, alpha=0.0,
                             attention_mode="bidirectional")
        assert cli.main(["ablate", "--config", str(config)]) == 2
        assert "'sequential'" in capsys.readouterr().err


class TestVerify:
    @pytest.fixture(scope="class")
    def quick(self):
        """One ``mrgsrec verify --quick`` run: (exit code, printed output)."""
        printed = io.StringIO()
        with contextlib.redirect_stdout(printed):
            code = cli.main(["verify", "--quick"])
        return code, printed.getvalue()

    def test_quick_verify_passes(self, quick):
        code, out = quick
        assert code == 0
        assert "PASS" in out

    def test_quick_verify_lists_every_block(self, quick):
        code, out = quick
        assert code == 0
        blocks = init_model(5, 7, 3, SeqEncoderConfig(d=4, n_layers=1),
                            seed=0).named()
        for loss in ("local", "global", "fused", "contrastive", "total"):
            assert f"gradient/{loss}: max_rel_error=" in out  # worst block
            for block in blocks:
                assert f"gradient/{loss}/{block}: max_rel_error=" in out


    def test_verify_reports_state_only_parity(self, quick):
        code, out = quick
        assert code == 0
        line = next(ln for ln in out.splitlines()
                    if ln.startswith("encoder/state-only:"))
        for head in ("fused", "sequential", "graph"):
            assert f"{head}=" in line
        assert line.endswith("PASS")


    def test_verify_prints_no_raw_records(self, quick):
        code, out = quick
        assert code == 0
        assert not [line for line in out.splitlines() if "{" in line]
        for name in ("graph/sparse-vs-dense", "metrics/sort-oracle"):
            line = next(ln for ln in out.splitlines()
                        if ln.startswith(f"{name}: "))
            assert "=" in line and line.endswith(" PASS")

    def test_verify_names_the_failure_reason(self, monkeypatch):
        monkeypatch.setattr(verification, "metric_suite", lambda: {
            "passed": False, "reason": "rank mismatch: 2 vs oracle 1"})
        ok, report = verification.run_all(quick=True)
        assert not ok
        assert ("metrics/sort-oracle: reason=rank mismatch: 2 vs oracle 1 "
                "FAIL") in report.splitlines()

    def test_verify_reports_restricted_rows_parity(self, quick):
        code, out = quick
        assert code == 0
        line = next(ln for ln in out.splitlines()
                    if ln.startswith("graph/rows:"))
        assert line == "graph/rows: max_abs_error=0.000e+00 over 160 cases PASS"


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
