import errno
import os
import re
import subprocess
import sys
import zlib
from pathlib import Path

import numpy as np
import pytest

from podfcr import BLAS_THREAD_VARS, autodiff as ad
from podfcr import cli, evaluation, experiments, losses, nn, training
from podfcr.cli import main as cli_main
from podfcr.config import (ABLATIONS, ConfigError, ModelConfig, RunConfig, field_types,
                           format_key_values, load_config, save_config)
from podfcr.experiments import INPUT_VARIANTS, MODULE_VARIANTS
from podfcr.model import CloudRemovalNet
from podfcr.nn import Conv2d, StateDictError
from podfcr.optim import Adam
from podfcr.synthetic import CLASS_LABELS, COVERAGE_BINS, build_dataset, read_manifest
from podfcr.tensorfile import read_tensor, write_tensor
from podfcr.training import (CHECKPOINT_FILE, CheckpointError, TrainingDiverged,
                             build_net_and_optimizer, load_checkpoint, load_dataset, make_batch,
                             model_config_from_meta, read_meta, save_checkpoint, train)


def tiny_config(tmp_path, **overrides) -> RunConfig:
    defaults = dict(
        seed=0, patch=16, base_channels=4, epochs=2, batch_size=2,
        data_dir=str(tmp_path / "data"), checkpoint_dir=str(tmp_path / "ckpt"),
        report_path=str(tmp_path / "report.txt"))
    defaults.update(overrides)
    return RunConfig(**defaults)


def child_env(env) -> dict:
    """``env`` with this checkout's sources first on PYTHONPATH, for a child process."""
    src = str(Path(ad.__file__).parents[1])
    return {**env, "PYTHONPATH": os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))}


@pytest.fixture
def tiny_data(tmp_path):
    build_dataset(0, 8, 16, tmp_path / "data")
    return tmp_path


def edit_header(path, edit):
    """Apply ``edit`` to a checkpoint's header text and stamp its CRC again,
    so that the damage reaches the meta and index checks."""
    blob = path.read_bytes()
    end = blob.index(b"\nend\t") + 1
    text = edit(blob[:end].decode()).encode()
    path.write_bytes(text + b"end\t%08x\n" % zlib.crc32(text) + blob[blob.index(b"\n", end) + 1:])


def record_start(path, name) -> int:
    """File offset of the named tensor's record in a checkpoint."""
    blob = path.read_bytes()
    data_start = blob.index(b"\n", blob.index(b"\nend\t") + 1) + 1
    offset = re.search(rb"^%s\t(\d+)\t" % re.escape(name.encode()), blob[:data_start], re.M)
    return data_start + int(offset.group(1))


class TestRunConfig:
    def test_defaults_match_training_recipe(self):
        cfg = RunConfig()
        assert cfg.learning_rate == 7e-5
        assert cfg.adam_beta1 == 0.5
        assert cfg.adam_beta2 == 0.999
        assert cfg.lambda_local == 10.0
        assert cfg.lambda_ssim == 1.0
        assert cfg.epochs == 200

    def test_round_trip(self, tmp_path):
        cfg = RunConfig(seed=3, patch=16, ablation="no_gc", sar_input="both",
                        learning_rate=1e-4)
        path = tmp_path / "run.cfg"
        save_config(cfg, path)
        assert load_config(path) == cfg

    @pytest.mark.parametrize("overrides", [{"data_dir": "runs/#3/data"},
                                           {"checkpoint_dir": "  ckpt"},
                                           {"log_path": "run.log\nseed = 5"}])
    def test_save_refuses_a_config_that_would_not_read_back(self, tmp_path, overrides):
        path = tmp_path / "run.cfg"
        with pytest.raises(ConfigError):
            save_config(RunConfig(**overrides), path)
        assert not path.exists()

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("seed = 1\nlerning_rate = 0.1\n")
        with pytest.raises(ConfigError, match="unknown key"):
            load_config(path)

    def test_duplicate_key_rejected(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("seed = 1\nseed = 2\n")
        with pytest.raises(ConfigError, match="duplicate"):
            load_config(path)

    def test_comments_and_blanks_ignored(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("# a comment\n\nseed = 4  # trailing\n")
        assert load_config(path).seed == 4

    @pytest.mark.parametrize("sar_input", ["pfsar", "bcfsar", "both", "none"])
    def test_radar_stem_width_matches_batch(self, tiny_data, sar_input):
        cfg = tiny_config(tiny_data, sar_input=sar_input)
        net = CloudRemovalNet(cfg.model_config(), seed=0)
        sample = load_dataset(cfg.data_dir).train[0]
        sar = make_batch([sample], cfg.sar_input)[3]
        if sar_input == "none":
            assert sar is None
            assert not any(name.startswith(("sar_", "mmcf", "mmrf", "fus_"))
                           for name, _ in net.named_parameters())
            return
        assert net.sar_stem.weight.shape[1] == sar.shape[1]
        assert sar.shape[1] == {"pfsar": 9, "bcfsar": 3, "both": 12}[sar_input]
        if sar_input == "both":
            assert np.array_equal(sar.data[0, :9], sample.pfsar)
            assert np.array_equal(sar.data[0, 9:], sample.bcfsar)

    def test_run_config_extends_model_config(self):
        assert not RunConfig.__annotations__.keys() & field_types(ModelConfig).keys()
        assert len(field_types(ModelConfig)) == 4 and len(field_types(RunConfig)) == 18
        assert type(RunConfig(patch=16, ablation="no_gc").model_config()) is ModelConfig

    def test_variants_set_their_own_model_fields(self):
        # the user's config supplies width, patch and training fields, never
        # the ablation or the radar input a variant trains
        other = RunConfig(ablation="no_gc", sar_input="both")
        for name, overrides in MODULE_VARIANTS + INPUT_VARIANTS:
            if overrides is not None:
                assert experiments.variant_config(other, name, overrides).model_config() == \
                    experiments.variant_config(RunConfig(), name, overrides).model_config(), name

    @pytest.mark.parametrize("ablation", ["no_scdf", "no_mmcf", "no_mmrf"])
    def test_radar_module_ablation_of_optical_only_model_rejected(self, tmp_path, capsys,
                                                                 ablation):
        with pytest.raises(ConfigError, match=ablation):
            ModelConfig(sar_input="none", ablation=ablation)
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(f"sar_input = none\nablation = {ablation}\n")
        assert cli_main(["train", "--config", str(cfg_path)]) == 1
        assert capsys.readouterr().err.startswith("error:config:")

    def test_readme_config_table_matches_schema(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        section = readme.split("### Config file", 1)[1].split("\n## ", 1)[0]
        first_cells = [line.split("|")[1] for line in section.splitlines()
                       if line.startswith("| `")]
        keys = [key for cell in first_cells for key in re.findall(r"`(\w+)`", cell)]
        assert len(keys) == len(set(keys))
        assert set(keys) == set(field_types(RunConfig))
        ablation_row = next(line for line in section.splitlines()
                            if line.startswith("| `ablation` |"))
        assert re.findall(r"`(\w+)`", ablation_row.split("|")[3]) == list(ABLATIONS)

    def test_malformed_number_is_config_error(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text("patch = 16\nseed = abc\n")
        assert cli_main(["train", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error:config: {path}:2: seed:")

    @pytest.mark.parametrize("key,value", [
        ("patch", 10), ("base_channels", 0), ("epochs", 0), ("max_steps", -1),
        ("ablation", "no_gates"), ("learning_rate", 0.0), ("learning_rate", -1.0),
        ("learning_rate", "nan"), ("adam_beta1", 1.0), ("adam_beta1", -0.1),
        ("adam_beta2", 1.0), ("adam_beta2", "nan"), ("grad_clip", -1.0), ("seed", -1)])
    def test_invalid_value_is_config_error(self, tiny_data, tmp_path, capsys, key, value):
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(format_key_values({"patch": 16, "base_channels": 4, "epochs": 1,
                                               "data_dir": tiny_data / "data",
                                               "checkpoint_dir": tmp_path / "ckpt"}
                                              | {key: value}))
        assert cli_main(["train", "--config", str(cfg_path)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error:config:") and key in captured.err
        assert "checkpoint written" not in captured.out
        assert not (tmp_path / "ckpt").exists()


class TestTraining:
    def test_loss_decreases_on_tiny_run(self, tiny_data):
        cfg = tiny_config(tiny_data, epochs=3, learning_rate=2e-3)
        logs = []
        train(cfg, log=logs.append)
        first = float(logs[0].split("loss_total=")[1].split()[0])
        last = float(logs[-1].split("loss_total=")[1].split()[0])
        assert last < first

    def test_checkpoint_round_trip_bit_exact(self, tiny_data):
        cfg = tiny_config(tiny_data, epochs=1)
        net = train(cfg)
        restored = CloudRemovalNet(cfg.model_config(), seed=99)
        optimizer = Adam(list(restored.named_parameters()), cfg.learning_rate, cfg.adam_beta1,
                         cfg.adam_beta2)
        epoch = load_checkpoint(cfg.checkpoint_dir, restored, optimizer)
        assert epoch == 1
        for (_, a), (_, b) in zip(net.named_parameters(), restored.named_parameters()):
            assert np.array_equal(a.data, b.data)
        for (_, a), (_, b) in zip(net.named_buffers(), restored.named_buffers()):
            assert np.array_equal(a, b)

    def test_resume_equals_uninterrupted(self, tiny_data, tmp_path):
        full_cfg = tiny_config(tiny_data, epochs=4,
                               checkpoint_dir=str(tmp_path / "full_ckpt"))
        net_full = train(full_cfg)

        half_cfg = tiny_config(tiny_data, epochs=2,
                               checkpoint_dir=str(tmp_path / "resume_ckpt"))
        train(half_cfg)
        resumed_cfg = tiny_config(tiny_data, epochs=4,
                                  checkpoint_dir=str(tmp_path / "resume_ckpt"))
        net_resumed = train(resumed_cfg, resume=True)

        for (na, a), (nb, b) in zip(net_full.named_parameters(),
                                    net_resumed.named_parameters()):
            assert np.array_equal(a.data, b.data), na
        for (_, a), (_, b) in zip(net_full.named_buffers(), net_resumed.named_buffers()):
            assert np.array_equal(a, b)

    def test_resume_after_mid_epoch_stop_equals_uninterrupted(self, tiny_data, tmp_path):
        net_full = train(tiny_config(tiny_data, checkpoint_dir=str(tmp_path / "full_ckpt")))
        per_epoch = -(-len(load_dataset(tiny_data / "data").train) // 2)
        assert per_epoch >= 2
        stop = per_epoch + 1  # partway through the second epoch
        cut_dir = str(tmp_path / "cut_ckpt")
        train(tiny_config(tiny_data, checkpoint_dir=cut_dir, max_steps=stop))
        assert read_meta(cut_dir)["step"] == stop
        net_resumed = train(tiny_config(tiny_data, checkpoint_dir=cut_dir), resume=True)

        assert read_meta(cut_dir)["step"] == read_meta(tmp_path / "full_ckpt")["step"]
        for (name, a), (_, b) in zip(net_full.named_parameters(), net_resumed.named_parameters()):
            assert np.array_equal(a.data, b.data), name
        for (name, a), (_, b) in zip(net_full.named_buffers(), net_resumed.named_buffers()):
            assert np.array_equal(a, b), name

    def test_load_without_optimizer_reads_only_net_state(self, tiny_data, monkeypatch):
        cfg = tiny_config(tiny_data, epochs=1)
        trained = train(cfg)
        # the Adam records are the last ones: cut them all off
        _, optimizer = build_net_and_optimizer(cfg)
        adam_bytes = sum(8 + 4 * v.ndim + v.nbytes
                         for k, v in optimizer.state_dict().items() if k != "step")
        path = Path(cfg.checkpoint_dir) / CHECKPOINT_FILE
        path.write_bytes(path.read_bytes()[:-adam_bytes])
        reads = []

        def counting_read(source):
            reads.append(source)
            return read_tensor(source)

        monkeypatch.setattr(training, "read_tensor", counting_read)
        net = CloudRemovalNet(cfg.model_config(), seed=1)
        load_checkpoint(cfg.checkpoint_dir, net)
        assert len(reads) == len(list(net.named_parameters())) + len(list(net.named_buffers()))
        for (name, a), (_, b) in zip(trained.named_parameters(), net.named_parameters()):
            assert np.array_equal(a.data, b.data), name
        with pytest.raises(CheckpointError):
            load_checkpoint(cfg.checkpoint_dir, net, optimizer)

    def test_failed_save_keeps_previous_checkpoint(self, tiny_data, tmp_path, monkeypatch):
        straight = train(tiny_config(tiny_data, checkpoint_dir=str(tmp_path / "straight")))
        train(tiny_config(tiny_data, epochs=1, checkpoint_dir=str(tmp_path / "epoch1")))
        cfg = tiny_config(tiny_data)
        net, _ = build_net_and_optimizer(cfg)
        per_save = 3 * len(list(net.named_parameters())) + len(list(net.named_buffers()))
        writes = []

        def failing_write(dest, array):
            writes.append(array)
            if len(writes) == per_save + per_save // 2:  # partway through the epoch-2 save
                raise OSError("disk full")
            write_tensor(dest, array)

        monkeypatch.setattr(training, "write_tensor", failing_write)
        logs = []
        with pytest.raises(OSError, match="disk full"):
            train(cfg, log=logs.append)
        monkeypatch.undo()
        # the epoch line follows its save, so a failed save never logs its epoch
        assert any(line.startswith("epoch=1 ") for line in logs)
        assert not any(line.startswith("epoch=2 ") for line in logs)
        ckpt = Path(cfg.checkpoint_dir)
        assert (ckpt / f"{CHECKPOINT_FILE}.tmp").is_file()  # the partial save, never loaded
        assert (ckpt / CHECKPOINT_FILE).read_bytes() == \
            (tmp_path / "epoch1" / CHECKPOINT_FILE).read_bytes()
        assert load_checkpoint(ckpt, CloudRemovalNet(cfg.model_config(), seed=1)) == 1
        resumed = train(cfg, resume=True)
        assert (ckpt / CHECKPOINT_FILE).read_bytes() == \
            (tmp_path / "straight" / CHECKPOINT_FILE).read_bytes()
        for (name, a), (_, b) in zip(straight.named_parameters(), resumed.named_parameters()):
            assert np.array_equal(a.data, b.data), name

    def test_adam_load_state_dict_rejects_bad_moments_before_changing(self, rng):
        optimizer = Adam(list(Conv2d(rng, 2, 3).named_parameters()), lr=7e-5, beta1=0.5,
                         beta2=0.999)
        state = {k: v if k == "step" else rng.normal(size=v.shape)
                 for k, v in optimizer.state_dict().items()} | {"step": 3}
        name = next(k for k in state if k.startswith("v."))
        bad_states = [{k: v for k, v in state.items() if k != name},
                      state | {"m.not_a_param": np.zeros(1)},
                      state | {name: np.zeros(state[name].size + 1)}]
        for bad, match in zip(bad_states, ("1 missing", "1 unexpected", "stored shape")):
            with pytest.raises(StateDictError, match=match):
                optimizer.load_state_dict(bad)
            assert optimizer.step_count == 0
            assert all(not m.any() for m in optimizer.m.values())
        optimizer.load_state_dict(state)
        assert optimizer.step_count == 3 and np.array_equal(optimizer.v[name[2:]], state[name])

    @pytest.mark.parametrize("name,overrides", MODULE_VARIANTS + INPUT_VARIANTS,
                             ids=[name for name, _ in MODULE_VARIANTS + INPUT_VARIANTS])
    def test_meta_rebuilds_model_config(self, tmp_path, name, overrides):
        cfg = tiny_config(tmp_path, **(overrides or {}))
        net, optimizer = build_net_and_optimizer(cfg)
        save_checkpoint(tmp_path / "ckpt", net, optimizer, 0, cfg)
        assert model_config_from_meta(read_meta(tmp_path / "ckpt")) == cfg.model_config()

    def test_nan_loss_aborts_with_diagnostic(self, tiny_data):
        cfg = tiny_config(tiny_data, epochs=1)
        net = CloudRemovalNet(cfg.model_config(), seed=0)
        dataset = load_dataset(cfg.data_dir)
        net.out_conv.weight.data[0, 0, 0, 0] = np.nan
        cloudy, clean, mask, sar = make_batch(dataset.train[:1], cfg.sar_input)
        pred = net.forward(cloudy, sar, training=True)
        total = losses.loss_total(pred, clean, mask, cfg.lambda_local, cfg.lambda_ssim)
        assert not np.isfinite(total.item())
        # the poisoned weight itself is the earliest non-finite tensor
        assert ad.first_nonfinite_op(total).startswith("leaf")

    def test_first_nonfinite_op_names_the_producing_op(self):
        x = ad.Tensor(np.array([1.0, 2.0]), requires_grad=True)
        bad = ad.div(x, ad.Tensor(np.array([1.0, 0.0])))
        loss = ad.tsum(ad.mul(bad, bad))
        assert ad.first_nonfinite_op(loss) == "div"

    @pytest.mark.parametrize("value,culprit",
                             [(np.nan, "leaf {}"), (1e308, "{} via filter_normalize")])
    def test_divergence_names_the_nearest_parameter(self, tiny_data, value, culprit):
        cfg = tiny_config(tiny_data, epochs=1)
        net, optimizer = build_net_and_optimizer(cfg)
        name = "sar_rb3.filters.0.fn_channel.alpha"
        dict(net.named_parameters())[name].data[...] = value
        batch = make_batch(load_dataset(cfg.data_dir).train[:2], cfg.sar_input)
        with pytest.raises(TrainingDiverged) as info:
            training.train_step(net, optimizer, batch, cfg)
        assert str(info.value).endswith(f"first non-finite tensor: {culprit.format(name)}")

    def test_nan_abort_through_train_loop(self, tiny_data, monkeypatch):
        cfg = tiny_config(tiny_data, epochs=1, learning_rate=1e10, grad_clip=0.0)
        # a huge learning rate reliably sends the second step non-finite
        with pytest.raises(TrainingDiverged, match="non-finite"):
            train(cfg)

    def test_zero_lambdas_give_pure_l1(self, tiny_data):
        cfg = tiny_config(tiny_data, lambda_local=0.0, lambda_ssim=0.0)
        dataset = load_dataset(cfg.data_dir)
        net = CloudRemovalNet(cfg.model_config(), seed=0)
        cloudy, clean, mask, sar = make_batch(dataset.train[:2], cfg.sar_input)
        pred = net.forward(cloudy, sar, training=True)
        total = losses.loss_total(pred, clean, mask, cfg.lambda_local, cfg.lambda_ssim)
        assert total.item() == losses.loss_global(pred, clean).item()

    def test_max_steps_cuts_epoch(self, tiny_data):
        cfg = tiny_config(tiny_data, epochs=5, max_steps=3)
        logs = []
        train(cfg, log=logs.append)
        assert any("step=3" in line for line in logs)
        assert not any("step=4" in line for line in logs)

    @pytest.mark.parametrize("budget", [dict(epochs=3, max_steps=2), dict(epochs=3, max_steps=3),
                                        dict(epochs=1)], ids=["mid-epoch", "epoch-end", "epochs"])
    def test_resume_of_a_finished_run_trains_nothing(self, tiny_data, budget, capsys):
        cfg = tiny_config(tiny_data, **budget)  # 6 training samples, 3 steps per epoch
        train(cfg, log=lambda line: None)
        path = Path(cfg.checkpoint_dir) / CHECKPOINT_FILE
        saved = path.read_bytes()
        logs = []
        train(cfg, log=logs.append, resume=True)
        assert [line.split(" at ")[0] for line in logs] == [f"resumed from {cfg.checkpoint_dir}"]
        assert path.read_bytes() == saved
        # the command says so, and claims no checkpoint
        cfg_path = tiny_data / "run.cfg"
        save_config(cfg, cfg_path)
        capsys.readouterr()
        assert cli_main(["train", "--config", str(cfg_path), "--resume"]) == 0
        out = capsys.readouterr().out
        assert [line.split(" at ")[0] for line in out.splitlines()] == [
            f"resumed from {cfg.checkpoint_dir}"]
        assert path.read_bytes() == saved

    def test_conv_worker_writes_the_inline_checkpoint(self, tmp_path, monkeypatch):
        # desk-sized convs stay inline, so only a zero threshold sends them to the
        # worker: the weight gradients of the backward and half of the one desk conv
        # forward large enough to split
        build_dataset(0, 6, 32, tmp_path / "data")
        submitted = []
        in_worker = ad._in_worker

        def recording_in_worker(fn, *args):
            submitted.append(fn.__name__)
            return in_worker(fn, *args)

        monkeypatch.setattr(ad, "_in_worker", recording_in_worker)
        blobs, submits = [], []
        for name, overlap_min in (("worker", 0), ("inline", ad.CONV_OVERLAP_MIN)):
            monkeypatch.setattr(ad, "CONV_OVERLAP_MIN", overlap_min)
            submitted.clear()
            train(tiny_config(tmp_path, patch=32, base_channels=8, batch_size=1,
                              checkpoint_dir=str(tmp_path / name)), log=lambda line: None)
            blobs.append((tmp_path / name / CHECKPOINT_FILE).read_bytes())
            submits.append(set(submitted))
        assert submits == [{"_conv_gemm", "_conv_dw"}, set()]
        assert blobs[0] == blobs[1]


class TestEvaluation:
    def test_report_row_counts(self, tiny_data):
        cfg = tiny_config(tiny_data)
        net = CloudRemovalNet(cfg.model_config(), seed=0)
        report = evaluation.evaluate(cfg, net)
        table = evaluation.parse_report(report)
        cells = [k for k in table if k[0] == "cell"]
        bins = [k for k in table if k[0] == "bin"]
        classes = [k for k in table if k[0] == "class"]
        assert len(cells) == len(COVERAGE_BINS) * len(CLASS_LABELS) == 35
        assert len(bins) == 5 and len(classes) == 7
        assert ("overall", "-", "-") in table

    def test_identity_model_on_clear_sky_hits_psnr_cap(self, tmp_path):
        build_dataset(0, 10, 16, tmp_path / "data")  # bin 0-20 can draw ~0 coverage
        cfg = tiny_config(tmp_path)
        net = CloudRemovalNet(cfg.model_config(), seed=0)
        net.out_conv.weight.data[...] = 0.0
        net.out_conv.bias.data[...] = 0.0
        dataset = load_dataset(cfg.data_dir)
        clear = [s for s in dataset.train + dataset.test if s.mask.sum() == 0]
        if not clear:  # fall back: synthesize an uncovered sample
            sample = dataset.train[0]
            sample.mask[...] = 0.0
            sample.cloudy = sample.clean.copy()
            clear = [sample]
        rows = evaluation.evaluate_samples(net, clear)
        from podfcr import metrics
        assert metrics.aggregate(rows)["psnr"] == 100.0

    def test_report_deterministic(self, tiny_data):
        cfg = tiny_config(tiny_data)
        net = CloudRemovalNet(cfg.model_config(), seed=0)
        a = evaluation.evaluate(cfg, net)
        b = evaluation.evaluate(cfg, net)
        assert a == b

class TestCli:
    def test_gen_data_deterministic(self, tmp_path, capsys):
        assert cli_main(["gen-data", "--seed", "3", "--count", "5", "--patch", "16",
                         "--out", str(tmp_path / "a")]) == 0
        assert cli_main(["gen-data", "--seed", "3", "--count", "5", "--patch", "16",
                         "--out", str(tmp_path / "b")]) == 0
        out = capsys.readouterr().out
        assert "bin" in out
        files = sorted(p.relative_to(tmp_path / "a")
                       for p in (tmp_path / "a").rglob("*") if p.is_file())
        for rel in files:
            assert (tmp_path / "a" / rel).read_bytes() == (tmp_path / "b" / rel).read_bytes()

    @pytest.mark.parametrize("args", [["--patch", "0"], ["--patch", "2"], ["--patch", "18"],
                                      ["--count", "-3"], ["--count", "1"]])
    def test_gen_data_bad_size_is_usage_error(self, tmp_path, capsys, args):
        assert cli_main(["gen-data", *args, "--out", str(tmp_path / "data")]) == 2
        assert capsys.readouterr().err.startswith(f"error:usage: {args[0]}")
        assert not (tmp_path / "data").exists()

    def test_train_eval_infer_cycle(self, tmp_path, capsys):
        data = tmp_path / "data"
        assert cli_main(["gen-data", "--seed", "0", "--count", "6", "--patch", "16",
                         "--out", str(data)]) == 0
        cfg = tiny_config(tmp_path, epochs=1)
        cfg_path = tmp_path / "run.cfg"
        save_config(cfg, cfg_path)
        assert cli_main(["train", "--config", str(cfg_path)]) == 0
        assert cli_main(["eval", "--config", str(cfg_path)]) == 0
        report = (tmp_path / "report.txt").read_text()
        assert report.startswith("# scope")

        sample_dir = data / "sample_0000"
        out_path = tmp_path / "pred.ptf"
        assert cli_main(["infer", "--checkpoint", cfg.checkpoint_dir,
                         "--in", str(sample_dir / "cloudy.ptf"),
                         str(sample_dir / "pfsar.ptf"), "--out", str(out_path)]) == 0
        pred = read_tensor(out_path)
        assert pred.shape == (4, 16, 16)
        capsys.readouterr()

    def test_eval_takes_the_radar_input_from_the_checkpoint(self, tiny_data, tmp_path, capsys):
        both = tiny_config(tiny_data, epochs=1, sar_input="both")
        save_config(both, tmp_path / "both.cfg")
        save_config(tiny_config(tiny_data, epochs=1), tmp_path / "pfsar.cfg")
        assert cli_main(["train", "--config", str(tmp_path / "both.cfg")]) == 0
        reports = []
        for name in ("both", "pfsar"):
            out = tmp_path / f"report_{name}.txt"
            assert cli_main(["eval", "--config", str(tmp_path / f"{name}.cfg"),
                             "--checkpoint", both.checkpoint_dir, "--out", str(out)]) == 0
            reports.append(out.read_bytes())
        assert reports[0] == reports[1]
        capsys.readouterr()

    def test_ablate_report_does_not_depend_on_worker_count(self, tiny_data, capsys,
                                                           monkeypatch):
        cfg = tiny_config(tiny_data, epochs=1)
        cfg_path = tiny_data / "run.cfg"
        save_config(cfg, cfg_path)
        reports = []
        for workers, blas_threads in ((1, "2"), (2, None)):
            monkeypatch.setattr(experiments, "MAX_WORKERS", workers)
            if blas_threads is None:
                monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
            else:
                monkeypatch.setenv("OPENBLAS_NUM_THREADS", blas_threads)
            out = tiny_data / f"ablation_{workers}.txt"
            assert cli_main(["ablate", "--config", str(cfg_path), "--out", str(out)]) == 0
            assert os.environ.get("OPENBLAS_NUM_THREADS") == blas_threads
            reports.append(out.read_bytes())
        assert reports[0] == reports[1]
        rows = reports[0].decode().splitlines()
        assert [row.split("\t")[0] for row in rows[1:]] == [
            "full", "no_scdf", "no_gc", "no_mmcf", "no_mmrf", "no_aspp",
            "input_none", "input_both", "input_bcfsar", "input_pfsar"]
        assert "[no_gc] epoch=1" in capsys.readouterr().out

    @pytest.mark.parametrize("preset", [None, "3"], ids=["default", "preset"])
    def test_import_sets_the_blas_threads_before_numpy_loads(self, preset):
        # prints what each variable holds when numpy is first imported
        probe = (
            "import os, sys\n"
            "class Spy:\n"
            "    def find_spec(self, name, path=None, target=None):\n"
            "        if name == 'numpy':\n"
            f"            print(*(os.environ.get(v) for v in {BLAS_THREAD_VARS!r}))\n"
            "sys.meta_path.insert(0, Spy())\n"
            "import podfcr\n")
        env = {key: value for key, value in os.environ.items()
               if key not in BLAS_THREAD_VARS}
        if preset is not None:
            env["OPENBLAS_NUM_THREADS"] = preset
        result = subprocess.run([sys.executable, "-c", probe], env=child_env(env),
                                capture_output=True, text=True, timeout=60)
        assert result.returncode == 0, result.stderr
        assert result.stdout.split() == [preset or "1", "1", "1"]

    def test_gradcheck_unknown_op_is_usage_error(self, capsys):
        code = cli_main(["gradcheck", "--op", "not_an_op"])
        captured = capsys.readouterr()
        assert code == 2
        assert "error:usage" in captured.err
        assert "conv2d" in captured.err  # lists valid names

    def test_gradcheck_single_op(self, capsys):
        assert cli_main(["gradcheck", "--op", "softmax"]) == 0
        assert "softmax" in capsys.readouterr().out

    def test_bad_config_key_reports_category(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text("not_a_key = 1\n")
        code = cli_main(["train", "--config", str(path)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err.startswith("error:config:")

    def test_missing_data_dir_category(self, tmp_path, capsys):
        cfg = tiny_config(tmp_path)  # data dir never generated
        cfg_path = tmp_path / "run.cfg"
        save_config(cfg, cfg_path)
        code = cli_main(["train", "--config", str(cfg_path)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err.startswith("error:missing-data:")

    # case -> (category, exit code); ``failing_command`` sets each case up
    FAILURES = {
        "gen-data-one-sample": ("usage", 2),
        "train-unknown-key": ("config", 1),
        "eval-truncated-checkpoint": ("checkpoint", 1),
        "infer-junk-tensor": ("bad-tensorfile", 1),
        "resume-without-checkpoint": ("missing-checkpoint", 1),
        "eval-without-checkpoint": ("missing-checkpoint", 1),
        "train-without-data": ("missing-data", 1),
        "train-missing-sample-file": ("missing-data", 1),
        "eval-without-data": ("missing-data", 1),
        "ablate-without-data": ("missing-data", 1),   # raised in the spawned workers
        "train-diverges": ("diverged", 1),
        "ablate-variant-diverges": ("diverged", 1),
        "train-checkpoint-dir-not-created": ("runtime", 1),
        "eval-report-not-written": ("runtime", 1),
    }

    @staticmethod
    def failing_command(case, root, monkeypatch) -> list[str]:
        """Set ``case`` up under ``root``, which holds a dataset; returns its argv."""
        cfg_path = root / "run.cfg"
        save_config(tiny_config(root, epochs=1), cfg_path)
        if case in ("eval-truncated-checkpoint", "infer-junk-tensor", "eval-without-data",
                    "eval-report-not-written"):
            assert cli_main(["train", "--config", str(cfg_path)]) == 0
        if case.endswith("without-data"):
            save_config(tiny_config(root, epochs=1, data_dir=str(root / "never-generated")),
                        cfg_path)
        elif case == "train-diverges":
            save_config(tiny_config(root, epochs=1, learning_rate=1e300), cfg_path)
        command = case.split("-")[0]
        argv = {"train": ["train", "--config", str(cfg_path)],
                "eval": ["eval", "--config", str(cfg_path)],
                "ablate": ["ablate", "--config", str(cfg_path)],
                "resume": ["train", "--config", str(cfg_path), "--resume"],
                "gen": ["gen-data", "--count", "1", "--out", str(root / "one")]}.get(command)
        ckpt = root / "ckpt"

        def no_such_file(path):
            def fail(*args, **kwargs):
                raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), path)
            return fail

        if case == "train-unknown-key":
            cfg_path.write_text(cfg_path.read_text() + "not_a_key = 1\n")
        elif case == "eval-truncated-checkpoint":
            path = ckpt / CHECKPOINT_FILE
            path.write_bytes(path.read_bytes()[:record_start(path, "param.out_conv.bias") + 8])
        elif case == "infer-junk-tensor":
            junk = root / "junk.ptf"
            junk.write_bytes(b"JUNKJUNKJUNK")
            argv = ["infer", "--checkpoint", str(ckpt), "--in", str(junk), str(junk),
                    "--out", str(root / "pred.ptf")]
        elif case == "eval-without-checkpoint":
            argv += ["--checkpoint", str(root / "absent")]
        elif case == "train-missing-sample-file":
            record = read_manifest(root / "data" / "train.manifest")[0]
            (root / "data" / record.paths["clean"]).unlink()
        elif case == "ablate-variant-diverges":
            def diverging(config, log=print):
                raise TrainingDiverged("non-finite loss at step 2; first non-finite tensor: loss")
            monkeypatch.setattr(experiments, "run_ablation", diverging)
        elif case == "train-checkpoint-dir-not-created":
            monkeypatch.setattr(training, "save_checkpoint", no_such_file(str(ckpt)))
        elif case == "eval-report-not-written":
            monkeypatch.setattr(Path, "write_text", no_such_file(str(root / "report.txt")))
        return argv

    @pytest.mark.parametrize("case", list(FAILURES))
    def test_failure_category(self, tiny_data, capsys, monkeypatch, case):
        argv = self.failing_command(case, tiny_data, monkeypatch)
        capsys.readouterr()
        code = cli_main(argv)
        category, exit_code = self.FAILURES[case]
        err = capsys.readouterr().err
        assert code == exit_code
        assert err.startswith(f"error:{category}: ") and len(err.splitlines()) == 1, err

    @pytest.mark.parametrize("command", ["train", "ablate"])
    def test_divergence_writes_one_stderr_line(self, tiny_data, command):
        # a child process, because pytest takes numpy's warnings apart from stderr
        save_config(tiny_config(tiny_data, epochs=1, learning_rate=1e300), tiny_data / "run.cfg")
        result = subprocess.run(
            [sys.executable, "-m", "podfcr", command, "--config", str(tiny_data / "run.cfg")],
            env=child_env(os.environ), capture_output=True, text=True, timeout=300)
        assert result.returncode == 1
        assert result.stderr.startswith("error:diverged: non-finite loss at step 2")
        assert len(result.stderr.splitlines()) == 1, result.stderr

    @pytest.mark.parametrize("command", ["train", "eval"])
    def test_non_finite_data_is_rejected(self, tiny_data, capsys, command):
        cfg_path = tiny_data / "run.cfg"
        save_config(tiny_config(tiny_data, epochs=1), cfg_path)
        if command == "eval":
            assert cli_main(["train", "--config", str(cfg_path)]) == 0
        split = "train" if command == "train" else "test"
        record = read_manifest(tiny_data / "data" / f"{split}.manifest")[0]
        path = tiny_data / "data" / record.paths["cloudy"]
        cloudy = read_tensor(path)
        cloudy[0, 3, 4] = np.nan
        write_tensor(path, cloudy)
        capsys.readouterr()
        assert cli_main([command, "--config", str(cfg_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:runtime: forward: cloudy input holds non-finite values")
        assert len(err.splitlines()) == 1

    def test_failure_cases_reach_every_category(self):
        assert {category for _, category in cli.FAILURE_CATEGORIES} <= {
            category for category, _ in self.FAILURES.values()}

    def test_train_writes_log_file(self, tiny_data, tmp_path, capsys):
        cfg = tiny_config(tiny_data, epochs=1, log_path=str(tmp_path / "train.log"))
        cfg_path = tmp_path / "run.cfg"
        save_config(cfg, cfg_path)
        assert cli_main(["train", "--config", str(cfg_path)]) == 0
        log = (tmp_path / "train.log").read_text()
        assert "epoch=1" in log and "loss_total=" in log
        save_config(tiny_config(tiny_data, epochs=2, log_path=cfg.log_path), cfg_path)
        assert cli_main(["train", "--config", str(cfg_path), "--resume"]) == 0
        log = (tmp_path / "train.log").read_text()
        assert "epoch=1 " in log and "resumed" in log and "epoch=2 " in log
        capsys.readouterr()

    def test_train_log_survives_a_crash(self, tiny_data, tmp_path, capsys, monkeypatch):
        cfg = tiny_config(tiny_data, epochs=2, log_path=str(tmp_path / "train.log"))
        cfg_path = tmp_path / "run.cfg"
        save_config(cfg, cfg_path)

        saves = []
        save = training.save_checkpoint

        def failing_save(*args, **kwargs):  # the epoch-2 save crashes
            saves.append(args)
            if len(saves) == 2:
                raise OSError("disk full")
            save(*args, **kwargs)

        monkeypatch.setattr(training, "save_checkpoint", failing_save)
        assert cli_main(["train", "--config", str(cfg_path)]) == 1
        assert capsys.readouterr().err.startswith("error:runtime: disk full")
        text = (tmp_path / "train.log").read_text()
        assert "epoch=1 " in text and "epoch=2 " not in text

    def test_resume_without_checkpoint_category(self, tiny_data, tmp_path, capsys):
        cfg_path = tmp_path / "run.cfg"
        save_config(tiny_config(tiny_data, checkpoint_dir=str(tmp_path / "absent")), cfg_path)
        code = cli_main(["train", "--config", str(cfg_path), "--resume"])
        assert code == 1
        assert capsys.readouterr().err.startswith("error:missing-checkpoint:")

    # damage -> a fragment of the error it must raise
    DAMAGE = {"index_cut_in_adam": "adam.v.", "tensor_truncated": "truncated",
              "payload_byte_flipped": "CRC mismatch", "header_byte_flipped": "header CRC",
              "meta_unknown_key": "unknown key 'bogus'", "meta_cut": "missing keys",
              "meta_bad_sar_input": "sar_input",
              "meta_old_ablation_flags": "unknown key 'no_scdf'"}

    @pytest.mark.parametrize("damage", list(DAMAGE))
    def test_damaged_checkpoint_is_checkpoint_error(self, tiny_data, tmp_path, capsys, damage):
        cfg = tiny_config(tiny_data, epochs=1)
        cfg_path = tmp_path / "run.cfg"
        save_config(cfg, cfg_path)
        assert cli_main(["train", "--config", str(cfg_path)]) == 0
        path = Path(cfg.checkpoint_dir) / CHECKPOINT_FILE
        blob = bytearray(path.read_bytes())
        bias = record_start(path, "param.out_conv.bias")
        if damage == "index_cut_in_adam":
            def cut(text):
                lines = text.splitlines(keepends=True)
                return "".join(lines[:next(i for i, line in enumerate(lines)
                                            if line.startswith("adam.v.")) + 3])
            edit_header(path, cut)
        elif damage == "tensor_truncated":
            path.write_bytes(blob[:bias + 8])
        elif damage == "payload_byte_flipped":
            blob[bias + 12 + 3] ^= 0x01  # inside the rank-1 record's payload
            path.write_bytes(blob)
        elif damage == "header_byte_flipped":  # step = 3 -> step = 2, CRC not stamped again
            path.write_bytes(blob.replace(b"step = 3\n", b"step = 2\n", 1))
        elif damage == "meta_unknown_key":
            edit_header(path, lambda text: text.replace("\n\n", "\nbogus = 1\n\n", 1))
        elif damage == "meta_bad_sar_input":  # parses, but no ModelConfig accepts it
            edit_header(path, lambda text: text.replace("sar_input = pfsar", "sar_input = xyz"))
        elif damage == "meta_old_ablation_flags":  # the header of a checkpoint from before
            flags = ("no_scdf", "no_gc", "no_mmcf", "no_mmrf", "no_aspp", "scru_literal")
            edit_header(path, lambda text: text.replace(
                "ablation = full\n", "".join(f"{flag} = False\n" for flag in flags)))
        else:  # the magic line and two meta keys stay
            def cut(text):
                meta, index = text.split("\n\n", 1)
                return "".join(meta.splitlines(keepends=True)[:3]) + "\n" + index
            edit_header(path, cut)
        commands = [["train", "--config", str(cfg_path), "--resume"]]
        if damage != "index_cut_in_adam":  # eval reads no Adam moments
            commands.append(["eval", "--config", str(cfg_path)])
        for command in commands:
            capsys.readouterr()
            assert cli_main(command) == 1
            err = capsys.readouterr().err
            assert err.startswith("error:checkpoint:") and self.DAMAGE[damage] in err

    def test_old_directory_layout_is_checkpoint_error(self, tiny_data, tmp_path, capsys):
        cfg = tiny_config(tiny_data, epochs=1)
        cfg_path = tmp_path / "run.cfg"
        save_config(cfg, cfg_path)
        ckpt = Path(cfg.checkpoint_dir)
        (ckpt / "tensors").mkdir(parents=True)
        write_tensor(ckpt / "tensors" / "param.out_conv.bias.ptf", np.zeros(4))
        (ckpt / "manifest.txt").write_text("param.out_conv.bias\t4\n")
        for command in (["eval", "--config", str(cfg_path)],
                        ["train", "--config", str(cfg_path), "--resume"]):
            assert cli_main(command) == 1
            err = capsys.readouterr().err
            assert err.startswith("error:checkpoint:") and "earlier versions" in err

    def test_infer_without_radar_checkpoint(self, tiny_data, tmp_path, capsys):
        cfg = tiny_config(tiny_data, epochs=1, sar_input="none",
                          checkpoint_dir=str(tmp_path / "ck_none"))
        cfg_path = tmp_path / "run.cfg"
        save_config(cfg, cfg_path)
        assert cli_main(["train", "--config", str(cfg_path)]) == 0
        sample_dir = tiny_data / "data" / "sample_0000"
        out = tmp_path / "pred.ptf"
        assert cli_main(["infer", "--checkpoint", cfg.checkpoint_dir,
                         "--in", str(sample_dir / "cloudy.ptf"),
                         "--out", str(out)]) == 0
        assert read_tensor(out).shape == (4, 16, 16)
        capsys.readouterr()

    def test_resume_into_other_ablation_is_checkpoint_error(self, tiny_data, tmp_path, capsys):
        cfg_path = tmp_path / "run.cfg"
        save_config(tiny_config(tiny_data, epochs=1), cfg_path)
        assert cli_main(["train", "--config", str(cfg_path)]) == 0
        saved = (tmp_path / "ckpt" / CHECKPOINT_FILE).read_bytes()
        save_config(tiny_config(tiny_data, epochs=2, ablation="no_scdf"), cfg_path)
        capsys.readouterr()
        code = cli_main(["train", "--config", str(cfg_path), "--resume"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err.startswith("error:checkpoint:")
        assert "ablation = " in captured.err
        assert (tmp_path / "ckpt" / CHECKPOINT_FILE).read_bytes() == saved  # no epoch trained

    @pytest.mark.parametrize("key,value", [("sar_input", "both"), ("seed", 7),
                                           ("batch_size", 1)])
    def test_resume_with_other_config_is_checkpoint_error(self, tiny_data, tmp_path, capsys,
                                                          key, value):
        cfg_path = tmp_path / "run.cfg"
        save_config(tiny_config(tiny_data, epochs=1), cfg_path)
        assert cli_main(["train", "--config", str(cfg_path)]) == 0
        saved = (tmp_path / "ckpt" / CHECKPOINT_FILE).read_bytes()
        save_config(tiny_config(tiny_data, epochs=2, **{key: value}), cfg_path)
        capsys.readouterr()
        code = cli_main(["train", "--config", str(cfg_path), "--resume"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err.startswith("error:checkpoint:")
        assert f"{key} = " in captured.err
        assert (tmp_path / "ckpt" / CHECKPOINT_FILE).read_bytes() == saved  # no epoch trained

    def test_infer_bad_tensorfile_category(self, tmp_path, tiny_data, capsys):
        cfg = tiny_config(tiny_data, epochs=1)
        cfg_path = tmp_path / "run.cfg"
        save_config(cfg, cfg_path)
        assert cli_main(["train", "--config", str(cfg_path)]) == 0
        bad = tmp_path / "bad.ptf"
        bad.write_bytes(b"JUNKJUNKJUNK")
        code = cli_main(["infer", "--checkpoint", cfg.checkpoint_dir,
                         "--in", str(bad), str(bad), "--out", str(tmp_path / "o.ptf")])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err.startswith("error:bad-tensorfile:")

    def test_eval_bad_tensorfile_category(self, tmp_path, tiny_data, capsys):
        cfg = tiny_config(tiny_data, epochs=1)
        cfg_path = tmp_path / "run.cfg"
        save_config(cfg, cfg_path)
        assert cli_main(["train", "--config", str(cfg_path)]) == 0
        record = read_manifest(tiny_data / "data" / "test.manifest")[0]
        clean = tiny_data / "data" / record.paths["clean"]
        clean.write_bytes(clean.read_bytes()[:-8])
        capsys.readouterr()
        assert cli_main(["eval", "--config", str(cfg_path)]) == 1
        assert capsys.readouterr().err.startswith("error:bad-tensorfile:")

    def test_restore_draws_no_initial_weights(self, tiny_data, tmp_path, capsys, monkeypatch):
        # eval, infer and train --resume load every parameter over the
        # network they build, so they make no He-normal draw, and their
        # outputs are those of a network built from the seed and then loaded
        cfg = tiny_config(tiny_data, epochs=1)
        cfg_path = tmp_path / "run.cfg"
        save_config(cfg, cfg_path)
        trained = train(cfg)
        tile = tiny_data / "data" / "sample_0000"

        def outputs(name):
            report, pred = tmp_path / f"{name}.txt", tmp_path / f"{name}.ptf"
            assert cli_main(["eval", "--config", str(cfg_path), "--out", str(report)]) == 0
            assert cli_main(["infer", "--checkpoint", cfg.checkpoint_dir, "--in",
                             str(tile / "cloudy.ptf"), str(tile / "pfsar.ptf"),
                             "--out", str(pred)]) == 0
            return report.read_bytes(), pred.read_bytes()

        def seeded_restore(checkpoint):
            net = CloudRemovalNet(model_config_from_meta(read_meta(checkpoint)), seed=cfg.seed)
            load_checkpoint(checkpoint, net)
            return net

        with monkeypatch.context() as m:
            m.setattr(cli, "_restore", seeded_restore)
            seeded = outputs("seeded")
        draws = []
        kaiming = nn.kaiming
        monkeypatch.setattr(nn, "kaiming", lambda rng, shape, fan_in: (
            draws.append(shape) if rng is not None else None, kaiming(rng, shape, fan_in))[1])
        assert outputs("restored") == seeded
        restored = cli._restore(cfg.checkpoint_dir).state_dict()
        expected = trained.state_dict()
        assert restored.keys() == expected.keys()
        for name, value in expected.items():
            assert np.array_equal(restored[name], value), name
        train(tiny_config(tiny_data, epochs=2), resume=True)
        assert draws == []
        capsys.readouterr()

    def test_infer_writes_the_whole_batch(self, tmp_path, tiny_data, capsys):
        cfg = tiny_config(tiny_data, epochs=1)
        cfg_path = tmp_path / "run.cfg"
        save_config(cfg, cfg_path)
        assert cli_main(["train", "--config", str(cfg_path)]) == 0
        tiles = [tiny_data / "data" / f"sample_000{i}" for i in range(2)]

        def infer(cloudy, sar, name):
            paths = [tmp_path / f"{name}_cloudy.ptf", tmp_path / f"{name}_sar.ptf"]
            write_tensor(paths[0], cloudy)
            write_tensor(paths[1], sar)
            assert cli_main(["infer", "--checkpoint", cfg.checkpoint_dir,
                             "--in", *map(str, paths), "--out", str(tmp_path / name)]) == 0
            return read_tensor(tmp_path / name)

        stacked = infer(np.stack([read_tensor(t / "cloudy.ptf") for t in tiles]),
                        np.stack([read_tensor(t / "pfsar.ptf") for t in tiles]), "pair")
        assert stacked.shape == (2, 4, 16, 16)
        for i, tile in enumerate(tiles):
            single = infer(read_tensor(tile / "cloudy.ptf"), read_tensor(tile / "pfsar.ptf"),
                           f"tile{i}")
            assert single.shape == (4, 16, 16)
            assert np.max(np.abs(stacked[i] - single)) <= 1e-12
        capsys.readouterr()
