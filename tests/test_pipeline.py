from pathlib import Path

import numpy as np
import pytest

from podfcr import autodiff as ad
from podfcr import evaluation, losses, training
from podfcr.cli import main as cli_main
from podfcr.config import ConfigError, RunConfig, load_config, save_config
from podfcr.experiments import INPUT_VARIANTS, MODULE_VARIANTS
from podfcr.model import CloudRemovalNet
from podfcr.nn import Conv2d, StateDictError
from podfcr.optim import Adam
from podfcr.synthetic import CLASS_LABELS, COVERAGE_BINS, build_dataset
from podfcr.tensorfile import read_tensor
from podfcr.training import (TrainingDiverged, build_net_and_optimizer, load_checkpoint,
                             load_dataset, make_batch, model_config_from_meta, read_meta,
                             save_checkpoint, train)


def tiny_config(tmp_path, **overrides) -> RunConfig:
    defaults = dict(
        seed=0, patch=16, base_channels=4, epochs=2, batch_size=2,
        data_dir=str(tmp_path / "data"), checkpoint_dir=str(tmp_path / "ckpt"),
        report_path=str(tmp_path / "report.txt"))
    defaults.update(overrides)
    return RunConfig(**defaults)


@pytest.fixture
def tiny_data(tmp_path):
    build_dataset(0, 8, 16, tmp_path / "data")
    return tmp_path


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
        cfg = RunConfig(seed=3, patch=16, no_gc=True, sar_input="both",
                        learning_rate=1e-4)
        path = tmp_path / "run.cfg"
        save_config(cfg, path)
        assert load_config(path) == cfg

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

    def test_sar_none_implies_single_stream(self):
        cfg = RunConfig(sar_input="none")
        assert cfg.no_polsar
        assert RunConfig(no_polsar=True).sar_input == "none"

    def test_sar_channel_counts(self):
        assert RunConfig(sar_input="pfsar").sar_channels == 9
        assert RunConfig(sar_input="bcfsar").sar_channels == 3
        assert RunConfig(sar_input="both").sar_channels == 12


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
        optimizer = Adam(list(restored.named_parameters()))
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
        train(cfg)
        reads = []

        def counting_read(path):
            reads.append(path)
            return read_tensor(path)

        monkeypatch.setattr(training, "read_tensor", counting_read)
        net = CloudRemovalNet(cfg.model_config(), seed=1)
        load_checkpoint(cfg.checkpoint_dir, net)
        assert len(reads) == len(list(net.named_parameters())) + len(list(net.named_buffers()))

    def test_adam_load_state_dict_rejects_bad_moments_before_changing(self, rng):
        optimizer = Adam(list(Conv2d(rng, 2, 3).named_parameters()))
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
        total = losses.loss_total(pred, clean, mask)
        assert not np.isfinite(total.item())
        # the poisoned weight itself is the earliest non-finite tensor
        assert ad.first_nonfinite_op(total).startswith("leaf")

    def test_first_nonfinite_op_names_the_producing_op(self):
        x = ad.Tensor(np.array([1.0, 2.0]), requires_grad=True)
        bad = ad.div(x, ad.Tensor(np.array([1.0, 0.0])))
        loss = ad.tsum(ad.mul(bad, bad))
        assert ad.first_nonfinite_op(loss) == "div"

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
        rows = evaluation.evaluate_samples(net, clear, cfg.sar_input)
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

        def failing_save(*args, **kwargs):
            raise OSError("disk full")

        monkeypatch.setattr(training, "save_checkpoint", failing_save)
        assert cli_main(["train", "--config", str(cfg_path)]) == 1
        assert capsys.readouterr().err.startswith("error:runtime: disk full")
        assert "epoch=1 " in (tmp_path / "train.log").read_text()

    def test_resume_without_checkpoint_category(self, tiny_data, tmp_path, capsys):
        cfg_path = tmp_path / "run.cfg"
        save_config(tiny_config(tiny_data, checkpoint_dir=str(tmp_path / "absent")), cfg_path)
        code = cli_main(["train", "--config", str(cfg_path), "--resume"])
        assert code == 1
        assert capsys.readouterr().err.startswith("error:missing-checkpoint:")

    @pytest.mark.parametrize("damage", ["manifest_cut_in_adam", "tensor_truncated",
                                        "meta_unknown_key", "meta_cut"])
    def test_damaged_checkpoint_is_checkpoint_error(self, tiny_data, tmp_path, capsys, damage):
        cfg = tiny_config(tiny_data, epochs=1)
        cfg_path = tmp_path / "run.cfg"
        save_config(cfg, cfg_path)
        assert cli_main(["train", "--config", str(cfg_path)]) == 0
        ckpt = Path(cfg.checkpoint_dir)
        if damage == "manifest_cut_in_adam":
            lines = (ckpt / "manifest.txt").read_text().splitlines()
            cut = next(i for i, line in enumerate(lines) if line.startswith("adam.v.")) + 3
            (ckpt / "manifest.txt").write_text("\n".join(lines[:cut]) + "\n")
        elif damage == "tensor_truncated":
            path = ckpt / "tensors" / "param.out_conv.bias.ptf"
            path.write_bytes(path.read_bytes()[:-8])
        elif damage == "meta_unknown_key":
            with open(ckpt / "meta.txt", "a") as meta:
                meta.write("bogus = 1\n")
        else:
            lines = (ckpt / "meta.txt").read_text().splitlines(keepends=True)
            (ckpt / "meta.txt").write_text("".join(lines[:2]))
        capsys.readouterr()
        code = cli_main(["train", "--config", str(cfg_path), "--resume"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err.startswith("error:checkpoint:")

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
        save_config(tiny_config(tiny_data, epochs=1, no_scdf=False), cfg_path)
        assert cli_main(["train", "--config", str(cfg_path)]) == 0
        save_config(tiny_config(tiny_data, epochs=2, no_scdf=True), cfg_path)
        capsys.readouterr()
        code = cli_main(["train", "--config", str(cfg_path), "--resume"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err.startswith("error:checkpoint:")
        assert "unexpected" in captured.err

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
