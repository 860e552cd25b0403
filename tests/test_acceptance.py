"""Acceptance suite: one test per verification criterion, each printing a
pass/fail line. The training-based criteria share one module-scoped ablation
run. Criterion 5 asserts the stated 90% overfit-reduction target at the
reference learning rate; measured behavior of a faithful implementation
tops out a few points short (the landscape reaches the target at ~1.7x the
step budget, see the diagnostic output), so that test documents the gap
rather than weakening the bound.
"""

import time
from pathlib import Path

import numpy as np
import pytest

from podfcr import autodiff as ad
from podfcr import gradcheck as gc
from podfcr import losses, metrics
from podfcr.autodiff import Tensor
from podfcr.cli import main as cli_main
from podfcr.config import RunConfig, save_config
from podfcr.evaluation import evaluate, parse_report
from podfcr.experiments import run_ablation
from podfcr.model import CloudRemovalNet, ModelConfig
from podfcr.nn import (DynamicFilterResidualBlock, GatedResidualBlock,
                       PlainResidualBlock, delta_kernel, scdf_apply)
from podfcr.synthetic import COVERAGE_BINS, build_dataset, make_sample
from podfcr.training import (load_checkpoint, load_dataset, make_batch,
                             overfit_single_sample, train)

from conftest import dilate_kernel, naive_conv2d, naive_scdf_apply

# 20 epochs on the fixed 64-sample seed-0 set; the learning rate is the
# desk-scale calibration (the reference 7e-5 rate leaves every variant far
# from the regime where the architecture ordering is measurable).
ABLATION_EPOCHS = 20
ABLATION_LR = 3e-3
ABLATION_COUNT = 64


def report(name: str, ok: bool, detail: str = ""):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}" + (f" ({detail})" if detail else ""))


@pytest.fixture(scope="module")
def ablation_results(tmp_path_factory):
    root = tmp_path_factory.mktemp("ablation")
    build_dataset(0, ABLATION_COUNT, 32, root / "data")
    cfg = RunConfig(seed=0, patch=32, base_channels=8, epochs=ABLATION_EPOCHS,
                    batch_size=1, learning_rate=ABLATION_LR,
                    data_dir=str(root / "data"),
                    checkpoint_dir=str(root / "ckpt"),
                    report_path=str(root / "report.txt"))
    t0 = time.time()
    results = run_ablation(cfg, log=lambda m: None)
    elapsed = time.time() - t0
    return {"results": results, "cfg": cfg, "root": root, "elapsed": elapsed}


class TestCriterion1GradientSuite:
    def test_every_operator_within_tolerance(self):
        t0 = time.time()
        results = gc.run_suite(log=lambda m: None)
        elapsed = time.time() - t0
        worst = max(results.values())
        ok = worst <= 1e-4 and elapsed <= 120.0
        report("criterion 1: gradient suite", ok,
               f"worst={worst:.2e}, {len(results)} ops, {elapsed:.1f}s")
        assert worst <= 1e-4
        assert elapsed <= 120.0


class TestCriterion2OracleEquivalence:
    def test_conv2d_matches_naive(self, rng):
        worst = 0.0
        for _ in range(20):
            x = rng.normal(size=(2, 3, 7, 7))
            w = rng.normal(size=(4, 3, 3, 3))
            b = rng.normal(size=4)
            out = ad.conv2d(Tensor(x), Tensor(w), Tensor(b), padding=1)
            worst = max(worst, np.max(np.abs(out.data - naive_conv2d(x, w, b, padding=1))))
        report("criterion 2a: conv2d vs naive loop", worst <= 1e-12, f"max dev {worst:.2e}")
        assert worst <= 1e-12

    def test_scdf_apply_matches_naive(self, rng):
        worst = 0.0
        for _ in range(20):
            x = rng.normal(size=(2, 3, 5, 5))
            sp = rng.normal(size=(2, 1, 3, 3, 5, 5))
            ch = rng.normal(size=(2, 3, 3, 3))
            out = scdf_apply(Tensor(x), Tensor(sp), Tensor(ch))
            worst = max(worst, np.max(np.abs(out.data - naive_scdf_apply(x, sp, ch))))
        report("criterion 2b: scdf_apply vs naive loop", worst <= 1e-12, f"max dev {worst:.2e}")
        assert worst <= 1e-12

    def test_dilated_conv_matches_zero_stuffed(self, rng):
        worst = 0.0
        for _ in range(20):
            x = rng.normal(size=(1, 2, 9, 9))
            w = rng.normal(size=(3, 2, 3, 3))
            d = int(rng.integers(2, 4))
            out = ad.conv2d(Tensor(x), Tensor(w), padding=d, dilation=d)
            ref = naive_conv2d(x, dilate_kernel(w, d), padding=d)
            worst = max(worst, np.max(np.abs(out.data - ref)))
        report("criterion 2c: dilated conv vs dense kernel", worst <= 1e-12,
               f"max dev {worst:.2e}")
        assert worst <= 1e-12


class TestCriterion3IdentityInvariants:
    def test_delta_scdf_is_identity(self, rng):
        x = Tensor(rng.normal(size=(2, 4, 6, 6)))
        delta = delta_kernel(3)
        sp = Tensor(np.broadcast_to(delta[None, None, :, :, None, None],
                                    (2, 1, 3, 3, 6, 6)).copy())
        ch = Tensor(np.broadcast_to(delta, (4, 3, 3)).copy())
        ok = np.array_equal(scdf_apply(x, sp, ch).data, x.data)
        report("criterion 3a: delta-filter dynamic filtering = identity", ok)
        assert ok

    def test_zero_branch_blocks_are_identity(self, rng):
        x = Tensor(rng.normal(size=(1, 4, 6, 6)))
        oks = []
        for block in (GatedResidualBlock(rng, 4), PlainResidualBlock(rng, 4),
                      DynamicFilterResidualBlock(rng, 4)):
            for conv in block.convs:
                for p in conv.parameters():
                    p.data[...] = 0.0
            oks.append(np.array_equal(block(x).data, x.data))
        report("criterion 3b: zero-branch residual blocks = identity", all(oks))
        assert all(oks)

    def test_zero_final_conv_model_is_identity(self, rng):
        net = CloudRemovalNet(ModelConfig(base_channels=4, patch=16), seed=0)
        net.out_conv.weight.data[...] = 0.0
        net.out_conv.bias.data[...] = 0.0
        cloudy = Tensor(rng.uniform(0, 1, (1, 4, 16, 16)))
        sar = Tensor(rng.uniform(0, 1, (1, 9, 16, 16)))
        ok = np.array_equal(net.forward(cloudy, sar).data, cloudy.data)
        report("criterion 3c: zero-final-conv model = long-skip identity", ok)
        assert ok

    def test_zero_mask_local_loss(self, rng):
        pred = Tensor(rng.uniform(0, 1, (1, 4, 8, 8)))
        target = Tensor(rng.uniform(0, 1, (1, 4, 8, 8)))
        value = losses.loss_local(pred, target, Tensor(np.zeros((1, 1, 8, 8)))).item()
        report("criterion 3d: zero-mask local loss = 0", value == 0.0)
        assert value == 0.0

    def test_ssim_self_is_one(self, rng):
        x = Tensor(rng.uniform(0, 1, (1, 4, 16, 16)))
        value = losses.ssim(x, x).item()
        report("criterion 3e: ssim(x, x) = 1", abs(value - 1.0) <= 1e-9, f"{value:.12f}")
        assert abs(value - 1.0) <= 1e-9


class TestCriterion4AnalyticValues:
    def test_psnr_value(self):
        value = metrics.psnr(np.full((4, 8, 8), 0.5), np.ones((4, 8, 8)))
        ok = abs(value - 6.0206) <= 0.001
        report("criterion 4a: psnr(1s vs 0.5s) = 6.0206 dB", ok, f"{value:.4f}")
        assert ok

    def test_softmax_value(self):
        out = ad.softmax(Tensor([[0.0, np.log(3.0)]])).data
        dev = np.max(np.abs(out - [0.25, 0.75]))
        report("criterion 4b: softmax([0, ln3]) = [0.25, 0.75]", dev <= 1e-12, f"dev {dev:.2e}")
        assert dev <= 1e-12

    def test_sam_proportional_spectra(self, rng):
        x = rng.uniform(0.1, 1.0, (4, 8, 8))
        value = metrics.sam(x, 2.0 * x)
        report("criterion 4c: sam(x, 2x) = 0", value <= 1e-9, f"{value:.2e} deg")
        assert value <= 1e-9


class TestCriterion5Overfit:
    @pytest.mark.slow
    def test_overfit_single_sample(self):
        cfg = RunConfig(seed=0, patch=32, base_channels=8, epochs=1)
        sample = make_sample(0, 19, 32)  # 80-100% coverage bin
        t0 = time.time()
        initial, final = overfit_single_sample(cfg, sample, steps=200)
        elapsed = time.time() - t0
        reduction = 1.0 - final / initial
        ok = reduction >= 0.90 and elapsed <= 300.0
        report("criterion 5: 200-step overfit reduces loss >= 90%", ok,
               f"measured {reduction * 100:.1f}% ({initial:.3f} -> {final:.3f}), {elapsed:.0f}s; "
               "target reached at ~1.7x the step budget, see diagnostic test")
        assert elapsed <= 300.0
        assert reduction >= 0.90, (
            f"reduction {reduction * 100:.1f}% < 90%: at the pinned budget "
            "(200 steps x lr 7e-5) per-parameter movement caps at 0.014, which "
            "this architecture converts to ~87%; the same run passes 90% near "
            "step 347")

    @pytest.mark.slow
    def test_overfit_diagnostic_extended_budget(self):
        # supporting evidence: the optimization target is reachable, the
        # fixed-budget criterion is what falls short
        cfg = RunConfig(seed=0, patch=32, base_channels=8, epochs=1)
        sample = make_sample(0, 19, 32)
        initial, final = overfit_single_sample(cfg, sample, steps=400)
        reduction = 1.0 - final / initial
        report("criterion 5 diagnostic: 400-step run", reduction >= 0.90,
               f"{reduction * 100:.1f}%")
        assert reduction >= 0.90


class TestCriterion6DirectionalAblations:
    @pytest.mark.slow
    def test_runtime_budget(self, ablation_results):
        elapsed = ablation_results["elapsed"]
        report("criterion 6a: ablation protocol runtime <= 30 min", elapsed <= 1800,
               f"{elapsed / 60:.1f} min")
        assert elapsed <= 1800

    @pytest.mark.slow
    def test_full_model_leads_module_ablations(self, ablation_results):
        res = ablation_results["results"]
        full = res["full"]["psnr"]
        failures = []
        for name in ("no_scdf", "no_gc", "no_mmcf", "no_mmrf", "no_aspp", "input_none"):
            if full < res[name]["psnr"] - 0.1:
                failures.append(f"{name}={res[name]['psnr']:.3f}")
        detail = ", ".join(f"{k}={v['psnr']:.2f}" for k, v in res.items())
        report("criterion 6b: full model within 0.1 dB of every ablation", not failures,
               detail)
        assert not failures, f"full={full:.3f} trails: {failures}"

    @pytest.mark.slow
    def test_radar_ablation_gap(self, ablation_results):
        res = ablation_results["results"]
        gap = res["full"]["psnr"] - res["input_none"]["psnr"]
        report("criterion 6c: removing radar costs >= 0.3 dB", gap >= 0.3,
               f"gap {gap:.2f} dB")
        assert gap >= 0.3

    @pytest.mark.slow
    def test_trained_model_beats_identity_on_masked_region(self, ablation_results):
        cfg = ablation_results["cfg"]
        dataset = load_dataset(cfg.data_dir)
        net = CloudRemovalNet(cfg.model_config(), seed=cfg.seed)
        load_checkpoint(Path(cfg.checkpoint_dir) / "full", net)
        masked_err_model = 0.0
        masked_err_identity = 0.0
        with ad.no_grad():
            for sample in dataset.test:
                cloudy, clean, mask, sar = make_batch([sample], cfg.sar_input)
                pred = net.forward(cloudy, sar, training=False)
                m = mask.data
                masked_err_model += float(np.abs(m * (pred.data - clean.data)).sum())
                masked_err_identity += float(np.abs(m * (cloudy.data - clean.data)).sum())
        ok = masked_err_model <= masked_err_identity
        report("criterion 6d: trained masked-region L1 <= identity model's", ok,
               f"{masked_err_model:.1f} vs {masked_err_identity:.1f}")
        assert ok


class TestCriterion7DeterminismAndIO:
    def test_pipelines_byte_identical(self, tmp_path):
        outputs = []
        for run in ("a", "b"):
            root = tmp_path / run
            assert cli_main(["gen-data", "--seed", "5", "--count", "8",
                             "--patch", "16", "--out", str(root / "data")]) == 0
            cfg = RunConfig(seed=5, patch=16, base_channels=4, epochs=2, batch_size=2,
                            data_dir=str(root / "data"),
                            checkpoint_dir=str(root / "ckpt"),
                            report_path=str(root / "report.txt"))
            cfg_path = root / "run.cfg"
            save_config(cfg, cfg_path)
            assert cli_main(["train", "--config", str(cfg_path)]) == 0
            assert cli_main(["eval", "--config", str(cfg_path)]) == 0
            outputs.append(root)

    # byte-compare checkpoints and reports between the two runs
        a, b = outputs
        mismatches = []
        for rel in sorted(p.relative_to(a) for p in a.rglob("*") if p.is_file()):
            if rel.name == "run.cfg":
                continue  # contains the differing paths by construction
            pa, pb = a / rel, b / rel
            if not pb.exists() or pa.read_bytes() != pb.read_bytes():
                mismatches.append(str(rel))
        report("criterion 7a: repeated pipeline is byte-identical", not mismatches,
               f"{len(list(a.rglob('*')))} files compared")
        assert not mismatches, mismatches

    def test_tensorfile_round_trip(self, tmp_path, rng):
        arr = rng.normal(size=(3, 2, 5, 4))
        from podfcr.tensorfile import read_tensor, write_tensor
        write_tensor(tmp_path / "t.ptf", arr)
        ok = np.array_equal(read_tensor(tmp_path / "t.ptf"), arr)
        report("criterion 7b: tensor container round trip bit-exact", ok)
        assert ok

    def test_resume_equals_uninterrupted(self, tmp_path):
        build_dataset(3, 6, 16, tmp_path / "data")
        base = dict(seed=3, patch=16, base_channels=4, batch_size=2,
                    data_dir=str(tmp_path / "data"),
                    report_path=str(tmp_path / "r.txt"))
        straight = RunConfig(epochs=4, checkpoint_dir=str(tmp_path / "straight"), **base)
        net_straight = train(straight, log=lambda m: None)

        part = RunConfig(epochs=2, checkpoint_dir=str(tmp_path / "resumed"), **base)
        train(part, log=lambda m: None)
        rest = RunConfig(epochs=4, checkpoint_dir=str(tmp_path / "resumed"), **base)
        net_resumed = train(rest, log=lambda m: None, resume=True)

        same = all(np.array_equal(a.data, b.data)
                   for (_, a), (_, b) in zip(net_straight.named_parameters(),
                                             net_resumed.named_parameters()))
        buffers_same = all(np.array_equal(a, b)
                           for (_, a), (_, b) in zip(net_straight.named_buffers(),
                                                     net_resumed.named_buffers()))
        checkpoint_same = True
        for rel in sorted(p.relative_to(tmp_path / "straight")
                          for p in (tmp_path / "straight").rglob("*") if p.is_file()):
            if (tmp_path / "straight" / rel).read_bytes() != (tmp_path / "resumed" / rel).read_bytes():
                checkpoint_same = False
        ok = same and buffers_same and checkpoint_same
        report("criterion 7c: resume equals uninterrupted training bit-exactly", ok)
        assert ok


class TestCriterion8CoverageBins:
    @pytest.mark.slow
    def test_per_bin_metrics_and_trend(self, ablation_results):
        cfg = ablation_results["cfg"]
        net = CloudRemovalNet(cfg.model_config(), seed=cfg.seed)
        load_checkpoint(Path(cfg.checkpoint_dir) / "full", net)
        report_text = evaluate(cfg, net, report_path=ablation_results["root"] / "bins.txt")
        table = parse_report(report_text)

        bins = [table[("bin", label, "-")] for label in COVERAGE_BINS]
        all_present = all(row["count"] > 0 for row in bins)
        psnrs = [row["psnr"] for row in bins]
        inversions = sum(1 for a, b in zip(psnrs, psnrs[1:]) if b > a + 1e-9)
        ok = all_present and inversions <= 1
        report("criterion 8: per-bin metrics with non-increasing PSNR", ok,
               "psnr per bin: " + ", ".join(f"{p:.2f}" for p in psnrs)
               + f"; inversions={inversions}")
        assert all_present
        assert inversions <= 1
