"""Tests of the benchmark itself: its checks, its span arithmetic, a smoke run.

    python3 -m pytest perfbench -q

A tiny workload (patch 8, width 2) runs one whole round; each check is then
shown to fail once its input is deliberately corrupted.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from podfcr import evaluation, tensorfile, training  # noqa: E402
from podfcr.optim import Adam  # noqa: E402
from podfcr.autodiff import Tensor  # noqa: E402

TINY = workloads.Workload("tiny", patch=8, width=2, batch=2, samples=5, epochs=2,
                          interrupt=1, grad_entries=4)


@pytest.fixture(scope="module")
def tiny(tmp_path_factory):
    work = tmp_path_factory.mktemp("tiny")
    return workloads.run_pass(TINY, 3, 0.0, work, 1)


# -- span arithmetic -----------------------------------------------------------

def test_self_times_on_a_known_tree():
    # root [0,10]; a [1,4] with child g [2,3]; b [3,6] overlaps a; c [8,12] runs past root
    starts = [0.0, 1.0, 2.0, 3.0, 8.0]
    ends = [10.0, 4.0, 3.0, 6.0, 12.0]
    parents = [-1, 0, 1, 0, 0]
    got = spans.self_times(starts, ends, parents)
    assert got == pytest.approx([10 - 5 - 2, 3 - 1, 1, 3, 4])


def test_block_self_time_and_backward_attribution():
    t = spans.Tracer()
    # model.forward [0,20] > DFRB [0,10] > SCDF [2,6] > conv2d [3,4]; MMCF [12,18]
    rows = [("phase.train", "phase", 0, 20, -1), ("model.forward", "layer", 0, 20, 0),
            ("nn.DynamicFilterResidualBlock", "block", 0, 10, 1),
            ("nn.SCDF", "block", 2, 6, 2), ("autodiff.conv2d", "op", 3, 4, 3),
            ("fusion.MMCF", "block", 12, 18, 1), ("optim.adam_step", "layer", 19, 20, 0)]
    for name, kind, start, end, parent in rows:
        t.names.append(name)
        t.kinds.append(kind)
        t.starts.append(float(start))
        t.ends.append(float(end))
        t.parents.append(parent)
        t.sizes.append(1)
    t.nodes = [[4, 1 << 20, 0.5], [5, 1 << 20, 0.25], [3, 1 << 20, None]]
    m = t.layer_metrics()
    assert m["nn.DynamicFilterResidualBlock.fwd_ms"] == pytest.approx(10e3)
    assert m["nn.DynamicFilterResidualBlock.fwd_self_ms"] == pytest.approx(6e3)
    assert m["nn.SCDF.fwd_self_ms"] == pytest.approx(4e3)       # op spans are not blocks
    assert m["nn.SCDF.bwd_self_ms"] == pytest.approx(500.0)
    assert m["nn.DynamicFilterResidualBlock.bwd_ms"] == pytest.approx(500.0)
    assert m["nn.DynamicFilterResidualBlock.bwd_self_ms"] == 0.0
    assert m["fusion.MMCF.bwd_self_ms"] == pytest.approx(250.0)
    assert m["autodiff.conv2d.bwd_ms"] == pytest.approx(500.0)
    assert m["autodiff.tape_nodes"] == 3
    assert m["autodiff.tape_mb"] == pytest.approx(3.0)
    assert m["trace.train_coverage_pct"] == pytest.approx(100.0)


# -- the smoke run and what each check catches --------------------------------

def test_tiny_round_passes_every_check(tiny):
    assert len(tiny.rounds) == 1
    r = tiny.rounds[0]
    assert r.errors == [] and r.failed == 0
    assert workloads.check_pass(TINY, 3, tiny) == []
    assert tiny.train_rate(TINY) > 0 and tiny.eval_rate(TINY) > 0
    assert len(tiny.infer_ms()) == TINY.n_test
    assert len(tiny.setup_seconds) == 2     # the rounds' set-up and one after the round


def test_diverged_round_fails(tiny):
    bad = replace(tiny, rounds=[replace(tiny.rounds[0], errors=["TrainingDiverged: nan"])])
    assert any("TrainingDiverged" in f for f in workloads.check_pass(TINY, 3, bad))


def test_loss_check_catches_a_rising_loss(tiny):
    logs = list(tiny.rounds[0].logs)
    assert checks.check_loss_decreases(logs, TINY.epochs) == []
    first = checks.epoch_losses(logs)[0][1]
    logs = [line.replace("loss_total=", f"loss_total={first * 2} x=") if line.startswith(
        f"epoch={TINY.epochs} ") else line for line in logs]
    assert checks.check_loss_decreases(logs, TINY.epochs)
    assert checks.check_loss_decreases(tiny.rounds[0].logs[:1], TINY.epochs)


def test_gradient_check_catches_a_wrong_entry():
    tape = {("w", (0,)): 0.125, ("b", (1,)): -3e-4}
    assert checks.check_gradients(tape, lambda key, step: tape[key]) == []
    wrong = {("w", (0,)): 0.125 * 1.01, ("b", (1,)): -3e-4}
    assert checks.check_gradients(tape, lambda key, step: wrong[key])
    # a kink within the largest step shifts only that step's difference
    kinked = lambda key, step: tape[key] * (1.003 if step == checks.FD_STEPS[0] else 1.0)
    assert checks.check_gradients(tape, kinked) == []
    assert checks.check_gradients(tape, lambda key, step: tape[key] * 1.003)


def test_adam_check_catches_a_wrong_update():
    rng = np.random.default_rng(0)
    p = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    opt = Adam([("p", p)], lr=1e-2, beta1=0.5, beta2=0.999)
    for _ in range(2):
        p.grad = rng.normal(size=(3, 4))
        want = {"p": checks.adam_reference(p.data, p.grad, opt.m["p"], opt.v["p"],
                                           opt.step_count + 1, opt.lr, opt.beta1,
                                           opt.beta2, opt.eps)}
        opt.step()
        got = {"p": (p.data, opt.m["p"], opt.v["p"])}
        assert checks.check_adam(want, got) == []
    got["p"] = (p.data * (1 + 1e-9), opt.m["p"], opt.v["p"])
    assert checks.check_adam(want, got)
    # a parameter that lands on zero is judged against the size of its update
    (value, scale), m, v = want["p"]
    value[0, 0], scale[0, 0] = 0.0, 1e-3
    assert checks.check_adam(want, {"p": (value + 1e-17, m[0], v[0])}) == []
    assert checks.check_adam(want, {"p": (value + 1e-14, m[0], v[0])})


def test_checkpoint_checks_catch_a_changed_tensor_and_step(tiny, tmp_path):
    r = tiny.rounds[0]
    copy = tmp_path / "round"
    shutil.copytree(r.root, copy)
    bad = replace(r, root=copy)
    assert workloads.training_checks(TINY, 3, tiny.setup, bad) == []
    target = copy / "ckpt" / "tensors" / "param.out_conv.bias.ptf"
    arr = tensorfile.read_tensor(target)
    arr[0] = np.nextafter(arr[0], np.inf)
    tensorfile.write_tensor(target, arr)
    assert any("out_conv.bias" in f for f in workloads.training_checks(TINY, 3, tiny.setup, bad))
    tensorfile.write_tensor(target, tensorfile.read_tensor(r.root / "ckpt" / "tensors" /
                                                           "param.out_conv.bias.ptf"))
    meta = copy / "ckpt" / "meta.txt"
    meta.write_text(meta.read_text().replace("step = ", "step = 1"))
    assert any("meta step" in f for f in workloads.training_checks(TINY, 3, tiny.setup, bad))


def test_report_checks_catch_a_changed_report(tiny):
    r = tiny.rounds[0]
    n_test = TINY.n_test
    assert checks.check_report_layout(r.report, n_test) == []
    lines = r.report.splitlines()
    assert checks.check_report_layout("\n".join(lines[:-2] + lines[-1:]), n_test)
    assert checks.check_report_layout(r.report, n_test + 1)
    preds = evaluation.predict(r.net, tiny.setup.dataset.test, "pfsar")
    targets = [s.clean for s in tiny.setup.dataset.test]
    assert checks.check_report_values(r.report, preds, targets) == []
    shifted = [np.clip(p + 0.01, 0, 1) for p in preds]
    assert checks.check_report_values(r.report, shifted, targets)


def test_infer_and_identity_checks_catch_a_changed_output(tiny):
    r = tiny.rounds[0]
    outs = [tensorfile.read_tensor(path) for path in r.outputs]
    preds = evaluation.predict(r.net, tiny.setup.dataset.test, "pfsar")
    assert checks.check_infer_matches(outs, preds) == []
    assert checks.check_infer_matches([o + 1e-9 for o in outs], preds)
    cloudy = tiny.setup.dataset.test[0].cloudy
    assert checks.check_identity(cloudy.copy(), cloudy) == []
    nudged = cloudy.copy()
    nudged[0, 0, 0] = np.nextafter(nudged[0, 0, 0], -1.0)
    assert checks.check_identity(nudged, cloudy)


def test_traced_pass_covers_the_step_and_restores_the_program(tmp_path):
    import podfcr.autodiff as ad
    import podfcr.nn as nn
    originals = (ad.conv2d, nn.SCDF.__call__, training.write_tensor)
    tracer = spans.Tracer()
    tracer.install()
    try:
        traced = workloads.run_pass(TINY, 3, 0.0, tmp_path, 0, tracer)
    finally:
        tracer.uninstall()
    assert (ad.conv2d, nn.SCDF.__call__, training.write_tensor) == originals
    assert workloads.check_pass(TINY, 3, traced) == []
    m = tracer.layer_metrics()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = {x["name"] for x in spec["per_layer"]} - {"trace.overhead_pct"}
    assert names <= set(m)
    assert all(m[name] > 0 for name in names), [n for n in names if not m[n] > 0]
    assert 90.0 < m["trace.train_coverage_pct"] <= 100.0
    assert m["autodiff.tape_nodes"] == int(m["autodiff.tape_nodes"])


def test_command_fails_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "desk_train",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
