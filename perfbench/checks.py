"""Correctness checks on what the benchmark's workloads produce.

Each check returns a list of failure messages; an empty list is a pass.
The reference values are computed here, in plain numpy, apart from the
program's own code paths, or are properties the method must have. None of
them compares against a stored copy of an earlier output.
"""

from __future__ import annotations

import re

import numpy as np

LOSS_LINE = re.compile(r"^epoch=(\d+) step=(\d+) loss_total=(\S+)")
# Gradient check: central differences, compared per entry. A step that carries
# an L1 or LeakyReLU kink across zero shifts the difference (by 2e-3 relative on
# one entry seen), and a smaller step no longer reaches the kink, so the steps
# are tried in turn until one matches. The check takes each tensor's largest
# entry and bounds the error at 1e-3; at 1e-8 rounding stays below 1e-4 of it.
FD_STEPS = (1e-6, 1e-7, 1e-8)
FD_RTOL = 1e-3
FD_ATOL = 1e-8
GRAD_FLOOR = 1e-5
# Adam: the reference repeats the textbook update, so only rounding may differ,
# relative to the size of the terms summed (a result can cancel to near zero)
ADAM_RTOL = 1e-12
# report values are printed with 6 decimals
REPORT_TOL = 1e-6
# SAM in the arccos form loses about 1e-6 degrees per pixel near zero angle
SAM_TOL = 1e-5
INFER_TOL = 1e-10
PSNR_CAP_DB = 100.0


# -- training ---------------------------------------------------------------

def epoch_losses(log_lines: list[str]) -> list[tuple[int, float]]:
    """(epoch, mean loss_total) for every ``epoch=`` line of a train log."""
    out = []
    for line in log_lines:
        m = LOSS_LINE.match(line)
        if m:
            out.append((int(m.group(1)), float(m.group(3))))
    return out


def check_loss_decreases(log_lines: list[str], epochs: int) -> list[str]:
    losses = epoch_losses(log_lines)
    if [e for e, _ in losses] != list(range(1, epochs + 1)):
        return [f"log has epochs {[e for e, _ in losses]}, expected 1..{epochs}"]
    first, last = losses[0][1], losses[-1][1]
    if not np.isfinite(last) or not last < first:
        return [f"last epoch loss_total {last} is not below the first {first}"]
    return []


def check_gradients(tape: dict, central) -> list[str]:
    """Tape gradient entries against ``central(key, step)`` for the FD_STEPS.

    An entry passes when the difference at one of the steps matches.
    """
    failures = []
    for key, g in tape.items():
        fds = []
        for step in FD_STEPS:
            fds.append(central(key, step))
            if abs(g - fds[-1]) <= FD_RTOL * max(abs(g), abs(fds[-1])) + FD_ATOL:
                break
        else:
            failures.append(f"gradient of {key}: tape {g:.6e} vs central differences "
                            + ", ".join(f"{fd:.6e}" for fd in fds))
    return failures


def adam_reference(param, grad, m, v, step: int, lr: float, beta1: float, beta2: float,
                   eps: float):
    """One Adam update (Kingma & Ba, Algorithm 1); ``step`` counts this update.

    Returns (param, m, v) after the update, each as (value, scale): the scale
    is the sum of the magnitudes of the terms that make up the value.
    """
    m_new = beta1 * m + (1.0 - beta1) * grad
    v_new = beta2 * v + (1.0 - beta2) * grad * grad
    m_hat = m_new / (1.0 - beta1 ** step)
    v_hat = v_new / (1.0 - beta2 ** step)
    update = lr * m_hat / (np.sqrt(v_hat) + eps)
    return ((param - update, np.abs(param) + np.abs(update)),
            (m_new, np.abs(beta1 * m) + np.abs((1.0 - beta1) * grad)),
            (v_new, v_new))


def check_adam(expected: dict, actual: dict) -> list[str]:
    """name -> reference (param, m, v) as above, and (param, m, v) from ``Adam.step``."""
    failures = []
    for name, ref in expected.items():
        for label, (want, scale), got in zip(("param", "m", "v"), ref, actual[name]):
            if not np.all(np.abs(got - want) <= ADAM_RTOL * scale):
                err = float(np.max(np.abs(got - want)))
                failures.append(f"Adam {label} of {name} differs from the reference by {err:.3e}")
    return failures


def check_state_equal(expected: dict, restored: dict, what: str) -> list[str]:
    failures = []
    if expected.keys() != restored.keys():
        failures.append(f"{what}: names differ")
    for name in expected.keys() & restored.keys():
        a, b = expected[name], restored[name]
        if a.shape != b.shape or a.tobytes() != b.tobytes():
            failures.append(f"{what} {name} is not restored bit for bit")
    return failures


def check_meta_step(meta: dict, steps: int) -> list[str]:
    if int(meta.get("step", -1)) != steps:
        return [f"checkpoint meta step {meta.get('step')} != {steps} steps attempted"]
    return []


# -- evaluation and inference -----------------------------------------------

def psnr(pred, target) -> float:
    mse = float(np.mean((pred - target) ** 2))
    return PSNR_CAP_DB if mse == 0.0 else min(10.0 * np.log10(1.0 / mse), PSNR_CAP_DB)


def pearson(pred, target) -> float:
    return float(np.corrcoef(pred.ravel(), target.ravel())[0, 1])


def sam_arccos(pred, target) -> float:
    """Mean per-pixel spectral angle in degrees, arccos form."""
    a = pred.reshape(pred.shape[0], -1)
    b = target.reshape(target.shape[0], -1)
    dot = (a * b).sum(axis=0)
    norm = np.sqrt((a * a).sum(axis=0)) * np.sqrt((b * b).sum(axis=0))
    ok = norm > 0.0
    angles = np.zeros(a.shape[1])
    angles[ok] = np.arccos(np.clip(dot[ok] / norm[ok], -1.0, 1.0))
    return float(np.degrees(angles.mean()))


def parse_rows(report: str) -> list[list[str]]:
    return [line.split("\t") for line in report.splitlines()
            if line.strip() and not line.startswith("#")]


def check_report_layout(report: str, n_test: int) -> list[str]:
    rows = parse_rows(report)
    counts = {}
    for row in rows:
        counts[row[0]] = counts.get(row[0], 0) + 1
    failures = []
    for scope, want in (("cell", 35), ("bin", 5), ("class", 7), ("overall", 1)):
        if counts.get(scope, 0) != want:
            failures.append(f"report has {counts.get(scope, 0)} {scope} rows, expected {want}")
    overall = [row for row in rows if row[0] == "overall"]
    if overall and int(overall[0][3]) != n_test:
        failures.append(f"overall count {overall[0][3]} != {n_test} test samples")
    return failures


def check_report_values(report: str, preds: list, targets: list) -> list[str]:
    """Overall PSNR, CC and SAM recomputed from the predictions."""
    overall = [row for row in parse_rows(report) if row[0] == "overall"]
    if not overall:
        return ["report has no overall row"]
    _, _, _, _, r_psnr, _, r_cc, r_sam = overall[0]
    want = {
        "psnr": np.mean([psnr(p, t) for p, t in zip(preds, targets)]),
        "cc": np.mean([pearson(p, t) for p, t in zip(preds, targets)]),
        "sam": np.mean([sam_arccos(p, t) for p, t in zip(preds, targets)]),
    }
    got = {"psnr": float(r_psnr), "cc": float(r_cc), "sam": float(r_sam)}
    failures = []
    for key, tol in (("psnr", REPORT_TOL), ("cc", REPORT_TOL), ("sam", SAM_TOL)):
        if not abs(got[key] - want[key]) <= tol:
            failures.append(f"overall {key} {got[key]} vs recomputed {want[key]:.8f}")
    return failures


def check_infer_matches(infer_outputs: list, batch_preds: list) -> list[str]:
    """Batch-1 infer outputs equal the batch-4 predictions (eval-mode batch norm)."""
    failures = []
    for i, (single, batched) in enumerate(zip(infer_outputs, batch_preds)):
        if single.shape != batched.shape:
            failures.append(f"tile {i}: infer shape {single.shape} != {batched.shape}")
            continue
        err = float(np.max(np.abs(single - batched)))
        if not err <= INFER_TOL:
            failures.append(f"tile {i}: infer differs from the batch-4 prediction by {err:.3e}")
    return failures


def check_identity(output, cloudy) -> list[str]:
    """A freshly built net returns its cloudy input exactly (long skip)."""
    if output.shape != cloudy.shape or not np.array_equal(output, cloudy):
        return ["a freshly built net does not return its cloudy input exactly"]
    return []
