"""Central finite-difference verification of the assembled training loss.

Builds a micro model (d=8, sentences of <= 5 tokens), activates every loss
term (supervised + consistency + MMD, with the pseudo-label filter opened so
the consistency set is non-empty), and compares the backward-pass gradient
of each parameter group against (f(x+eps) - f(x-eps)) / (2 eps).  Relative
error is |fd - analytic| / max(|fd|, |analytic|, 1), i.e. measured against
the gradient scale with a floor of one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .corpus import LabeledSentence, Polarity, Sentence, Span, Triplet
from .encoder import EncoderConfig
from .model import as_tensors, init_params
from .trainer import (TrainConfig, _stream, compute_losses, pseudo_labels,
                      teacher_pseudo_label)


class VacuousPointError(ValueError):
    """The micro problem at this ``(d, seed)`` leaves the consistency or MMD
    term without anything to check."""

    def __init__(self, d: int, seed: int, why: str):
        super().__init__(f"gradcheck point d={d}, seed={seed} is vacuous: {why}; "
                         "try another seed")


@dataclass
class GradCheckResult:
    max_rel_err: float
    per_group: dict
    tol: float

    @property
    def passed(self) -> bool:
        return self.max_rel_err < self.tol


def micro_config(d: int = 8, seed: int = 0) -> TrainConfig:
    return TrainConfig(
        alpha=1.0,
        beta=0.5,  # large enough that the MMD term is visible in the check
        eta=0.01,  # open the filter so pseudo-labeled regions exist
        kappa=1.0,
        seed=seed,
        encoder=EncoderConfig(d=d, layers=2, vocab_buckets=128, max_n=8),
    )


def _dense_random_params(cfg: TrainConfig, rng: np.random.Generator) -> dict:
    # Training inits zero some groups (conv second kernels, biases), which
    # would make their probes vacuous; the check instead runs at a fully
    # random point where every group participates in the loss.  Relu inputs
    # are biased away from zero so an eps probe cannot straddle the kink.
    shapes = init_params(cfg.encoder, cfg.mode, rng)
    params = {k: rng.normal(0.0, 0.15, size=v.shape) for k, v in shapes.items()}
    for name in params:
        if name.endswith("_b1"):
            params[name] += 0.75  # keep conv relu inputs clear of the kink
        if name.startswith("rpn_") and name.endswith("_w"):
            params[name] *= 6.0  # spread corner scores so top-k gaps are wide
    return params


def _micro_batches() -> tuple[list[LabeledSentence], list[Sentence]]:
    src = [
        LabeledSentence(
            Sentence(("the", "snoun0", "is", "sadj0")),
            (Triplet(Span(1, 1), Span(3, 3), Polarity.POS),),
        ),
        LabeledSentence(
            Sentence(("snoun1", "snoun2", "was", "sadj1", "here")),
            (Triplet(Span(0, 1), Span(3, 3), Polarity.NEG),),
        ),
    ]
    tgt = [
        Sentence(("the", "tnoun0", "is", "tadj0")),
        Sentence(("tnoun1", "quite", "tadj1")),
    ]
    return src, tgt


def run_gradcheck(
    d: int = 8,
    seed: int = 19,
    eps: float = 1e-3,
    tol: float = 1e-4,
    samples_per_group: int = 4,
) -> GradCheckResult:
    # The default seed is a verified generic point: relu/max/median kinks sit
    # farther than eps from every probed parameter, so the central difference
    # measures the true derivative.  At arbitrary seeds a probe can straddle
    # a kink and report a spurious mismatch.
    if not (np.isfinite(eps) and eps > 0 and np.isfinite(tol) and tol > 0):
        raise ValueError(f"eps and tol must be finite and > 0, got eps={eps}, tol={tol}")
    cfg = micro_config(d=d, seed=seed)
    src_batch, tgt_sentences = _micro_batches()
    student = _dense_random_params(cfg, _stream(seed, 1))
    teacher = _dense_random_params(cfg, _stream(seed, 0))
    tgt_pseudo = pseudo_labels(teacher, tgt_sentences, cfg, teacher_pseudo_label)
    if not any(tgt_pseudo):
        raise VacuousPointError(d, seed, "the micro teacher produced no pseudo labels")

    def loss_value(params: dict) -> float:
        total, _ = compute_losses(as_tensors(params), src_batch, cfg, tgt_sentences, tgt_pseudo)
        return total.item()

    student_t = as_tensors(student)
    total, bd = compute_losses(student_t, src_batch, cfg, tgt_sentences, tgt_pseudo)
    if bd.l_uns == 0.0 or bd.l_mmd == 0.0:
        raise VacuousPointError(d, seed, f"a loss term is inactive (l_uns {bd.l_uns}, "
                                f"l_mmd {bd.l_mmd})")
    total.backward()

    per_group = {}
    for name in sorted(student):
        grad = student_t[name].grad
        if grad is None:
            grad = np.zeros_like(student[name])
        flat = np.abs(grad).ravel()
        order = np.argsort(-flat, kind="stable")[:samples_per_group]
        worst = 0.0 if np.isfinite(grad).all() else np.inf  # a NaN sorts last, unprobed
        for pos in order:
            idx = np.unravel_index(int(pos), grad.shape)
            saved = student[name][idx]
            student[name][idx] = saved + eps
            f_plus = loss_value(student)
            student[name][idx] = saved - eps
            f_minus = loss_value(student)
            student[name][idx] = saved
            fd = (f_plus - f_minus) / (2 * eps)
            an = grad[idx]
            rel = abs(fd - an) / max(abs(fd), abs(an), 1.0) if np.isfinite(fd) else np.inf
            worst = max(worst, rel)
        per_group[name] = worst
    max_rel = max(per_group.values())
    return GradCheckResult(max_rel_err=max_rel, per_group=per_group, tol=tol)
