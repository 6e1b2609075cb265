"""Mean-teacher training loop and its comparative variants.

The teacher is pretrained on labeled source data and frozen inside each
step; the student trains on the supervised source loss plus consistency
with the teacher's confident pseudo-labeled regions on augmented target
sentences and an MMD term aligning source/target region features.  After
every optimizer step the teacher follows the student by exponential moving
average.  ``source_only`` drops all target machinery and ``self_train``
replaces the teacher with iterative pseudo-label dataset growth.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace

import numpy as np

from . import autograd as ag
from .autograd import Tensor
from .corpus import LabeledSentence, Polarity, Sentence, Span, SynthCorpus, Triplet, vocabulary
from .detector import Mode, decode_triplets, foreground_classes
from .evaluate import gold_items, sentence_prf
from .losses import (
    LossBreakdown,
    MmdConfig,
    RegionFeatures,
    loss_mmd_cell_level,
    loss_mmd_region_level,
    loss_rpc,
    loss_rpn,
    loss_uns,
    match_gold,
    total_loss,
)
from .encoder import EncoderConfig, encode_sentence
from .model import as_tensors, cell_probs, clone_params, forward, init_params, predict
from .tagging import cells_by_type, encode_region_labels

ABLATIONS = ("no_aug", "no_uns", "no_mmd")


class Variant(enum.Enum):
    TFMT = "tfmt"
    CTFMT = "ctfmt"
    SELF_TRAIN = "self_train"
    SOURCE_ONLY = "source_only"


class TrainingDivergence(RuntimeError):
    pass


@dataclass(frozen=True)
class TrainConfig:
    alpha: float = 1.0
    beta: float = 0.005
    ema_lambda: float = 0.6
    eta: float = 0.98
    kappa: float = 0.3
    aug_rate: float = 0.5
    batch: int = 4
    epochs: int = 10
    lr: float = 1e-2
    seed: int = 0
    mode: Mode = Mode.ASTE
    variant: Variant = Variant.TFMT
    ablations: frozenset = frozenset()
    encoder: EncoderConfig = EncoderConfig()

    def __post_init__(self):
        if not (0.0 < self.ema_lambda < 1.0):
            raise ValueError("ema_lambda must be in (0, 1)")
        if not (0.0 < self.eta < 1.0):
            raise ValueError("eta must be in (0, 1)")
        if not (0.0 < self.kappa <= 1.0):
            raise ValueError("kappa must be in (0, 1]")
        if not (0.0 <= self.aug_rate <= 1.0):
            raise ValueError("aug_rate must be in [0, 1]")
        if self.alpha < 0 or self.beta < 0:
            raise ValueError("alpha and beta must be >= 0")
        if self.batch < 1 or self.epochs < 0:
            raise ValueError("batch must be >= 1 and epochs >= 0")
        unknown = set(self.ablations) - set(ABLATIONS)
        if unknown:
            raise ValueError(f"unknown ablations: {sorted(unknown)}")


@dataclass(frozen=True)
class PseudoLabel:
    """A teacher-retained region with its class probabilities; confidence is
    the maximum foreground-class probability."""

    a: int
    b: int
    c: int
    d: int
    probs: np.ndarray = field(compare=False)
    confidence: float = 0.0

    def rect(self) -> tuple[int, int, int, int]:
        return (self.a, self.b, self.c, self.d)


@dataclass
class Checkpoint:
    config: TrainConfig
    student: dict
    teacher: dict
    epoch: int
    history: list


# -- deterministic named rng streams ---------------------------------------

_STREAM_TEACHER_INIT = 0
_STREAM_STUDENT_INIT = 1
_STREAM_PRETRAIN_BATCH = 2
_STREAM_SRC_BATCH = 3
_STREAM_TGT_BATCH = 4
_STREAM_AUGMENT = 5


def _stream(seed: int, key: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(key,)))


class Adam:
    """Adaptive moment estimation with the standard defaults."""

    def __init__(self, params: dict, lr: float, beta1: float = 0.9, beta2: float = 0.999,
                 eps: float = 1e-8):
        self.params = params
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m = {k: np.zeros_like(v) for k, v in params.items()}
        self.v = {k: np.zeros_like(v) for k, v in params.items()}

    def step(self, grads: dict) -> None:
        self.t += 1
        b1c = 1.0 - self.beta1**self.t
        b2c = 1.0 - self.beta2**self.t
        for k in sorted(self.params):
            g = grads[k]
            self.m[k] = self.beta1 * self.m[k] + (1.0 - self.beta1) * g
            self.v[k] = self.beta2 * self.v[k] + (1.0 - self.beta2) * g * g
            mhat = self.m[k] / b1c
            vhat = self.v[k] / b2c
            self.params[k] -= self.lr * mhat / (np.sqrt(vhat) + self.eps)


def ema_update(teacher: dict, student: dict, lam: float) -> None:
    """In-place elementwise teacher <- lam * teacher + (1 - lam) * student."""
    for k in sorted(teacher):
        if teacher[k].shape != student[k].shape:
            raise ValueError(f"shape mismatch for {k}")
        teacher[k] *= lam
        teacher[k] += (1.0 - lam) * student[k]


def augment(sentence: Sentence, rate: float, lexicon: list, rng: np.random.Generator) -> Sentence:
    """Replace each token with probability ``rate`` by a uniformly drawn
    lexicon token; output length always equals input length."""
    if not lexicon:
        raise ValueError("augmentation lexicon is empty")
    toks = list(sentence.tokens)
    for i in range(len(toks)):
        if rng.random() < rate:
            toks[i] = lexicon[int(rng.integers(len(lexicon)))]
    return Sentence(tuple(toks))


def teacher_pseudo_label(
    teacher: dict, sentence: Sentence, cfg: TrainConfig, eta: float | None = None
) -> list[PseudoLabel]:
    """Teacher forward pass, keeping proposals whose maximum foreground-class
    probability reaches ``eta``."""
    eta = cfg.eta if eta is None else eta
    fg = list(foreground_classes(cfg.mode))
    with ag.no_grad():
        fwd = forward(sentence, as_tensors(teacher), cfg.encoder, cfg.mode, cfg.kappa)
    if not fwd.proposals:
        return []
    probs = fwd.probs.data
    out = []
    for i, p in enumerate(fwd.proposals):
        conf = float(probs[i, fg].max())
        if conf >= eta:
            out.append(PseudoLabel(p.a, p.b, p.c, p.d, probs[i].copy(), conf))
    return out


def teacher_pseudo_label_cells(
    teacher: dict, sentence: Sentence, cfg: TrainConfig, eta: float | None = None
) -> list[PseudoLabel]:
    """Cell-level variant: every cell is its own 1x1 region."""
    eta = cfg.eta if eta is None else eta
    fg = list(foreground_classes(cfg.mode))
    n = sentence.n
    with ag.no_grad():
        teacher_t = as_tensors(teacher)
        tl = encode_sentence(sentence, teacher_t, cfg.encoder)
        probs, _ = cell_probs(tl, teacher_t, cfg.mode)
    out = []
    pd = probs.data
    for i in range(n):
        for j in range(n):
            row = pd[i * n + j]
            conf = float(row[fg].max())
            if conf >= eta:
                out.append(PseudoLabel(i, j, i, j, row.copy(), conf))
    return out


def _target_flags(cfg: TrainConfig) -> tuple[bool, bool]:
    teaches = cfg.variant in (Variant.TFMT, Variant.CTFMT)
    uns_on = teaches and "no_uns" not in cfg.ablations and cfg.alpha > 0
    mmd_on = teaches and "no_mmd" not in cfg.ablations and cfg.beta > 0
    return uns_on, mmd_on


def _decoded_predictions(fwd, mode: Mode):
    if fwd.n_predicted == 0 or fwd.probs is None:
        return []
    return decode_triplets(fwd.proposals[: fwd.n_predicted], fwd.probs.data[: fwd.n_predicted], mode)


def _collect_region_features(fwd, feats: RegionFeatures) -> None:
    m = fwd.n_predicted
    if m == 0:
        return
    preds = fwd.proposals[:m]
    aa = np.array([p.a for p in preds])
    bb = np.array([p.b for p in preds])
    cc = np.array([p.c for p in preds])
    dd = np.array([p.d for p in preds])
    feats.b_cells.append(fwd.tl[(aa, bb)])
    feats.e_cells.append(fwd.tl[(cc, dd)])
    feats.rois.append(fwd.rois[:m])


def _collect_cell_features(fwd, mode: Mode, groups: dict) -> None:
    triplets = _decoded_predictions(fwd, mode)
    n = fwd.sentence.n
    if mode == Mode.ASTE:
        by_type = cells_by_type(triplets, n)
    else:
        from .tagging import CELL_A, CELL_O

        by_type = {CELL_A: [], CELL_O: []}
        seen = {CELL_A: set(), CELL_O: set()}
        for asp, op in triplets:
            for i in asp.tokens():
                if (i, i) not in seen[CELL_A]:
                    seen[CELL_A].add((i, i))
                    by_type[CELL_A].append((i, i))
            for j in op.tokens():
                if (j, j) not in seen[CELL_O]:
                    seen[CELL_O].add((j, j))
                    by_type[CELL_O].append((j, j))
    for key, cells in by_type.items():
        if cells:
            ii = np.array([c[0] for c in cells])
            jj = np.array([c[1] for c in cells])
            groups.setdefault(key, []).append(fwd.tl[(ii, jj)])


def compute_losses(
    student_t: dict,
    src_batch: list[LabeledSentence],
    cfg: TrainConfig,
    tgt_sentences: list[Sentence] | None = None,
    tgt_pseudo: list[list[PseudoLabel]] | None = None,
    uns_on: bool = False,
    mmd_on: bool = False,
) -> tuple[Tensor, LossBreakdown]:
    """Assemble the step loss graph on the student.  Supervised terms come
    from ``src_batch``; the consistency and MMD terms come from the target
    sentences (already augmented) and the teacher's retained pseudo labels."""
    mmd_cfg = MmdConfig()
    src_feats = RegionFeatures()
    rpn_terms, rpc_terms = [], []
    src_fwds = []
    for ls in src_batch:
        boundaries, gold = encode_region_labels(ls)
        fwd = forward(
            ls.sentence, student_t, cfg.encoder, cfg.mode, cfg.kappa,
            extra_rects=[g.rect() for g in gold],
        )
        src_fwds.append(fwd)
        rpn_terms.append(loss_rpn(fwd.pb, fwd.pe, boundaries.b, boundaries.e))
        proposals, targets = match_gold(fwd.proposals, gold, cfg.mode, inject=True)
        assert len(proposals) == len(fwd.proposals), "gold injection must be idempotent here"
        rpc_terms.append(loss_rpc(fwd.logp, targets))
    l_rpn_t = _mean(rpn_terms)
    l_rpc_t = _mean(rpc_terms)
    l_sup_t = l_rpn_t + l_rpc_t

    l_uns_t = Tensor(0.0)
    l_bnd_t = Tensor(0.0)
    l_reg_t = Tensor(0.0)
    l_mmd_t = Tensor(0.0)
    if (uns_on or mmd_on) and tgt_sentences:
        tgt_feats = RegionFeatures()
        cell_groups_src: dict = {}
        cell_groups_tgt: dict = {}
        student_rows = []
        teacher_rows = []
        for si, sentence in enumerate(tgt_sentences):
            pseudo = tgt_pseudo[si] if (tgt_pseudo and uns_on) else []
            if cfg.variant == Variant.CTFMT:
                fwd = forward(sentence, student_t, cfg.encoder, cfg.mode, cfg.kappa)
                if uns_on and pseudo:
                    probs, _ = cell_probs(fwd.tl, student_t, cfg.mode)
                    n = sentence.n
                    rows = np.array([p.a * n + p.b for p in pseudo])
                    student_rows.append(probs[rows])
                    teacher_rows.append(np.stack([p.probs for p in pseudo]))
                if mmd_on:
                    _collect_cell_features(fwd, cfg.mode, cell_groups_tgt)
            else:
                fwd = forward(
                    sentence, student_t, cfg.encoder, cfg.mode, cfg.kappa,
                    extra_rects=[p.rect() for p in pseudo],
                )
                if uns_on and pseudo:
                    index = {p.rect(): i for i, p in enumerate(fwd.proposals)}
                    rows = np.array([index[p.rect()] for p in pseudo])
                    student_rows.append(fwd.probs[rows])
                    teacher_rows.append(np.stack([p.probs for p in pseudo]))
                if mmd_on:
                    _collect_region_features(fwd, tgt_feats)
        if mmd_on:
            for fwd in src_fwds:
                if cfg.variant == Variant.CTFMT:
                    _collect_cell_features(fwd, cfg.mode, cell_groups_src)
                else:
                    _collect_region_features(fwd, src_feats)
            if cfg.variant == Variant.CTFMT:
                l_mmd_t = loss_mmd_cell_level(cell_groups_src, cell_groups_tgt, mmd_cfg)
            else:
                l_bnd_t, l_reg_t = loss_mmd_region_level(src_feats, tgt_feats, mmd_cfg)
                l_mmd_t = l_bnd_t + l_reg_t
        if uns_on and student_rows:
            l_uns_t = loss_uns(ag.concat(student_rows, axis=0), np.concatenate(teacher_rows, axis=0))

    total = total_loss(l_sup_t, l_uns_t, l_mmd_t, cfg.alpha, cfg.beta)
    breakdown = LossBreakdown(
        l_rpn=float(l_rpn_t.data),
        l_rpc=float(l_rpc_t.data),
        l_sup=float(l_sup_t.data),
        l_uns=float(l_uns_t.data),
        l_mmd_boundary=float(l_bnd_t.data),
        l_mmd_region=float(l_reg_t.data),
        l_mmd=float(l_mmd_t.data),
        total=float(total.data),
    )
    return total, breakdown


def _mean(terms: list[Tensor]) -> Tensor:
    if not terms:
        return Tensor(0.0)
    acc = terms[0]
    for t in terms[1:]:
        acc = acc + t
    return acc * (1.0 / len(terms))


def train_step(
    student: dict,
    teacher: dict | None,
    opt: "Adam",
    src_batch: list[LabeledSentence],
    tgt_batch: list[LabeledSentence] | None,
    cfg: TrainConfig,
    rng_aug: np.random.Generator | None = None,
    aug_lexicon: list | None = None,
) -> LossBreakdown:
    """One optimizer step on the student; the teacher is read-only here."""
    uns_on, mmd_on = _target_flags(cfg)
    uns_on = uns_on and teacher is not None
    tgt_sentences = None
    tgt_pseudo = None
    if (uns_on or mmd_on) and tgt_batch:
        tgt_sentences = [ls.sentence for ls in tgt_batch]
        if "no_aug" not in cfg.ablations and cfg.aug_rate > 0:
            tgt_sentences = [augment(s, cfg.aug_rate, aug_lexicon, rng_aug) for s in tgt_sentences]
        if uns_on:
            label = (
                teacher_pseudo_label_cells if cfg.variant == Variant.CTFMT else teacher_pseudo_label
            )
            tgt_pseudo = [label(teacher, s, cfg) for s in tgt_sentences]
    student_t = as_tensors(student)
    total, breakdown = compute_losses(
        student_t, src_batch, cfg, tgt_sentences, tgt_pseudo, uns_on, mmd_on
    )
    if not np.isfinite(breakdown.total):
        raise TrainingDivergence(f"non-finite loss: {breakdown}")
    total.backward()
    grads = {
        k: (t.grad if t.grad is not None else np.zeros_like(t.data))
        for k, t in student_t.items()
    }
    opt.step(grads)
    return breakdown


def pretrain_teacher(source_train: list[LabeledSentence], cfg: TrainConfig) -> dict:
    """Supervised-only training of the teacher on labeled source data."""
    if not source_train:
        raise ValueError("source training set is empty")
    params = init_params(cfg.encoder, cfg.mode, _stream(cfg.seed, _STREAM_TEACHER_INIT))
    opt = Adam(params, cfg.lr)
    rng = _stream(cfg.seed, _STREAM_PRETRAIN_BATCH)
    sup_cfg = replace(cfg, variant=Variant.SOURCE_ONLY)
    for _ in range(cfg.epochs):
        order = rng.permutation(len(source_train))
        for lo in range(0, len(order), cfg.batch):
            batch = [source_train[i] for i in order[lo : lo + cfg.batch]]
            train_step(params, None, opt, batch, None, sup_cfg)
    return params


def _predict_items(records, params, cfg: TrainConfig):
    return [
        predict(ls.sentence, params, cfg.encoder, cfg.mode, cfg.kappa) for ls in records
    ]


def _f1(records, params, cfg: TrainConfig) -> float:
    preds = _predict_items(records, params, cfg)
    golds = [gold_items(ls, cfg.mode) for ls in records]
    return sentence_prf(preds, golds)[2]


def _confident_self_labels(
    params: dict, sentence: Sentence, cfg: TrainConfig
) -> tuple[Triplet, ...]:
    fg = list(foreground_classes(cfg.mode))
    with ag.no_grad():
        fwd = forward(sentence, as_tensors(params), cfg.encoder, cfg.mode, cfg.kappa)
    if not fwd.proposals:
        return ()
    probs = fwd.probs.data
    picks = probs.argmax(axis=1)
    out = {}
    for i, p in enumerate(fwd.proposals):
        conf = float(probs[i, fg].max())
        if conf >= cfg.eta and int(picks[i]) in fg:
            if cfg.mode == Mode.ASTE:
                from .tagging import RegionClass, class_to_polarity

                pol = class_to_polarity(RegionClass(int(picks[i])))
            else:
                pol = Polarity.POS  # placeholder: AOPE ignores polarity downstream
            t = Triplet(Span(p.a, p.c), Span(p.b, p.d), pol)
            out[p.rect()] = t
    return tuple(out[r] for r in sorted(out))


def fit(data: SynthCorpus, cfg: TrainConfig) -> tuple[Checkpoint, list[dict]]:
    """Train per the configured variant; returns the dev-selected checkpoint
    and one metric row per epoch."""
    if not data.source_train or not data.source_dev:
        raise ValueError("source train/dev sets must be non-empty")
    uses_teacher = cfg.variant in (Variant.TFMT, Variant.CTFMT)
    uns_on, mmd_on = _target_flags(cfg)
    if (uns_on or mmd_on) and not data.target_unlabeled:
        raise ValueError("target unlabeled set must be non-empty for this variant")

    if cfg.variant == Variant.SELF_TRAIN:
        return _fit_self_train(data, cfg)

    teacher = pretrain_teacher(data.source_train, cfg) if uses_teacher else None
    student = init_params(cfg.encoder, cfg.mode, _stream(cfg.seed, _STREAM_STUDENT_INIT))
    opt = Adam(student, cfg.lr)
    rng_src = _stream(cfg.seed, _STREAM_SRC_BATCH)
    rng_tgt = _stream(cfg.seed, _STREAM_TGT_BATCH)
    rng_aug = _stream(cfg.seed, _STREAM_AUGMENT)
    aug_lex = vocabulary(data.target_unlabeled) if (uns_on or mmd_on) else []

    tgt_pool: list[int] = []

    def next_tgt_batch(size: int) -> list[LabeledSentence]:
        nonlocal tgt_pool
        batch = []
        while len(batch) < size:
            if not tgt_pool:
                tgt_pool = list(rng_tgt.permutation(len(data.target_unlabeled)))
            batch.append(data.target_unlabeled[tgt_pool.pop(0)])
        return batch

    rows: list[dict] = []
    best: tuple[float, int, dict, dict] | None = None
    step = 0
    for epoch in range(1, cfg.epochs + 1):
        order = rng_src.permutation(len(data.source_train))
        sums = np.zeros(6)
        count = 0
        for lo in range(0, len(order), cfg.batch):
            src_batch = [data.source_train[i] for i in order[lo : lo + cfg.batch]]
            tgt_batch = next_tgt_batch(len(src_batch)) if (uns_on or mmd_on) else None
            bd = train_step(student, teacher, opt, src_batch, tgt_batch, cfg, rng_aug, aug_lex)
            if teacher is not None:
                ema_update(teacher, student, cfg.ema_lambda)
            sums += np.array([bd.l_rpn, bd.l_rpc, bd.l_sup, bd.l_uns, bd.l_mmd, bd.total])
            count += 1
            step += 1
        dev_f1 = _f1(data.source_dev, student, cfg)
        test_f1 = _f1(data.target_test, student, cfg) if data.target_test else 0.0
        means = sums / max(count, 1)
        rows.append(
            {
                "epoch": epoch, "step": step,
                "l_rpn": means[0], "l_rpc": means[1], "l_sup": means[2],
                "l_uns": means[3], "l_mmd": means[4], "total": means[5],
                "dev_f1": dev_f1, "test_f1": test_f1,
            }
        )
        if best is None or dev_f1 > best[0]:
            best = (dev_f1, epoch, clone_params(student),
                    clone_params(teacher) if teacher is not None else clone_params(student))
    if best is None:  # epochs == 0
        best = (0.0, 0, clone_params(student),
                clone_params(teacher) if teacher is not None else clone_params(student))
    ckpt = Checkpoint(config=cfg, student=best[2], teacher=best[3], epoch=best[1], history=rows)
    return ckpt, rows


def _fit_self_train(data: SynthCorpus, cfg: TrainConfig) -> tuple[Checkpoint, list[dict]]:
    """Iterative self-training: pretrain on source, then repeatedly fold the
    model's confident target predictions into the next iteration's train set."""
    params = init_params(cfg.encoder, cfg.mode, _stream(cfg.seed, _STREAM_STUDENT_INIT))
    opt = Adam(params, cfg.lr)
    rng_pre = _stream(cfg.seed, _STREAM_PRETRAIN_BATCH)
    rng_it = _stream(cfg.seed, _STREAM_SRC_BATCH)
    sup_cfg = replace(cfg, variant=Variant.SOURCE_ONLY)
    for _ in range(cfg.epochs):
        order = rng_pre.permutation(len(data.source_train))
        for lo in range(0, len(order), cfg.batch):
            batch = [data.source_train[i] for i in order[lo : lo + cfg.batch]]
            train_step(params, None, opt, batch, None, sup_cfg)

    rows: list[dict] = []
    best: tuple[float, int, dict] | None = None
    step = 0
    for epoch in range(1, cfg.epochs + 1):
        pseudo_set = []
        for ls in data.target_unlabeled:
            trips = _confident_self_labels(params, ls.sentence, cfg)
            if trips:
                pseudo_set.append(LabeledSentence(ls.sentence, trips))
        pool = list(data.source_train) + pseudo_set
        order = rng_it.permutation(len(pool))
        sums = np.zeros(6)
        count = 0
        for lo in range(0, len(order), cfg.batch):
            batch = [pool[i] for i in order[lo : lo + cfg.batch]]
            bd = train_step(params, None, opt, batch, None, sup_cfg)
            sums += np.array([bd.l_rpn, bd.l_rpc, bd.l_sup, bd.l_uns, bd.l_mmd, bd.total])
            count += 1
            step += 1
        dev_f1 = _f1(data.source_dev, params, cfg)
        test_f1 = _f1(data.target_test, params, cfg) if data.target_test else 0.0
        means = sums / max(count, 1)
        rows.append(
            {
                "epoch": epoch, "step": step,
                "l_rpn": means[0], "l_rpc": means[1], "l_sup": means[2],
                "l_uns": means[3], "l_mmd": means[4], "total": means[5],
                "dev_f1": dev_f1, "test_f1": test_f1,
            }
        )
        if best is None or dev_f1 > best[0]:
            best = (dev_f1, epoch, clone_params(params))
    if best is None:
        best = (0.0, 0, clone_params(params))
    ckpt = Checkpoint(config=cfg, student=best[2], teacher=clone_params(best[2]),
                      epoch=best[1], history=rows)
    return ckpt, rows
