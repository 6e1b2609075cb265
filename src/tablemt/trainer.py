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
from dataclasses import astuple, dataclass, field, fields
from itertools import islice
from typing import Callable

import numpy as np

from . import autograd as ag
from .autograd import Tensor
from .corpus import LabeledSentence, Sentence, SynthCorpus, Triplet, vocabulary
from .detector import (Mode, classify_regions, decode_triplets, foreground_classes,
                       invalid_class, roi_represent, rpn_scores)
from .evaluate import gold_items, sentence_prf
from .losses import (
    LossBreakdown,
    loss_mmd,
    loss_rpc,
    loss_rpn,
    loss_uns,
    match_gold,
    total_loss,
)
from .encoder import EncoderConfig, check_lengths, chunks, encode
from .model import (SentenceForward, as_tensors, check_finite_scores, clone_params, detect,
                    forward, init_params, predict_batch)
from .tagging import CELL_A, CELL_O, cells_by_type, decode_regions, encode_region_labels

ABLATIONS = ("no_aug", "no_uns", "no_mmd")
HISTORY_COLUMNS = ("epoch", "step", *(f.name for f in fields(LossBreakdown)), "dev_f1", "test_f1")


class Variant(enum.Enum):
    TFMT = "tfmt"
    CTFMT = "ctfmt"
    SELF_TRAIN = "self_train"
    SOURCE_ONLY = "source_only"

    @property
    def teaches(self) -> bool:
        """Whether the student learns from a pretrained mean teacher."""
        return self in (Variant.TFMT, Variant.CTFMT)


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
        if not (0.0 < self.eta <= 1.0):
            raise ValueError("eta must be in (0, 1]")
        if not (0.0 < self.kappa <= 1.0):
            raise ValueError("kappa must be in (0, 1]")
        if not (0.0 <= self.aug_rate <= 1.0):
            raise ValueError("aug_rate must be in [0, 1]")
        if not (0.0 <= self.alpha < np.inf and 0.0 <= self.beta < np.inf):
            raise ValueError("alpha and beta must be finite and >= 0")
        if not (0.0 < self.lr < np.inf):
            raise ValueError("lr must be finite and > 0")
        if self.batch < 1 or self.epochs < 0 or self.seed < 0:
            raise ValueError("batch must be >= 1, epochs >= 0 and seed >= 0")
        object.__setattr__(self, "ablations", frozenset(self.ablations))
        unknown = self.ablations - set(ABLATIONS)
        if unknown:
            raise ValueError(f"unknown ablations {sorted(unknown)}; valid: {ABLATIONS}")


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
    """Adaptive moment estimation with the standard moment decays and eps.

    A 2-D parameter is updated only in its live rows, those whose gradient
    has been nonzero at some step, until half its rows are live.  A row
    whose moments and gradient have always been 0 gets an update of exactly
    0, so skipping it changes no byte, and a step costs what its gradient
    touches: a fit gives a few dozen of the embedding table's 4096 rows a
    gradient.  The parameters updated whole keep their moments in one flat
    pair of arrays and are updated as one vector, so their update is a fixed
    dozen numpy calls, not a dozen per parameter; each element still goes
    through the same operations in the same order.
    """

    BETA1 = 0.9
    BETA2 = 0.999
    EPS = 1e-8

    def __init__(self, params: dict, lr: float):
        self.params = params
        self.lr = lr
        self.t = 0
        self.m = {k: np.zeros_like(v) for k, v in params.items()}
        self.v = {k: np.zeros_like(v) for k, v in params.items()}
        self.live = {k: np.zeros(len(v), dtype=bool) for k, v in params.items() if v.ndim == 2}
        self._whole: tuple = ([], None, None, [])  # keys, flat m, flat v, each key's slice

    def step(self, grads: dict) -> None:
        self.t += 1
        b1c = 1.0 - self.BETA1**self.t
        b2c = 1.0 - self.BETA2**self.t
        whole = []
        for k in sorted(self.params):
            live = self.live.get(k)
            if live is not None:
                g, m, v = grads[k], self.m[k], self.v[k]
                # a sum of magnitudes is 0 only for a row of zeros, and a
                # NaN or a subnormal in the row makes it nonzero
                live |= np.abs(g) @ np.ones(g.shape[1]) != 0
                if 2 * np.count_nonzero(live) < len(live):
                    rows = np.flatnonzero(live)
                    m_rows, v_rows = m[rows], v[rows]
                    self.params[k][rows] -= self._moments(m_rows, v_rows, g[rows], b1c, b2c)
                    m[rows], v[rows] = m_rows, v_rows
                    continue
                del self.live[k]  # gathering most rows costs more than the whole
            whole.append(k)
        if whole:
            m, v, spans = self._flat(whole)
            g = np.concatenate([grads[k].ravel() for k in whole])
            delta = self._moments(m, v, g, b1c, b2c)
            for k, span in zip(whole, spans):
                self.params[k] -= delta[span].reshape(self.params[k].shape)

    def _moments(self, m, v, g, b1c: float, b2c: float) -> np.ndarray:
        """Moves the moments ``m``, ``v`` by ``g`` in place and returns the
        step to subtract from their parameters."""
        m *= self.BETA1
        m += (1.0 - self.BETA1) * g
        v *= self.BETA2
        v += (1.0 - self.BETA2) * g * g
        return self.lr * (m / b1c) / (np.sqrt(v / b2c) + self.EPS)

    def _flat(self, keys: list) -> tuple:
        """The flat moments of the parameters ``keys`` and each one's slice
        of them; when ``keys`` changes, the moments move into new flat
        arrays and ``self.m``, ``self.v`` hold views of them."""
        if keys != self._whole[0]:
            ends = np.cumsum([self.m[k].size for k in keys]).tolist()
            spans = [slice(end - self.m[k].size, end) for k, end in zip(keys, ends)]
            m = np.concatenate([self.m[k].ravel() for k in keys])
            v = np.concatenate([self.v[k].ravel() for k in keys])
            for k, span in zip(keys, spans):
                self.m[k] = m[span].reshape(self.m[k].shape)
                self.v[k] = v[span].reshape(self.v[k].shape)
            self._whole = (keys, m, v, spans)
        return self._whole[1:]


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


def _confident(rects: list, probs: np.ndarray, mode: Mode, eta: float) -> list[PseudoLabel]:
    """Rectangles whose maximum foreground-class probability reaches ``eta``;
    non-finite ``probs`` raise ``NonFiniteScoreError``."""
    check_finite_scores(probs)
    conf = probs[:, list(foreground_classes(mode))].max(axis=1)
    return [
        PseudoLabel(*rect, probs[i].copy(), float(conf[i]))
        for i, rect in enumerate(rects)
        if conf[i] >= eta
    ]


def teacher_pseudo_label(teacher_t: dict[str, Tensor], tl: Tensor, n: int,
                         cfg: TrainConfig) -> list[PseudoLabel]:
    """``model.detect`` of the teacher over one sentence of length ``n``,
    whose (n², d) map ``tl`` the teacher's ``encode`` made, keeping proposals
    whose maximum foreground-class probability reaches ``cfg.eta``."""
    ((proposals, probs),) = detect(tl, [n], teacher_t, cfg.mode, cfg.kappa)
    return _confident(proposals, probs, cfg.mode, cfg.eta)


def teacher_pseudo_label_cells(
    teacher_t: dict[str, Tensor], tl: Tensor, n: int, cfg: TrainConfig
) -> list[PseudoLabel]:
    """Cell-level variant: every cell is its own 1x1 region, in row-major
    order.  A 1x1 region's RoI row is its cell's vector three times (both
    corners and the max over one cell), so no pooling runs."""
    rects = [(i, j, i, j) for i in range(n) for j in range(n)]
    probs, _ = classify_regions(ag.concat([tl, tl, tl], axis=1), teacher_t)
    return _confident(rects, probs.data, cfg.mode, cfg.eta)


def pseudo_labels(teacher: dict, sentences: list[Sentence], cfg: TrainConfig,
                  label: Callable[..., list[PseudoLabel]]) -> list[list[PseudoLabel]]:
    """Each sentence's retained pseudo labels, in order.  Under one
    ``no_grad``, ``teacher`` encodes each packed chunk of ``encoder.chunks``
    and ``label`` (``teacher_pseudo_label`` or ``teacher_pseudo_label_cells``)
    filters each sentence's slice of it; non-finite teacher scores raise
    ``NonFiniteScoreError``."""
    out = []
    with ag.no_grad():
        teacher_t = as_tensors(teacher)
        for part in chunks(sentences, cfg.encoder):
            tl = encode(part, teacher_t, cfg.encoder)
            cell0 = ag.packing(tuple(s.n for s in part)).cell0.tolist()
            out += [label(teacher_t, Tensor(tl.data[c : c + s.n * s.n]), s.n, cfg)
                    for c, s in zip(cell0, part)]
    return out


def _target_flags(cfg: TrainConfig) -> tuple[bool, bool]:
    teaches = cfg.variant.teaches
    uns_on = teaches and "no_uns" not in cfg.ablations and cfg.alpha > 0
    mmd_on = teaches and "no_mmd" not in cfg.ablations and cfg.beta > 0
    return uns_on, mmd_on


def _mmd_groups(tl: Tensor, rois: Tensor, probs: Tensor, sizes: tuple[int, ...],
                fwds: list[SentenceForward], row0: np.ndarray, side: range,
                cfg: TrainConfig) -> dict:
    """The MMD feature groups of the regions the pruner proposed in the
    batch's sentences ``side``, each one (m, k) gather from the batch
    tensors: the B-corner cells ``b``, the E-corner cells ``e`` and the RoI
    vectors ``roi`` (sentence s's from row ``row0[s]``); for ``ctfmt``, the
    table cells of each populated ``CELL_*`` type of the decoded predictions
    instead.  Rows run in sentence order, then proposal (or cell) order."""
    cell0 = ag.packing(sizes).cell0
    cells: dict = {}
    rows = []
    for s in side:
        n, fwd, c0, r0 = sizes[s], fwds[s], cell0[s], row0[s]
        m = fwd.n_predicted
        if m == 0:
            continue
        if cfg.variant != Variant.CTFMT:
            a, b, c, d = np.array(fwd.proposals[:m]).T
            by_key = {"b": c0 + a * n + b, "e": c0 + c * n + d}
            rows.append(r0 + np.arange(m))
        else:
            triplets = decode_triplets(fwd.proposals[:m], probs.data[r0 : r0 + m], cfg.mode)
            if cfg.mode == Mode.ASTE:
                by_type = cells_by_type(triplets)
            else:  # diagonal aspect and opinion cells, in order of first appearance
                by_type = {
                    CELL_A: list(dict.fromkeys((i, i) for asp, _ in triplets for i in asp.tokens())),
                    CELL_O: list(dict.fromkeys((j, j) for _, op in triplets for j in op.tokens())),
                }
            by_key = {k: c0 + np.array([i * n + j for i, j in ij]) for k, ij in by_type.items()
                      if ij}
        for key, idx in by_key.items():
            cells.setdefault(key, []).append(idx)
    groups = {key: tl[np.concatenate(idx)] for key, idx in cells.items()}
    if rows:
        groups["roi"] = rois[np.concatenate(rows)]
    return groups


def compute_losses(
    student_t: dict,
    src_batch: list[LabeledSentence],
    cfg: TrainConfig,
    tgt_sentences: list[Sentence] | None = None,
    tgt_pseudo: list[list[PseudoLabel]] | None = None,
) -> tuple[Tensor, LossBreakdown]:
    """Assemble the step loss graph on the student.  Supervised terms come
    from ``src_batch``; the consistency and MMD terms come from the target
    sentences (already augmented) and the teacher's retained pseudo labels,
    whose rectangles (1x1 cells for ``ctfmt``) join the student's proposals
    through ``forward(extra_rects=)``.  Consistency is on exactly when
    ``tgt_pseudo`` is given; MMD follows ``_target_flags(cfg)``.

    The source and target sentences go through the encoder, the corner
    scores and the region head once, as one packed batch; only the proposal
    stage runs per sentence, each source sentence's ``forward`` right before
    its ``match_gold``.  ``l_rpn`` and ``l_rpc`` are means over the source
    sentences of each one's own mean, a sentence without proposals counting
    as a zero ``l_rpc`` term."""
    uns_on = tgt_pseudo is not None
    mmd_on = _target_flags(cfg)[1]
    tgt_sentences = list(tgt_sentences or []) if uns_on or mmd_on else []
    sentences = [ls.sentence for ls in src_batch] + tgt_sentences
    sizes = tuple(s.n for s in sentences)
    zero = Tensor(0.0)
    if not sentences:
        return zero, LossBreakdown()
    tl = encode(sentences, student_t, cfg.encoder)
    scores = rpn_scores(tl, student_t)
    maps = scores.maps(sizes)
    n_src = len(src_batch)

    fwds, targets, yb, ye = [], [], [], []
    for ls, (pb, pe) in zip(src_batch, maps):
        boundaries, gold = encode_region_labels(ls)
        fwd = forward(pb, pe, cfg.kappa, extra_rects=[g.rect() for g in gold])
        targets.append(match_gold(fwd.proposals, gold, cfg.mode))
        fwds.append(fwd)
        yb.append(boundaries.b.ravel())
        ye.append(boundaries.e.ravel())
    for si, (pb, pe) in enumerate(maps[n_src:]):
        pseudo = tgt_pseudo[si] if uns_on else []
        fwds.append(forward(pb, pe, cfg.kappa, extra_rects=[p.rect() for p in pseudo]))
    counts = np.array([len(f.proposals) for f in fwds])
    rois = probs = logp = None
    if counts.sum():
        rois = roi_represent(tl, sizes, [f.proposals for f in fwds])
        probs, logp = classify_regions(rois, student_t)

    l_rpn_t = l_rpc_t = zero
    if src_batch:
        cells = np.square(sizes[:n_src])
        pad = np.zeros(len(scores.pb.data) - cells.sum())
        w_rpn = np.concatenate([np.repeat(1.0 / (2 * cells * n_src), cells), pad])
        l_rpn_t = loss_rpn(scores.pb, scores.pe, np.concatenate(yb + [pad]),
                           np.concatenate(ye + [pad]), w_rpn)
        m = counts[:n_src]
        w_rpc = np.repeat(1.0 / (np.maximum(m, 1) * n_src), m)
        l_rpc_t = loss_rpc(logp, np.concatenate(targets), w_rpc)
    l_sup_t = l_rpn_t + l_rpc_t

    l_uns_t = l_mmd_t = zero
    if tgt_sentences:
        row0 = np.cumsum(counts) - counts
        if mmd_on:
            head = (tl, rois, probs, sizes, fwds, row0)
            l_mmd_t = loss_mmd(_mmd_groups(*head, range(n_src), cfg),
                               _mmd_groups(*head, range(n_src, len(fwds)), cfg))
        rows = [r0 + np.array(f.extra_rows, dtype=np.int64)
                for f, r0 in zip(fwds[n_src:], row0[n_src:]) if f.extra_rows]
        if rows:
            teacher_rows = np.stack([p.probs for pseudo in tgt_pseudo for p in pseudo])
            l_uns_t = loss_uns(probs[np.concatenate(rows)], teacher_rows)

    total = total_loss(l_sup_t, l_uns_t, l_mmd_t, cfg.alpha, cfg.beta)
    terms = (l_rpn_t, l_rpc_t, l_sup_t, l_uns_t, l_mmd_t, total)
    return total, LossBreakdown(*(float(t.data) for t in terms))


def train_step(
    student: dict,
    teacher: dict | None,
    opt: "Adam",
    src_batch: list[LabeledSentence],
    tgt_sentences: list[Sentence] | None,
    cfg: TrainConfig,
) -> LossBreakdown:
    """One optimizer step on the student from ``src_batch`` and the target
    sentences, as the target stream drew them; the teacher is read-only
    here and labels the target sentences when the consistency term is on."""
    tgt_pseudo = None
    if _target_flags(cfg)[0] and teacher is not None and tgt_sentences:
        label = teacher_pseudo_label_cells if cfg.variant == Variant.CTFMT else teacher_pseudo_label
        tgt_pseudo = pseudo_labels(teacher, tgt_sentences, cfg, label)
    student_t = as_tensors(student)
    total, breakdown = compute_losses(student_t, src_batch, cfg, tgt_sentences, tgt_pseudo)
    if not np.isfinite(breakdown.total):
        raise TrainingDivergence(f"non-finite loss: {breakdown}")
    total.backward()
    grads = {
        k: (t.grad if t.grad is not None else np.zeros_like(t.data))
        for k, t in student_t.items()
    }
    opt.step(grads)
    return breakdown


def _batches(records: list, rng: np.random.Generator, size: int):
    """One epoch of batches over ``records`` in a fresh random order."""
    order = rng.permutation(len(records))
    for lo in range(0, len(order), size):
        yield [records[i] for i in order[lo : lo + size]]


def _target_stream(records: list[LabeledSentence], cfg: TrainConfig):
    """The target sentences of ``records``, endlessly: in the random order of
    the ``_STREAM_TGT_BATCH`` stream, reshuffled whenever the pool runs dry,
    each augmented as it is drawn, from the ``_STREAM_AUGMENT`` stream and
    the vocabulary of ``records``, unless ``no_aug`` is set or ``aug_rate``
    is 0."""
    rng = _stream(cfg.seed, _STREAM_TGT_BATCH)
    rng_swap = _stream(cfg.seed, _STREAM_AUGMENT)
    lexicon = vocabulary(records)
    aug_on = "no_aug" not in cfg.ablations and cfg.aug_rate > 0
    while True:
        for i in rng.permutation(len(records)):
            s = records[i].sentence
            yield augment(s, cfg.aug_rate, lexicon, rng_swap) if aug_on else s


def _run_epoch(
    params: dict,
    teacher: dict | None,
    opt: Adam,
    records: list,
    rng: np.random.Generator,
    cfg: TrainConfig,
    target=None,
) -> tuple[int, np.ndarray]:
    """Train ``params`` for one pass over ``records``.  Each batch is paired
    with as many sentences from the ``target`` stream, if any, and the
    ``teacher``, if any, follows by EMA after every step.  Returns the step
    count and the epoch mean of each ``LossBreakdown`` field."""
    sums = np.zeros(len(fields(LossBreakdown)))
    steps = 0
    for batch in _batches(records, rng, cfg.batch):
        tgt_sentences = list(islice(target, len(batch))) if target is not None else None
        bd = train_step(params, teacher, opt, batch, tgt_sentences, cfg)
        if teacher is not None:
            ema_update(teacher, params, cfg.ema_lambda)
        sums += np.array(astuple(bd))
        steps += 1
    return steps, sums / max(steps, 1)


def _supervised_warmup(params: dict, opt: Adam, source_train: list, cfg: TrainConfig) -> None:
    """``cfg.epochs`` supervised-only epochs on labeled source data."""
    rng = _stream(cfg.seed, _STREAM_PRETRAIN_BATCH)
    for _ in range(cfg.epochs):
        _run_epoch(params, None, opt, source_train, rng, cfg)


def pretrain_teacher(source_train: list[LabeledSentence], cfg: TrainConfig) -> dict:
    """Supervised-only training of the teacher on labeled source data."""
    if not source_train:
        raise ValueError("source training set is empty")
    params = init_params(cfg.encoder, cfg.mode, _stream(cfg.seed, _STREAM_TEACHER_INIT))
    _supervised_warmup(params, Adam(params, cfg.lr), source_train, cfg)
    return params


def _predict_items(records, params, cfg: TrainConfig):
    return predict_batch([ls.sentence for ls in records], params, cfg.encoder, cfg.mode,
                         cfg.kappa)


def _f1(records, params, cfg: TrainConfig) -> float:
    preds = _predict_items(records, params, cfg)
    golds = [gold_items(ls, cfg.mode) for ls in records]
    return sentence_prf(preds, golds)[2]


def pseudo_triplet(pl: PseudoLabel, mode: Mode) -> Triplet:
    """The triplet a pseudo label asserts: its rectangle with the polarity of
    its most probable foreground class (AOPE carries a placeholder POS)."""
    fg = foreground_classes(mode)
    cls = fg[int(np.argmax(pl.probs[list(fg)]))]
    (triplet,) = decode_regions([pl.rect() + (cls,)])
    return triplet


def _self_labels(params: dict, sentences: list[Sentence],
                 cfg: TrainConfig) -> list[tuple[Triplet, ...]]:
    """Each sentence's confident pseudo labels of ``params`` whose overall
    argmax is also a foreground class, as triplets in rectangle order; the
    sentences are labelled in the packed chunks of ``encoder.chunks``."""
    return [
        tuple(pseudo_triplet(pl, cfg.mode) for pl in labels
              if int(np.argmax(pl.probs)) != invalid_class(cfg.mode))
        for labels in pseudo_labels(params, sentences, cfg, teacher_pseudo_label)
    ]


def _snapshot(student: dict, teacher: dict | None) -> tuple[dict, dict]:
    return clone_params(student), clone_params(teacher if teacher is not None else student)


def check_corpus(data: SynthCorpus, cfg: TrainConfig) -> None:
    """Raise ``ValueError`` unless ``data`` holds every split a ``cfg`` fit
    trains on: source train and dev always, target unlabeled when the
    consistency or MMD term is on.  Every sentence of a split the fit reads
    must fit ``cfg.encoder.max_n``; the error names the split, the record's
    index in it and its length."""
    if not data.source_train or not data.source_dev:
        raise ValueError("source train/dev sets must be non-empty")
    uses_target = any(_target_flags(cfg))
    if uses_target and not data.target_unlabeled:
        raise ValueError("target unlabeled set must be non-empty for this variant")
    splits = ["source_train", "source_dev", "target_test"]
    if uses_target or cfg.variant == Variant.SELF_TRAIN:
        splits.append("target_unlabeled")
    for split in splits:
        check_lengths([ls.sentence for ls in getattr(data, split)], cfg.encoder.max_n, split)


def fit(
    data: SynthCorpus, cfg: TrainConfig, teacher: dict | None = None
) -> tuple[Checkpoint, list[dict]]:
    """Train per the configured variant; returns the dev-selected checkpoint
    and one ``HISTORY_COLUMNS`` row per epoch.  The mean-teacher variants
    pretrain a teacher; ``self_train`` instead warms the student up on source
    and adds its own confident target predictions to every epoch's pool.

    A mean-teacher fit given ``teacher`` starts from a copy of it instead of
    pretraining; the dict passed in is left untouched.  It must be
    ``pretrain_teacher(data.source_train, cfg)`` for this fit's seed,
    encoder, mode, kappa, lr, batch and epochs, the only fields pretraining
    reads, so that configs differing in alpha, beta, eta, aug_rate,
    ema_lambda or ablations can share one.  The teacherless variants raise
    ``ValueError`` when given one."""
    check_corpus(data, cfg)
    uses_target = any(_target_flags(cfg))
    self_train = cfg.variant == Variant.SELF_TRAIN

    if not cfg.variant.teaches:
        if teacher is not None:
            raise ValueError(f"variant {cfg.variant.value} trains without a teacher")
    elif teacher is None:
        teacher = pretrain_teacher(data.source_train, cfg)
    else:  # ema_update moves the teacher in place
        teacher = clone_params(teacher)
    student = init_params(cfg.encoder, cfg.mode, _stream(cfg.seed, _STREAM_STUDENT_INIT))
    opt = Adam(student, cfg.lr)
    if self_train:
        _supervised_warmup(student, opt, data.source_train, cfg)
    rng_src = _stream(cfg.seed, _STREAM_SRC_BATCH)
    target = _target_stream(data.target_unlabeled, cfg) if uses_target else None

    rows: list[dict] = []
    best = (-np.inf, 0, *_snapshot(student, teacher))  # (dev_f1, epoch, student, teacher)
    step = 0
    for epoch in range(1, cfg.epochs + 1):
        pool = list(data.source_train)
        if self_train:
            sentences = [ls.sentence for ls in data.target_unlabeled]
            labeled = zip(sentences, _self_labels(student, sentences, cfg))
            pool += [LabeledSentence(s, trips) for s, trips in labeled if trips]
        steps, means = _run_epoch(student, teacher, opt, pool, rng_src, cfg, target)
        step += steps
        dev_f1 = _f1(data.source_dev, student, cfg)
        test_f1 = _f1(data.target_test, student, cfg) if data.target_test else 0.0
        rows.append(dict(zip(HISTORY_COLUMNS, (epoch, step, *means, dev_f1, test_f1))))
        if dev_f1 > best[0]:
            best = (dev_f1, epoch, *_snapshot(student, teacher))
    ckpt = Checkpoint(config=cfg, student=best[2], teacher=best[3], epoch=best[1], history=rows)
    return ckpt, rows
