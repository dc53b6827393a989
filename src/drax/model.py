"""Hierarchical three-stage model: video fusion, question fusion, answer scoring.

Appearance and motion features are fused first, the result is fused with the
question, and the outcome is paired with each of the four answer candidates.
Every stage prepends a learned CLS token per stream, adds positional
encodings, runs the self/cross encoder stack, and fuses along the configured
anchor direction. The CLS row is stripped between stages and kept only for
the final per-candidate mean feeding the answer decoder.

Stage 3 runs once for all candidates of equal length, stacked on a leading
candidate axis: answer tokens are (K, n, d), the shared fused stream is
self-encoded once and then broadcast to every candidate, and each masking
site records one entry per candidate under its own `stage3/candK/...` label.
"""

from __future__ import annotations

import dataclasses
import functools
from dataclasses import dataclass, fields

import numpy as np

from . import tensor as T
from .attention import EncoderLayerParams, run_encoder_stack
from .data import STREAMS, check_fields
from .distraction import MaskController, schedule_df
from .fusion import FusionParams, cross_aligned_fuse, simple_concat_fuse, vector_space_transform
from .tensor import ParamStore, Parameter, ShapeError, Tensor


class ConfigError(ValueError):
    """A configuration value or key is invalid."""


LOSS_MODES = ("logit-hinge", "probability-hinge")
FUSION_MODES = ("cross-aligned", "simple-concat")
# Each stage's two streams; its configured anchor must be one of them.
STAGES = (
    ("stage1", "appearance", "motion"),
    ("stage2", "fused", "question"),
    ("stage3", "fused", "answer"),
)
# Each modality's raw feature width, by config key; answers share the text width.
RAW_WIDTHS = {"appearance": "appearance_dim", "motion": "motion_dim", "question": "text_dim",
              "answer": "text_dim"}


@dataclass
class ModalitySequence:
    """Token matrix tagged with its modality: (n, d), or (K, n, d) for a
    batch of K answer candidates."""

    tokens: Tensor
    modality: str


@dataclass
class DraxConfig:
    """Every knob of the model, trainer, and masking schedule."""

    d: int = 64
    heads: int = 4
    layers: int = 2
    d_f_initial: float = 0.3
    delta: float = 0.3
    d_f_fusion: float = 0.4
    anchor_stage1: str = "motion"
    anchor_stage2: str = "fused"
    anchor_stage3: str = "answer"
    loss_mode: str = "logit-hinge"
    fusion_mode: str = "cross-aligned"
    masking_enabled: bool = True
    allow_df_above_one: bool = False
    ffn_width_multiple: int = 2
    appearance_dim: int = 512
    motion_dim: int = 2048
    text_dim: int = 300
    max_positions: int = 160
    layer_norm_eps: float = 1e-5
    seed: int = 0
    learning_rate: float = 0.02
    epochs: int = 20
    grad_clip: float = 5.0

    def validate(self) -> None:
        # `seed`, `delta`, `learning_rate`, `grad_clip` and the factors may be 0.
        check_fields(self, ConfigError, positive=(
            "d", "heads", "layers", "ffn_width_multiple", "appearance_dim", "motion_dim",
            "text_dim", "max_positions", "layer_norm_eps", "epochs",
        ), choices={"loss_mode": LOSS_MODES, "fusion_mode": FUSION_MODES,
                    **{f"anchor_{stage}": tuple(streams) for stage, *streams in STAGES}})
        if self.d % self.heads:
            raise ConfigError(f"d={self.d} must be a multiple of heads={self.heads}")
        for key in ("d_f_initial", "d_f_fusion"):
            value = getattr(self, key)
            if value > 1.0:
                raise ConfigError(f"{key} must lie in [0, 1], got {value}")

    def check_features(self, raw: np.ndarray, modality: str) -> None:
        """The one feature-width rule: `raw` is (n, width) for `modality`'s
        width, or, for answers only, a candidate batch (K, n, width)."""
        width = getattr(self, RAW_WIDTHS[modality])
        if raw.ndim not in ((2, 3) if modality == "answer" else (2,)) or raw.shape[-1] != width:
            raise ShapeError(f"{modality} features must be (n, {width}), got {raw.shape}")

    def check_bundle(self, bundle) -> None:
        """`check_features` on every feature of `bundle`; a reader applies it
        as it reads a file, so a width this config does not take names it."""
        for name in STREAMS:
            self.check_features(getattr(bundle, name), name)
        for answer in bundle.answers:
            self.check_features(answer, "answer")

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, values: dict) -> "DraxConfig":
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(values) - known)
        if unknown:
            raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
        config = cls(**values)
        config.validate()
        return config


@functools.cache
def sinusoidal_encoding(length: int, dim: int) -> np.ndarray:
    """Classic fixed position table: sin on even channels, cos on odd.

    Built once per (length, dim) and shared, so the table is read-only.
    """
    positions = np.arange(length, dtype=np.float64)[:, None]
    channels = np.arange(0, dim, 2, dtype=np.float64)
    angles = positions / np.power(10000.0, channels / dim)
    table = np.zeros((length, dim))
    table[:, 0::2] = np.sin(angles)
    table[:, 1::2] = np.cos(angles[:, : dim // 2])
    table.flags.writeable = False
    return table


def add_cls_and_pos(tokens: Tensor, cls_token: Parameter,
                    pos_table: Parameter | None) -> Tensor:
    """Prepend the stage's CLS token, then add the stage's learned positions,
    or the sinusoidal table when it has none, to all rows."""
    cls = cls_token if tokens.ndim == 2 else T.broadcast(cls_token, tokens.shape[0])
    tokens = T.concat([cls, tokens], axis=-2)
    length, dim = tokens.shape[-2:]
    if pos_table is None:
        return tokens + sinusoidal_encoding(length, dim)
    if length > pos_table.shape[0]:
        raise ConfigError(
            f"sequence length {length} exceeds max_positions {pos_table.shape[0]}"
        )
    return tokens + pos_table[:length]


@dataclass
class StageParams:
    """One stage's parameters; its name and streams are its `STAGES` row."""

    cls1: Parameter
    cls2: Parameter
    pos1: Parameter | None
    pos2: Parameter | None
    levels: list[EncoderLayerParams]
    fusion: FusionParams


@dataclass
class DecoderParams:
    w_a: Parameter
    b_a: Parameter
    w_y: Parameter
    b_y: Parameter
    w_out: Parameter
    b_out: Parameter

    @classmethod
    def create(cls, store: ParamStore, prefix: str, d: int):
        return cls(
            w_a=store.matrix(f"{prefix}.w_a", d, d),
            b_a=store.zeros(f"{prefix}.b_a", (d,)),
            w_y=store.matrix(f"{prefix}.w_y", d, d),
            b_y=store.zeros(f"{prefix}.b_y", (d,)),
            w_out=store.matrix(f"{prefix}.w_out", d, 1),
            b_out=store.zeros(f"{prefix}.b_out", (1,)),
        )


def answer_decoder(reps: Tensor, params: DecoderParams) -> tuple[Tensor, Tensor]:
    """Two ELU affine layers, a scalar head per candidate, softmax over candidates."""
    y = T.elu(T.affine(reps, params.w_a, params.b_a))
    y = T.elu(T.affine(y, params.w_y, params.b_y))
    logits = T.reshape(T.affine(y, params.w_out, params.b_out), (reps.shape[0],))
    return T.softmax(logits, axis=-1), logits


def hinge_loss(scores: Tensor, label: int) -> Tensor:
    """Sum of max(0, 1 + wrong - correct) over the incorrect candidates."""
    count = scores.shape[0]
    if not 0 <= label < count:
        raise ValueError(f"label {label} out of range for {count} candidates")
    wrong = np.ones(count)
    wrong[label] = 0.0
    return T.tensor_sum(T.relu(1.0 + scores - scores[label]) * wrong)


def _candidate_groups(answers) -> list[list[int]]:
    """Candidate indices grouped by feature shape, in order of first appearance."""
    groups: dict[tuple[int, ...], list[int]] = {}
    for cand, answer in enumerate(answers):
        if answer.ndim != 2:
            raise ShapeError(f"answer features must be 2-D, got {answer.shape}")
        groups.setdefault(answer.shape, []).append(cand)
    return list(groups.values())


@functools.lru_cache(maxsize=1024)
def _stage_sites(site, layers: int):
    """Each level's `(into1, into2)` masking-site labels and the fusion label
    under `site`; for a tuple of candidate labels, a tuple of each. Cached:
    a forward asks for the same few every time."""
    def under(name):
        return f"{site}/{name}" if isinstance(site, str) else tuple(f"{s}/{name}" for s in site)
    return tuple((under(f"layer{k}/into1"), under(f"layer{k}/into2"))
                 for k in range(1, layers + 1)), under("fusion")


def predict(probabilities) -> int:
    """Most probable candidate; ties go to the lowest index."""
    values = probabilities.data if isinstance(probabilities, Tensor) else probabilities
    return int(np.argmax(np.asarray(values)))


class DraxModel:
    """Parameters, the masking schedule and the forward pass to candidate scores."""

    def __init__(self, config: DraxConfig, draw: bool = True):
        """Build every parameter from `config.seed`; with `draw=False` the
        random ones start as zeros, for a model a checkpoint fills in."""
        config.validate()
        self.config = config
        store = ParamStore(config.seed, draw=draw)
        self.store = store
        d = config.d
        ffn_width = config.ffn_width_multiple * d
        eps = config.layer_norm_eps

        self.embeddings: dict[str, tuple[Parameter, Parameter]] = {}
        for modality, key in RAW_WIDTHS.items():
            self.embeddings[modality] = (
                store.matrix(f"embed.{modality}.w", getattr(config, key), d),
                store.zeros(f"embed.{modality}.b", (d,)),
            )

        self.stages: list[StageParams] = []
        for name, mod1, mod2 in STAGES:
            self.stages.append(
                StageParams(
                    cls1=store.row(f"{name}.cls.{mod1}", d),
                    cls2=store.row(f"{name}.cls.{mod2}", d),
                    pos1=self._pos_table(store, name, mod1),
                    pos2=self._pos_table(store, name, mod2),
                    levels=[
                        EncoderLayerParams.create(store, f"{name}.stack.layer{k}", d,
                                                  config.heads, ffn_width, eps)
                        for k in range(1, config.layers + 1)
                    ],
                    fusion=FusionParams.create(store, f"{name}.fusion", d, config.heads,
                                               aligned=config.fusion_mode == "cross-aligned"),
                )
            )
        self.decoder = DecoderParams.create(store, "decoder", d)
        masking = config.masking_enabled  # the schedule is fixed here, None with masking off
        self.layer_factors = tuple(
            schedule_df(config.d_f_initial, config.delta, k, config.allow_df_above_one)
            for k in range(1, config.layers + 1)) if masking else None
        self.fusion_factor = config.d_f_fusion if masking else None

    def _pos_table(self, store: ParamStore, stage: str, modality: str) -> Parameter | None:
        if modality in ("question", "answer"):
            return None
        return store.uniform(
            f"{stage}.pos.{modality}",
            (self.config.max_positions, self.config.d),
            self.config.max_positions,
            self.config.d,
        )

    def parameters(self) -> list[Parameter]:
        return self.store.all_parameters()

    def zero_grad(self) -> None:
        for p in self.parameters():
            p.zero_grad()

    def make_masker(self, record: str = "summary") -> MaskController:
        return MaskController(record=record)

    def embed_tokens(self, raw: np.ndarray, modality: str) -> ModalitySequence:
        w, b = self.embeddings[modality]
        # Bundles hold float32 features; this is where they become float64.
        raw = np.asarray(raw, dtype=np.float64)
        self.config.check_features(raw, modality)
        return ModalitySequence(T.affine(Tensor(raw), w, b), modality)

    def run_stage(self, index: int, seq1: ModalitySequence, seq2: ModalitySequence,
                  masker: MaskController, keep_cls: bool = False,
                  site: str | tuple[str, ...] | None = None) -> ModalitySequence:
        """One stage on (n, d) streams, or on a candidate batch.

        For a batch, `seq2` is (K, n, d), `seq1` is the (n, d) stream every
        candidate shares, and `site` holds one label per candidate. The
        fused output keeps its CLS row exactly when `keep_cls`, except in
        the video stage's simple-concat ablation, which has none.
        Its masking sites are labelled `_stage_sites(site)`, `site` being
        the stage name by default; no encoder or fusion function sees a label.
        """
        cfg = self.config
        sp = self.stages[index]
        name, mod1, mod2 = STAGES[index]
        if (seq1.modality, seq2.modality) != (mod1, mod2):
            raise ValueError(
                f"{name} expects ({mod1}, {mod2}), got ({seq1.modality}, {seq2.modality})"
            )
        level_sites, fusion_site = _stage_sites(site or name, cfg.layers)
        factors = self.layer_factors or (None,) * cfg.layers
        y1, y2 = run_encoder_stack(
            add_cls_and_pos(seq1.tokens, sp.cls1, sp.pos1),
            add_cls_and_pos(seq2.tokens, sp.cls2, sp.pos2),
            sp.levels, [(masker.site(d_f, into1), masker.site(d_f, into2))
                        for d_f, (into1, into2) in zip(factors, level_sites)],
        )
        anchor_first = getattr(cfg, f"anchor_{name}") == mod1
        anchor, tail = (y1, y2) if anchor_first else (y2, y1)

        if cfg.fusion_mode == "cross-aligned":
            aligned = vector_space_transform(
                anchor, tail, sp.fusion, masker.site(self.fusion_factor, fusion_site)
            )
            fused = cross_aligned_fuse(anchor, aligned, sp.fusion)
        elif index == 0:
            # Ablation fusion, video stage: drop both CLS rows and reconcile the
            # tail by consecutive-group averaging before concat + projection.
            fused = simple_concat_fuse(anchor[..., 1:, :], tail[..., 1:, :], sp.fusion)
            return ModalitySequence(fused, "fused")
        else:
            # Ablation fusion, language stages: the tail contributes only its
            # encoded CLS row, repeated across the anchor rows.
            rows = anchor.shape[-2]
            fused = simple_concat_fuse(
                anchor, T.concat([tail[..., 0:1, :]] * rows, axis=-2), sp.fusion
            )
        return ModalitySequence(fused if keep_cls else fused[..., 1:, :], "fused")

    def forward(self, bundle, masker: MaskController | None = None) -> Tensor:
        """Per-candidate representations, one row per answer candidate.

        Stage 3 runs once per group of equally shaped candidates (one group
        of four for fixed-length answers), with the group on a leading axis.
        """
        if masker is None:
            masker = self.make_masker()
        masker.begin_pass()
        appearance = self.embed_tokens(bundle.appearance, "appearance")
        motion = self.embed_tokens(bundle.motion, "motion")
        fused = self.run_stage(0, appearance, motion, masker)
        question = self.embed_tokens(bundle.question, "question")
        fused = self.run_stage(1, fused, question, masker)
        start = len(masker.records)
        means, order, by_cand = [], [], {}
        for cands in _candidate_groups(bundle.answers):
            begin = len(masker.records)
            answers = self.embed_tokens(np.stack([bundle.answers[c] for c in cands]), "answer")
            out = self.run_stage(
                2, fused, answers, masker, keep_cls=True,
                site=tuple(f"stage3/cand{c}" for c in cands),
            )
            means.append(T.tensor_mean(out.tokens, axis=-2))
            order += cands
            # Each batched site appends one record per label, in `cands` order.
            for i, c in enumerate(cands):
                by_cand[c] = masker.records[begin + i::len(cands)]
        # Listed by candidate, as one stage run per candidate would list them.
        masker.records[start:] = [rec for c in sorted(by_cand) for rec in by_cand[c]]
        reps = means[0] if len(means) == 1 else T.concat(means, axis=0)
        if order != sorted(order):
            reps = reps[np.argsort(order)]
        return reps

    def scores(self, bundle, masker: MaskController | None = None) -> tuple[Tensor, Tensor]:
        return answer_decoder(self.forward(bundle, masker), self.decoder)

    def sample_loss(self, bundle, masker: MaskController | None = None
                    ) -> tuple[Tensor, np.ndarray]:
        """Hinge loss for one bundle plus the candidate probabilities."""
        probs, logits = self.scores(bundle, masker)
        base = logits if self.config.loss_mode == "logit-hinge" else probs
        return hinge_loss(base, bundle.label), probs.data.copy()

    def param_arrays(self) -> dict[str, np.ndarray]:
        return {name: p.data for name, p in self.store.params.items()}
