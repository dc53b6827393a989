"""Reference forward pass of the three-stage model in plain numpy.

The benchmark checks the library's outputs against this file. It reads the
parameters by name and recomputes the candidate probabilities, logits and
hinge loss with no autodiff tape and no call into `drax`, so a change to the
library's forward, backward or masking cannot move both sides at once. It
covers the configurations the benchmark runs: cross-aligned fusion with
masking on.

Masks are computed from the weights exactly as the paper defines them (a
weight strictly below `d_f` times its row maximum is zeroed, with no
renormalisation), or replayed from an earlier call so that a finite
difference sees a frozen mask.
"""

from __future__ import annotations

import math

import numpy as np

STAGES = (
    ("stage1", "appearance", "motion"),
    ("stage2", "fused", "question"),
    ("stage3", "fused", "answer"),
)


class Reference:
    """Forward pass for one config; `params` maps parameter names to arrays."""

    def __init__(self, config):
        if config.fusion_mode != "cross-aligned" or not config.masking_enabled:
            raise ValueError("the reference covers cross-aligned fusion with masking on")
        self.cfg = config
        self.anchors = (config.anchor_stage1, config.anchor_stage2, config.anchor_stage3)

    def run(self, params: dict, bundle, masks: dict | None = None):
        """Return (loss, probabilities, logits, masks) for one bundle.

        With `masks` given, every site reuses that mask instead of computing
        one; the returned dict holds the mask used at each site.
        """
        self.p = params
        self.replay = masks
        self.used: dict[str, np.ndarray] = {}
        fused = self._stage(0, self._embed(bundle.appearance, "appearance"),
                            self._embed(bundle.motion, "motion"), "stage1", False)
        fused = self._stage(1, fused, self._embed(bundle.question, "question"), "stage2", False)
        reps = [
            self._stage(2, fused, self._embed(answer, "answer"), f"stage3/cand{c}", True)
            .mean(axis=0)
            for c, answer in enumerate(bundle.answers)
        ]
        logits, probs = self._decode(np.stack(reps))
        base = logits if self.cfg.loss_mode == "logit-hinge" else probs
        loss = sum(
            max(0.0, 1.0 + base[n] - base[bundle.label])
            for n in range(len(base)) if n != bundle.label
        )
        return float(loss), probs, logits, self.used

    def _embed(self, raw, modality):
        return np.asarray(raw, dtype=np.float64) @ self.p[f"embed.{modality}.w"] + \
            self.p[f"embed.{modality}.b"]

    def _stage(self, index, x1, x2, site, keep_cls):
        name, mod1, mod2 = STAGES[index]
        x1 = self._cls_and_pos(x1, name, mod1)
        x2 = self._cls_and_pos(x2, name, mod2)
        for k in range(1, self.cfg.layers + 1):
            prefix = f"{name}.stack.layer{k}"
            x1 = self._self_encoder(x1, f"{prefix}.self1")
            x2 = self._self_encoder(x2, f"{prefix}.self2")
            d_f = self.cfg.d_f_initial + (k - 1) * self.cfg.delta
            if not self.cfg.allow_df_above_one:
                d_f = min(1.0, d_f)
            x1, x2 = self._cross(x1, x2, f"{prefix}.cross", d_f, f"{site}/layer{k}")
        anchor, tail = (x1, x2) if self.anchors[index] == mod1 else (x2, x1)
        fusion = f"{name}.fusion"
        weights = self._scores(anchor, tail, f"{fusion}.w_q", f"{fusion}.w_k")
        weights = self._mask(weights, self.cfg.d_f_fusion, f"{site}/fusion")
        aligned = self._values(weights, tail)
        fused = np.concatenate([anchor, aligned], axis=1) @ self.p[f"{fusion}.w_f"] + \
            self.p[f"{fusion}.b"]
        return fused if keep_cls else fused[1:]

    def _cls_and_pos(self, x, stage, modality):
        x = np.concatenate([self.p[f"{stage}.cls.{modality}"], x], axis=0)
        n, d = x.shape
        if modality in ("question", "answer"):
            pos = np.arange(n, dtype=np.float64)[:, None]
            angles = pos / np.power(10000.0, np.arange(0, d, 2, dtype=np.float64) / d)
            table = np.zeros((n, d))
            table[:, 0::2] = np.sin(angles)
            table[:, 1::2] = np.cos(angles[:, : d // 2])
            return x + table
        return x + self.p[f"{stage}.pos.{modality}"][:n]

    def _self_encoder(self, x, prefix):
        p = self.p
        weights = self._scores(x, x, f"{prefix}.w_q", f"{prefix}.w_k")
        attended = self._values(weights, x @ p[f"{prefix}.w_v"]) @ p[f"{prefix}.w_o"]
        x = _layer_norm(x + attended, p[f"{prefix}.ln1_gain"], p[f"{prefix}.ln1_bias"],
                        self.cfg.layer_norm_eps)
        hidden = _elu(x @ p[f"{prefix}.ffn_w1"] + p[f"{prefix}.ffn_b1"])
        return _layer_norm(x + hidden @ p[f"{prefix}.ffn_w2"] + p[f"{prefix}.ffn_b2"],
                           p[f"{prefix}.ln2_gain"], p[f"{prefix}.ln2_bias"],
                           self.cfg.layer_norm_eps)

    def _cross(self, x1, x2, prefix, d_f, site):
        p, eps = self.p, self.cfg.layer_norm_eps
        n1 = _layer_norm(x1, p[f"{prefix}.ln1_gain"], p[f"{prefix}.ln1_bias"], eps) @ \
            p[f"{prefix}.f1_w"] + p[f"{prefix}.f1_b"]
        n2 = _layer_norm(x2, p[f"{prefix}.ln2_gain"], p[f"{prefix}.ln2_bias"], eps) @ \
            p[f"{prefix}.f2_w"] + p[f"{prefix}.f2_b"]
        a12 = self._mask(self._scores(n1, n2, f"{prefix}.w_q", f"{prefix}.w_k"), d_f,
                         f"{site}/into1")
        a21 = self._mask(self._scores(n2, n1, f"{prefix}.w_q", f"{prefix}.w_k"), d_f,
                         f"{site}/into2")
        y1 = x1 + self._values(a12, n2 @ p[f"{prefix}.w_v2"]) @ p[f"{prefix}.g1_w"] + \
            p[f"{prefix}.g1_b"]
        y2 = x2 + self._values(a21, n1 @ p[f"{prefix}.w_v1"]) @ p[f"{prefix}.g2_w"] + \
            p[f"{prefix}.g2_b"]
        return y1, y2

    def _scores(self, x_q, x_k, w_q, w_k):
        heads = self.cfg.heads
        q = _split(x_q @ self.p[w_q], heads)
        k = _split(x_k @ self.p[w_k], heads)
        scores = q @ k.transpose(0, 2, 1) * (1.0 / math.sqrt(x_q.shape[-1] / heads))
        exps = np.exp(scores - scores.max(axis=-1, keepdims=True))
        return exps / exps.sum(axis=-1, keepdims=True)

    def _mask(self, weights, d_f, site):
        if self.replay is not None:
            mask = self.replay[site]
        else:
            mask = weights < (weights.max(axis=-1) * d_f)[..., None]
        self.used[site] = mask
        return np.where(mask, 0.0, weights)

    def _values(self, weights, values):
        out = weights @ _split(values, self.cfg.heads)
        h, n, dh = out.shape
        return out.transpose(1, 0, 2).reshape(n, h * dh)

    def _decode(self, reps):
        p = self.p
        y = _elu(reps @ p["decoder.w_a"] + p["decoder.b_a"])
        y = _elu(y @ p["decoder.w_y"] + p["decoder.b_y"])
        logits = (y @ p["decoder.w_out"] + p["decoder.b_out"]).reshape(-1)
        exps = np.exp(logits - logits.max())
        return logits, exps / exps.sum()


def _split(x, heads):
    n, d = x.shape
    return x.reshape(n, heads, d // heads).transpose(1, 0, 2)


def _layer_norm(x, gain, bias, eps):
    centered = x - x.mean(axis=-1, keepdims=True)
    variance = (centered * centered).mean(axis=-1, keepdims=True)
    return centered / np.sqrt(variance + eps) * gain + bias


def _elu(x):
    return np.where(x >= 0.0, x, np.expm1(np.minimum(x, 0.0)))
