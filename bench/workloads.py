"""The benchmark's three workloads and the checks on their outputs.

Each workload builds its inputs from the seed in `setup`, then runs ops one
at a time: `prepare` (untimed), `op` (timed) and `check` (untimed, True when
the op's output is correct). The library is called through module attributes
(`drax.train.evaluate`, ...) at call time, so a traced run sees every call.

- train-default: one single-sample SGD step through `train_epoch` on the
  default config and the default synthetic spec. It is the only workload in
  which backward and the SGD update do work.
- eval-default: `read_features` on one DRXF file plus `evaluate` on it, with
  a freshly initialised model reloaded from a checkpoint written in set-up,
  and files generated from a held-out seed (the workload seed plus one).
  Forward only, with disk reads and the checkpoint in set-up.
- gradcheck-tiny: one central difference of one parameter entry of the
  criterion-5 model under frozen masks (two no-grad forwards), checked
  against a shared backward. Its FLOPs are negligible, so it isolates the
  per-op overhead of the tensor layer.
"""

from __future__ import annotations

import math

import numpy as np

import drax.checkpoint
import drax.data
import drax.distraction
import drax.model
import drax.tensor
import drax.train
from reference import Reference

# Tolerances. The reference forward agrees with the library to about 1e-15
# at this commit; a directional finite difference with step 1e-4 agrees with
# the analytic directional derivative to about 1e-10.
LOSS_TOL = 1e-9
PROB_TOL = 1e-9
UPDATE_TOL = 1e-12
DIRECTION_STEP = 1e-4
DIRECTION_TOL = 1e-7
GRADCHECK_STEP = 1e-6
GRADCHECK_TOL = 1e-4  # the criterion-5 bound

EVAL_FILES = 32
GRADCHECK_PASS = 512


def relative_error(analytic: float, numeric: float) -> float:
    """|a - n| / max(1, |a|, |n|), the criterion-5 measure."""
    return abs(analytic - numeric) / max(1.0, abs(analytic), abs(numeric))


def check_probabilities(probs, prediction: int, reference) -> bool:
    """Probabilities within PROB_TOL of the reference, same prediction.

    The prediction may differ only where the reference's top two
    probabilities are within PROB_TOL of each other.
    """
    probs, reference = np.asarray(probs, dtype=np.float64), np.asarray(reference)
    if probs.shape != reference.shape or not np.all(np.abs(probs - reference) <= PROB_TOL):
        return False
    return bool(reference[prediction] >= reference.max() - PROB_TOL)


def check_gradient_entry(analytic: float, numeric: float) -> bool:
    return math.isfinite(numeric) and relative_error(analytic, numeric) < GRADCHECK_TOL


class TrainDefault:
    name = "train-default"

    def setup(self, seed: int, workdir) -> None:
        self.dataset = drax.data.generate_synthetic(drax.data.SyntheticSpec(seed=seed))
        self.model = drax.model.DraxModel(drax.model.DraxConfig(seed=seed))
        self.reference = Reference(self.model.config)
        self.seed = seed
        self.direction = None

    def prepare(self, i: int) -> None:
        self.before = {name: array.copy() for name, array in self.model.param_arrays().items()}

    def op(self, i: int):
        bundle = self.dataset[i % len(self.dataset)]
        return bundle, drax.train.train_epoch(self.model, [bundle], i + 1)

    def check(self, i: int, result) -> bool:
        bundle, metrics = result
        grads = {p.name: p.grad for p in self.model.parameters()}
        if self.direction is None:
            self.direction = _unit_direction(self.before, self.seed)
        return check_train_step(
            self.reference, bundle, metrics["loss"], self.before,
            self.model.param_arrays(), grads, self.model.config, self.direction,
        )


def _unit_direction(params: dict, seed: int) -> dict:
    """A random unit vector over all parameters, from a stream of its own."""
    rng = np.random.default_rng([seed, 7])
    direction = {name: rng.normal(size=array.shape) for name, array in params.items()}
    norm = math.sqrt(sum(float(np.sum(d * d)) for d in direction.values()))
    return {name: d / norm for name, d in direction.items()}


def check_train_step(reference, bundle, loss, before, after, grads, config,
                     direction) -> bool:
    """One SGD step is correct when all of these hold:

    - the loss is finite and equals the reference loss at the pre-step
      parameters;
    - the analytic derivative along `direction` matches a central
      difference of the reference loss, with masks frozen;
    - every parameter moved by exactly the (clipped) SGD update.
    """
    ref_loss, _, _, masks = reference.run(before, bundle)
    if not math.isfinite(loss) or abs(loss - ref_loss) > LOSS_TOL * max(1.0, abs(ref_loss)):
        return False
    zero = np.zeros(())
    norm = math.sqrt(sum(float(np.sum(g * g)) for g in grads.values() if g is not None))
    analytic = sum(
        float(np.sum((grads[n] if grads[n] is not None else zero) * d))
        for n, d in direction.items()
    )
    step = DIRECTION_STEP
    hi = reference.run({n: before[n] + step * d for n, d in direction.items()}, bundle, masks)[0]
    lo = reference.run({n: before[n] - step * d for n, d in direction.items()}, bundle, masks)[0]
    if abs(analytic - (hi - lo) / (2.0 * step)) > DIRECTION_TOL * max(1.0, norm):
        return False
    scale = config.learning_rate
    if config.grad_clip > 0.0 and norm > config.grad_clip:
        scale *= config.grad_clip / norm
    for name, old in before.items():
        moved = after[name] - old
        expected = zero if grads[name] is None else -scale * grads[name]
        if np.max(np.abs(moved - expected)) > UPDATE_TOL * max(1.0, np.max(np.abs(old))):
            return False
    return True


class EvalDefault:
    name = "eval-default"

    def setup(self, seed: int, workdir) -> None:
        config = drax.model.DraxConfig(seed=seed)
        written = drax.model.DraxModel(config)
        ckpt = workdir / "model.ckpt"
        drax.checkpoint.save_checkpoint(written, ckpt)
        spec = drax.data.SyntheticSpec(samples=EVAL_FILES, seed=seed + 1)
        self.bundles = drax.data.generate_synthetic(spec)
        drax.data.save_dataset(self.bundles, workdir / "data", spec)
        self.files = sorted((workdir / "data").glob("*.drxf"))
        self.model = drax.checkpoint.load_model(ckpt)
        self.params = {name: array.copy() for name, array in written.param_arrays().items()}
        self.reference = Reference(config)
        self.expected: dict[int, np.ndarray] = {}

    def prepare(self, i: int) -> None:
        pass

    def op(self, i: int):
        bundle = drax.data.read_features(self.files[i % len(self.files)])
        return bundle, drax.train.evaluate(self.model, [bundle])

    def check(self, i: int, result) -> bool:
        bundle, report = result
        k = i % len(self.files)
        stored = _as_stored(self.bundles[k])
        if not _same_bundle(bundle, stored):
            return False
        if k not in self.expected:
            self.expected[k] = self.reference.run(self.params, stored)[1]
        sample = report["samples"][0]
        return check_probabilities(sample["probabilities"], sample["prediction"],
                                   self.expected[k])


def _as_stored(bundle):
    """The bundle as DRXF stores it: every array rounded to float32."""

    def f32(array):
        return np.asarray(array, dtype=np.float32).astype(np.float64)

    return drax.data.FeatureBundle(
        appearance=f32(bundle.appearance), motion=f32(bundle.motion),
        question=f32(bundle.question), answers=tuple(f32(a) for a in bundle.answers),
        label=bundle.label,
    )


def _same_bundle(a, b) -> bool:
    pairs = [(a.appearance, b.appearance), (a.motion, b.motion), (a.question, b.question)]
    pairs += list(zip(a.answers, b.answers))
    return a.label == b.label and all(np.array_equal(x, y) for x, y in pairs)


class GradcheckTiny:
    name = "gradcheck-tiny"

    def setup(self, seed: int, workdir) -> None:
        config = drax.model.DraxConfig(
            d=8, heads=2, layers=1, appearance_dim=6, motion_dim=10, text_dim=5,
            max_positions=8, seed=seed,
        )
        self.model = drax.model.DraxModel(config)
        rng = np.random.default_rng([seed, 5])
        self.bundle = drax.data.FeatureBundle(
            appearance=rng.normal(size=(4, 6)), motion=rng.normal(size=(3, 10)),
            question=rng.normal(size=(2, 5)),
            answers=tuple(rng.normal(size=(2, 5)) for _ in range(4)),
            label=int(rng.integers(4)),
        )
        live = self.model.make_masker(record="full")
        self.model.sample_loss(self.bundle, live)
        self.frozen = live.frozen_masks()
        self.entries = _entry_sample(self.model.parameters(), rng, GRADCHECK_PASS)
        self.analytic = None

    def _loss(self):
        replay = drax.distraction.MaskController(mode="replay", frozen=self.frozen)
        return self.model.sample_loss(self.bundle, replay)[0]

    def prepare(self, i: int) -> None:
        pass

    def op(self, i: int):
        if i % len(self.entries) == 0:
            # Each pass over the sample starts with one backward that all of
            # its central differences are checked against.
            loss = self._loss()
            self.model.zero_grad()
            drax.tensor.backward(loss)
            self.analytic = {
                p.name: (np.zeros_like(p.data) if p.grad is None else p.grad.copy())
                for p in self.model.parameters()
            }
        param, index = self.entries[i % len(self.entries)]
        original = param.data[index]
        param.data[index] = original + GRADCHECK_STEP
        with drax.tensor.no_grad():
            hi = self._loss().item()
        param.data[index] = original - GRADCHECK_STEP
        with drax.tensor.no_grad():
            lo = self._loss().item()
        param.data[index] = original
        return float(self.analytic[param.name][index]), (hi - lo) / (2.0 * GRADCHECK_STEP)

    def check(self, i: int, result) -> bool:
        return check_gradient_entry(*result)


def _entry_sample(params, rng, size: int) -> list:
    """One entry of every parameter, then random entries, in a shuffled order."""
    entries = [(p, tuple(int(rng.integers(n)) for n in p.shape)) for p in params]
    weights = np.array([p.size for p in params], dtype=np.float64)
    for k in rng.choice(len(params), size=max(0, size - len(entries)), p=weights / weights.sum()):
        p = params[int(k)]
        entries.append((p, tuple(int(rng.integers(n)) for n in p.shape)))
    order = rng.permutation(len(entries))
    return [entries[int(k)] for k in order]


WORKLOADS = {w.name: w for w in (TrainDefault, EvalDefault, GradcheckTiny)}
