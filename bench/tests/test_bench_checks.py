"""The benchmark's output checks accept correct outputs and reject perturbed ones."""

import numpy as np

import drax
import workloads
from reference import Reference


def test_probability_check_rejects_perturbed_probability():
    reference = np.array([0.1, 0.4, 0.3, 0.2])
    assert workloads.check_probabilities(list(reference), 1, reference)
    bumped = reference.copy()
    bumped[2] += 1e-6
    assert not workloads.check_probabilities(list(bumped), 1, reference)
    assert not workloads.check_probabilities(list(reference), 2, reference)


def test_gradient_check_rejects_perturbed_gradient():
    assert workloads.check_gradient_entry(0.5, 0.5 + 1e-9)
    assert not workloads.check_gradient_entry(0.5 * 1.001, 0.5)
    assert not workloads.check_gradient_entry(0.5, float("nan"))


def test_gradcheck_op_matches_and_a_perturbed_backward_fails(tmp_path):
    w = workloads.GradcheckTiny()
    w.setup(0, tmp_path)
    result = w.op(0)
    assert w.check(0, result)
    param, index = w.entries[1]
    w.analytic[param.name][index] += 1e-2
    assert not w.check(1, w.op(1))


def _tiny_step():
    config = drax.model.DraxConfig(
        d=8, heads=2, layers=1, appearance_dim=6, motion_dim=10, text_dim=5,
        max_positions=8, seed=3,
    )
    model = drax.model.DraxModel(config)
    spec = drax.data.SyntheticSpec(samples=1, frames=4, clips=3, question_len=2, answer_len=2,
                                   signal_dims=2, distractor_tokens=1, appearance_dim=6,
                                   motion_dim=10, text_dim=5, seed=3)
    bundle = drax.data.generate_synthetic(spec)[0]
    before = {n: a.copy() for n, a in model.param_arrays().items()}
    loss = drax.train.train_epoch(model, [bundle], 1)["loss"]
    grads = {p.name: p.grad for p in model.parameters()}
    direction = workloads._unit_direction(before, 0)
    return Reference(config), bundle, loss, before, model, grads, config, direction


def test_train_step_check_accepts_the_library_step():
    reference, bundle, loss, before, model, grads, config, direction = _tiny_step()
    assert workloads.check_train_step(reference, bundle, loss, before, model.param_arrays(),
                                      grads, config, direction)
    assert not workloads.check_train_step(reference, bundle, loss * (1 + 1e-6), before,
                                          model.param_arrays(), grads, config, direction)


def test_train_step_check_rejects_a_wrong_gradient_applied_consistently():
    reference, bundle, loss, before, model, grads, config, direction = _tiny_step()
    name = "decoder.w_a"
    wrong = dict(grads, **{name: grads[name] * 1.05})
    norm = np.sqrt(sum(float(np.sum(g * g)) for g in wrong.values() if g is not None))
    scale = config.learning_rate * min(1.0, config.grad_clip / norm)
    after = {n: b if wrong[n] is None else b - scale * wrong[n] for n, b in before.items()}
    assert not workloads.check_train_step(reference, bundle, loss, before, after, wrong,
                                          config, direction)


def test_eval_check_rejects_a_changed_file(tmp_path):
    w = workloads.EvalDefault()
    w.setup(0, tmp_path)
    bundle, report = w.op(0)
    assert w.check(0, (bundle, report))
    bundle.motion[0, 0] += 1.0
    assert not w.check(0, (bundle, report))
