"""The calibration kernel is fixed work, and relative costs divide by its bracket."""

import pytest

import run
from calibration import CalibrationKernel


def test_relative_cost_divides_by_the_mean_of_the_bracketing_kernel_runs():
    costs = run.relative_costs([0.010, 0.030], [0.002, 0.003, 0.003])
    assert costs == pytest.approx([4.0, 10.0])


def test_relative_costs_need_one_kernel_run_more_than_ops():
    with pytest.raises(AssertionError):
        run.relative_costs([0.010, 0.030], [0.002, 0.003])


def test_kernel_does_the_same_work_on_every_call():
    kernel = CalibrationKernel()
    assert kernel() == CalibrationKernel()() == kernel()
