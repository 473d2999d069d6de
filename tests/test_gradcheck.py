import numpy as np

from gradcheck import ABS_FLOOR, worst_relative_error


def test_reports_small_relative_error_below_the_absolute_floor():
    # d/dx of 0.01 * x is 1e-2; an analytic value off by 9e-7 relative
    # differs by 9e-9, under ABS_FLOOR, and must still be reported
    x = np.array([1.0])
    analytic = np.array([0.01 * (1.0 + 9e-7)])
    assert abs(analytic[0] - 0.01) < ABS_FLOOR
    worst = worst_relative_error(lambda: 0.01 * x[0], [x], [analytic])
    assert 8e-7 < worst < 1e-6


def test_tiny_gradients_within_the_floor_are_not_reported():
    x = np.array([1.0])
    analytic = np.array([1e-9])
    assert worst_relative_error(lambda: 0.0 * x[0], [x], [analytic]) == 0.0
