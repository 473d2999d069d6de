"""Central finite-difference gradient checking shared by the test suite.

A gradient passes when its absolute difference from the numeric estimate
is below ABS_FLOOR (cancellation noise of a central difference on an
O(1) loss swamps gradients that small) or its relative error is within
REL_TOL. The reported error covers every entry of at least
ABS_FLOOR / REL_TOL in size, so it reads the real agreement of the
gradients that matter rather than 0 whenever all differences are tiny.
"""

EPS = 1e-6
REL_TOL = 1e-4
ABS_FLOOR = 1e-8


def worst_relative_error(loss_fn, arrays, analytic) -> float:
    """Max relative error over the scalar entries of every array.

    An entry counts when its difference exceeds ABS_FLOOR or when the
    larger of its numeric and analytic values is at least
    ABS_FLOOR / REL_TOL; the entries left out are tiny gradients that
    agree to within the floor.

    `arrays` are perturbed in place (and restored); `analytic` holds the
    matching gradient arrays.
    """
    worst = 0.0
    for a, g in zip(arrays, analytic):
        flat_a, flat_g = a.ravel(), g.ravel()
        for k in range(flat_a.size):
            old = flat_a[k]
            flat_a[k] = old + EPS
            lp = loss_fn()
            flat_a[k] = old - EPS
            lm = loss_fn()
            flat_a[k] = old
            numeric = (lp - lm) / (2.0 * EPS)
            diff = abs(numeric - flat_g[k])
            scale = max(abs(numeric), abs(flat_g[k]))
            if diff > ABS_FLOOR or scale >= ABS_FLOOR / REL_TOL:
                worst = max(worst, diff / scale)
    return worst
