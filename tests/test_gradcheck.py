"""Finite-difference machinery and the full gradient audit."""

import numpy as np
import pytest

from attnens.errors import ConfigError, PrecisionError
from attnens.gradcheck import (
    AUDIT_NAMES,
    TOLERANCE,
    audit_gradients,
    grad_check,
    numeric_gradient,
    relative_error,
)


class TestNumericGradient:
    def test_quadratic_exact(self):
        # f(x) = sum(x^2) has gradient 2x; central differences are exact for quadratics
        x = np.array([1.0, -2.0, 0.5])
        g = numeric_gradient(lambda v: float((v**2).sum()), x)
        np.testing.assert_allclose(g, 2 * x, rtol=1e-9)

    def test_trig(self):
        x = np.linspace(0.1, 1.5, 7)
        g = numeric_gradient(lambda v: float(np.sin(v).sum()), x)
        np.testing.assert_allclose(g, np.cos(x), rtol=1e-7)

    def test_rejects_float32(self):
        with pytest.raises(PrecisionError):
            numeric_gradient(lambda v: float(v.sum()), np.zeros(3, dtype=np.float32))

    def test_relative_error_conventions(self):
        assert relative_error(np.zeros(3), np.zeros(3)) == 0.0
        # denominator is floored at 1, so small absolute differences stay small
        assert relative_error(np.array([1e-8]), np.array([0.0])) == pytest.approx(1e-8)

    def test_grad_check_accepts_matching(self):
        x = np.array([0.3, -0.7, 1.2])
        err = grad_check(lambda v: float((v**3).sum()), x, 3 * x**2)
        assert err < TOLERANCE

    def test_grad_check_flags_wrong_gradient(self):
        x = np.array([0.3, -0.7, 1.2])
        err = grad_check(lambda v: float((v**3).sum()), x, 2 * x**2)
        assert err > TOLERANCE


class TestAudit:
    def test_all_rows_pass_default_seed(self):
        rows = audit_gradients(seed=0)
        assert tuple(r.name for r in rows) == AUDIT_NAMES
        for row in rows:
            assert row.passed, f"{row.name}: {row.max_rel_err}"

    def test_audit_covers_every_block_kind(self):
        names = set(AUDIT_NAMES)
        for expected in (
            "conv2d",
            "dense",
            "relu",
            "sigmoid",
            "gap",
            "dropout",
            "maxpool",
            "channel_attention",
            "softmax_cross_entropy",
        ):
            assert expected in names

    def test_audit_stable_across_repeat(self):
        a = audit_gradients(seed=3)
        b = audit_gradients(seed=3)
        for ra, rb in zip(a, b):
            assert ra.max_rel_err == rb.max_rel_err

    def test_negative_seed_is_config_error(self):
        # SeedSequence would refuse it with a bare ValueError.
        with pytest.raises(ConfigError, match="seed"):
            audit_gradients(seed=-1)

    def test_corrupt_hook_fails_named_row(self):
        rows = audit_gradients(seed=0, corrupt="dense")
        by_name = {r.name: r for r in rows}
        assert not by_name["dense"].passed
        assert by_name["conv2d"].passed
