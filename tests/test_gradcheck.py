"""The assembled-loss gradient checker and its sensitivity."""

import numpy as np
import pytest

from tablemt.autograd import Tensor
from tablemt.gradcheck import VacuousPointError, run_gradcheck


def test_gradcheck_passes_at_default_point():
    result = run_gradcheck(samples_per_group=2)
    assert result.passed, result.per_group
    assert result.max_rel_err < 1e-4
    assert len(result.per_group) == 21  # every parameter group checked


def test_gradcheck_deterministic():
    a = run_gradcheck(samples_per_group=1)
    b = run_gradcheck(samples_per_group=1)
    assert a.max_rel_err == b.max_rel_err
    assert a.per_group == b.per_group


@pytest.mark.parametrize("d,seed,why", [(6, 3, "no pseudo labels"), (6, 4, "inactive")])
def test_vacuous_point_is_a_named_error(d, seed, why):
    with pytest.raises(VacuousPointError, match=f"d={d}, seed={seed} is vacuous") as err:
        run_gradcheck(d=d, seed=seed, samples_per_group=0)
    assert why in str(err.value) and "try another seed" in str(err.value)


@pytest.mark.parametrize("factor", [1.05, np.nan])  # 5% off, or NaN everywhere
def test_gradcheck_negative_control_detects_corrupted_backward(monkeypatch, factor):
    """Break tanh's backward pass; the checker must fail loudly."""
    original = Tensor.tanh

    def broken_tanh(self):
        return self._unary(np.tanh(self.data), lambda g, y: g * (1.0 - y * y) * factor)

    monkeypatch.setattr(Tensor, "tanh", broken_tanh)
    result = run_gradcheck(samples_per_group=2)
    monkeypatch.setattr(Tensor, "tanh", original)
    assert not result.passed
