import numpy as np
import pytest

from dapd.deterministic import (
    SolverSchedule,
    make_schedule,
    validate_schedule,
)
from dapd.errors import ConfigurationError

from oracles import geometric_schedule


class TestMakeSchedule:
    def test_case_i_unit_constants(self):
        s = make_schedule(gamma=1.0, mu=1.0, R=1.0)
        assert s.regime == "sc_smooth"
        assert s.eta(0) == 1.0 and s.tau(0) == 1.0
        for t in range(5):
            assert s.beta(t) == pytest.approx(2.0**t)
        # B_{t-1} = 2^t - 1
        assert sum(s.beta(k) for k in range(4)) == pytest.approx(2.0**4 - 1)

    def test_case_ii_first_step(self):
        s = make_schedule(gamma=1.0, mu=0.0, R=1.0, L=1.0)
        assert s.regime == "smooth_only"
        assert s.eta(0) == pytest.approx(1 / 3)
        assert s.beta(0) == pytest.approx(1 / 3)
        assert s.tau(0) == pytest.approx(3.0)

    def test_case_iii(self):
        s = make_schedule(gamma=0.0, mu=2.0, R=1.5)
        assert s.regime == "sc_only"
        assert s.eta(0) == pytest.approx(4 / 2)
        assert s.tau(0) == pytest.approx(2 / (4 * 1.5**2))
        assert s.beta(0) == pytest.approx(1.0)

    def test_case_iv(self):
        s = make_schedule(gamma=0.0, mu=0.0, R=2.0, L=1.0, case_iv_tau=1.0)
        assert s.regime == "neither"
        for t in (0, 7):
            assert s.eta(t) == pytest.approx(0.25)
            assert s.beta(t) == pytest.approx(0.25)
            assert s.tau(t) == 1.0

    def test_case_iv_default_tau(self):
        s = make_schedule(gamma=0.0, mu=0.0, R=1.0, L=1.0)
        assert s.tau(3) == 1.0

    def test_missing_lipschitz_rejected(self):
        with pytest.raises(ConfigurationError):
            make_schedule(gamma=1.0, mu=0.0, R=1.0)
        with pytest.raises(ConfigurationError):
            make_schedule(gamma=0.0, mu=0.0, R=1.0)

    def test_bad_R(self):
        with pytest.raises(ConfigurationError):
            make_schedule(gamma=1.0, mu=1.0, R=0.0)

    def test_case_i_beta_ratio_exact(self):
        s = make_schedule(gamma=0.5, mu=0.2, R=3.0)
        xi = 1.0 + np.sqrt(0.5 * 0.2) / 3.0
        for t in range(4):
            assert s.beta(t + 1) / s.beta(t) == pytest.approx(xi, rel=1e-15)
            assert s.beta_ratio(t) == pytest.approx(xi, rel=1e-15)


class TestValidateSchedule:
    def test_case_i_equality_feasible(self):
        s = make_schedule(gamma=1.0, mu=1.0, R=1.0)
        assert validate_schedule(s, gamma=1.0, mu=1.0, R=1.0, horizon=200) == []

    def test_case_iii_long_horizon(self):
        s = make_schedule(gamma=0.0, mu=0.7, R=2.0)
        assert validate_schedule(s, gamma=0.0, mu=0.7, R=2.0, horizon=10_000) == []

    def test_doubled_beta_violates(self):
        base = make_schedule(gamma=1.0, mu=1.0, R=1.0)
        bad = SolverSchedule(
            regime=base.regime,
            eta=base.eta,
            tau=base.tau,
            beta=lambda t: 2.0 * base.beta(t),
            beta_ratio=base.beta_ratio,
        )
        violations = validate_schedule(bad, gamma=1.0, mu=1.0, R=1.0, horizon=5)
        assert violations and violations[0].t == 0
        assert violations[0].condition == "dual_averaging_growth"

    def test_oversized_steps_violate_product(self):
        bad = geometric_schedule(eta=2.0, tau=2.0, beta0=1.0, xi=1.0)
        violations = validate_schedule(bad, gamma=0.0, mu=0.0, R=1.0, horizon=3)
        assert any(v.condition == "step_product" for v in violations)

    def test_geometric_overflow_safe(self):
        # beta_t = 2^t would overflow floats near t ~ 1024; ratio bookkeeping must not
        s = make_schedule(gamma=1.0, mu=1.0, R=1.0)
        assert validate_schedule(s, gamma=1.0, mu=1.0, R=1.0, horizon=10_000) == []

    @pytest.mark.parametrize("gamma", [0.0, 0.5, 2.0])
    @pytest.mark.parametrize("mu", [0.0, 0.05, 1.0])
    @pytest.mark.parametrize("R", [0.5, 4.0])
    def test_all_regimes_feasible(self, gamma, mu, R):
        s = make_schedule(gamma=gamma, mu=mu, R=R, L=1.0)
        assert validate_schedule(s, gamma=gamma, mu=mu, R=R, horizon=2000) == []
