import math

import numpy as np
import pytest
from mpmath import mp, mpf

import uavplace as up
from uavplace.channel import SPEED_OF_LIGHT_M_S, PathLossConstants, mean_snr, path_loss_constants
from uavplace.errors import InputError

# Frozen oracle values, computed with the 50-digit evaluation below.
P_LOS_OVERHEAD = 0.999975074537903
P_LOS_OPTIMAL_ANGLE = 0.9521201176356732
LOSS_646_707 = 100.0067739320565
LOSS_913_999 = 103.0084693235446


def hp_los_probability(theta_deg):
    """High-precision logistic evaluation, independent of the package."""
    mp.dps = 50
    a, b = mpf("9.61"), mpf("0.16")
    return float(1 / (1 + a * mp.exp(-b * (mpf(theta_deg) - a))))


def hp_blend_loss(h, r):
    """High-precision mean loss via the explicit two-state blend."""
    mp.dps = 50
    a, b = mpf("9.61"), mpf("0.16")
    eta_los, eta_nlos = mpf(1), mpf(20)
    fc, c = mpf("2e9"), mpf(299792458)
    h, r = mpf(h), mpf(r)
    d = mp.sqrt(h * h + r * r)
    fspl = 20 * mp.log10(4 * mp.pi * fc * d / c)
    theta_deg = mp.atan(h / r) * 180 / mp.pi if r > 0 else mpf(90)
    p = 1 / (1 + a * mp.exp(-b * (theta_deg - a)))
    return float((fspl + eta_los) * p + (fspl + eta_nlos) * (1 - p))


def blend_loss(h, r, env, radio):
    """Float mean loss via the two-state blend, an independent arithmetic route."""
    d = math.hypot(h, r)
    fspl = 20.0 * math.log10(4.0 * math.pi * radio.fc_hz * d / SPEED_OF_LIGHT_M_S)
    theta = math.degrees(math.atan2(h, r))
    p = up.los_probability(theta, env)
    return (fspl + env.eta_los_db) * p + (fspl + env.eta_nlos_db) * (1.0 - p)


class TestTypes:
    def test_environment_validation(self):
        with pytest.raises(InputError):
            up.Environment(a=0.0, b=0.16, eta_los_db=1.0, eta_nlos_db=20.0)
        with pytest.raises(InputError):
            up.Environment(a=9.61, b=-0.1, eta_los_db=1.0, eta_nlos_db=20.0)
        with pytest.raises(InputError):
            up.Environment(a=9.61, b=0.16, eta_los_db=21.0, eta_nlos_db=20.0)
        with pytest.raises(InputError):
            up.Environment(a=9.61, b=0.16, eta_los_db=-1.0, eta_nlos_db=20.0)

    def test_radio_validation(self):
        with pytest.raises(InputError):
            up.RadioConfig(fc_hz=0.0, pt_dbm=30.0, pn_dbm=-120.0)
        with pytest.raises(InputError):
            up.RadioConfig(fc_hz=2e9, pt_dbm=-120.0, pn_dbm=30.0)

    def test_urban_preset(self, urban):
        assert (urban.a, urban.b) == (9.61, 0.16)
        assert (urban.eta_los_db, urban.eta_nlos_db) == (1.0, 20.0)

    def test_path_loss_constants(self, urban, radio):
        k = path_loss_constants(urban, radio)
        assert k.delta_db == -19.0
        expected_offset = 20.0 * math.log10(4.0 * math.pi * 2e9 / SPEED_OF_LIGHT_M_S) + 20.0
        assert k.offset_db == pytest.approx(expected_offset, rel=1e-15)
        with pytest.raises(InputError):
            PathLossConstants(delta_db=1.0, offset_db=50.0)

    def test_qos_class_threshold_identity(self, radio):
        c = up.QosClass.from_radio(1, 50.0, 5.5, radio)
        assert c.l_th_db == radio.pt_dbm - radio.pn_dbm - 50.0
        assert c.l_th_db == 100.0

    def test_qos_class_validation(self, radio):
        with pytest.raises(InputError):
            up.QosClass.from_radio(-1, 50.0, 5.5, radio)
        with pytest.raises(InputError):
            up.QosClass.from_radio(1, 50.0, -0.5, radio)

    def test_sort_classes(self, radio):
        c1 = up.QosClass.from_radio(7, 50.0, 1.0, radio)  # l_th 100
        c2 = up.QosClass.from_radio(3, 47.0, 1.0, radio)  # l_th 103
        assert [c.id for c in up.sort_classes([c2, c1])] == [7, 3]
        with pytest.raises(InputError):
            up.sort_classes([])
        with pytest.raises(InputError):
            up.sort_classes([c1, c1])


class TestLosProbability:
    def test_curve_midpoint(self, urban):
        # exponent vanishes at theta == a, leaving 1 / (1 + a)
        assert up.los_probability(9.61, urban) == pytest.approx(1.0 / 10.61, rel=1e-12)

    def test_overhead(self, urban):
        p = up.los_probability(90.0, urban)
        assert p == pytest.approx(P_LOS_OVERHEAD, abs=1e-12)
        assert p == pytest.approx(hp_los_probability(90), abs=1e-12)

    def test_optimal_angle(self, urban):
        p = up.los_probability(42.44, urban)
        assert p == pytest.approx(P_LOS_OPTIMAL_ANGLE, abs=1e-12)
        assert p == pytest.approx(hp_los_probability("42.44"), abs=1e-12)

    def test_domain(self, urban):
        for theta in (0.0, -5.0, 90.0001, 180.0):
            with pytest.raises(InputError):
                up.los_probability(theta, urban)

    def test_strictly_increasing(self, urban):
        thetas = np.linspace(0.01, 90.0, 500)
        probs = [up.los_probability(t, urban) for t in thetas]
        assert all(b > a for a, b in zip(probs, probs[1:]))

    def test_increasing_in_h_fixed_r(self, urban):
        r = 500.0
        hs = np.linspace(1.0, 5000.0, 300)
        probs = [up.los_probability(math.degrees(math.atan2(h, r)), urban) for h in hs]
        assert all(b > a for a, b in zip(probs, probs[1:]))


class TestMeanPathLoss:
    def test_reference_geometry(self, urban, radio):
        loss = up.mean_path_loss(646.5, 707.1, urban, radio)
        assert loss == pytest.approx(100.0, abs=0.1)
        assert loss == pytest.approx(LOSS_646_707, abs=1e-9)
        assert loss == pytest.approx(hp_blend_loss("646.5", "707.1"), abs=1e-9)

    def test_upper_bracket_geometry(self, urban, radio):
        loss = up.mean_path_loss(913.0, 999.0, urban, radio)
        assert loss == pytest.approx(103.0, abs=0.1)
        assert loss == pytest.approx(LOSS_913_999, abs=1e-9)
        assert loss == pytest.approx(hp_blend_loss(913, 999), abs=1e-9)

    def test_overhead_limit(self, urban, radio):
        h = 646.5
        k = path_loss_constants(urban, radio)
        single_term = (
            k.delta_db / (1.0 + urban.a * math.exp(-urban.b * (90.0 - urban.a)))
            + 20.0 * math.log10(h)
            + k.offset_db
        )
        assert up.mean_path_loss(h, 0.0, urban, radio) == pytest.approx(single_term, rel=1e-12)

    def test_domain(self, urban, radio):
        with pytest.raises(InputError):
            up.mean_path_loss(0.0, 100.0, urban, radio)
        with pytest.raises(InputError):
            up.mean_path_loss(-5.0, 100.0, urban, radio)
        with pytest.raises(InputError):
            up.mean_path_loss(100.0, -1.0, urban, radio)

    def test_blend_equivalence(self, urban, radio):
        rng = np.random.default_rng(7)
        for _ in range(200):
            h = rng.uniform(1.0, 5000.0)
            r = rng.uniform(0.0, 5000.0)
            assert up.mean_path_loss(h, r, urban, radio) == pytest.approx(
                blend_loss(h, r, urban, radio), abs=1e-9
            )

    def test_strictly_increasing_in_r(self, urban, radio):
        for h in (10.0, 646.5, 2000.0):
            rs = np.logspace(-3, 6, 1000)
            losses = [up.mean_path_loss(h, r, urban, radio) for r in rs]
            assert all(b > a for a, b in zip(losses, losses[1:]))


class TestLinkBudget:
    def test_loss_threshold_values(self, radio):
        assert up.loss_threshold(radio, 50.0) == 100.0
        assert up.loss_threshold(radio, 47.0) == 103.0

    def test_loss_threshold_zero_gamma(self):
        for power in (-30.0, 0.0, 17.5):
            r = up.RadioConfig(fc_hz=2e9, pt_dbm=power, pn_dbm=power - 1.0)
            assert up.loss_threshold(r, 0.0) == pytest.approx(1.0)
        r = up.RadioConfig(fc_hz=2e9, pt_dbm=10.0, pn_dbm=10.0 - 150.0)
        assert up.loss_threshold(r, 150.0) == 0.0

    def test_mean_snr_reference(self, urban, radio):
        assert mean_snr(646.5, 707.1, urban, radio) == pytest.approx(50.0, abs=0.1)
        assert mean_snr(913.0, 999.0, urban, radio) == pytest.approx(47.0, abs=0.1)

    def test_snr_loss_identity(self, urban, radio):
        rng = np.random.default_rng(3)
        for _ in range(50):
            h = rng.uniform(1.0, 3000.0)
            r = rng.uniform(0.0, 3000.0)
            loss = up.mean_path_loss(h, r, urban, radio)
            assert mean_snr(h, r, urban, radio) == radio.pt_dbm - loss - radio.pn_dbm

    def test_coverage_predicate_duality(self, urban, radio):
        rng = np.random.default_rng(13)
        for _ in range(300):
            h = rng.uniform(1.0, 3000.0)
            r = rng.uniform(0.0, 3000.0)
            gamma = rng.uniform(30.0, 70.0)
            covered_by_snr = mean_snr(h, r, urban, radio) >= gamma
            covered_by_loss = up.mean_path_loss(h, r, urban, radio) <= up.loss_threshold(
                radio, gamma
            )
            assert covered_by_snr == covered_by_loss
