"""CKA and effective receptive fields."""

import numpy as np
import pytest

from sparx import nd
from sparx.analysis import (AnalysisError, ErfMap, cka_linear, cka_matrix, cka_matrix_csv, erf,
                            erf_map)
from sparx.backbone import build
from sparx.config import get_variant
from sparx.nd import Tensor


class TestCka:
    def test_self_similarity_is_one(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((32, 12))
        assert abs(cka_linear(a, a) - 1.0) <= 1e-6

    def test_orthogonal_and_scale_invariance(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal((40, 10))
        q, _ = np.linalg.qr(rng.standard_normal((10, 10)))
        assert abs(cka_linear(a, 2.5 * (a @ q)) - 1.0) <= 1e-6

    def test_symmetry_exact(self):
        rng = np.random.default_rng(2)
        a = rng.standard_normal((24, 8))
        b = rng.standard_normal((24, 16))
        assert cka_linear(a, b) == cka_linear(b, a)

    def test_independent_normals_have_low_alignment(self):
        # the null distribution at n=64, dim=32 sits near 0.33 (the biased
        # linear index does not vanish when dim/n is large); well below the
        # aligned regime either way, and shrinking with dim
        for seed in range(5):
            rng = np.random.default_rng(seed)
            a = rng.standard_normal((64, 32))
            b = rng.standard_normal((64, 32))
            assert 0.0 <= cka_linear(a, b) < 0.4
        for seed in range(5):
            rng = np.random.default_rng(seed)
            a = rng.standard_normal((64, 8))
            b = rng.standard_normal((64, 8))
            assert 0.0 <= cka_linear(a, b) < 0.3

    def test_zero_variance_rejected(self):
        with pytest.raises(AnalysisError, match="zero-variance"):
            cka_linear(np.ones((8, 4)), np.random.default_rng(3).standard_normal((8, 4)))

    def test_row_count_mismatch_rejected(self):
        rng = np.random.default_rng(4)
        with pytest.raises(AnalysisError, match="rows"):
            cka_matrix([rng.standard_normal((8, 4)), rng.standard_normal((9, 4))])

    def test_matrix_of_identical_layers_is_ones(self):
        rng = np.random.default_rng(5)
        a = rng.standard_normal((16, 6))
        m = cka_matrix([a, a.copy()])
        assert np.allclose(m, 1.0, atol=1e-6)

    def test_matrix_symmetric_with_unit_diagonal(self):
        rng = np.random.default_rng(6)
        feats = [rng.standard_normal((20, d)) for d in (4, 8, 5)]
        m = cka_matrix(feats)
        assert np.array_equal(m, m.T)
        assert np.allclose(np.diag(m), 1.0)
        assert np.all((m >= 0) & (m <= 1 + 1e-12))

    def test_csv_emission_deterministic(self):
        rng = np.random.default_rng(7)
        feats = [rng.standard_normal((10, 3)) for _ in range(3)]
        m = cka_matrix(feats)
        labels = ["l1", "l2", "l3"]
        assert cka_matrix_csv(m, labels) == cka_matrix_csv(m.copy(), list(labels))


class TestErf:
    def test_single_dwconv_has_exact_3x3_support(self):
        rng = np.random.default_rng(8)
        w = Tensor(rng.standard_normal((1, 3, 3)))
        images = [rng.standard_normal((1, 9, 9)) for _ in range(3)]
        m = erf_map(lambda img: nd.dwconv(img, w, pad=1), images)
        support = m.support()
        assert support.sum() == 9
        ys, xs = np.where(support)
        assert ys.min() == 3 and ys.max() == 5 and xs.min() == 3 and xs.max() == 5

    def test_stacked_convs_grow_to_5x5(self):
        rng = np.random.default_rng(9)
        w1 = Tensor(rng.standard_normal((1, 3, 3)))
        w2 = Tensor(rng.standard_normal((1, 3, 3)))
        images = [rng.standard_normal((1, 9, 9)) for _ in range(3)]
        m = erf_map(lambda img: nd.dwconv(nd.dwconv(img, w1, pad=1), w2, pad=1), images)
        assert m.support().sum() == 25

    def test_values_normalized_and_deterministic(self):
        rng = np.random.default_rng(10)
        w = Tensor(rng.standard_normal((2, 3, 3)))
        images = [rng.standard_normal((2, 7, 7)) for _ in range(2)]
        m1 = erf_map(lambda img: nd.dwconv(img, w, pad=1), images)
        m2 = erf_map(lambda img: nd.dwconv(img, w, pad=1), [i.copy() for i in images])
        assert m1.values.max() == 1.0 and m1.values.min() >= 0.0
        assert np.array_equal(m1.values, m2.values)

    def test_deep_stage_support_contains_early_stage(self):
        cfg = get_variant("tiny-reduced")
        model = build(cfg, 0, dtype=np.float64)
        rng = np.random.default_rng(11)
        images = [rng.standard_normal((3, 32, 32)) for _ in range(2)]
        s1 = erf(model, 1, images).support()
        s4 = erf(model, 4, images).support()
        assert np.all(s4[s1])
        assert s4.sum() >= s1.sum()

    def test_probe_stage_out_of_range(self):
        model = build(get_variant("tiny-reduced"), 0)
        with pytest.raises(AnalysisError, match="probe stage"):
            erf(model, 5, [np.zeros((3, 32, 32))])

    def test_pgm_rendering(self):
        m = ErfMap(np.array([[0.0, 1.0], [0.5, 0.25]]), (0, 1))
        text = m.to_pgm()
        assert text.startswith("P2\n2 2\n255\n")
        assert "255" in text.splitlines()[3]
