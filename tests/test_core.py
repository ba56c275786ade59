import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from morreykit import (
    Annulus,
    Ball,
    FiniteVectorTuple,
    MorreyParams,
    NormMethod,
    NormReport,
    ParameterError,
    PiecewiseRadialPower,
    sign_matrix,
    sphere_area,
)
from morreykit.core import thread_count


def test_sphere_area_known_values():
    assert math.isclose(sphere_area(1), 2.0, rel_tol=1e-14)
    assert math.isclose(sphere_area(2), 2.0 * math.pi, rel_tol=1e-14)
    assert math.isclose(sphere_area(3), 4.0 * math.pi, rel_tol=1e-14)


@pytest.mark.parametrize("bad", [0, -1, 2.0, "3", None])
def test_sphere_area_rejects_bad_dimension(bad):
    with pytest.raises(ParameterError):
        sphere_area(bad)


def test_sphere_area_cache_keeps_validation():
    # True == 1 and 2.0 == 2 as cache keys: the cached values must not
    # answer for them.
    sphere_area(1), sphere_area(2)
    for bad in (True, 2.0):
        with pytest.raises(ParameterError):
            sphere_area(bad)
    d = 5
    assert sphere_area(d) == math.exp(
        math.log(2.0) + 0.5 * d * math.log(math.pi) - math.lgamma(0.5 * d))


valid_params = st.builds(
    MorreyParams,
    p=st.floats(min_value=1.0, max_value=5.0),
    q=st.floats(min_value=5.3, max_value=9.0),
    d=st.integers(min_value=1, max_value=6),
)


@given(valid_params)
def test_alpha_and_sphere_area_positive(params):
    assert params.alpha > 0
    assert params.sphere_area > 0


@pytest.mark.parametrize("p,q,d", [
    (2.0, 2.0, 1),   # p == q is the L^q case, out of scope
    (0.5, 2.0, 1),
    (3.0, 2.0, 1),
    (1.0, 2.0, 0),
    (1.0, math.inf, 1),
])
def test_params_validation(p, q, d):
    with pytest.raises(ParameterError):
        MorreyParams(p=p, q=q, d=d)


def test_annulus_validation():
    Annulus(0.0, 1.0)
    Annulus(0.5, math.inf)
    with pytest.raises(ParameterError):
        Annulus(1.0, 1.0)  # degenerate
    with pytest.raises(ParameterError):
        Annulus(2.0, 1.0)
    with pytest.raises(ParameterError):
        Annulus(-0.1, 1.0)


def test_ball_validation():
    Ball(0.0, 0.5)
    with pytest.raises(ParameterError):
        Ball(-1.0, 1.0)
    with pytest.raises(ParameterError):
        Ball(0.0, 0.0)
    with pytest.raises(ParameterError):
        Ball(0.0, math.inf)


class TestPiecewiseRadialPower:
    params = MorreyParams(1.0, 2.0, 1)

    def test_requires_segments(self):
        with pytest.raises(ParameterError):
            PiecewiseRadialPower(self.params, ())

    def test_rejects_overlap(self):
        segs = ((Annulus(0.0, 1.0), 1.0), (Annulus(0.5, 2.0), 1.0))
        with pytest.raises(ParameterError):
            PiecewiseRadialPower(self.params, segs)

    def test_rejects_unsorted(self):
        segs = ((Annulus(1.0, 2.0), 1.0), (Annulus(0.0, 1.0), 1.0))
        with pytest.raises(ParameterError):
            PiecewiseRadialPower(self.params, segs)

    def test_contiguous_allowed(self):
        segs = ((Annulus(0.0, 1.0), 1.0), (Annulus(1.0, 2.0), -0.5))
        profile = PiecewiseRadialPower(self.params, segs)
        assert profile.support_radius == 2.0
        assert not profile.is_pure_power

    def test_unbounded_only_as_pure_power(self):
        pure = PiecewiseRadialPower.pure_power(self.params)
        assert pure.is_pure_power
        with pytest.raises(ParameterError):
            PiecewiseRadialPower(self.params, ((Annulus(0.0, math.inf), 2.0),))
        with pytest.raises(ParameterError):
            PiecewiseRadialPower(self.params, ((Annulus(1.0, math.inf), 1.0),))
        with pytest.raises(ParameterError):
            PiecewiseRadialPower(
                self.params,
                ((Annulus(0.0, 1.0), 1.0), (Annulus(1.0, math.inf), 1.0)),
            )

    def test_annular_chunk_boundaries(self):
        chunk = PiecewiseRadialPower.annular_chunk(self.params, 0.5, 2)
        ann = chunk.segments[0][0]
        assert math.isclose(ann.r_lo, 0.125, rel_tol=1e-15)
        assert math.isclose(ann.r_hi, 0.25, rel_tol=1e-15)

    def test_scaling_helpers(self):
        profile = PiecewiseRadialPower.power_restriction(self.params, 0.25, 1.0)
        doubled = profile.scale_coefficients(2.0)
        assert doubled.coefficients[0] == 2.0
        dilated = profile.scale_annuli(3.0)
        assert dilated.segments[0][0].r_hi == 3.0
        with pytest.raises(ParameterError):
            profile.scale_annuli(0.0)


def test_norm_report_validation():
    ball = Ball(0.0, 1.0)
    NormReport(1.0, ball, NormMethod.CLOSED_FORM, 0.0)
    with pytest.raises(ParameterError):
        NormReport(1.0, ball, NormMethod.CLOSED_FORM, 1e-9)
    with pytest.raises(ParameterError):
        NormReport(-1.0, ball, NormMethod.CENTERED_SEARCH, 0.0)


class TestSignMatrix:
    def test_n2(self):
        m = sign_matrix(2)
        assert m.entries.tolist() == [[1, 1], [1, -1]]

    def test_n3_rows(self):
        m = sign_matrix(3)
        assert m.entries.tolist() == [
            [1, 1, 1, 1],
            [1, 1, -1, -1],
            [1, -1, 1, -1],
        ]

    def test_n4_second_row(self):
        m = sign_matrix(4)
        assert m.entries[1].tolist() == [1, 1, 1, 1, -1, -1, -1, -1]

    @pytest.mark.parametrize("bad", [1, 0, 21, -3, 2.0])
    def test_bounds(self, bad):
        with pytest.raises(ParameterError):
            sign_matrix(bad)

    @pytest.mark.parametrize("n", range(2, 11))
    def test_walsh_orthogonality(self, n):
        # product of two distinct rows (beyond the constant one) is balanced
        m = sign_matrix(n).entries.astype(int)
        for i in range(1, n):
            for j in range(i + 1, n):
                product = m[i] * m[j]
                assert np.sum(product == 1) == 2 ** (n - 2)
                assert np.sum(product == -1) == 2 ** (n - 2)

    @pytest.mark.parametrize("n", range(2, 11))
    def test_columns_enumerate_sign_patterns(self, n):
        m = sign_matrix(n).entries
        patterns = {tuple(int(x) for x in m[1:, c]) for c in range(m.shape[1])}
        assert len(patterns) == 2 ** (n - 1)

    def test_block_structure(self):
        for n in (2, 3, 5, 7):
            m = sign_matrix(n).entries
            for i in range(1, n + 1):
                row = m[i - 1]
                block = 2 ** (n - i)
                expected = np.tile(
                    np.concatenate([np.ones(block), -np.ones(block)]),
                    2 ** (n - 1) // (2 * block) or 1,
                )[: 2 ** (n - 1)]
                assert row.tolist() == expected.astype(int).tolist()


def test_finite_vector_tuple_validation():
    FiniteVectorTuple(vectors=np.eye(2))
    with pytest.raises(ParameterError):
        FiniteVectorTuple(vectors=np.ones((1, 3)))
    with pytest.raises(ParameterError):
        FiniteVectorTuple(vectors=np.ones((2, 2)), norm="what")
    with pytest.raises(ParameterError):
        FiniteVectorTuple(vectors=np.ones((2, 2)), norm="lp", exponent=0.5)
    lp = FiniteVectorTuple(vectors=np.array([[3.0, 4.0], [1.0, 0.0]]),
                           norm="lp", exponent=1.0)
    assert np.allclose(lp.vector_norms(), [7.0, 1.0])


def test_thread_count_env(monkeypatch):
    monkeypatch.delenv("MORREYKIT_THREADS", raising=False)
    assert thread_count() == 1
    monkeypatch.setenv("MORREYKIT_THREADS", "4")
    assert thread_count() == 4
    monkeypatch.setenv("MORREYKIT_THREADS", "0")
    with pytest.raises(ParameterError):
        thread_count()
    monkeypatch.setenv("MORREYKIT_THREADS", "two")
    with pytest.raises(ParameterError):
        thread_count()
