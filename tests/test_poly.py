import numpy as np
import pytest

from aerotrack.errors import OutOfDomain
from aerotrack.poly import PiecewisePoly
from oracles import sample_quintic


def random_quintic(rng, n_pieces):
    scale = 10.0 ** rng.uniform(-3, 2, (n_pieces, 3, 6))
    return PiecewisePoly(rng.normal(size=(n_pieces, 3, 6)) * scale,
                         rng.uniform(0.05, 2.0, n_pieces))


class TestEval:
    def test_matches_scalar_formula(self):
        # positions and velocities bit for bit; accelerations to rounding,
        # because batched powers may round tau**3 differently from a scalar
        rng = np.random.default_rng(0)
        for _ in range(40):
            traj = random_quintic(rng, int(rng.integers(1, 6)))
            ts = np.concatenate([rng.uniform(0.0, traj.duration, 50),
                                 np.cumsum(traj.durations), [0.0]])
            p, v, a = (traj.eval(ts, order) for order in range(3))
            for i, t in enumerate(ts):
                p_ref, v_ref, a_ref = sample_quintic(traj, t)
                assert np.array_equal(p[i], p_ref)
                assert np.array_equal(v[i], v_ref)
                assert np.all(np.abs(a[i] - a_ref) <= 1e-12 * (1.0 + np.abs(a_ref)))

    def test_knots_start_the_next_piece(self):
        rng = np.random.default_rng(1)
        traj = random_quintic(rng, 4)
        knots = np.cumsum(traj.durations)[:-1]
        # the piece's constant term, with no rounding from the local time
        assert np.array_equal(traj.eval(knots), traj.coeffs[1:, :, 0])
        assert np.array_equal(traj.eval(knots, 1), traj.coeffs[1:, :, 1])
        # the end of the domain belongs to the last piece
        assert np.allclose(traj.eval(traj.duration), traj.eval_local(3, traj.durations[-1]),
                           rtol=1e-12, atol=0.0)

    def test_out_of_domain(self):
        traj = random_quintic(np.random.default_rng(2), 2)
        for t in (-1e-6, traj.duration + 1e-6, [0.0, traj.duration + 1.0]):
            with pytest.raises(OutOfDomain):
                traj.eval(t)
        # within 1e-9 of the ends the time is clipped onto the domain
        assert np.array_equal(traj.eval(-5e-10), traj.eval(0.0))
        assert np.array_equal(traj.eval(traj.duration + 5e-10), traj.eval(traj.duration))

    def test_shapes(self):
        traj = random_quintic(np.random.default_rng(3), 3)
        assert traj.eval(0.5).shape == (3,)
        assert traj.eval(np.linspace(0.0, traj.duration, 7)).shape == (7, 3)
        assert traj.eval(np.full((4, 5), 0.5), 2).shape == (4, 5, 3)
        assert traj.eval_local(np.array([0, 1, 2]), 0.1).shape == (3, 3)
        p, v, a = traj.sample(0.5)
        assert p.shape == v.shape == a.shape == (3,)
