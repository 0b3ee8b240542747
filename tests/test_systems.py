"""The catalog's jets against the per-callable catalog code they replaced."""

import numpy as np
import pytest

from lcsdyn import (free_rotor_circle, harmonic_1d, planar_2d, rotor_extended_chart,
                    with_constant_sigma)
from lcsdyn.continuous import ContinuousLagrangian, make_lcel_field
from lcsdyn.systems import _harmonic, _mechanical, _sq
from conftest import harmonic_3d


# The former catalog lambdas, kept as the reference the jets must reproduce.

def _former_mechanical(n, grad_V, V, hess_V):
    eye, zeros = np.eye(n), np.zeros((n, n))
    L = dict(value=lambda q, v: 0.5 * float(v @ v) - V(q),
             grad_q=lambda q, v: -grad_V(q),
             grad_v=lambda q, v: np.array(v, dtype=float),
             hess_vv=lambda q, v: eye, hess_vq=lambda q, v: zeros,
             hess_qq=lambda q, v: -hess_V(q))
    H = dict(value=lambda q, p: 0.5 * float(p @ p) + V(q),
             grad_q=lambda q, p: grad_V(q),
             grad_p=lambda q, p: np.array(p, dtype=float))
    return L, H


def _former_harmonic(n):
    return _former_mechanical(n, V=lambda q: 0.5 * float(q @ q),
                              grad_V=lambda q: np.array(q, dtype=float, ndmin=1),
                              hess_V=lambda q: np.eye(n))


def _former_free(n):
    return _former_mechanical(n, V=lambda q: 0.0, grad_V=lambda q: np.zeros(n),
                              hess_V=lambda q: np.zeros((n, n)))


CASES = [(harmonic_1d, _former_harmonic), (planar_2d, _former_harmonic),
         (free_rotor_circle, _former_free), (rotor_extended_chart, _former_free)]


def _points(n):
    rng = np.random.default_rng(21)
    pts = [rng.uniform(-2, 2, (2, n)) for _ in range(200)]
    return pts + [np.zeros((2, n)), -np.zeros((2, n)), np.array([np.ones(n), -np.zeros(n)])]


@pytest.mark.parametrize("system_fn, former", CASES)
def test_jet_callables_equal_the_former_lambdas(system_fn, former):
    system = system_fn()
    n = system.n
    L, H = system.lagrangian, system.hamiltonian
    ref_L, ref_H = former(n)
    for q, v in _points(n):
        for F, refs in ((L, ref_L), (H, ref_H)):
            for name, ref in refs.items():
                got, want = getattr(F, name)(q, v), ref(q, v)
                if name == "value" and n > 1:
                    # the jet sums in floats; numpy's dot may fuse a multiply-add,
                    # so each squared norm may differ in its last bit
                    assert abs(got - want) <= 4e-16 * float(q @ q + v @ v)
                else:
                    assert np.asarray(got).tobytes() == np.asarray(want).tobytes(), name
        # the one-part methods return the jet's parts, the Hessians as copies
        val, gq, gv, hvv, hvq = L.jet(q.tolist(), v.tolist())
        assert (val, gq, gv) == (L.value(q, v), L.grad_q(q, v).tolist(),
                                 L.grad_v(q, v).tolist())
        for part, got in ((hvv, L.hess_vv(q, v)), (hvq, L.hess_vq(q, v))):
            assert got is not part and got.tobytes() == part.tobytes()
        assert H.jet(q.tolist(), v.tolist()) == (H.value(q, v), H.grad_q(q, v).tolist(),
                                                 H.grad_p(q, v).tolist())


@pytest.mark.parametrize("n", [1, 2])
def test_unpacked_harmonic_jets_equal_the_generic_jets(n):
    # the n <= 2 harmonic jets are written out on scalars; they must round as
    # _mechanical's generic jets do, signed zeros included
    L, H = _harmonic(n)
    ref_L, ref_H = _mechanical(n, V=lambda q: 0.5 * _sq(q), grad_V=list, hess_V=np.eye(n))
    for q, v in _points(n):
        q, v = q.tolist(), v.tolist()
        for F, ref in ((L, ref_L), (H, ref_H)):
            got, want = F.jet(q, v), ref.jet(q, v)
            assert len(got) == len(want)
            for a, b in zip(got, want):
                assert np.asarray(a).tobytes() == np.asarray(b).tobytes()
    q = np.zeros(n)
    assert L.hess_qq(q, q).tobytes() == ref_L.hess_qq(q, q).tobytes()


@pytest.mark.parametrize("system_fn", [harmonic_1d, planar_2d, free_rotor_circle])
def test_catalog_charts_declare_their_lee_form(system_fn):
    system = system_fn()
    coeffs = np.array(system.sigma_params)
    for chart in system.atlas.charts:
        q = 0.5 * (chart.lower + chart.upper)
        assert chart.sigma_grad is None
        assert chart.grad(q).tobytes() == coeffs.tobytes()
        assert chart.grad(q) is not chart.grad(q)
        assert np.array_equal(chart.hess(q), np.zeros((system.n, system.n)))
        assert chart.sigma(q) == float(coeffs @ q)
    for chart in with_constant_sigma(system, 0.7).atlas.charts:
        q = 0.5 * (chart.lower + chart.upper)
        assert chart.sigma(q) == 0.7
        assert chart.grad(q).tobytes() == np.zeros(system.n).tobytes()


@pytest.mark.parametrize("system_fn", [harmonic_1d, planar_2d, free_rotor_circle,
                                       rotor_extended_chart, harmonic_3d])
def test_catalog_declares_its_jets_hessians(system_fn):
    # every catalog Lagrangian declares constant_hessians, and the fields and
    # rules read the Hessians it resolved at q = v = 0 instead of the jet's
    # parts, so the two must agree everywhere; the arrays the jets return are
    # read-only
    L = system_fn().lagrangian
    assert L.constant_hessians
    qq, vv, vq = L.hessians
    for q, v in _points(L.n):
        _, _, _, hvv, hvq = L.jet(q.tolist(), v.tolist())
        assert hvv.tobytes() == vv.tobytes()
        assert hvq.tobytes() == vq.tobytes()
        assert L.hess_qq(q, v).tobytes() == qq.tobytes()
    got = L.hess_qq(q, v)
    got *= 2.0  # hess_qq hands out copies
    assert L.hess_qq(q, v).tobytes() == qq.tobytes()
    for part in (hvv, hvq, qq, vv, vq):
        with pytest.raises(ValueError, match="read-only"):
            part *= 2.0


def test_hessian_methods_hand_out_copies():
    # hess_vv used to return harmonic_1d's own mass array: doubling it in
    # place halved the acceleration of every Lagrangian field of the system
    system = harmonic_1d()
    L = system.lagrangian
    q, v = np.array([0.3]), np.array([0.5])
    x = np.concatenate([q, v])
    before = make_lcel_field(L, system.atlas, 0)(x)
    for method in (L.hess_vv, L.hess_vq):
        part = method(q, v)
        part *= 2.0
        part += 1.0
    undeclared = ContinuousLagrangian(1, L.jet, L.hess_qq)
    for F in (L, undeclared):
        assert make_lcel_field(F, system.atlas, 0)(x).tobytes() == before.tobytes()
    assert L.hess_vv(q, v).tolist() == [[1.0]] and L.hess_vq(q, v).tolist() == [[0.0]]
