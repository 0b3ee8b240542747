"""Catalog marches keep their bits.

The sha256 digests below were taken before the march's Newton iteration and
bookkeeping were rewritten for speed, on the same inputs.  Each covers every
point's chart, q, p and r and every step's index, Newton iterations, residual
and switch flag, so a change to any float a march returns, or to its Newton
iteration counts, changes the digest.
"""

import hashlib
import struct

import numpy as np
import pytest

from lcsdyn import (StepperConfig, build_left_hamiltonian, build_right_hamiltonian,
                    conformal_midpoint_rule, conformal_trapezoidal_rule, free_rotor_circle,
                    integrate, integrate_hamiltonian, planar_2d)

RULES = {"midpoint": conformal_midpoint_rule, "trapezoidal": conformal_trapezoidal_rule}
BUILDERS = {"right": build_right_hamiltonian, "left": build_left_hamiltonian}
CFG = StepperConfig(tol=1e-12)


def march_digest(traj) -> str:
    digest = hashlib.sha256()
    for pt in traj.points:
        digest.update(struct.pack("<q", pt.chart))
        for x in (pt.q, pt.p, pt.r):
            digest.update(np.asarray(x, dtype=float).tobytes())
    for s in traj.steps:
        digest.update(struct.pack("<qqd?", s.k, s.iterations, s.residual, s.switched))
    return digest.hexdigest()


# (system, rule, conformal) -> digest of integrate: the rotor (c = -0.1) from
# q = 0.5 at speed 2, 600 steps of h 0.05 through 8 chart switches, and
# planar_2d (0.3, 0.1) from q = (1.0, 0.9) at velocity (0.1, -0.15), 200 steps
_INTEGRATE = {
    ("rotor", "midpoint", True):
        "6df865175e3b72310f83f3343084ac83171f11bf6a349f07b55c0475625ddd4d",
    ("rotor", "trapezoidal", True):
        "d90f1ec8344e1572ac5169ef6079ddd6904c5f6c7d5b9e4240c2fefbc9cc83b5",
    ("planar", "midpoint", True):
        "d26fba3b70ab0f1c8b09a64c65b7341bab8db304aedf55156472dfca3ff9429d",
    ("planar", "midpoint", False):
        "904f7a1136d3a15694cfda2636c9b910600b24ae1bf9aef34cea9b2d1b750186",
    ("planar", "trapezoidal", True):
        "76450731c693b8f6d49e6f60ed976c12c27426fbe0ff9d5c2a39ef016a81dc7f",
    ("planar", "trapezoidal", False):
        "1a3bc2101bc144a5b6c70b844df8e680cc6d9b5c213f51cfbe233bb31de348da",
}

# (system, side, conformal) -> digest of integrate_hamiltonian on the
# conformal midpoint rule (h 0.05): planar_2d from (q, p) = ((1.0, 0.9),
# (0.1, -0.15)), 60 steps, and the rotor from (0.5, 2.0), 300 steps through
# 5 (conformal) or 7 (plain) chart switches.  The right and left conformal
# marches are one two-point map, and give the same bits.
_HAMILTONIAN = {
    ("planar", "right", True):
        "6e83ee51a24b509eb9f4624f4b3bd8d75fbfeb83526a6e60ca696ce4fb09a43c",
    ("planar", "left", True):
        "6e83ee51a24b509eb9f4624f4b3bd8d75fbfeb83526a6e60ca696ce4fb09a43c",
    ("planar", "right", False):
        "b9023315aaccc5c845bca86a0cee783ab9829969a113c42ebb9f645ce46df913",
    ("planar", "left", False):
        "ecb5f95f9fead5b6175bcbcd29cea2f659e2aeb326e3f206a8ea2804562d0385",
    ("rotor", "right", True):
        "eacfb28aca3f3965b5ee59a71ad429039d51c250e7ca783b8c5abe076aa8f62c",
    ("rotor", "left", True):
        "eacfb28aca3f3965b5ee59a71ad429039d51c250e7ca783b8c5abe076aa8f62c",
    ("rotor", "right", False):
        "92822fd97c09ad693b41f5e132ca0ded1eea8754e85c8407b0383382dbe370ec",
    ("rotor", "left", False):
        "7d4ad7d44e565d241e2d6dc0141b42d383e67f2f05442eef742d4220d57f30e0",
}


def _system(name):
    return free_rotor_circle(-0.1) if name == "rotor" else planar_2d(0.3, 0.1)


@pytest.mark.parametrize("name, rule, conformal", list(_INTEGRATE))
def test_integrate_keeps_its_golden_bits(name, rule, conformal):
    system = _system(name)
    Ld = RULES[rule](system.lagrangian, system.atlas, 0, 0.05)
    if name == "rotor":
        traj = integrate(Ld, system.atlas, 0, [0.5], [0.6], 600, CFG, conformal=conformal)
        assert traj.n_switches() == 8
    else:
        q0 = np.array([1.0, 0.9])
        traj = integrate(Ld, system.atlas, 0, q0, q0 + 0.05 * np.array([0.1, -0.15]), 200,
                         CFG, conformal=conformal)
    assert march_digest(traj) == _INTEGRATE[name, rule, conformal]


@pytest.mark.parametrize("name, side, conformal", list(_HAMILTONIAN))
def test_integrate_hamiltonian_keeps_its_golden_bits(name, side, conformal):
    system = _system(name)
    Ld = conformal_midpoint_rule(system.lagrangian, system.atlas, 0, 0.05)
    Hd = BUILDERS[side](Ld, system.atlas, 0)
    if name == "rotor":
        traj = integrate_hamiltonian(Hd, system.atlas, 0, [0.5], [2.0], 300, CFG,
                                     conformal=conformal)
        assert traj.n_switches() == (5 if conformal else 7)
    else:
        traj = integrate_hamiltonian(Hd, system.atlas, 0, [1.0, 0.9], [0.1, -0.15], 60, CFG,
                                     conformal=conformal)
    assert march_digest(traj) == _HAMILTONIAN[name, side, conformal]
