"""Regenerate the frozen reference constants used in the test suite.

Every special-function value asserted against a literal in tests/ was
produced by this script at 30 significant digits, using mpmath and
textbook series only, independent of the implementations in
src/torus_lqg.  Run it after `pip install mpmath` and compare its output
with the constants in the tests:

    python3 tools/reference_values.py
"""

import mpmath as mp

mp.mp.dps = 30


def eta(tau):
    # q-product: eta = e^{i pi tau / 12} prod (1 - q^n), q = e^{2 pi i tau}
    q = mp.e ** (2j * mp.pi * tau)
    return mp.e ** (1j * mp.pi * tau / 12) * mp.qp(q)


def theta1(z, tau):
    # alternating sine series with nome q = e^{i pi tau}
    q = mp.e ** (1j * mp.pi * tau)
    return 2 * mp.nsum(
        lambda k: (-1) ** k * q ** ((k + mp.mpf(1) / 2) ** 2) * mp.sin((2 * k + 1) * mp.pi * z),
        [0, mp.inf],
    )


def theta_aux(kind, tau):
    q = mp.e ** (1j * mp.pi * tau)
    if kind == 2:
        return 2 * mp.nsum(lambda k: q ** ((k + mp.mpf(1) / 2) ** 2), [0, mp.inf])
    if kind == 3:
        return 1 + 2 * mp.nsum(lambda k: q ** (k**2), [1, mp.inf])
    return 1 + 2 * mp.nsum(lambda k: (-1) ** k * q ** (k**2), [1, mp.inf])


def dtheta1_at_zero(tau):
    q = mp.e ** (1j * mp.pi * tau)
    return 2 * mp.pi * mp.nsum(
        lambda k: (-1) ** k * (2 * k + 1) * q ** ((k + mp.mpf(1) / 2) ** 2), [0, mp.inf]
    )


def theta_offset(tau):
    # Theta(tau) = -ln 2 pi - 2 ln |eta(tau)|
    return -mp.log(2 * mp.pi) - 2 * mp.log(abs(eta(tau)))


def green(tau, x1, x2):
    # closed form: pi Im(tau) x2^2 - ln |theta1(x1 + tau x2, tau) / eta(tau)|
    z = x1 + tau * x2
    return mp.pi * mp.im(tau) * x2**2 - mp.log(abs(theta1(z, tau) / eta(tau)))


def free_field_partition(tau):
    return 1 / (mp.sqrt(mp.im(tau)) * abs(eta(tau)) ** 2)


def ghost_partition(tau):
    return abs(eta(tau)) ** 4 / (2 * mp.im(tau))


def ising_partition(tau):
    tot = sum(abs(theta_aux(k, tau)) for k in (2, 3, 4))
    return tot / (2 * abs(eta(tau)))


TAU = mp.mpc("0.3", "1.2")
Z = mp.mpc("0.17", "0.23")

ROWS = [
    ("ETA_I", eta(1j)),
    ("ETA_2I", eta(2j)),
    ("ETA_TAU", eta(TAU)),
    ("THETA1_Z_TAU", theta1(Z, TAU)),
    # next to theta1's zero at z = 0
    ("THETA1_NEAR_ZERO", theta1(mp.mpf("1e-9"), TAU)),
    ("THETA1_NEAR_ZERO_C", theta1(mp.mpf("1e-8") * mp.mpc("0.6", "-0.2"), TAU)),
    ("THETA2_I", theta_aux(2, 1j)),
    ("THETA3_I", theta_aux(3, 1j)),
    ("THETA4_I", theta_aux(4, 1j)),
    # where theta2's absolute tail bound alone keeps one term
    ("THETA2_A", theta_aux(2, mp.mpc("-0.5", "4.35"))),
    ("DTHETA1_I", dtheta1_at_zero(1j)),
    # where theta1's absolute tail bound alone keeps one term
    ("DTHETA1_A", dtheta1_at_zero(mp.mpc("0.4808", "4.3974"))),
    ("DTHETA1_B", dtheta1_at_zero(mp.mpc("0", "4.5387"))),
    ("THETA_AT_I", theta_offset(1j)),
    ("ZFF_AT_I", free_field_partition(1j)),
    ("Z_GHOST_AT_I", ghost_partition(1j)),
    ("Z_ISING_AT_I", ising_partition(1j)),
    ("G_AT_I", green(1j, mp.mpf("0.3"), mp.mpf("0.4"))),
    ("G_AT_TAU", green(TAU, mp.mpf("0.15"), mp.mpf("-0.35"))),
    # next to the lattice point, where |theta1| is small
    ("G_NEAR_LATTICE", green(mp.mpc(0, "4.5387"), mp.mpf(0), mp.mpf("0.975"))),
]

if __name__ == "__main__":
    for name, val in ROWS:
        print(f"{name} = {mp.nstr(val, 25)}")
