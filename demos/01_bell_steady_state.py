"""Dissipative preparation of the two-atom singlet: the steady state.

The Bell scheme drives |f> -> |r> off-resonantly while a weak microwave
mixes |f> and |a>.  With the Rydberg shift tuned to U_rr = 2*Delta the
doubly-ground |ff> is pumped resonantly into |rr>, which decays back into
the ground manifold.  Every ground state except the microwave-dark
singlet keeps getting recycled, so the singlet is the unique steady
state -- no initial-state preparation or timing control needed.
"""

import numpy as np

from rydpump import (
    build_bell_model, build_liouvillian, chsh_correlation, fidelity,
    figure_preset, steady_state,
)

# Benchmark operating point: Omega/2pi = 0.036 MHz, omega = 0.004 Omega,
# Delta/2pi = 3.435 MHz, U_rr = 2 Delta, gamma = 1.673 kHz.
preset = figure_preset("fig2")
model = build_bell_model(preset.params, preset.variant)
liouv = build_liouvillian(model)

rho, info = steady_state(liouv, return_info=True)
print(f"null-space backend: residual {info['residual']:.2e}, "
      f"error bound {info['error_bound']:.1e}")
# The Liouvillian gap is the slowest relaxation rate towards the steady
# state; 1/gap is the time scale of the preparation.
print(f"  Liouvillian gap      = {info['gap']:.3f} 1/s"
      f"   (relaxation time {1e3 / info['gap']:.1f} ms)")
print(f"  fidelity <S|rho|S>   = {fidelity(model.state('S'), rho):.6f}")
print(f"  CHSH correlation     = {chsh_correlation(rho):.4f}"
      f"   (classical bound 2, quantum maximum {2 * np.sqrt(2):.4f})")

# The same state falls out of brute long-time propagation.
rho2, info2 = steady_state(liouv, method="evolve", return_info=True)
dist = 0.5 * np.sum(np.abs(np.linalg.eigvalsh(rho - rho2)))
print(f"propagation backend: {info2['doublings']} horizon doublings "
      f"({info2['model_time']:.2f} s of model time), trace distance {dist:.1e}")

# Without the drives the ground manifold is entirely stationary and no
# unique steady state exists; the solver refuses rather than guessing.
from rydpump import ModelParams, NonUniqueSteadyStateError, SchemeVariant

dark_params = ModelParams(rabi_optical=0.0, rabi_microwave_1=0.0,
                          detuning=0.0, rydberg_U=0.0, gamma=1673.0)
dark = build_bell_model(dark_params, SchemeVariant("bell", "singlet"))
try:
    steady_state(build_liouvillian(dark))
except NonUniqueSteadyStateError as exc:
    print(f"no drives -> {exc}")
