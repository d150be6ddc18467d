"""Three-dimensional entanglement from two Rydberg pumping channels.

The 20-level scheme pairs a five-level atom (two Rydberg states rL, rR)
with a four-level atom (one Rydberg state r).  Two resonant pumping
channels |fg> -> |rL r> and |ag> -> |rR r>, helped by microwave chains
f<->a<->g on both atoms, drain all eight bright ground states; the dark
state |phi> = (|ff> + |aa> + |gg>)/sqrt(3) -- a maximally entangled
qutrit pair -- is what remains.  Flipping the relative microwave sign
retargets the scheme onto |phi'> = (|ff> - |aa> + |gg>)/sqrt(3).
"""

import numpy as np

from rydpump import (
    SchemeVariant, build_liouvillian, build_model, evolve, fidelity,
    figure_preset, negativity, steady_state,
)

# Population of the target builds up over a couple hundred ms.
preset = figure_preset("fig5-inset")
model = build_model(preset.params, preset.variant)
liouv = build_liouvillian(model)
phi = model.state("phi")
t = np.linspace(0.0, 0.2, 9)
traj = evolve(liouv, model.initial_density("mix9"), t)
print("population of |phi> from the uniform 9-state mixture:")
for tk, p in zip(t, fidelity(phi, traj.states)):
    print(f"  t = {tk * 1e3:5.0f} ms   {p:.4f}")

# Steady state at the favourable operating point: fidelity and negativity
# (1 for a maximally entangled qutrit pair) both approach unity.
point = figure_preset("fig6-point")
for target in ("phi", "phi_prime"):
    m = build_model(point.params, SchemeVariant("qutrit", target))
    rho = steady_state(build_liouvillian(m))
    print(f"steady state, target {target:9}: "
          f"fidelity = {fidelity(m.state(target), rho):.6f}, "
          f"negativity = {negativity(rho, m.dims):.6f}")
