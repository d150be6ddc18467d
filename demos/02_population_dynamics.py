"""Initial-state independence: populations funnel into the singlet.

Starting from the worst case -- the uniform mixture of |ff>, |S>, |T>,
|aa> -- the pumping/decay cycle drains every component except the dark
singlet.  The table shows the four ground-manifold populations versus
time.
"""

import numpy as np

from rydpump import build_liouvillian, build_model, evolve, figure_preset, populations

preset = figure_preset("fig2-inset")
model = build_model(preset.params, preset.variant)
liouv = build_liouvillian(model)

t = np.linspace(0.0, 0.3, 11)  # 0 .. 300 ms
basis = model.population_basis()
traj = evolve(liouv, model.initial_density("mix4"), t)
pops = populations(traj.states, [ket for _, ket in basis])  # shape (11, 4)

header = "  t [ms] " + "".join(f"{name:>9}" for name, _ in basis)
print(header)
for tk, row in zip(t, pops):
    print(f"{tk * 1e3:8.0f} " + "".join(f"{p:9.4f}" for p in row))

print("\nEach population starts at 0.25; only the singlet survives.")
