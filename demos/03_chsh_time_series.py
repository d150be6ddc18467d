"""Bell-inequality violation building up in time.

The CHSH correlation of the evolving state starts at zero (the initial
four-way mixture carries no correlations) and settles just below the
quantum maximum 2*sqrt(2) ~ 2.828 as the singlet is pumped up.  Any
value above 2 violates local realism.
"""

import numpy as np

from rydpump import (
    build_liouvillian, build_model, chsh_correlation, evolve, figure_preset,
)

preset = figure_preset("fig3")
model = build_model(preset.params, preset.variant)
liouv = build_liouvillian(model)

t = np.linspace(0.0, 0.3, 61)
traj = evolve(liouv, model.initial_density(preset.initial_state), t)
chsh = chsh_correlation(traj.states)  # one value per sample

above_2 = t[np.argmax(chsh > 2.0)]
print(" t [ms]   CHSH")
for k in range(0, 61, 6):
    print(f"{t[k] * 1e3:7.0f}  {chsh[k]:7.4f}")
print(f"\ncrosses the classical bound 2 at t ~ {above_2 * 1e3:.0f} ms;"
      f" settles at {chsh[-1]:.4f}")
