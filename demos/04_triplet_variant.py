"""Retargeting the scheme: a microwave phase flip prepares the triplet.

Giving the atom-2 microwave a pi relative phase swaps the roles of the
singlet and triplet: |T> = (|fa> + |af>)/sqrt(2) becomes the dark state
and is pumped up instead.  The CHSH settings are reflected accordingly
(sigma -> -sigma on atom 2), under which the triplet attains the maximal
violation.
"""

from rydpump import (
    SchemeVariant, build_liouvillian, build_model, chsh_correlation,
    fidelity, figure_preset, steady_state,
)

params = figure_preset("fig2").params

for target, frame in (("singlet", False), ("triplet", True)):
    model = build_model(params, SchemeVariant("bell", target))
    rho = steady_state(build_liouvillian(model))
    name = model.variant.target_state
    print(f"{target:8}: fidelity <{name}|rho|{name}> = "
          f"{fidelity(model.state(name), rho):.6f}, "
          f"CHSH ({'triplet' if frame else 'singlet'} settings) = "
          f"{chsh_correlation(rho, triplet_frame=frame):+.4f}")
