"""How strong must the Rydberg interaction be?

rydpump.sweep solves for the steady state along a grid of U_rr.  The
caption gives no Delta, so Delta = U_rr/2 follows at every point,
keeping the pumping resonant while the detuning grows alongside.  The
steady-state fidelity climbs towards 1: larger detuning suppresses the
off-resonant excitation of the singlet itself, which is the dominant
error at small U_rr.
"""

from rydpump import SchemeVariant, sweep

caption = dict(rabi_mhz=0.036, microwave_rel=0.004, gamma_khz=1.673)
coords, fids, _ = sweep(caption, SchemeVariant("bell", "singlet"),
                        [("urr-mhz", 1.0, 8.0, 8)], "fidelity")
print(" U_rr/2pi [MHz]   fidelity")
for (urr,), fid in zip(coords, fids):
    print(f"{urr:14.1f}   {fid:.6f}  {'#' * int(60 * fid)}")
