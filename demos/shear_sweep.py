"""How the bound states of the unit-square guide respond to the shear.

Weak shear binds weakly (the beta = 0.25 gap is below 1e-2), strong
shear digs a deep well and eventually a second state.  The sufficient
one-state bound beta* = sqrt(3) sits between the two regimes; the run
shows the count staying 1 well past it before a second state appears.
"""

import math

from shearspec.certificates import beta_star
from shearspec.geometry import Rect, WaveguideSpec
from shearspec.waveguide import DiscretizationSpec, compute_spectrum

square = Rect(0.0, 1.0, 0.0, 1.0)
print(f"sufficient one-state bound: beta* = {beta_star(1.0):.4f}\n")
print(f"{'beta':>6} {'E1':>10} {'lambda1':>12} {'gap':>10} "
      f"{'count':>5} {'stable':>6}")

ladders = {
    0.25: (384, 24, 32.0),
    0.5: (80, 16, 10.0),
    1.0: (48, 16, 6.0),
    2.0: (72, 24, 6.0),
    4.0: (144, 24, 3.0),
}
for beta, (nx, n2, L) in ladders.items():
    disc = DiscretizationSpec(nx=nx, n1=8, n2=n2, L=L, mode="reduced2d",
                              refine=3, l_steps=2)
    rep = compute_spectrum(WaveguideSpec(beta, square), disc)
    print(f"{beta:>6.2f} {rep.threshold:>10.4f} {rep.eigenvalues[0]:>12.6f} "
          f"{rep.gap:>10.2e} {rep.count:>5d} {str(rep.stable):>6}")
