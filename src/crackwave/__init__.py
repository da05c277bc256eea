"""Steady-state antiplane (Mode III) moving-crack solution in couple-stress
elasticity.

Surface-wave dispersion, critical crack speeds, multiplicative factorization
of the crack symbol, crack-line fields, maximum total shear stress and the
dynamic energy release rate.  Classical elasticity enters through the
energy release rate, E/E_cl, whose two ends of the L/ℓ axis have closed
forms, and through the classical split coefficients H_j
(``h_coefficients``), which the split tends to as L/ℓ → 0.

Units: lengths are in units of the characteristic length ℓ, stresses in
units of the shear modulus G, and every load has unit resultant, T0 = 1.
A result is therefore its normalized value: L/ℓ, w·G/(T0·ℓ), a stress
times ℓ/T0, and the energy release rate E in units of T0²/(G·ℓ).
"""

from .classical import classical_err, h_coefficients
from .dispersion import DispersionPoint, shear_phase_speed, trace_curve
from .energy import (ErrResult, err_ratio_large_length, err_result,
                     err_small_length, solve_crack)
from .errors import (BracketError, CrackwaveError, CrossCheckError,
                     DomainError, PoleError, QuadratureError, RealnessError,
                     RegimeError, RootLossError)
from .fields import (FieldKind, FieldProfile, NearTipCoefficients,
                     balance_integral, crack_opening, field_profile,
                     max_total_shear, neartip_coefficients, stresses_on_line,
                     traction_ahead)
from .kernel import (FactorizedKernel, KernelParams, factorize, sqrt_minus,
                     sqrt_plus)
from .loading import (LoadProfile, SplitData, build_split, g_minus,
                      kp_coefficient, liouville_constant, split_coefficients,
                      traction, traction_transform)
from .material import (Material, critical_speed, h0_star, lambda_surface,
                       upsilon)

__version__ = "0.1.0"
