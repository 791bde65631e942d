"""enmeas: limits that energy conservation places on quantum measurements.

Quantifies the measuring power of a battery-assisted device (the quality
factor tau and its error epsilon = (1 - tau)/2), characterizes the
reachable POVM sets by semidefinite programming, computes operational
distances between measurements, and reproduces the CHSH analysis for
passive optical interactions.
"""

from .bell import (
    BellScenario,
    build_dephased_state,
    chsh_mixture_bound,
    chsh_value,
    optimize_chsh_seesaw,
    reference_scenario,
)
from .bessel import (
    PhiResult,
    energy_of_lambda,
    first_zero,
    mu_of_lambda,
    phi,
    power_state,
)
from .charact import (
    MembershipVerdict,
    critical_degradation,
    fixed_distribution_feasible,
    membership_energy,
    membership_finite,
    membership_multilevel,
    optimize_energy,
    optimize_finite,
    universal_state_check,
)
from .distances import (
    DistanceResult,
    classical_distance,
    quantum_distance,
    seesaw_lower_bound,
    set_distance_epsilon,
)
from .linalg import Spectrum, eig_hermitian, is_psd, operator_norm, trace_norm
from .povm import (
    KrausSet,
    PhysicalPovm,
    Povm,
    batteryless_decomposition,
    check_energy_conserving,
    constant_blocks,
    degrade,
    effective_povm,
    measurement_channel,
    phase_aligned_blocks,
    validate,
)
from .sdp import BlockSdp, SdpSolution, solve
from .spectra import ChainDecomposition, decompose_chains, joint_sectors
from .tau import (
    BatteryState,
    EnergyDensity,
    TauResult,
    epsilon_from_tau,
    optimal_finite_state,
    tau_coherent,
    tau_continuous,
    tau_finite,
    tau_near_resonant,
    tau_of_state,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
