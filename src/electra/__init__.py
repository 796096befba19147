"""Phase-count analysis and simulation of elimination-round leader election.

The package splits into:

- :mod:`electra.peaks` - the peak-count recurrence for random permutations;
- :mod:`electra.models` - survivor-law catalog behind one interface;
- :mod:`electra.engine` - exact phase-count laws, ending states, occupancy;
- :mod:`electra.conditions` - finite-range convergence-hypothesis checks;
- :mod:`electra.metrics` - integer-law distances and the Laplace/Fourier
  periodicity machinery, plus the toy and fair-coin closed forms;
- :mod:`electra.franklin` - Monte Carlo ring elections (persistent keys
  and redraw variants);
- :mod:`electra.cli` - the ``electra`` command-line front end.
"""

__version__ = "0.1.0"

from .conditions import (
    ConditionReport,
    check_concentration,
    check_mean_increment,
    check_moment,
    check_monotone,
    run_condition_checks,
)
from .engine import (
    EndingStateTable,
    InitConvention,
    Occupancy,
    PhaseTable,
    compute_phase_table,
    ending_state_probs,
    occupancy_probs,
    passage_probs,
)
from .franklin import (
    ElectionRecords,
    RingVariant,
    SimConfig,
    SimEstimate,
    closed_form_c2,
    conditional_second_round,
    estimate_c2,
    exhaustive_second_round,
    run_election,
)
from .metrics import (
    IntegerLaw,
    LimitScatter,
    PeriodicityFit,
    PeriodicitySamples,
    ceil_shift_law,
    dtv,
    dw,
    empirical_limit,
    fair_coin_limit_cdf,
    fair_coin_phi,
    law_from_phase,
    laplace_transform,
    periodicity_reconstruct,
    periodicity_samples,
    toy_limit_cdf,
    toy_phi,
)
from .models import (
    BiasedCoin,
    CoinMaxOne,
    DemonCoin,
    DeterministicHalving,
    ExplicitMatrix,
    FairCoin,
    PeakSurvivors,
    SurvivorModel,
    ToyHalving,
    model_from_name,
    peak_circular,
    peak_linear_i,
    peak_linear_ii,
)
from .peaks import PeakVariant, brute_force_peaks, peak_moments

__all__ = [
    "BiasedCoin",
    "CoinMaxOne",
    "ConditionReport",
    "DemonCoin",
    "DeterministicHalving",
    "ElectionRecords",
    "EndingStateTable",
    "ExplicitMatrix",
    "FairCoin",
    "InitConvention",
    "IntegerLaw",
    "LimitScatter",
    "Occupancy",
    "PeakSurvivors",
    "PeakVariant",
    "PeriodicityFit",
    "PeriodicitySamples",
    "PhaseTable",
    "RingVariant",
    "SimConfig",
    "SimEstimate",
    "SurvivorModel",
    "ToyHalving",
    "brute_force_peaks",
    "ceil_shift_law",
    "check_concentration",
    "check_mean_increment",
    "check_moment",
    "check_monotone",
    "closed_form_c2",
    "compute_phase_table",
    "conditional_second_round",
    "dtv",
    "dw",
    "empirical_limit",
    "ending_state_probs",
    "estimate_c2",
    "exhaustive_second_round",
    "fair_coin_limit_cdf",
    "fair_coin_phi",
    "law_from_phase",
    "laplace_transform",
    "model_from_name",
    "occupancy_probs",
    "passage_probs",
    "peak_circular",
    "peak_linear_i",
    "peak_linear_ii",
    "peak_moments",
    "periodicity_reconstruct",
    "periodicity_samples",
    "run_condition_checks",
    "run_election",
    "toy_limit_cdf",
    "toy_phi",
    "__version__",
]
