"""Offline preference-based best-action estimation with locally optimal weights."""

from .analysis import (
    AdversaryPair,
    HardnessReport,
    alt_minimizer,
    d_tilde,
    hardness,
    kl_bracket,
    lower_bound_adversary,
)
from .baseline import MleFit, mle_fit, mle_select
from .bench import (
    ExperimentConfig,
    ResultRow,
    ResultTable,
    emit_outputs,
    run_experiment,
    simple_regret,
    summarize,
)
from .errors import InconsistencyError, NumericalError, ValidationError
from .estimator import (
    EstimateReport,
    SuccessRates,
    WeightEntry,
    WeightTable,
    build_weight_table,
    estimate_relative_rewards,
    local_weights_qp_oracle,
    rl_low,
    select_best_actions,
    success_rates,
)
from .instances import (
    GeneratorConfig,
    Instance,
    PreferenceDataset,
    empirical_proportions,
    load_dataset,
    load_instance,
    make_instance,
    make_paper_instance,
    sample_dataset,
    save_dataset,
    save_instance,
    suboptimality_gaps,
    validate_instance,
)
from .mdp import (
    TransitionKernel,
    mdp_hardness,
    mdp_policy_search,
    mdp_regret,
    rl_low_mdp,
    stationary_distribution,
    validate_kernel,
)
from .privacy import (
    PrivacyParams,
    dp_rl_low,
    gaussian_mechanism,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
