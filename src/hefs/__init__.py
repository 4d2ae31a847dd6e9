"""Helper-set feature search: a Pareto genetic algorithm that augments a
fixed conditional feature subset with complementary residual features."""

from .baselines import ConditionalSet, load_conditional, mi_rank_select, ttest_rank_select
from .dataset import (
    ClusterReduction,
    Dataset,
    DatasetError,
    FoldAssignment,
    leader_cluster,
    load_csv,
    reduce_dataset,
    stratified_kfold,
    synth_xor_dataset,
    zscore_normalize,
)
from .ga import (
    ConfigError,
    FitnessEvaluator,
    GAConfig,
    GenerationRecord,
    HelperResult,
    Individual,
    best_helper_set,
    hefs_run,
    ratio_guided_mutation,
    run_fold_assignment,
    selection,
    selective_activation_init,
    single_point_crossover,
)
from .metrics import (
    MetricsReport,
    cv_accuracy,
    full_metrics,
    mutual_information,
)
from .moo import (
    FitnessPair,
    dominates,
    niche_select,
    nondominated_sort,
    pareto_solutions,
)

__version__ = "0.1.0"
