"""Consensus dependency trees from parser ensembles, without gold labels.

The pipeline reduces each sentence's candidate edges (the union over
parsers) to a signed vote matrix, estimates per-edge scores with one of
three aggregators, and decodes a maximum spanning arborescence per
sentence:

* ``vote_mst``: unweighted vote counts.
* ``crh_run``: iterative reliability weighting (conflict resolution).
* ``cim_run``: a pairwise binary graphical model with correlated-parser
  collapsing and method-of-moments accuracy estimates.

`evaluation` adds the surrounding protocol (filtering, seeded ranking,
UAS scoring, cross-treebank summaries) and `synth` generates corrupted
ensembles with known accuracies for calibration tests.
"""

from .arborescence import (
    NoArborescenceError,
    WeightedTokenGraph,
    max_arborescence,
)
from .cim import (
    CimResult,
    CollapseMap,
    CorrelationGraph,
    IsingParams,
    cim_run,
    cim_trees,
    collapse_correlated,
    estimate_correlation_graph,
    estimate_mean_params,
    fit_canonical_params,
    fit_l1_logistic,
    infer_scores,
)
from .conllu import (
    ConlluError,
    TreebankFile,
    build_ensemble,
    check_segmentation,
    load_treebank,
    load_treebanks,
    parse_conllu,
    save_treebank,
    write_conllu,
)
from .crh import (
    CrhOptions,
    CrhState,
    crh_run,
    crh_trees,
)
from .edges import (
    EdgeLabelMatrix,
    label_matrix,
    majority_vote,
    trees_from_scores,
)
from .evaluation import (
    MethodDiff,
    PreprocessResult,
    RankResult,
    SummaryReport,
    TreebankReport,
    method_diffs,
    preprocess,
    rank_and_select,
    summarize,
    uas,
    vote_mst,
)
from .synth import SynthConfig, SynthResult, generate
from .trees import (
    ParseEnsemble,
    validate_tree,
)

__version__ = "0.1.0"

__all__ = [
    "CimResult",
    "CollapseMap",
    "ConlluError",
    "CorrelationGraph",
    "CrhOptions",
    "CrhState",
    "EdgeLabelMatrix",
    "IsingParams",
    "MethodDiff",
    "NoArborescenceError",
    "ParseEnsemble",
    "PreprocessResult",
    "RankResult",
    "SummaryReport",
    "SynthConfig",
    "SynthResult",
    "TreebankFile",
    "TreebankReport",
    "WeightedTokenGraph",
    "build_ensemble",
    "check_segmentation",
    "cim_run",
    "cim_trees",
    "collapse_correlated",
    "crh_run",
    "crh_trees",
    "estimate_correlation_graph",
    "estimate_mean_params",
    "fit_canonical_params",
    "fit_l1_logistic",
    "generate",
    "infer_scores",
    "label_matrix",
    "load_treebank",
    "load_treebanks",
    "majority_vote",
    "max_arborescence",
    "method_diffs",
    "parse_conllu",
    "preprocess",
    "rank_and_select",
    "save_treebank",
    "summarize",
    "trees_from_scores",
    "uas",
    "validate_tree",
    "vote_mst",
    "write_conllu",
]
