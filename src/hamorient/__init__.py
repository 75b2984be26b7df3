"""Workbench for dense-digraph structure and Hamilton-orientation embedding.

The package splits into three layers:

* structure — :mod:`~hamorient.digraph`, :mod:`~hamorient.bitset`,
  :mod:`~hamorient.patterns`: digraphs as immutable bitmask adjacency,
  oriented cycle/path patterns and their symmetry/segment toolkit.
* certification — :mod:`~hamorient.expansion`,
  :mod:`~hamorient.decomposition`, :mod:`~hamorient.oracle`: robust
  outexpansion checks (exact at small n, sampled above), the
  sparse-cut/expander dichotomy, the ordered class partition with
  independent verification, and brute-force embedding oracles that audit
  everything else.
* construction — :mod:`~hamorient.embedding`,
  :mod:`~hamorient.generators`, :mod:`~hamorient.workbench`,
  :mod:`~hamorient.cli`: the case-split pipeline realizing an arbitrary
  Hamilton-cycle orientation on a partitioned host, instance families,
  and the experiment harness behind the ``hamorient`` command.
"""

from .bitset import bit_list, mask_of
from .decomposition import (CleanedCut, DecompositionParams, PartitionReport,
                            StructurePartition, clean_cut, decompose,
                            fit_decomposition_params, partition_from_json_dict,
                            reverse_for_embedding, verify_partition)
from .digraph import (DegreeProfile, Digraph, cross_counts, degree_profile,
                      double_edge_graph, induced, is_strongly_connected,
                      reverse_digraph, strongly_connected_components)
from .embedding import (Embedding, PipelineResult, embed_hamilton_orientation,
                        pancyclic_suite, select_connectors, tt_embed_path,
                        two_factor)
from .errors import (CapabilityError, HypothesisError, InputError,
                     PreconditionError, ResourceError)
from .expansion import (CutCertificate, CutSearchResult,
                        DichotomyResult, ExpansionParams, ExpansionVerdict,
                        certify_expander, find_sparse_cut,
                        robust_out_neighborhood, sparse_or_expander)
from .generators import (GenSpec, family_names, gen_bipartite_extremal,
                         gen_blowup_tt, gen_complete_digraph,
                         gen_random_min_degree, gen_split_cliques,
                         gen_tournament)
from .io import load_json, read_edges, read_header_spec, save_json, write_edges
from .oracle import CheckReport, EmbedResult, exact_embed, validate_embedding
from .patterns import (BlockPlan, CyclePattern, PathPattern, SegmentPlan,
                       canonical_rotation, classify_case,
                       directed_run_decomposition_case1b,
                       distinct_path_patterns, has_directed_window,
                       longest_directed_segment, necklace_classes,
                       partition_case2, switch_count, switches)
from .workbench import ExperimentConfig, TrialRecord, run as run_experiments

__version__ = "0.1.0"

__all__ = [
    "BlockPlan", "CapabilityError", "CheckReport", "CleanedCut",
    "CutCertificate", "CutSearchResult", "CyclePattern",
    "DecompositionParams", "DegreeProfile", "DichotomyResult", "Digraph",
    "EmbedResult", "Embedding", "ExpansionParams",
    "ExpansionVerdict", "ExperimentConfig", "GenSpec", "HypothesisError",
    "InputError", "PartitionReport", "PathPattern", "PipelineResult",
    "PreconditionError", "ResourceError", "SegmentPlan", "StructurePartition",
    "TrialRecord", "bit_list", "canonical_rotation", "certify_expander",
    "classify_case", "clean_cut", "cross_counts", "decompose",
    "degree_profile", "directed_run_decomposition_case1b",
    "distinct_path_patterns", "double_edge_graph", "embed_hamilton_orientation",
    "exact_embed", "family_names", "find_sparse_cut",
    "fit_decomposition_params", "gen_bipartite_extremal", "gen_blowup_tt",
    "gen_complete_digraph", "gen_random_min_degree", "gen_split_cliques",
    "gen_tournament", "has_directed_window", "induced",
    "is_strongly_connected", "load_json", "longest_directed_segment",
    "mask_of", "necklace_classes", "pancyclic_suite", "partition_case2",
    "partition_from_json_dict", "read_edges", "read_header_spec",
    "reverse_digraph", "reverse_for_embedding", "robust_out_neighborhood",
    "run_experiments", "save_json", "select_connectors", "sparse_or_expander",
    "strongly_connected_components", "switch_count", "switches",
    "tt_embed_path", "two_factor", "validate_embedding", "verify_partition",
    "write_edges",
]
