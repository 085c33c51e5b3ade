"""Join substrate: Exact-Weight sampling, join workloads, estimators."""

from .sampler import NULL_SENTINEL, ChildIndex, StarJoinSampler, build_child_index
from .workload import (FragmentCardinality, JoinQuery, LabeledJoinWorkload,
                       UnjoinableFragmentError, generate_job_light,
                       generate_job_light_ranges_focused,
                       true_join_cardinalities, true_join_cardinality)
from .estimator import NeuroCard, UAEJoin
from .baselines import JoinSampleScan, MSCNJoin, SPNJoin

__all__ = [
    "StarJoinSampler", "ChildIndex", "build_child_index", "NULL_SENTINEL",
    "JoinQuery", "LabeledJoinWorkload", "UnjoinableFragmentError",
    "FragmentCardinality",
    "true_join_cardinality",
    "true_join_cardinalities", "generate_job_light",
    "generate_job_light_ranges_focused",
    "UAEJoin", "NeuroCard", "JoinSampleScan", "SPNJoin", "MSCNJoin",
]
