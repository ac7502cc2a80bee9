"""Pivots, fundamental graphs, binary matroids, and cut-rank, with
brute-force verification campaigns for the small-scale facts that tie
them together."""

from .gf2 import BitMatrix, matrix_pivot, rank
from .graph import (DegreeStats, Graph, bipartite_complement, degree_stats,
                    find_complete_bipartite, is_c4_free, vertex_connectivity)
from .pivot import is_pivot_minor, pivot, pivot_orbit
from .cutrank import Separation, cut_rank, find_low_rank_separation
from .matroid import (BinaryMatroid, MultiGraph, change_basis, circuits,
                      cographic_matroid, connectivity_lambda, graphic_matroid,
                      is_k_connected, minor)
from .structure import (BlockPartition, SplitEdge, SplitVertex, TreeSplit,
                        check_struct_density, constant_block_partition,
                        perturbation_partition, split_tree)
from .extremal import (Instance, gen_c6_blowup_example, gen_ktt_example,
                       gen_random_instance)
from .verify import CampaignReport, run_campaign

__all__ = [
    "BitMatrix", "matrix_pivot", "rank",
    "DegreeStats", "Graph", "bipartite_complement",
    "degree_stats", "find_complete_bipartite", "is_c4_free", "vertex_connectivity",
    "is_pivot_minor", "pivot", "pivot_orbit",
    "Separation", "cut_rank", "find_low_rank_separation",
    "BinaryMatroid", "MultiGraph", "change_basis", "circuits",
    "cographic_matroid", "connectivity_lambda", "graphic_matroid",
    "is_k_connected", "minor",
    "BlockPartition", "SplitEdge", "SplitVertex", "TreeSplit",
    "check_struct_density", "constant_block_partition", "perturbation_partition",
    "split_tree",
    "Instance", "gen_c6_blowup_example", "gen_ktt_example", "gen_random_instance",
    "CampaignReport", "run_campaign",
]
