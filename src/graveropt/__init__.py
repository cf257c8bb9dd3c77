"""Exact Graver test sets and augmentation for separable convex
integer programs, with quadratic and assignment front ends."""

from .augment import CipInstance, SolveReport, SolveStatus, solve
from .core import IntMatrix, canonical_rep, conformal_leq, kernel_lattice_basis
from .graver import compute_graver, graver_oracle
from .objective import (DiscreteConvexFn, GeometricAbs, PiecewiseTable,
                        ScaledAbs, ScaledEvenPower, SeparableObjective, Term,
                        Zero, linear_objective)
from .qap import QapInstance, koopmans_beckmann, permutation_oracle, solve_qap
from .quadratic import binary_rephrase, congruence_diagonalize, is_psd, to_separable
from .testset import TestSet, box_test_set, compute_test_set

__all__ = [
    "CipInstance", "SolveReport", "SolveStatus", "solve",
    "IntMatrix", "canonical_rep", "conformal_leq", "kernel_lattice_basis",
    "compute_graver", "graver_oracle",
    "DiscreteConvexFn", "GeometricAbs", "PiecewiseTable", "ScaledAbs",
    "ScaledEvenPower", "SeparableObjective", "Term", "Zero", "linear_objective",
    "QapInstance", "koopmans_beckmann", "permutation_oracle", "solve_qap",
    "binary_rephrase", "congruence_diagonalize", "is_psd", "to_separable",
    "TestSet", "box_test_set", "compute_test_set",
]

__version__ = "0.1.0"
