"""Exact first Milnor cohomology of projective line arrangements.

Two independent computations of the monodromy eigenspace dimensions
b_1(F)_lambda for lambda = exp(2*pi*i*k/d), lambda != 1:

* the combinatorial Aomoto-complex dimension, valid as the eigenspace
  dimension whenever a residue integrality certificate exists, and
* the jet-evaluation cokernel formulas coming from the multiplier ideals
  of the multiple-point configuration, valid unconditionally.

All arithmetic is exact, over Q or a cyclotomic field Q(zeta_n).
"""

from .cyclotomic import CycloNumber, cyclotomic_polynomial, euler_phi
from .linalg import Matrix, nullspace, rank, smith_normal_form, solve_mod
from .arrangement import (Arrangement, ArrangementError, GenericityError,
                          IncidenceLattice, LatticePoint, ProjLine, ProjPoint,
                          build_lattice, generic_section, named_arrangement,
                          named_arrangement_names)
from .resonance import (PartitionPhi, ResidueWeights, alpha_components,
                        aomoto_h1, check_pencil_partition,
                        check_residue_integrality, net_detect,
                        search_residue_subset, weights_from_kI)
from .milnor import (EigenReport, InvariantViolation, full_spectrum, grf_dims,
                     monomial_basis, precheck_vanishing)
from .realize import (IncidenceSystem, RealizationCandidate,
                      incidence_from_lattice, search_realizations)
from .report import AnalysisDocument, AnalyzeOptions, analyze, render

__all__ = [name for name in dir() if not name.startswith("_")]
