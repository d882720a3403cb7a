"""Exact structure-constant toolkit for finite-dimensional Hopf algebras,
partial (co)module algebra structures, their globalizations, and smash
products."""

from .fields import Field, GF, QQ
from .linalg import Subspace, Tensor3, closure_fixpoint, rref, subspace_span
from .algebras import (AlgebraData, HopfData, Report, algebra_check,
                       coalgebra_check, dual_hopf, group_algebra, hom_hh_a,
                       hopf_check, scalar_algebra, sweedler_h4, tensor_hah)
from ._groups import GROUP_NAMES, named_group
from .actions import (GroupPartialActionData, PartialActionData,
                      PartialBimoduleData, check_bimodule,
                      check_group_partial_action, check_lpma, check_rpma,
                      dual_regular_action, en_kg_example, group_to_kg,
                      induce_bimodule, induce_left, is_global, kg_to_group,
                      sweedler_k_bimodule, trivial_action, trivialize_right)
from .coactions import (PartialBicomoduleData, PartialCoactionData,
                        bicomodule_to_bimodule, bimodule_to_bicomodule,
                        check_bicomodule, check_global_unit, check_lpca,
                        check_rpca, coaction_to_dual_action,
                        dual_action_to_coaction, regular_bicomodule,
                        regular_coaction, sweedler_k_bicomodule, trivial_coaction)
from .globalize import (BicomoduleGlobalization, BimoduleGlobalization,
                        GlobalizationCandidate, GlobalizationCertificate,
                        comparison_map, free_candidate_bimodule,
                        maximal_degenerate_subbimodule, minimalize, psi_map,
                        standard_globalize_bicomodule, standard_globalize_bimodule,
                        two_stage_closure, verify_globalization)
from .smash import (CornerAlgebra, SmashAlgebra, check_ker_eps_invariance,
                    check_smash_associativity, find_idempotent, smash_product,
                    unital_corner)
from .serialize import (DocumentError, load_action, load_algebra, load_bicomodule,
                        load_bimodule, load_coaction, load_group_action, load_hopf,
                        read_document, write_document)

__version__ = "0.1.0"
