"""Exact structure-constant toolkit for finite-dimensional Hopf algebras,
partial (co)module algebra structures, their globalizations, and smash
products.

The public names below are loaded on first use: `import phopf` loads no
submodule, and `phopf.X` (or `from phopf import X`) imports the submodule
that defines X and returns that module's own object.  The globalization
ambients (`ambient`), the candidates from outside (`candidates`), the
structures induced from global ones (`induced`), partial group actions
(`group_actions`) and the built-in examples (`examples`) each have their own
module, so a command of the `phopf` CLI compiles only the modules it runs."""

import importlib

# submodule -> the public names it defines
_EXPORTS = {
    "fields": ("Field", "GF", "QQ"),
    "linalg": ("Subspace", "Tensor3", "closure_fixpoint", "rref",
               "subspace_span"),
    "algebras": ("AlgebraData", "HopfData", "Report", "algebra_check", "coalgebra_check",
                 "dual_hopf", "hom_hh_a", "hopf_check", "tensor_hah"),
    "examples": ("group_algebra", "regular_bicomodule", "regular_coaction", "scalar_algebra",
                 "sweedler_h4", "sweedler_k_bicomodule", "trivial_coaction"),
    "_groups": ("GROUP_NAMES", "named_group"),
    "actions": ("PartialActionData", "PartialBimoduleData", "check_bimodule",
                "check_lpma", "check_rpma", "dual_regular_action", "is_global",
                "sweedler_k_bimodule", "trivial_action", "trivialize_right"),
    "group_actions": ("GroupPartialActionData", "check_group_partial_action",
                      "en_kg_example", "group_to_kg", "kg_to_group", "load_group_action"),
    "coactions": ("PartialBicomoduleData", "PartialCoactionData",
                  "bicomodule_to_bimodule", "bimodule_to_bicomodule",
                  "check_bicomodule", "check_global_unit", "check_lpca",
                  "check_rpca", "coaction_to_dual_action",
                  "dual_action_to_coaction"),
    "induced": ("induce_bimodule", "induce_left"),
    "globalize": ("GlobalizationCandidate", "StandardGlobalization",
                  "maximal_degenerate_subbimodule", "psi_map",
                  "standard_globalize_bicomodule", "standard_globalize_bimodule",
                  "verify_globalization"),
    "candidates": ("comparison_map", "free_candidate_bimodule", "minimalize"),
    "smash": ("CornerAlgebra", "SmashAlgebra", "check_ker_eps_invariance",
              "check_smash_associativity", "find_idempotent", "smash_product",
              "unital_corner"),
    "serialize": ("DocumentError", "load_action", "load_algebra",
                  "load_bicomodule", "load_bimodule", "load_coaction",
                  "load_hopf", "read_document", "write_document"),
}

_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)

__version__ = "0.1.0"


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    return getattr(importlib.import_module("." + module, __name__), name)


def __dir__():
    return sorted(set(globals()) | set(__all__))
