"""Finite-group formation theory toolkit.

Explicit finite groups (Cayley tables from permutation generators), subgroup
lattices, saturated formations with canonical local satellites, residuals,
F-subnormality, and verifiers for the n-maximal-subgroup classification
theorems, runnable over a curated group corpus.
"""

from .errors import (CacheVersionMismatch, ClosureExceedsCap, CorpusParseError,
                     DslSemanticError, DslSyntaxError, FormationsError,
                     InvalidParams, LatticeExceedsCap, NoSatellite, NotMaximal,
                     NotNormal, NotNormalized, UnknownBuiltin)
from .groups import (FiniteGroup, Permutation, QuotientGroup, Subgroup,
                     center, centralizer, commutator_subgroup, core,
                     direct_product, from_generators, generated_subgroup,
                     is_normal, normal_closure, normalizer, quotient)
from .lattice import (ChiefFactor, ChiefSeries, SubgroupLattice, all_subgroups,
                      chief_series, fitting, frattini, hall,
                      minimal_normal_subgroups, normal_subgroups, o_core,
                      sylow)
from .structure import (StructureProfile, dispersiveness, induced_action,
                        is_phi_dispersive, is_schmidt, is_miller_moreno,
                        is_subnormal, profile)
from .formation import (BUILTINS, Formation, NILPOTENT, SOLUBLE, SUPERSOLUBLE,
                        abelian_exponent, canonical_satellite, f_hypercentre,
                        intersection, is_f_central, is_f_critical,
                        is_f_normal_maximal, is_f_subnormal, local_membership,
                        member, p_groups, product, residual,
                        sigma_closure_check, soluble_length_formation)
from .theorems import (ClassificationOutcome, TheoremReport,
                       all_n_maximal_f_subnormal, classify_type, verify_lemma,
                       verify_theorem)
from .harness import CheckSpec, RunConfig, full_suite, run_corpus
from .dsl import (format_group_spec, formation_from_text, parse_group,
                  parse_group_spec)
from .storage import (CorpusEntry, builtin_corpus_path, cache_lattice,
                      load_cached_lattice, load_corpus, write_report)

KERNEL_BACKEND = "python"  # the only closure kernel
__version__ = "0.1.0"
