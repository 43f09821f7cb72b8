"""Finite-group engine for chief-series subgroup criteria.

Permutation and table groups with a small structure library (Sylow
subgroups, chief series, the p-hypercyclic hypercentre) drive one
central question: does a subgroup admit a chief series on which every
factor passes the normalizer-index test?  `satisfies_partial_pi`
answers it with a replayable witness or refusal, and
`verify_theorem`/`run_corpus` sweep the structural theorems built on
that property over concrete groups.
"""

from .arith import is_pi_number, is_prime, p_part, prime_set
from .catalog import (
    build_group,
    corpus_names,
    from_description,
    group_names,
)
from .formations import f_hypercenter
from .groups import (
    FiniteGroup,
    LimitExceeded,
    PermGroup,
    Subgroup,
    TableGroup,
    semidirect_product,
)
from .partialpi import (
    FactorCheck,
    PiRefusal,
    PiWitness,
    factor_condition,
    satisfies_partial_pi,
)
from .perm import Perm
from .series import (
    ChiefSeries,
    fitting_subgroup,
    hypercenter,
    is_p_soluble,
    is_p_supersoluble,
    is_soluble,
    is_supersoluble,
    normal_subgroups,
    one_chief_series,
    p_length,
    socle,
)
from .structure import (
    centralizer,
    centre,
    frattini_subgroup_of_p_subgroup,
    p_residual,
)
from .sylow import (
    cyclic_subgroups_of_order,
    is_quaternion_free,
    maximal_subgroups_of_p_group,
    sylow_subgroup,
    two_maximal_subgroups_of_p_group,
    two_minimal_subgroups,
)
from .verify import THEOREM_IDS, TheoremReport, run_corpus, verify_theorem

__all__ = [
    "build_group",
    "centralizer",
    "centre",
    "ChiefSeries",
    "corpus_names",
    "cyclic_subgroups_of_order",
    "f_hypercenter",
    "factor_condition",
    "FactorCheck",
    "FiniteGroup",
    "fitting_subgroup",
    "frattini_subgroup_of_p_subgroup",
    "from_description",
    "group_names",
    "hypercenter",
    "is_p_soluble",
    "is_p_supersoluble",
    "is_pi_number",
    "is_prime",
    "is_quaternion_free",
    "is_soluble",
    "is_supersoluble",
    "LimitExceeded",
    "maximal_subgroups_of_p_group",
    "normal_subgroups",
    "one_chief_series",
    "p_length",
    "p_part",
    "p_residual",
    "Perm",
    "PermGroup",
    "PiRefusal",
    "PiWitness",
    "prime_set",
    "run_corpus",
    "satisfies_partial_pi",
    "semidirect_product",
    "socle",
    "Subgroup",
    "sylow_subgroup",
    "TableGroup",
    "THEOREM_IDS",
    "TheoremReport",
    "two_maximal_subgroups_of_p_group",
    "two_minimal_subgroups",
    "verify_theorem",
]
