"""Finite propositional belief revision with ranked models.

The package provides a bitmask logic core, rank functions realizing
rational consistency-preserving consequence relations, revision
operators built from them, and an exhaustive postulate-checking harness
with counterexample search.
"""

from .errors import (
    DomainTooLargeError,
    ParseError,
    RankedRevError,
    RankFileError,
    SamplingError,
    SearchExhaustedError,
    SignatureError,
    SignatureTooLargeError,
    UnknownAtomError,
    WitnessNotFoundError,
)
from .logic import (
    And,
    Atom,
    Const,
    Formula,
    Iff,
    Implies,
    Not,
    Or,
    PropSet,
    Signature,
    Theory,
    cn_with,
    format_formula,
    models_of,
    parse_formula,
    theory_contains,
    theory_intersect,
)
from .postulates import (
    AGM_PLUS_MINIMAL_INFLUENCE,
    AGM_POSTULATES,
    ImpossibilityTarget,
    PostulateId,
    SuiteReport,
    UnderdeterminationWitness,
    Violation,
    check_implication_9p_to_92,
    check_postulate,
    dynamic_underdetermination,
    find_impossibility_witness,
    run_suite,
)
from .ranking import (
    RankFunction,
    consequences_of,
    enumerate_rank_functions,
    format_rank_file,
    normalize,
    parse_rank_file,
    random_rank_function,
)
from .relations import (
    RATIONAL_PROPERTIES,
    ConsequenceRelation,
    RationalityReport,
    RelationWitness,
    check_rationality,
)
from .render import canonical_formula, dnf_text, theory_text
from .revision import (
    ConservativeRevision,
    RankedRevision,
    Revision,
    RevisionStep,
    Severity,
    TableRevision,
    conservative_extension,
    iterate,
    relation_of_revision,
    revision_of_relation,
    severity_of,
    with_theory_floor,
)

__version__ = "0.1.0"
