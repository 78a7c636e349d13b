"""Alternating interface automata.

Specifications whose transitions target lattice configurations of
states, with an observational input-failure trace semantics, a complete
refinement checker, determinization, translations from and to plain
interface automata, and tester synthesis for black-box testing.
"""

from .aia import (
    AIA,
    TraceStatus,
    after,
    after_trace,
    aia_bot,
    aia_top,
    conj,
    disj,
    induce_aia,
    induce_ia,
    rename_states,
    trace_verdict,
)
from .aia import ftrace_member as aia_ftrace_member
from .determinize import check_deterministic, det
from .errors import (
    AlphabetError,
    AltiaError,
    ExplorationLimitError,
    ModelError,
    ParseError,
)
from .ia import (
    IA,
    FTrace,
    Label,
    after_set,
    deterministic,
    fcl_member,
    ftrace_member,
    in_set,
    inp,
    out,
)
from .io import (
    load_model,
    parse_expr,
    parse_model,
    parse_trace,
    print_model,
    save_model,
    to_dot,
)
from .lattice import (
    Clause,
    Config,
    Kind,
    bot,
    classify,
    dnf,
    embed,
    join,
    join_all,
    meet,
    meet_all,
    substitute,
    top,
)
from .refine import RefinementResult, equiv, leq_aia, leq_ia, leq_ia_aia
from .rng import SplitMix64
from .testing import (
    Tester,
    Verdict,
    build_tester,
    format_verdict,
    gen_singular,
    is_singular_for,
    is_test_case,
    run_random,
    singular_from_trace,
    tester_problems,
    verdict_exhaustive,
)

__version__ = "0.1.0"
