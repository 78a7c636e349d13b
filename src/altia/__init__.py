"""Alternating interface automata.

Specifications whose transitions target lattice configurations of
states, with an observational input-failure trace semantics, a complete
refinement checker, determinization, translations from and to plain
interface automata, and tester synthesis for black-box testing.

Importing the package loads none of its modules: each public name, and
each submodule named in ``__all__``, resolves on first use (PEP 562), so
``altia.det`` imports ``altia.determinize`` and a command-line process
loads only the modules its command runs.
"""

import importlib

# Public names by the submodule that defines them.
_EXPORTS = {
    "aia": ("AIA", "TraceStatus", "after", "after_trace", "aia_bot", "aia_top", "conj",
            "disj", "induce_aia", "induce_ia", "rename_states", "trace_verdict"),
    "determinize": ("check_deterministic", "det"),
    "errors": ("AlphabetError", "AltiaError", "ExplorationLimitError", "ModelError",
               "ParseError"),
    "ia": ("IA", "FTrace", "Label", "after_set", "deterministic", "fcl_member",
           "ftrace_member", "in_set", "inp", "out"),
    "io": ("load_model", "parse_expr", "parse_model", "parse_trace", "print_model",
           "save_model", "to_dot"),
    "lattice": ("Clause", "Config", "Kind", "bot", "classify", "dnf", "embed", "join",
                "join_all", "meet", "meet_all", "substitute", "top"),
    "refine": ("RefinementResult", "equiv", "leq_aia", "leq_ia", "leq_ia_aia"),
    "rng": ("SplitMix64",),
    "search": (),
    "testing": ("Tester", "Verdict", "build_tester", "format_verdict", "gen_singular",
                "is_singular_for", "is_test_case", "run_random", "singular_from_trace",
                "tester_problems", "verdict_exhaustive"),
}

# Public name -> (submodule, attribute); the attribute None is the submodule.
_ORIGIN = {name: (module, name) for module, names in _EXPORTS.items() for name in names}
_ORIGIN.update({module: (module, None) for module in _EXPORTS})
_ORIGIN["aia_ftrace_member"] = ("aia", "ftrace_member")

__all__ = sorted(_ORIGIN)

__version__ = "0.1.0"


def __getattr__(name):
    try:
        module, attr = _ORIGIN[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = importlib.import_module(f"{__name__}.{module}")
    if attr is not None:
        value = getattr(value, attr)
    globals()[name] = value
    return value


def __dir__():
    return sorted(globals().keys() | _ORIGIN.keys())
