"""Languages of higher-dimensional automata.

Interval pomsets with interfaces, their starter/terminator algebra,
finite higher-dimensional automata with path semantics, the translation
to automata over step letters, and decision procedures on the resulting
languages.
"""

from .ipomset import (EMPTY, IdentityHasNoDenseDecomposition,
                      InterfaceMismatch, Invalid, InvalidIpomset, Ipomset,
                      ParseError, Problem, Step, StepWord, WidthExceeded,
                      compose, dense_decomposition, discrete_ipomset,
                      enumerate_ipomsets, glue, identity_ipomset,
                      identity_step, in_down_closure, parallel,
                      sparse_decomposition, starter, subsumes,
                      supersumptions, terminator, validate_ipomset,
                      word_ipomset)
from .text import (parse_ipomset, parse_step_word, print_ipomset, print_step,
                   print_step_word)
from .hda import (HDA, Cell, DecompositionTooShort, IllegalMove, InvalidHDA,
                  Move, NotAccepted, Path, PositionOutOfRange, PumpResult,
                  accepts, count_sparse_accepting_paths, dump_hda,
                  enumerate_language, essential_cells, ev, face,
                  hda_from_dict, hda_to_dict, is_deterministic_hda,
                  language_ipomsets, load_hda, path_accepts, product, pump,
                  skeleton, sparsify, validate_path)
from .stauto import (InvalidSTAutomaton, STAutomaton, accepts_word,
                     coherent_word, complement_words, emptiness,
                     enumerate_wang, export_st, inclusion, match_automaton,
                     st_of_hda, word_ipomset_of)
from .decide import (complement_empty, complement_member, empty, equivalent,
                     include, intersect, is_deterministic_language, member,
                     pre_set, prefix_quotient)
from .oneletter import (InvalidUPFunction, NotUPRepresentable, UPFunction,
                        analyze, build, parse_up, print_up)

__version__ = "0.1.0"
