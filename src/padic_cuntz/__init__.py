"""Exact-arithmetic Cuntz algebra operators on p-adic step functions,
the free Fock space, and free coherent states.

Everything is computed in Q(√p) ⊕ i·Q(√p); every identity the package
verifies is an exact equality at finite depth or finite truncation.
"""

from .coherent import (CoherentState, PairingSeries, af_relation_residual,
                       af_state_value, build_X_truncated, eigen_residual,
                       gram_matrices, indicator_state, leibnitz_residuals,
                       pairing_series, phi_map, renormalized_pairing,
                       t_dagger, t_dagger_fock, t_op, t_op_fock,
                       to_fock_truncated)
from .errors import (CapExceededError, InvalidDigitError, InvalidLetterError,
                     NotPrimeError, NotStabilizedError, OperatorParseError,
                     PadicCuntzError, SelfCheckError)
from .fock import (FockVector, af_annihilate, af_create, annihilate_sum,
                   fock_annihilate, fock_create, fock_inner,
                   fock_inner_by_length)
from .representation import (OperatorWord, apply_annihilation, apply_creation,
                             apply_operator_word, creation_chain,
                             cyclicity_basis, gns_state, parse_operator_word)
from .scalars import Q, Scalar, format_with_decimal, is_prime, validate_prime
from .stepfunctions import (VALUE_CAP, DiskAddress, StepFunction, constant,
                            indicator, integrate, l2_inner, make_indicator,
                            refine, word_to_center)
from .words import (Word, count_words_up_to, parse_word, validate_word,
                    word_str, words_of_length, words_up_to)

__version__ = "0.1.0"
