"""Exact computations over finite Weyl groups: Iwahori-level Whittaker
functions, Demazure characters and atoms, the transition coefficients
between them, lexicographic chain conditions on Bruhat intervals, and
Casselman-type transition matrices in the Iwahori-Hecke algebra."""

from .errors import (ConditionError, ConfigurationError, DomainError,
                     UnluckyPointError)
from .roots import RootSystem, build_root_system
from .weyl import WeylElement, WeylGroup
from .groupalg import GAElement, atom_op, demazure, specialize_v, t_op, weyl_act
from .shellability import (beta_sequence, condition_A, condition_B,
                           condition_per_word, deodhar_check, gamma_sequence,
                           is_good_word, lambda_set, lex_max_chain,
                           lex_min_chain, s_set)
from .coeffs import (atom_coeffs, casselman_shalika_check, char_coeffs,
                     closed_form_coeff, demazure_atom, demazure_character,
                     spherical_whittaker, tilde_coeffs, whittaker_function)
from .hecke import (SpectralPoint, m_direct, m_product, mu, psi,
                    sample_spectral_point)

__version__ = "0.1.0"
