"""LRPC codes over finite commutative rings.

Exact arithmetic in Galois rings and finite local rings, module linear
algebra over local rings (Howell-form solving, free-module tests,
intersections, products), LRPC encoding and rank-syndrome decoding over
Galois extensions, product-ring decoding via CRT decomposition, and a
Monte Carlo failure-probability simulator.
"""

from . import errors
from .chain import ChainRing
from .extension import ExtensionDesc
from .lrpc import (CodeParams, DecoderState, DecodingFailure, LrpcCode,
                   build_h_ext, code_from_text, code_to_text, decode_batch,
                   decode_local, encode, erasure_decode, generate_code,
                   generate_codes, sample_error, sample_errors, syndrome)
from .modlin import (MatR, SolutionSet, SquarePropertyReport, Submodule,
                     count_free_submodules, count_independent_tuples,
                     free_module_test, free_rank, general_intersection,
                     intersect_with_free, module_product, module_rank,
                     sample_free_submodule, sample_free_submodules, scale_module,
                     solve_linear, square_property_check, recover_factor, unit_pivot_factor)
from .product_ring import (ProductDecodingFailure, ProductExtensionDesc,
                           ProductLrpcCode, ProductRingDesc, ProductSubmodule,
                           decode_product, decode_product_batch,
                           decompose_ring, encode_product,
                           generate_product_code, generate_product_codes,
                           localized_rank, project,
                           sample_error_product, sample_errors_product,
                           syndrome_product)
from .rings import (GaloisRingParams, LocalRingDesc, QuotientSpec, RingElem,
                    Zmod, construct_local_ring, galois_ring, quotient_ring)
from .simulate import (ExperimentConfig, IoError, TrialRecord, emit_csv,
                       parse_ring_spec, product_theoretical_bound, read_csv,
                       run_trials, theoretical_bound)
from .specparse import parse_local_atom

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
