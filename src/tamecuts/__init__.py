"""tamecuts: word-metric balls, Fourier multiplier norm certificates, and
characteristic tame-cut families on concrete finitely generated groups.

The package has four computational layers:

* ``tamecuts.groups``   exact canonical-form arithmetic, Cayley-graph BFS
  ball enumeration, word lengths and coset sections for five group
  families (free abelian, matrix semidirect products of Z^d, the p/q
  affine matrix groups, lamplighters, Baumslag-Solitar); balls are always
  grown, and ``BallCache`` only writes and reads JSON ball files;
* ``tamecuts.fourier``  Fourier-algebra norms of finitely supported
  functions on Z^d via exact Dirichlet-kernel formulas and adaptive FFT
  quadrature, packaged as (lower, upper) certificates;
* ``tamecuts.opnorm``   certified lower bounds on reduced-C* convolution
  norms by power iteration on ball compressions, and rapid-decay ratio
  tests;
* ``tamecuts.cuts``     the tame-cut constructions themselves, with
  exhaustive ball-coverage verification and growth-exponent fits.

``tamecuts.cli`` wraps everything in a deterministic command-line tool.
"""

__version__ = "0.1.0"

from .errors import BudgetExceededError, ElementNotFoundError, InputError
from .fourier import (
    NormCertificate,
    TrigPoly,
    a_norm_torus,
    dirichlet_l1,
    finite_cyclic_a_norm,
    hardy_ratio,
    tensor_norm,
)
from .groups import (
    Ball,
    BallCache,
    CosetSection,
    Element,
    GroupSpec,
    ball,
    canonicalize,
    coset_section,
    embed_j2,
    invert,
    multiply,
    subgroup_membership,
    t_length,
    word_length,
)
from .opnorm import (
    FinSuppFun,
    SpectralEstimate,
    lambda_norm_lower,
    rd_fit,
    rd_test,
)
from .cuts import (
    Cut,
    VerificationReport,
    cut_ball,
    cut_bs,
    cut_lamplighter,
    cut_pq,
    cut_semidirect_zd,
    extend_by_cogrowth,
    fit_growth,
    interval_cut_family,
    verify_cut,
)

__all__ = [
    "__version__",
    "InputError", "BudgetExceededError", "ElementNotFoundError",
    "GroupSpec", "Element", "Ball", "BallCache", "CosetSection",
    "ball", "canonicalize", "coset_section", "embed_j2", "invert",
    "multiply", "subgroup_membership", "t_length", "word_length",
    "NormCertificate", "TrigPoly", "a_norm_torus", "dirichlet_l1",
    "finite_cyclic_a_norm", "hardy_ratio", "tensor_norm",
    "FinSuppFun", "SpectralEstimate", "lambda_norm_lower", "rd_fit", "rd_test",
    "Cut", "VerificationReport",
    "cut_ball", "cut_bs", "cut_lamplighter", "cut_pq", "cut_semidirect_zd",
    "extend_by_cogrowth", "fit_growth", "interval_cut_family", "verify_cut",
]
