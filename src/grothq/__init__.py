"""grothq: quadratic-form maximization bounds for normalized complex matrices.

The library brackets the polydisc supremum g(theta) of the classical form
|sum theta_ij s_i t_j|, computes the ball supremum g'(theta) = d * s_max
exactly, maximizes the vector (trace) form |Tr(theta V W^dagger)|, builds
zero-diluted Fourier state families with their overlap projectors, and runs
the experiments that probe the window (1, 1.4049] between the classical and
vector ceilings.

Each module's ``__all__`` declares its public names; the package exports them
all, so a public name is declared in one place.
"""

from .linalg import *
from .norms import *
from .forms import *
from .states import *
from .experiments import *
from .matrix_io import *
from . import experiments, forms, linalg, matrix_io, norms, states

__version__ = "0.1.0"

__all__ = [name for module in (linalg, norms, forms, states, experiments, matrix_io)
           for name in module.__all__] + ["__version__"]
