"""edmsphere: spherical Euclidean distance matrix toolkit.

Certify EDMs and their sphericity, build minimum-dimension orthonormal
graph representations, and decompose unit spherical configurations with
minimum distance sqrt(2) into orthogonal simplices, crosspolytopes
included.  All decisions are tolerance-explicit and every construction is
returned together with the checks that certify it.
"""

__version__ = "0.1.0"

from . import decomposition, edm, errors, graphs, matrixio, orthorep, spectral, tolerances
from .decomposition import *  # noqa: F403
from .edm import *  # noqa: F403
from .errors import *  # noqa: F403
from .graphs import *  # noqa: F403
from .matrixio import *  # noqa: F403
from .orthorep import *  # noqa: F403
from .spectral import *  # noqa: F403
from .tolerances import *  # noqa: F403

__all__ = [
    "__version__",
    *tolerances.__all__,
    *errors.__all__,
    *spectral.__all__,
    *matrixio.__all__,
    *graphs.__all__,
    *edm.__all__,
    *orthorep.__all__,
    *decomposition.__all__,
]
