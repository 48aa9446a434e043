"""Exact characters of symmetric powers of irreducible representations.

The pipeline: build a root system, compute the weight multiplicities of an
irreducible module, decompose the graded symmetric-power character into
pole data (closed in the degree), then read off characters, weight
multiplicities, Weyl-orbit summands and vector-partition counts for any
concrete degree.  Independent oracles (truncated series expansion, a
Newton-style recursion, symmetric-function identities and a quadrature
check) validate every result.  All core arithmetic is exact over Q.

The package exports every name in the ``__all__`` of each pipeline module;
the command line (``symchar.cli``) stays out.
"""

from . import charformula, oracle, pfdcore, polyring, rootsys, vpart, weightsys
from .charformula import *
from .oracle import *
from .pfdcore import *
from .polyring import *
from .rootsys import *
from .vpart import *
from .weightsys import *

__version__ = "0.1.0"

_MODULES = (charformula, oracle, pfdcore, polyring, rootsys, vpart, weightsys)
__all__ = [name for module in _MODULES for name in module.__all__] + ["__version__"]
