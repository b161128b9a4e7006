"""courantlab: an exact workbench for Courant algebroids on trivial bundles.

Everything symbolic is computed over exact rationals (polynomial identities
hold or fail with zero tolerance); floating point appears only in the
port-Hamiltonian simulator.

Each module's `__all__` is the one declaration of its public names, and the
package republishes them all: every public name imports from the root.
"""

from .polyexpr import *
from .bundles import *
from .courant_core import *
from .morphisms import *
from .pullback import *
from .intrinsic import *
from .phsim import *
from .scene import *

__version__ = "0.1.0"
