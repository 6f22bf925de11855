"""Constructive decompositions and inequality checks for positive
semidefinite matrices partitioned into Hermitian blocks.

A PSD matrix with a small number of Hermitian blocks is an average of
isometry conjugates of its partial trace; this package builds those
averages explicitly, emits replayable certificates, and verifies the
norm, eigenvalue, trace and determinant inequalities that follow.

The public API is each module's ``__all__`` (``errors`` has none and
exports its exception classes), re-exported here unchanged.
"""

from .blocks import *
from .checks import *
from .decompose import *
from .errors import *
from .generate import *
from .kernel import *

__version__ = "0.1.0"
