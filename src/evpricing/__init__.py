"""Fixed-price welfare guarantees, dynamic-pricing competition complexity,
and extreme-value fitting for large i.i.d. markets."""

from .competition import *
from .distributions import *
from .errors import *
from .evtfit import *
from .guarantees import *
from .kernel import *
from .policy import *

__version__ = "0.1.0"
