"""gacalc: exact sparse geometric-algebra computation engine.

Blades are int bitmasks, multivectors are sparse maps from blade to exact
rational coefficient, and three pipelines are built on top: oracle-filtered
database search, NAND-circuit classical computation with a divisor-reading
multiplier pass, and a bounded "halts within K steps" probe over blade-coded
machine step chains.
"""

from .core import (
    DimensionMismatch,
    EncodingRangeError,
    Multivector,
    ResourceCapError,
    blade_mul,
    from_records,
    grade,
    reorder_sign,
    to_records,
)
from .encoding import (
    SubspaceLayout,
    decode,
    decode_wide,
    encode,
    encode_wide,
)

__version__ = "0.1.0"

__all__ = [
    "DimensionMismatch",
    "EncodingRangeError",
    "Multivector",
    "ResourceCapError",
    "SubspaceLayout",
    "blade_mul",
    "decode",
    "decode_wide",
    "encode",
    "encode_wide",
    "from_records",
    "grade",
    "reorder_sign",
    "to_records",
    "__version__",
]
