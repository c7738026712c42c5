"""cipherformer: two-party private transformer inference.

The package splits along the natural trust boundary of the protocol:

  * ``fixedpoint``  -- signed integers <-> prime-field elements
  * ``pahe``        -- packed additively homomorphic encryption (RLWE/RNS)
  * ``helinear``    -- linear algebra on packed ciphertexts (plain-weight
                       products, masked ct-by-ct products)
  * ``gc``          -- boolean circuits, half-gates garbling, oblivious transfer
  * ``stages``      -- per-stage width plans and the non-linear stage circuits
  * ``model``       -- plaintext reference transformer (float + bit-exact fixed)
  * ``protocol``    -- wire framing, share conversion, the full 2-party session

Only light, commonly useful names are re-exported here; import the submodule
for anything else.
"""

from .errors import (
    CipherformerError,
    CircuitError,
    GarbleError,
    NoiseBudgetError,
    ParameterError,
    ProtocolError,
)

__version__ = "0.1.0"

__all__ = [
    "CipherformerError",
    "ParameterError",
    "NoiseBudgetError",
    "CircuitError",
    "GarbleError",
    "ProtocolError",
    "__version__",
]
