"""Shared exception types.

Everything raised on purpose by this package derives from CipherformerError,
so callers can catch one base class at protocol boundaries.  The subclasses
map to the major failure domains:

  * ParameterError   -- bad or inconsistent scheme/config parameters
  * NoiseBudgetError -- an HE ciphertext has (or would) run out of noise room
  * CircuitError     -- boolean circuit construction or evaluation misuse
  * ProtocolError    -- framing violations, out-of-order messages, bad magic
"""


class CipherformerError(Exception):
    """Base class for all errors raised by this package."""


class ParameterError(CipherformerError, ValueError):
    pass


class NoiseBudgetError(CipherformerError, RuntimeError):
    pass


class CircuitError(CipherformerError, ValueError):
    pass


class ProtocolError(CipherformerError, RuntimeError):
    pass
