"""Closed error taxonomy.

Every failure mode the runtime can surface is one of the exception types
below; user code can catch ``StageflowError`` to catch them all.
"""


class StageflowError(Exception):
    pass


# --- tensor construction / interchange ---

class LengthMismatch(StageflowError):
    pass


class NarrowingOverflow(StageflowError):
    pass


class SymbolicTensor(StageflowError):
    """A concrete-only facility was applied to a symbolic (traced) tensor,
    or a tensor was made neither concrete nor symbolic, or both."""


class BroadcastIncompatible(StageflowError):
    pass


# --- op registry / dispatch ---

class DuplicateOp(StageflowError):
    pass


class UnknownOp(StageflowError):
    pass


class InvalidOpDef(StageflowError):
    """An OpDef without exactly one of compute and kernel, a multi-output
    compute, or an attr of unknown kind."""


class ArityMismatch(StageflowError):
    pass


class AttrMismatch(StageflowError):
    pass


class KernelError(StageflowError):
    """A kernel rejected its inputs or failed while executing."""


# --- gradient tapes ---

class NonNestedEnd(StageflowError):
    pass


class InactiveTape(StageflowError):
    pass


class NonScalarTarget(StageflowError):
    pass


class UnwatchedSource(StageflowError):
    pass


class ConsumedTape(StageflowError):
    pass


class NotDifferentiable(StageflowError):
    """A gradient that the runtime cannot compute correctly was asked for."""


# --- staging ---

class SignatureMismatch(StageflowError):
    pass


class StagingError(StageflowError):
    pass


class VariableCreationError(StageflowError):
    pass


class UnencodableArgument(StageflowError):
    pass


class MissingConcreteFunction(StageflowError):
    pass


# --- graph functions ---

class NotSerializable(StageflowError):
    pass


class FormatVersionMismatch(StageflowError):
    pass


class CorruptGraph(StageflowError):
    pass


class InputMismatch(StageflowError):
    pass


class MissingFunction(StageflowError):
    pass


# --- variables / checkpoints ---

class ShapeMismatch(StageflowError):
    pass


class DeadVariable(StageflowError):
    pass


class StorageError(StageflowError):
    pass


# --- devices ---

class UnknownDevice(StageflowError):
    pass


# --- host callbacks ---

class CallbackError(StageflowError):
    pass


class SignatureViolation(StageflowError):
    pass


# --- benchmarks ---

class ConfigError(StageflowError):
    pass


class NumericalDivergence(StageflowError):
    pass
