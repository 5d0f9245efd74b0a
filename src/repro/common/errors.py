"""Exception hierarchy for the repro package.

Every error raised by the library derives from :class:`ReproError` so that
callers can catch library failures without masking programming errors.
The VM/chain errors mirror the failure modes the paper reports: transactions
rejected by the mempool, transactions aborted because a hard execution budget
was exceeded ("budget exceeded" in §6.4), underpriced transactions after a
fee update, and stale block hashes (Solana's 120-second recency rule).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class ConfigurationError(ReproError):
    """A benchmark, workload or deployment configuration is invalid."""


class SpecError(ConfigurationError):
    """The workload specification document cannot be parsed or resolved."""


class SimulationError(ReproError):
    """The discrete-event simulation reached an inconsistent state."""


class SafetyViolationError(SimulationError):
    """A consensus safety invariant (agreement, total order, certificate
    validity) was violated during a run — raised by the ``SafetyAuditor``
    in strict mode, carrying the forensic report of the first violation."""

    def __init__(self, message: str, violation=None) -> None:
        super().__init__(message)
        #: forensic record: check, height, nodes, conflicting values, times
        self.violation = violation


class NetworkError(SimulationError):
    """A message could not be delivered by the simulated network."""


class ChainError(ReproError):
    """Base class for blockchain-level failures."""


class UnknownAccountError(ChainError):
    """A transaction references an account that does not exist."""


class InvalidTransactionError(ChainError):
    """A transaction is malformed or fails signature/nonce validation."""


class MempoolFullError(ChainError):
    """The node's memory pool rejected a transaction because it is full."""


class SenderQuotaError(MempoolFullError):
    """Per-sender mempool quota exceeded (Diem's 100-transaction limit)."""


class BackpressureError(ChainError):
    """A node pushed back on a client submission before pool admission.

    Backpressure rejections are transient by construction — the client is
    expected to back off and retry, so client retries
    (:class:`~repro.blockchains.retry.ClientRetries`) resubmit after every
    subclass.
    """


class NodeOverloadedError(BackpressureError):
    """The node is shedding load under memory pressure (§6 overload)."""


class UnderpricedError(MempoolFullError):
    """The transaction's price is below the mempool's current fee floor.

    A :class:`MempoolFullError` subclass on purpose: an underpriced
    rejection is retryable — the client's fee-bumping retry path treats
    it exactly like a full pool, resubmitting at a higher price.
    """


class VMError(ChainError):
    """Base class for virtual-machine execution failures."""


class BudgetExceededError(VMError):
    """Execution exceeded the VM's hard computational budget.

    This is the error Algorand, Diem and Solana report when running the
    Mobility service DApp (paper §6.4 / experiment E2).
    """


class OutOfGasError(VMError):
    """Execution ran out of the gas supplied with the transaction."""


class StateLimitError(VMError):
    """Contract state exceeds the VM's storage limits.

    Algorand's AVM limits state to key-value pairs of 128 bytes, which is why
    the video sharing DApp cannot be implemented in TEAL (paper §5.2).
    """


class ContractError(VMError):
    """The contract itself aborted (e.g. require() failed)."""


class DeploymentError(ReproError):
    """A blockchain network could not be deployed in a configuration.

    E.g. Diem's setup tools failing after creating 130 accounts (§5.2).
    """
