"""Transactions: native transfers and DApp invocations.

These are the two interaction types of the DIABLO blockchain abstraction
(§4): ``transfer_X`` moves X coins between accounts and ``invoke_D_Xs``
invokes DApp D with parameters Xs. Transactions carry the metadata the
evaluated blockchains need: a sequence number (Ethereum/Diem), a fee and gas
limit (London-style dynamic fees), a recent block hash (Solana) and the
signer that produces the sender's signature when somebody reads it.
"""

from __future__ import annotations

import hashlib
import itertools
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Callable, Optional, Tuple


_TX_COUNTER = itertools.count()


def reset_tx_counter() -> None:
    """Restart uid allocation at zero.

    Benchmark runs scope transaction uids to themselves (the Primary
    resets before each run) so a run's serialized records are identical
    no matter how many runs the process executed before it — the property
    the sweep cache and the ``--workers N`` byte-identity guarantee rely
    on.
    """
    global _TX_COUNTER
    _TX_COUNTER = itertools.count()


def take_tx_uids(count: int) -> range:
    """Consume the next *count* uids and return them.

    ``SimConnector.encode_batch`` numbers what it builds with them, and
    ``SimConnector.trigger_aggregate`` the tail the node would turn away.
    """
    global _TX_COUNTER
    first = next(_TX_COUNTER)
    _TX_COUNTER = itertools.count(first + count)
    return range(first, first + count)


# Baseline payload sizes in bytes. A native transfer is roughly an Ethereum
# legacy transaction; invocations add ABI-encoded call data.
TRANSFER_SIZE = 110
INVOKE_BASE_SIZE = 140


class TxKind(Enum):
    """The two DIABLO interaction types."""

    TRANSFER = "transfer"
    INVOKE = "invoke"

    def __init__(self, tag: str) -> None:
        #: the member's value as a plain attribute: ``.value`` goes
        #: through Enum's Python-level descriptor, which the per-
        #: transaction payload, hash and record paths cannot afford
        self.tag = tag


#: ``TxKind.TRANSFER`` as a plain global: reading a member off an Enum
#: class costs about ten global reads, and the execution and emission
#: paths each test a transaction's kind once per transaction
TRANSFER_KIND = TxKind.TRANSFER


@dataclass(slots=True)
class Transaction:
    """A signed client request.

    ``signer`` is the sender's signing function (message -> signature);
    :attr:`signature` is what it says about the transaction as it stands
    now. Nothing on the run path reads a signature — the chain charges
    ``verify_cost`` in sim-time and never looks at the string — so none
    is computed until somebody asks, and it is not cached: a retry
    refreshes ``recent_block_hash`` and a fee bump raises ``fee_per_gas``,
    both covered by :meth:`signing_payload`, and a stored string would
    stop covering them.

    ``submitted_at`` / ``committed_at`` are filled in by the DIABLO
    secondaries during a benchmark — they correspond to the submission and
    decision timestamps the Primary aggregates into its JSON output.
    ``size`` is the wire size in bytes, which the network and the
    block-size limits read. It is fixed by what the transaction carries,
    so it is stored where the transaction is built rather than derived on
    every read. The default is ``TRANSFER_SIZE``, which :func:`transfer`
    keeps; :func:`invoke` and ``SimConnector.encode_batch`` pass
    :func:`invoke_size` of the args, and any caller may pass its own.
    ``SimConnector.encode_batch`` passes the fields up to ``uid`` by
    position (field order is tested in tests/core/test_emission_fastpath.py).
    """

    sender: str
    kind: TxKind
    sequence: int = 0
    amount: int = 0
    recipient: Optional[str] = None
    contract: Optional[str] = None
    function: Optional[str] = None
    args: Tuple[Any, ...] = ()
    fee_per_gas: int = 1
    tip: int = 0
    gas_limit: int = 10_000_000
    recent_block_hash: Optional[str] = None
    signer: Optional[Callable[[str], str]] = None
    size: int = TRANSFER_SIZE
    uid: int = field(default_factory=lambda: next(_TX_COUNTER))

    # benchmark bookkeeping, set by DIABLO components
    submitted_at: Optional[float] = None
    committed_at: Optional[float] = None
    resubmitted_at: Optional[float] = None
    retries: int = 0
    aborted: bool = False
    abort_reason: Optional[str] = None

    def __hash__(self) -> int:
        return self.uid

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Transaction) and other.uid == self.uid

    @property
    def signature(self) -> Optional[str]:
        """The sender's signature over :meth:`signing_payload`, derived on
        every read; None for a transaction nobody signed."""
        signer = self.signer
        return None if signer is None else signer(self.signing_payload())

    @property
    def tx_hash(self) -> str:
        """Deterministic content hash (excludes benchmark bookkeeping).

        Same single-update construction as :meth:`signing_payload`;
        byte-identical to the generic ``digest(...)`` form.
        """
        return hashlib.sha256(
            f"tx\x00{self.uid}\x00{self.sender}\x00{self.kind.tag}\x00"
            f"{self.sequence}\x00{self.recipient}\x00{self.contract}\x00"
            f"{self.function}\x00{self.args}\x00"
            f"{self.amount}\x00".encode()).hexdigest()

    def signing_payload(self) -> str:
        """The string covered by the sender's signature.

        Hot path: one f-string and one hash call. Byte-identical to the
        generic ``digest("payload", sender, kind, ...)`` form (tested in
        tests/chain/test_transaction_fastpath.py) — ``digest`` hashes
        ``str(part) + "\\0"`` per part, and UTF-8 encoding distributes
        over concatenation.
        """
        return hashlib.sha256(
            f"payload\x00{self.sender}\x00{self.kind.tag}\x00"
            f"{self.sequence}\x00{self.recipient}\x00{self.contract}\x00"
            f"{self.function}\x00{self.args}\x00{self.amount}\x00"
            f"{self.fee_per_gas}\x00{self.gas_limit}\x00"
            f"{self.recent_block_hash}\x00".encode()).hexdigest()


def transfer(sender: str, recipient: str, amount: int = 1,
             sequence: int = 0, **kwargs: Any) -> Transaction:
    """Build a native transfer transaction."""
    return Transaction(sender=sender, kind=TxKind.TRANSFER, amount=amount,
                       recipient=recipient, sequence=sequence, **kwargs)


def invoke_size(args: Tuple[Any, ...]) -> int:
    """Wire size of an invocation: the base plus one ABI word per arg."""
    return INVOKE_BASE_SIZE + 32 * len(args)


def invoke(sender: str, contract: str, function: str,
           args: Tuple[Any, ...] = (), sequence: int = 0,
           **kwargs: Any) -> Transaction:
    """Build a DApp invocation transaction."""
    args = tuple(args)
    kwargs.setdefault("size", invoke_size(args))
    return Transaction(sender=sender, kind=TxKind.INVOKE, contract=contract,
                       function=function, args=args, sequence=sequence,
                       **kwargs)
