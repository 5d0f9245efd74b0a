"""The DIABLO blockchain abstraction (§4).

"To add a new blockchain, one has to implement at least one of these
interaction types as well as 4 functions that convert the benchmark
specification to an executable test program: (i) s.create_client(E),
(ii) create_resource(phi_r), (iii) encode(phi_i, r, t) to produce an opaque
encoded interaction e, and (iv) c.trigger(e)."

:class:`BlockchainConnector` is that interface; :class:`SimConnector` is
its implementation for the simulated chains of :mod:`repro.blockchains`.
A Secondary tick emits many interactions at one virtual instant, so the
two functions on the emission path are implemented in their batch form,
``encode_batch`` and ``trigger_batch``; the paper's ``encode`` is the
batch of one. Implementing a connector for a real
chain (e.g. via web3.py) requires exactly these four methods — the paper
notes real implementations run 1,000-1,200 LOC.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, List, Optional, Sequence, Tuple

from repro.chain.transaction import (
    TRANSFER_KIND,
    TRANSFER_SIZE,
    Transaction,
    TxKind,
    invoke_size,
    take_tx_uids,
)
from repro.common.errors import ConfigurationError, SpecError
from repro.contracts.registry import CONTRACT_FACTORIES
from repro.core.spec import (
    AccountSample,
    ContractSample,
    InvokeSpec,
    TransferSpec,
)

if TYPE_CHECKING:
    from repro.blockchains.base import BlockchainNetwork
    from repro.chain.account import Account
    from repro.core.spec import Interaction

TRANSFER_GAS_LIMIT = 21_000
DEFAULT_INVOKE_GAS_LIMIT = 5_000_000


@dataclass(slots=True)
class Client:
    """A DIABLO client: one explicit worker thread on a Secondary (§4)."""

    name: str
    location: str
    endpoints: Tuple[str, ...]


class BlockchainConnector:
    """The 4-function abstraction DIABLO programs against."""

    def create_client(self, name: str, location: str,
                      endpoints: Sequence[str]) -> Client:
        raise NotImplementedError

    def create_resource(self, spec: Any) -> Any:
        raise NotImplementedError

    def encode_batch(self, interaction: Interaction, resource: Any,
                     t: float, count: int) -> List[Transaction]:
        """Encode *count* interactions of one tick, in emission order."""
        raise NotImplementedError

    def trigger_batch(self, clients: Sequence[Client],
                      encoded: Sequence[Transaction]) -> int:
        """Trigger one encoded interaction per client; return #accepted."""
        raise NotImplementedError

    # -- the paper's single form: the batch of one ------------------------------------

    def encode(self, interaction: Interaction, resource: Any,
               t: float) -> Transaction:
        return self.encode_batch(interaction, resource, t, 1)[0]


class SimConnector(BlockchainConnector):
    """Connector for the simulated blockchains."""

    def __init__(self, network: BlockchainNetwork) -> None:
        self.network = network
        self._account_cursor = 0
        self._gas_estimates: dict[Tuple[str, str], int] = {}
        # hot-path caches: the materialized account ring (the registry is
        # append-only, so a length check is a complete invalidation
        # signal), one precomputed signer per account, and the DApp-key ->
        # deployed-contract-name mapping
        self._ring: List[Account] = []
        self._signers: dict[str, Any] = {}
        self._contract_names: dict[str, str] = {}

    # -- clients -----------------------------------------------------------------

    def create_client(self, name: str, location: str,
                      endpoints: Sequence[str]) -> Client:
        known = {ep.name for ep in self.network.endpoints}
        for endpoint in endpoints:
            if endpoint not in known:
                raise ConfigurationError(
                    f"client {name}: unknown endpoint {endpoint!r}")
        return Client(name, location, tuple(endpoints))

    # -- resources -----------------------------------------------------------------

    def create_resource(self, spec: Any) -> Any:
        """Provision accounts or deploy a contract before the benchmark."""
        if isinstance(spec, AccountSample):
            self.network.create_accounts(spec.number)
            return self.network.accounts
        if isinstance(spec, ContractSample):
            try:
                factory = CONTRACT_FACTORIES[spec.name]
            except KeyError:
                raise SpecError(
                    f"unknown DApp {spec.name!r};"
                    f" available: {sorted(CONTRACT_FACTORIES)}") from None
            contract = factory()
            self.network.deploy_contract(contract)
            return contract
        raise SpecError(f"cannot provision resource {spec!r}")

    # -- encoding ----------------------------------------------------------------------

    def _account_ring(self) -> List[Account]:
        """The provisioned accounts, materialized once for O(1) indexing."""
        accounts = self.network.accounts
        n = len(accounts)
        if n == 0:
            raise ConfigurationError("no accounts provisioned")
        ring = self._ring
        if len(ring) != n:
            ring = self._ring = list(accounts)
        return ring

    def _signer_for(self, account: Account) -> Any:
        """A cached per-account fast signer (see crypto.signing)."""
        signer = self._signers.get(account.address)
        if signer is None:
            scheme = self.network.params.signature_scheme
            signer = self._signers[account.address] = scheme.signer(
                account.private_key)
        return signer

    def _contract_name(self, spec_name: str) -> str:
        """Map a DApp key ('dota') to its deployed contract name."""
        name = self._contract_names.get(spec_name)
        if name is None:
            name = self._contract_names[spec_name] = \
                CONTRACT_FACTORIES[spec_name]().name
        return name

    def _invoke_gas_limit(self, contract: str, function: str,
                          sample_tx: Transaction) -> int:
        """Estimate a gas limit for a DApp call (probe once, cache).

        Mirrors eth_estimateGas + safety margin. When the probe hits the
        VM's hard budget the client still submits with a generous limit —
        the paper's clients likewise submitted and received "budget
        exceeded" errors from the chain (§6.4).
        """
        key = (contract, function)
        cached = self._gas_estimates.get(key)
        if cached is not None:
            return cached
        status, gas_used = self.network.vm.probe_gas(
            self.network.state, sample_tx)
        if status.value == "success":
            limit = int(gas_used * 1.5)
        else:
            limit = max(DEFAULT_INVOKE_GAS_LIMIT, int(gas_used * 2))
        self._gas_estimates[key] = limit
        return limit

    def encode_batch(self, interaction: Interaction, resource: Any,
                     t: float, count: int) -> List[Transaction]:
        """Build one tick's worth of interactions, each with its signer.

        DIABLO's Secondaries pre-sign transactions so that signing is not
        on the measured path (§4). Here nothing on the run path reads a
        signature at all, so a transaction gets its sender's signer (the
        chain's scheme, one :class:`PrecomputedSigner` per account) and
        ``tx.signature`` is derived when read; no hash is computed in the
        tick. One batch of *N* equals *N* batches of one (tested per chain
        in tests/core/test_emission_fastpath.py): the account cursor
        advances over the materialized ring and per-transaction state
        (account sequence numbers, tx uids) is consumed in emission order.
        The invariant lookups — fee-market suggestion callable, ledger
        head — are hoisted out of the loop; hoisting the head hash is safe
        because the whole batch runs inside one engine callback and the
        head only moves in block-append events. A transaction is one
        positional ``Transaction(...)`` call (a keyword costs CPython a
        match by name) carrying its wire size, worked out once per batch,
        and the batch's uids come from one :func:`take_tx_uids` call.
        """
        if count <= 0:
            return []
        network = self.network
        ring = self._account_ring()
        n = len(ring)
        cursor = self._account_cursor
        signers = self._signers
        signer_for = self._signer_for
        market = network.fee_market
        suggest = market.model.suggest if market is not None else None
        head_hash = (network.ledger.head.block_hash
                     if network.params.tx_expiry is not None else None)
        txs: List[Transaction] = []
        append = txs.append
        if isinstance(interaction, TransferSpec):
            amount = interaction.amount
            for uid in take_tx_uids(count):
                account = ring[cursor % n]
                recipient = ring[(cursor + 1) % n]
                cursor += 2
                signer = signers.get(account.address)
                if signer is None:
                    signer = signer_for(account)
                sequence = account.sequence
                account.sequence = sequence + 1
                tx = Transaction(account.address, TRANSFER_KIND, sequence,
                                 amount, recipient.address, None, None, (),
                                 1, 0, TRANSFER_GAS_LIMIT, head_hash, signer,
                                 TRANSFER_SIZE, uid)
                if suggest is not None:
                    # honest wallets price at the current suggestion (base
                    # fee times headroom plus default tip); the signature
                    # covers the price fields, like a real signed envelope
                    tx.fee_per_gas, tx.tip = suggest()
                append(tx)
        elif isinstance(interaction, InvokeSpec):
            contract_name = self._contract_name(interaction.contract.name)
            function = interaction.function
            args = tuple(interaction.args)
            size = invoke_size(args)
            for uid in take_tx_uids(count):
                account = ring[cursor % n]
                cursor += 1
                signer = signers.get(account.address)
                if signer is None:
                    signer = signer_for(account)
                sequence = account.sequence
                account.sequence = sequence + 1
                tx = Transaction(account.address, TxKind.INVOKE, sequence, 0,
                                 None, contract_name, function, args, 1, 0,
                                 DEFAULT_INVOKE_GAS_LIMIT, head_hash, signer,
                                 size, uid)
                tx.gas_limit = self._invoke_gas_limit(
                    contract_name, function, tx)
                if suggest is not None:
                    tx.fee_per_gas, tx.tip = suggest()
                append(tx)
        else:
            raise SpecError(f"unknown interaction {interaction!r}")
        self._account_cursor = cursor
        return txs

    # -- the aggregate lane's trimmed tick -------------------------------------------------

    def admission_room(self, interaction: Interaction,
                       count: int) -> Optional[int]:
        """How many of *count* interactions the node would admit if they
        were triggered now (the first that many), or None for unknown.

        A lane nobody reads rejected transactions from can encode that
        prefix only and pass the rest to :meth:`trigger_aggregate` as a
        number. Unknown whenever the node says so (see
        :meth:`BlockchainNetwork.admission_room`) and for a DApp call
        whose gas estimate is not cached yet, because encoding is what
        probes it.
        """
        if isinstance(interaction, InvokeSpec) and (
                self._contract_name(interaction.contract.name),
                interaction.function) not in self._gas_estimates:
            return None
        return self.network.admission_room(count)

    def trigger_aggregate(self, encoded: Sequence[Transaction],
                          interaction: Interaction, turned_away: int) -> int:
        """Trigger *encoded* followed by *turned_away* more interactions
        that were not encoded because :meth:`admission_room` said the node
        rejects them; return #accepted.

        The unbuilt tail consumes what encoding it would have consumed —
        transaction uids, the account-ring cursor, sender sequence numbers
        — so whatever is encoded next is the transaction it would have
        been.
        """
        ring = self._account_ring()
        n = len(ring)
        cursor = self._account_cursor
        stride = 2 if isinstance(interaction, TransferSpec) else 1
        # the senders repeat with this period; every one of a full period
        # is visited once more than count // period times or exactly that
        period = n // math.gcd(stride, n)
        full, rest = divmod(turned_away, period)
        for i in range(min(turned_away, period)):
            ring[(cursor + stride * i) % n].sequence += full + (i < rest)
        self._account_cursor = cursor + stride * turned_away
        take_tx_uids(turned_away)
        return self.network.submit_batch(encoded, turned_away)

    # -- triggering ----------------------------------------------------------------------

    def trigger_batch(self, clients: Sequence[Client],
                      encoded: Sequence[Transaction]) -> int:
        """Send each encoded interaction to its client's blockchain node.

        The simulated network ignores which client submits (clients share
        their region's endpoints), so the batch collapses to one
        :meth:`BlockchainNetwork.submit_batch` call.
        """
        return self.network.submit_batch(encoded)
