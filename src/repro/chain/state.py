"""On-chain state: balances, nonces and contract storage."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict

from repro.common.errors import UnknownAccountError


@dataclass
class ContractStorage:
    """Key-value storage belonging to one deployed contract instance."""

    data: Dict[str, Any] = field(default_factory=dict)

    def get(self, key: str, default: Any = 0) -> Any:
        return self.data.get(key, default)

    def put(self, key: str, value: Any) -> None:
        self.data[key] = value

    def __len__(self) -> int:
        return len(self.data)


class WorldState:
    """The replicated chain state every validator executes against.

    Balances and nonces live per account; each deployed contract gets its
    own :class:`ContractStorage`. Account creation is implicit on first
    credit, matching the benchmark setup where the genesis allocates funds.
    """

    def __init__(self) -> None:
        self._balances: Dict[str, int] = {}
        self._nonces: Dict[str, int] = {}
        self._contracts: Dict[str, ContractStorage] = {}

    # -- balances -----------------------------------------------------------------

    def balance(self, address: str) -> int:
        return self._balances.get(address, 0)

    def credit(self, address: str, amount: int) -> None:
        self._balances[address] = self._balances.get(address, 0) + amount

    def transfer(self, sender: str, recipient: str, amount: int) -> bool:
        """A native transfer's state change in one call: bump *sender*'s
        nonce, then move *amount* to *recipient* if funds suffice; return
        False otherwise, with only the nonce bumped. A transfer to oneself
        leaves the balance as it was."""
        nonces = self._nonces
        nonces[sender] = nonces.get(sender, 0) + 1
        balances = self._balances
        balance = balances.get(sender, 0)
        if balance < amount:
            return False
        balances[sender] = balance - amount
        balances[recipient] = balances.get(recipient, 0) + amount
        return True

    # -- nonces --------------------------------------------------------------------

    def nonce(self, address: str) -> int:
        return self._nonces.get(address, 0)

    def bump_nonce(self, address: str) -> None:
        self._nonces[address] = self._nonces.get(address, 0) + 1

    # -- contracts -------------------------------------------------------------------

    def deploy_storage(self, contract_address: str) -> ContractStorage:
        if contract_address in self._contracts:
            raise UnknownAccountError(
                f"contract {contract_address!r} already deployed")
        storage = ContractStorage()
        self._contracts[contract_address] = storage
        return storage

    def storage(self, contract_address: str) -> ContractStorage:
        try:
            return self._contracts[contract_address]
        except KeyError:
            raise UnknownAccountError(
                f"contract {contract_address!r} not deployed") from None

    def contracts(self) -> Dict[str, ContractStorage]:
        return dict(self._contracts)
