"""Accounts and the account registry.

DIABLO pre-creates a population of funded accounts before a benchmark (the
``!account { number: 2000 }`` sample in the workload DSL) and the secondaries
pre-sign transactions from them. Diem's setup tooling, as the paper reports,
fails after creating 130 accounts — the Diem chain model enforces the same
cap through :class:`AccountFactoryLimits`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Iterator, List, Optional

from repro.common.errors import DeploymentError, UnknownAccountError
from repro.crypto.signing import ECDSA, keypair

if TYPE_CHECKING:
    from repro.crypto.signing import SignatureScheme

DEFAULT_INITIAL_BALANCE = 10**18


@dataclass
class Account:
    """A funded account with its key pair and a client-side sequence number."""

    address: str
    private_key: str
    public_key: str
    balance: int = DEFAULT_INITIAL_BALANCE
    sequence: int = 0


@dataclass(frozen=True)
class AccountFactoryLimits:
    """Provisioning constraints of a chain's account tooling."""

    max_accounts: Optional[int] = None  # Diem: 130 (paper §5.2)


class AccountRegistry:
    """Creates and looks up the benchmark's account population."""

    def __init__(self, scheme: SignatureScheme = ECDSA,
                 limits: AccountFactoryLimits = AccountFactoryLimits(),
                 namespace: str = "acct") -> None:
        self.scheme = scheme
        self.limits = limits
        self.namespace = namespace
        self._accounts: Dict[str, Account] = {}
        self._ordered: List[Account] = []

    def __len__(self) -> int:
        return len(self._ordered)

    def __iter__(self) -> Iterator[Account]:
        return iter(self._ordered)

    def create(self, count: int,
               initial_balance: int = DEFAULT_INITIAL_BALANCE) -> List[Account]:
        """Create *count* new funded accounts.

        Raises :class:`DeploymentError` when the chain's provisioning limit
        would be exceeded, mirroring Diem's systematic failure after 130
        accounts.
        """
        cap = self.limits.max_accounts
        if cap is not None and len(self._ordered) + count > cap:
            raise DeploymentError(
                f"account factory limit reached: {len(self._ordered)} existing"
                f" + {count} requested > {cap} allowed")
        created = []
        for _ in range(count):
            index = len(self._ordered)
            address = f"{self.namespace}-{index}"
            private_key, public_key = keypair(address)
            account = Account(address, private_key, public_key,
                              balance=initial_balance)
            self._accounts[address] = account
            self._ordered.append(account)
            created.append(account)
        return created

    def create_up_to(self, count: int,
                     initial_balance: int = DEFAULT_INITIAL_BALANCE) -> List[Account]:
        """Create as many accounts as the provisioning limit allows.

        This is how the paper's authors worked around the Diem limit: "we
        restricted the number of accounts to 130 in the community and
        consortium configurations".
        """
        cap = self.limits.max_accounts
        if cap is not None:
            count = min(count, cap - len(self._ordered))
        if count <= 0:
            return []
        return self.create(count, initial_balance)

    def get(self, address: str) -> Account:
        try:
            return self._accounts[address]
        except KeyError:
            raise UnknownAccountError(f"no such account: {address!r}") from None

    def addresses(self) -> List[str]:
        return [a.address for a in self._ordered]
