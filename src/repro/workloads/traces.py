"""Workload trace framework.

A :class:`Trace` packages a named workload from the paper's suite (Table 2):
the DApp it drives, the per-second request-rate envelope reconstructed from
the paper's description, and a builder producing the DIABLO workload
specification. Because the paper's raw trace files are not distributable,
each trace module synthesises the published shape — peak rates, durations,
burst/decay profiles — which is all the evaluation uses (DESIGN.md,
substitution table).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.common.errors import ConfigurationError
from repro.core.population import PopulationSpec
from repro.core.spec import (
    AccountSample,
    ContractSample,
    InvokeSpec,
    LoadSchedule,
    TransferSpec,
    WorkloadSpec,
    simple_spec,
)
from repro.econ.fees import FeeSpec
from repro.sim.dos import AdversarySpec

DEFAULT_ACCOUNTS = 2_000


@dataclass(frozen=True)
class Trace:
    """One realistic workload: a DApp plus its request-rate envelope.

    ``fees`` / ``adversary`` let a trace carry an economic model: a trace
    with them set replays the workload against a live fee market (and
    optionally a budget-constrained attacker). Both default off, so
    ordinary traces stay byte-identical to their pre-fee-market runs.
    """

    name: str
    dapp: Optional[str]              # key into CONTRACT_FACTORIES, None=native
    function: str                    # DApp function invoked per request
    args: Tuple = ()
    schedule: LoadSchedule = None    # type: ignore[assignment]
    description: str = ""
    fees: Optional[FeeSpec] = None
    adversary: Optional[AdversarySpec] = None

    def __post_init__(self) -> None:
        if self.schedule is None:
            raise ConfigurationError(f"trace {self.name} needs a schedule")

    @property
    def duration(self) -> float:
        return self.schedule.duration

    @property
    def average_tps(self) -> float:
        if self.duration <= 0:
            return 0.0
        return self.schedule.total_transactions() / self.duration

    @property
    def peak_tps(self) -> float:
        return max(rate for _, rate in self.schedule.points)

    def spec(self, accounts: int = DEFAULT_ACCOUNTS,
             clients: int = 1) -> WorkloadSpec:
        """The DIABLO workload specification for this trace.

        With ``clients > 1`` the schedule is split evenly, matching the
        paper's example of 3 clients sharing the Dota 2 rate.
        """
        per_client = self.schedule.scaled(1.0 / clients)
        account_sample = AccountSample(accounts)
        if self.dapp is None:
            interaction = TransferSpec(account_sample)
        else:
            interaction = InvokeSpec(account_sample,
                                     ContractSample(self.dapp),
                                     self.function, self.args)
        return simple_spec(interaction, per_client, clients=clients,
                           fees=self.fees, adversary=self.adversary)

    def population_spec(self, users: int,
                        rate_per_user: float = 0.001,
                        accounts: int = DEFAULT_ACCOUNTS,
                        cohort: Optional[int] = None,
                        arrival: str = "poisson") -> WorkloadSpec:
        """The trace as a *population* workload (see docs/SCALE.md).

        The trace's schedule provides the **shape** of the per-user rate
        profile, normalized so its mean is ``rate_per_user`` — the total
        offered load then grows linearly with ``users``, which is what a
        knee-finding sweep over population sizes wants. ``cohort`` users
        (default 1k) are individually tracked; the rest ride the
        aggregate lane.
        """
        if self.average_tps <= 0:
            raise ConfigurationError(
                f"trace {self.name} has no load to normalize")
        per_user = self.schedule.scaled(rate_per_user / self.average_tps)
        account_sample = AccountSample(accounts)
        if self.dapp is None:
            interaction = TransferSpec(account_sample)
        else:
            interaction = InvokeSpec(account_sample,
                                     ContractSample(self.dapp),
                                     self.function, self.args)
        return WorkloadSpec((), fees=self.fees,
                            population=PopulationSpec(
                                users=users, interaction=interaction,
                                load=per_user, cohort=cohort,
                                arrival=arrival))

    def summary(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "dapp": self.dapp or "native",
            "function": self.function,
            "duration_s": round(self.duration, 1),
            "average_tps": round(self.average_tps, 1),
            "peak_tps": round(self.peak_tps, 1),
            "total_requests": int(self.schedule.total_transactions()),
        }


def schedule_from_rates(rates: Sequence[float],
                        bin_size: float = 1.0) -> LoadSchedule:
    """Build a per-bin piecewise schedule from a rate sequence."""
    points: List[Tuple[float, float]] = []
    last = None
    for i, rate in enumerate(rates):
        rate = float(max(0.0, rate))
        if last is None or rate != last:
            points.append((i * bin_size, rate))
            last = rate
    points.append((len(rates) * bin_size, 0.0))
    return LoadSchedule(tuple(points))


def burst_then_decay(peak: float, floor: float, duration: float,
                     decay_time: float) -> LoadSchedule:
    """A first-second burst of *peak* TPS decaying exponentially to *floor*.

    This is the shape of the per-stock NASDAQ opening workloads: "an
    initial demand of about ... before dropping to 10-60 TPS" (§3).
    """
    seconds = int(round(duration))
    times = np.arange(seconds)
    rates = floor + (peak - floor) * np.exp(-times / decay_time)
    return schedule_from_rates(rates.tolist())
