"""The live fee market attached to a running blockchain network.

Wraps a :class:`~repro.econ.fees.FeeModel` with the bookkeeping the
benchmark needs: charging committed transactions, attributing spend to
labelled sender groups (``honest`` vs ``attacker``), and publishing
everything through the chain's :class:`MetricsRegistry` namespace
(``fees.*``) so fee percentiles and attacker spend land in timeseries
samples and ``BenchmarkResult.economics``.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Any, Dict, Iterable, Sequence

if TYPE_CHECKING:
    from repro.econ.fees import FeeModel

HONEST = "honest"


class FeeMarket:
    """Charges committed transactions and attributes the spend."""

    def __init__(self, model: FeeModel, metrics: Any) -> None:
        self.model = model
        self._metrics = metrics
        self._collected = metrics.counter("collected")
        self._charged = metrics.counter("charged_txs")
        metrics.gauge("floor", supplier=model.floor)
        self._paid_per_gas = metrics.histogram("paid_per_gas")
        self._labels: Dict[str, str] = {}
        self._spend: Dict[str, Any] = {}

    # -- sender attribution ----------------------------------------------------------

    def track(self, addresses: Iterable[str], label: str) -> None:
        """Attribute future fees paid by *addresses* to *label*."""
        for address in addresses:
            self._labels[address] = label

    def label_for(self, sender: str) -> str:
        return self._labels.get(sender, HONEST)

    def _spend_counter(self, label: str) -> Any:
        counter = self._spend.get(label)
        if counter is None:
            counter = self._metrics.counter(f"spend.{label}")
            self._spend[label] = counter
        return counter

    # -- charging --------------------------------------------------------------------

    def charge(self, tx: Any, gas_used: int) -> int:
        """Charge *tx* for *gas_used* and return the fee units paid."""
        fee = self.model.fee_paid(tx, gas_used)
        self._collected.inc(fee)
        self._charged.inc()
        self._paid_per_gas.observe(self.model.effective_price(tx))
        self._spend_counter(self.label_for(tx.sender)).inc(fee)
        return fee

    def settle_block(self, txs: Sequence[Any], receipts: Sequence[Any],
                     gas_used: int) -> None:
        """Charge a block's sealed transactions, failed executions too
        (they still burn gas); its *gas_used* moves the next base fee."""
        for tx, receipt in zip(txs, receipts):
            self.charge(tx, receipt.gas_used)
        self.model.on_block(gas_used)

    def spend(self, label: str) -> int:
        counter = self._spend.get(label)
        return int(counter.value) if counter is not None else 0

    # -- reporting -------------------------------------------------------------------

    def stats(self) -> Dict[str, float]:
        """Flat numeric stats merged into ``chain_stats`` (fees_ prefix)."""
        out: Dict[str, float] = {
            "floor": self.model.floor(),
            "collected": self._collected.value,
            "charged_txs": self._charged.value,
        }
        for label in sorted(self._spend):
            out[f"spend_{label}"] = self._spend[label].value
        return out

    def economics(self) -> Dict[str, Any]:
        """The structured block for ``BenchmarkResult.economics``."""
        econ: Dict[str, Any] = {
            "dialect": self.model.dialect,
            "floor": self.model.floor(),
            "fees_collected": int(self._collected.value),
            "txs_charged": int(self._charged.value),
            "spend": {label: int(counter.value)
                      for label, counter in sorted(self._spend.items())},
        }
        if self._paid_per_gas.count:
            p50 = self._paid_per_gas.percentile(50)
            p95 = self._paid_per_gas.percentile(95)
            econ["price_p50"] = round(p50, 3) if math.isfinite(p50) else None
            econ["price_p95"] = round(p95, 3) if math.isfinite(p95) else None
        return econ
