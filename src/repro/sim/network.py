"""Simulated wide-area network.

The topology is the 10-region AWS deployment the paper measures with iperf3
(Table 3, right side): the round-trip time between each pair of regions and
the available bandwidth. Machines in the same region communicate over the
datacenter fabric (1 ms RTT, 10 Gbps — the c5 instance network in §5.1).

Message delivery time = propagation (RTT/2) + serialization (size/bandwidth)
+ lognormal jitter. Each directed region pair has a bandwidth pipe shared by
its messages, so saturating a link queues traffic, which is how overload
experiments (Fig. 4) develop growing latency.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.common.errors import NetworkError
from repro.common.rng import BlockSampler, RngFactory
from repro.common.units import gbps, mbps, ms
from repro.obs.metrics import MetricsRegistry

if TYPE_CHECKING:
    from repro.obs.metrics import MetricsNamespace
    from repro.sim.engine import Engine
    from repro.sim.faults import FaultInjector

REGIONS: Tuple[str, ...] = (
    "cape-town",
    "tokyo",
    "mumbai",
    "sydney",
    "stockholm",
    "milan",
    "bahrain",
    "sao-paulo",
    "ohio",
    "oregon",
)

# Round-trip time in milliseconds between regions (Table 3, bottom-left, red).
# Key order matches REGIONS; matrix[i][j] for i > j holds the measured value
# and the matrix is symmetrised below.
_RTT_MS_LOWER: Dict[Tuple[str, str], float] = {
    ("tokyo", "cape-town"): 354.0,
    ("mumbai", "cape-town"): 272.0,
    ("mumbai", "tokyo"): 127.2,
    ("sydney", "cape-town"): 410.4,
    ("sydney", "tokyo"): 102.3,
    ("sydney", "mumbai"): 146.8,
    ("stockholm", "cape-town"): 179.7,
    ("stockholm", "tokyo"): 241.2,
    ("stockholm", "mumbai"): 138.9,
    ("stockholm", "sydney"): 295.7,
    ("milan", "cape-town"): 162.4,
    ("milan", "tokyo"): 214.8,
    ("milan", "mumbai"): 110.8,
    ("milan", "sydney"): 238.8,
    ("milan", "stockholm"): 30.2,
    ("bahrain", "cape-town"): 287.0,
    ("bahrain", "tokyo"): 164.3,
    ("bahrain", "mumbai"): 36.4,
    ("bahrain", "sydney"): 179.2,
    ("bahrain", "stockholm"): 137.9,
    ("bahrain", "milan"): 108.2,
    ("sao-paulo", "cape-town"): 340.5,
    ("sao-paulo", "tokyo"): 256.6,
    ("sao-paulo", "mumbai"): 305.6,
    ("sao-paulo", "sydney"): 310.5,
    ("sao-paulo", "stockholm"): 214.9,
    ("sao-paulo", "milan"): 211.9,
    ("sao-paulo", "bahrain"): 320.0,
    ("ohio", "cape-town"): 237.0,
    ("ohio", "tokyo"): 131.8,
    ("ohio", "mumbai"): 197.3,
    ("ohio", "sydney"): 187.9,
    ("ohio", "stockholm"): 120.0,
    ("ohio", "milan"): 109.2,
    ("ohio", "bahrain"): 212.7,
    ("ohio", "sao-paulo"): 121.9,
    ("oregon", "cape-town"): 276.6,
    ("oregon", "tokyo"): 96.7,
    ("oregon", "mumbai"): 215.8,
    ("oregon", "sydney"): 139.7,
    ("oregon", "stockholm"): 162.0,
    ("oregon", "milan"): 157.8,
    ("oregon", "bahrain"): 251.4,
    ("oregon", "sao-paulo"): 178.3,
    ("oregon", "ohio"): 55.2,
}

# Bandwidth in Mbps between regions (Table 3, top-right, green).
_BW_MBPS_UPPER: Dict[Tuple[str, str], float] = {
    ("cape-town", "tokyo"): 26.1,
    ("cape-town", "mumbai"): 36.0,
    ("cape-town", "sydney"): 20.8,
    ("cape-town", "stockholm"): 59.8,
    ("cape-town", "milan"): 67.1,
    ("cape-town", "bahrain"): 33.6,
    ("cape-town", "sao-paulo"): 27.1,
    ("cape-town", "ohio"): 43.6,
    ("cape-town", "oregon"): 35.9,
    ("tokyo", "mumbai"): 89.3,
    ("tokyo", "sydney"): 112.1,
    ("tokyo", "stockholm"): 42.1,
    ("tokyo", "milan"): 48.1,
    ("tokyo", "bahrain"): 66.8,
    ("tokyo", "sao-paulo"): 39.3,
    ("tokyo", "ohio"): 85.8,
    ("tokyo", "oregon"): 108.8,
    ("mumbai", "sydney"): 75.9,
    ("mumbai", "stockholm"): 81.3,
    ("mumbai", "milan"): 103.2,
    ("mumbai", "bahrain"): 336.3,
    ("mumbai", "sao-paulo"): 30.8,
    ("mumbai", "ohio"): 53.3,
    ("mumbai", "oregon"): 48.5,
    ("sydney", "stockholm"): 32.0,
    ("sydney", "milan"): 42.4,
    ("sydney", "bahrain"): 59.6,
    ("sydney", "sao-paulo"): 31.2,
    ("sydney", "ohio"): 57.0,
    ("sydney", "oregon"): 80.8,
    ("stockholm", "milan"): 404.6,
    ("stockholm", "bahrain"): 81.8,
    ("stockholm", "sao-paulo"): 48.2,
    ("stockholm", "ohio"): 94.7,
    ("stockholm", "oregon"): 67.6,
    ("milan", "bahrain"): 105.7,
    ("milan", "sao-paulo"): 49.4,
    ("milan", "ohio"): 104.9,
    ("milan", "oregon"): 70.1,
    ("bahrain", "sao-paulo"): 29.9,
    ("bahrain", "ohio"): 49.4,
    ("bahrain", "oregon"): 38.7,
    ("sao-paulo", "ohio"): 92.3,
    ("sao-paulo", "oregon"): 60.5,
    ("ohio", "oregon"): 105.0,
}

INTRA_REGION_RTT = ms(1.0)
INTRA_REGION_BANDWIDTH = gbps(10.0)


_REGION_INDEX: Dict[str, int] = {region: i for i, region in enumerate(REGIONS)}


def _region_index() -> Dict[str, int]:
    return _REGION_INDEX


def _build_rtt_matrix() -> np.ndarray:
    matrix = np.full((len(REGIONS), len(REGIONS)), INTRA_REGION_RTT)
    for (a, b), value in _RTT_MS_LOWER.items():
        matrix[_REGION_INDEX[a], _REGION_INDEX[b]] = ms(value)
        matrix[_REGION_INDEX[b], _REGION_INDEX[a]] = ms(value)
    return matrix


def _build_bandwidth_matrix() -> np.ndarray:
    matrix = np.full((len(REGIONS), len(REGIONS)), INTRA_REGION_BANDWIDTH)
    for (a, b), value in _BW_MBPS_UPPER.items():
        matrix[_REGION_INDEX[a], _REGION_INDEX[b]] = mbps(value)
        matrix[_REGION_INDEX[b], _REGION_INDEX[a]] = mbps(value)
    return matrix


# The topology is static, so the matrices are built once at import time.
# Public accessors hand out copies (callers are free to mutate for
# what-if experiments); hot paths index the exact-Python-float views
# below, which avoid a numpy-scalar box-and-convert per message.
_RTT_MATRIX = _build_rtt_matrix()
_BW_MATRIX = _build_bandwidth_matrix()
_HALF_RTT: List[List[float]] = (_RTT_MATRIX / 2.0).tolist()
_BANDWIDTH: List[List[float]] = _BW_MATRIX.tolist()


def rtt_matrix() -> np.ndarray:
    """Symmetric matrix of RTTs in seconds, intra-region on the diagonal."""
    return _RTT_MATRIX.copy()


def bandwidth_matrix() -> np.ndarray:
    """Symmetric matrix of bandwidths in bytes/s, intra-region diagonal."""
    return _BW_MATRIX.copy()


def rtt_between(a: str, b: str) -> float:
    """RTT in seconds between two regions (1 ms within a region)."""
    index = _REGION_INDEX
    if a not in index or b not in index:
        raise NetworkError(f"unknown region in pair ({a!r}, {b!r})")
    return 2.0 * _HALF_RTT[index[a]][index[b]]


def bandwidth_between(a: str, b: str) -> float:
    """Bandwidth in bytes/s between two regions."""
    index = _REGION_INDEX
    if a not in index or b not in index:
        raise NetworkError(f"unknown region in pair ({a!r}, {b!r})")
    return _BANDWIDTH[index[a]][index[b]]


@dataclass(frozen=True)
class Endpoint:
    """A network endpoint: a named machine living in a region."""

    name: str
    region: str

    def __post_init__(self) -> None:
        if self.region not in REGIONS:
            raise NetworkError(f"unknown region {self.region!r}")


class _LinkPipe:
    """Serialization queue for a directed region pair.

    Models the shared bandwidth of the inter-region path: each message
    occupies the pipe for size/bandwidth seconds, and messages queue behind
    each other FIFO. ``free_at`` tracks when the pipe next becomes idle.
    """

    __slots__ = ("free_at",)

    def __init__(self) -> None:
        self.free_at = 0.0


class Network:
    """Point-to-point message delivery over the Table 3 topology.

    Delivery time for a message of ``size`` bytes from region A to region B:

        queueing-on-pipe + size/bandwidth(A,B) + RTT(A,B)/2 + jitter

    Jitter is lognormal with a 5 % coefficient of variation, seeded from the
    experiment seed so runs are reproducible.
    """

    def __init__(self, engine: Engine, rng_factory: Optional[RngFactory] = None,
                 jitter_cv: float = 0.05, model_bandwidth: bool = True,
                 metrics: Optional[MetricsNamespace] = None) -> None:
        self.engine = engine
        factory = rng_factory or RngFactory(0)
        self._rng = factory.stream("network", "jitter")
        self._fault_rng = factory.stream("network", "fault-drops")
        self._jitter_cv = jitter_cv
        # block-drawn samplers over the two named streams (byte-identical
        # to scalar draws — see BlockSampler); each stream is owned by
        # exactly one sampler, so draw order matches the scalar path
        if jitter_cv > 0:
            self._jitter_sampler = BlockSampler(
                self._rng, "lognormal", -jitter_cv * jitter_cv / 2, jitter_cv)
        else:
            self._jitter_sampler = None
        self._fault_sampler = BlockSampler(self._fault_rng, "random")
        self._model_bandwidth = model_bandwidth
        self._index = _region_index()
        # hot-path views: exact Python floats, no numpy scalar boxing
        self._half_rtt = _HALF_RTT
        self._bandwidth = _BANDWIDTH
        self._pipes: Dict[Tuple[int, int], _LinkPipe] = {}
        self.injector: Optional["FaultInjector"] = None
        self._metrics = (metrics if metrics is not None
                         else MetricsRegistry().namespace("network"))
        self._messages_sent = self._metrics.counter("messages_sent")
        self._bytes_sent = self._metrics.counter("bytes_sent")
        # unreachable: crash/partition/outage
        self._messages_blocked = self._metrics.counter("messages_blocked")
        # lost to LinkDegrade drop rates
        self._messages_fault_dropped = self._metrics.counter(
            "messages_fault_dropped")

    # -- registry views ---------------------------------------------------------

    @property
    def messages_sent(self) -> int:
        return self._messages_sent.value

    def attach_faults(self, injector: "FaultInjector") -> None:
        """Consult *injector* on every send (reachability + degradation)."""
        self.injector = injector

    # -- sending ---------------------------------------------------------------

    def send(self, src: Endpoint, dst: Endpoint, size: int,
             on_delivery: Callable[[], None], label: str = "") -> float:
        """Schedule delivery of a message; return the delivery time.

        With a fault injector attached, messages over unreachable links
        (crashed endpoint, partition, region outage) are silently blocked
        and ``inf`` is returned; degraded links add latency and may drop
        the message with their configured probability.
        """
        return self.broadcast(src, ((dst, on_delivery),), size, label)[0]

    def broadcast(self, src: Endpoint,
                  deliveries: Iterable[Tuple[Endpoint, Callable[[], None]]],
                  size: int, label: str = "") -> List[float]:
        """Send one *size*-byte message to each ``(destination, on_delivery)``
        pair; return the delivery times in that order (``inf`` = lost).

        The outcome is that of one :meth:`send` per pair, in order: every
        message passes the injector, reserves its pipe and draws its
        jitter in turn, so the RNG streams and the pipes end up where the
        one-by-one path leaves them. What depends only on the region pair
        (propagation, transfer time, the pipe) is looked up once per
        destination region, the sent counters move once, and the
        calendar takes the fan-out as one :meth:`Engine.schedule_batch`.
        """
        if size < 0:
            raise NetworkError(f"negative message size {size}")
        injector = self.injector
        now = self.engine.now
        src_region = src.region
        jitter_sampler = self._jitter_sampler
        links: Dict[str, Tuple[float, float, Optional[_LinkPipe]]] = {}
        times: List[float] = []
        batch: List[Tuple[float, Callable[[], None]]] = []
        for dst, on_delivery in deliveries:
            dst_region = dst.region
            fault_latency = 0.0
            if injector is not None:
                if not injector.reachable(src.name, dst.name,
                                          src_region, dst_region):
                    self._messages_blocked.inc()
                    times.append(float("inf"))
                    continue
                fault_latency, drop = self._link_faults(src, dst)
                if drop > 0 and self._fault_sampler.next() < drop:
                    self._messages_fault_dropped.inc()
                    times.append(float("inf"))
                    continue
            link = links.get(dst_region)
            if link is None:
                link = links[dst_region] = self._link(
                    src_region, dst_region, size)
            propagation, transfer, pipe = link
            if pipe is None:
                queueing = 0.0
            else:
                # FIFO reservation of the link pipe with an idle-pipe
                # short circuit: an uncontended link skips the queueing
                # arithmetic entirely
                free_at = pipe.free_at
                if free_at <= now:
                    pipe.free_at = now + transfer
                    queueing = 0.0
                else:
                    pipe.free_at = free_at + transfer
                    queueing = free_at - now
            jitter = 0.0
            if jitter_sampler is not None:
                # lognormal with mean ~1, scaled to a fraction of the
                # propagation delay; only the slow half of it is kept
                factor = jitter_sampler.next()
                if factor > 1.0:
                    jitter = propagation * (factor - 1.0)
            arrival = now + (queueing + transfer + propagation
                             + jitter + fault_latency)
            batch.append((arrival, on_delivery))
            times.append(arrival)
        self._messages_sent.inc(len(batch))
        self._bytes_sent.inc(size * len(batch))
        self.engine.schedule_batch(batch, label or "network-delivery")
        return times

    def _link(self, src_region: str, dst_region: str, size: int
              ) -> Tuple[float, float, Optional[_LinkPipe]]:
        """(propagation, transfer time of *size* bytes, pipe) of a directed
        region pair; no pipe when bandwidth is not modelled."""
        i, j = self._index[src_region], self._index[dst_region]
        pipe = None
        if self._model_bandwidth:
            pipe = self._pipes.get((i, j))
            if pipe is None:
                pipe = self._pipes[(i, j)] = _LinkPipe()
        return self._half_rtt[i][j], size / self._bandwidth[i][j], pipe

    def _link_faults(self, src: Endpoint, dst: Endpoint) -> Tuple[float, float]:
        """Combined degradation for a link, by endpoint name and by region."""
        extra, drop = self.injector.link_state(src.name, dst.name)
        if src.region != dst.region:
            region_extra, region_drop = self.injector.link_state(
                src.region, dst.region)
            extra += region_extra
            drop = 1.0 - (1.0 - drop) * (1.0 - region_drop)
        return extra, drop


def spread_endpoints(count: int, regions: Iterable[str] = REGIONS,
                     prefix: str = "node") -> List[Endpoint]:
    """Spread *count* endpoints equally among *regions* (paper §5.1)."""
    region_list = list(regions)
    if not region_list:
        raise NetworkError("at least one region required")
    return [Endpoint(f"{prefix}-{i}", region_list[i % len(region_list)])
            for i in range(count)]
