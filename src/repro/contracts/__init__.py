"""The five DIABLO DApp contracts (paper §3, Table 2)."""

from repro import lazy_package

__all__ = [
    "CONTRACT_FACTORIES",
    "DISTANCE_ITERATION_GAS",
    "DRIVER_COUNT",
    "GRID_SIZE",
    "MAP_SIZE",
    "PLAYER_COUNT",
    "STOCKS",
    "VIDEO_RECORD_SIZE",
    "make_counter_contract",
    "make_dota_contract",
    "make_exchange_contract",
    "make_uber_contract",
    "make_youtube_contract",
]

__getattr__, __dir__ = lazy_package(globals(), {
    "repro.contracts.exchange": ("STOCKS", "make_exchange_contract"),
    "repro.contracts.gaming": ("MAP_SIZE", "PLAYER_COUNT",
                               "make_dota_contract"),
    "repro.contracts.mobility": ("DISTANCE_ITERATION_GAS", "DRIVER_COUNT",
                                 "GRID_SIZE", "make_uber_contract"),
    "repro.contracts.registry": ("CONTRACT_FACTORIES",),
    "repro.contracts.videoshare": ("VIDEO_RECORD_SIZE",
                                   "make_youtube_contract"),
    "repro.contracts.webservice": ("make_counter_contract",),
})
