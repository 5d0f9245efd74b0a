"""The five DIABLO DApp contracts (paper §3, Table 2)."""

from repro.contracts.exchange import STOCKS, make_exchange_contract
from repro.contracts.gaming import MAP_SIZE, PLAYER_COUNT, make_dota_contract
from repro.contracts.mobility import (
    DISTANCE_ITERATION_GAS,
    DRIVER_COUNT,
    GRID_SIZE,
    make_uber_contract,
)
from repro.contracts.videoshare import VIDEO_RECORD_SIZE, make_youtube_contract
from repro.contracts.webservice import make_counter_contract

CONTRACT_FACTORIES = {
    "exchange": make_exchange_contract,
    "dota": make_dota_contract,
    "counter": make_counter_contract,
    "uber": make_uber_contract,
    "youtube": make_youtube_contract,
}

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
