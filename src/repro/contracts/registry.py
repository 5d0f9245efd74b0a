"""The five DApp contracts by the key a spec's ``!contract`` names."""

from repro.contracts.exchange import make_exchange_contract
from repro.contracts.gaming import make_dota_contract
from repro.contracts.mobility import make_uber_contract
from repro.contracts.videoshare import make_youtube_contract
from repro.contracts.webservice import make_counter_contract

CONTRACT_FACTORIES = {
    "exchange": make_exchange_contract,
    "dota": make_dota_contract,
    "counter": make_counter_contract,
    "uber": make_uber_contract,
    "youtube": make_youtube_contract,
}
