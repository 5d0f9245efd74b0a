"""Gaming DApp — ``DecentralizedDota`` (§3, Dota 2 workload).

The contract's ``update`` function "moves the positions of 10 players along
the x-axis and y-axis of a 250-by-250 map so that they turn back whenever
they reach the limit of the map".

Positions are stored packed — one slot for the x coordinates and one for the
y coordinates — the way a gas-conscious Solidity implementation packs ten
uint8 pairs into a word. The packing keeps the per-call cost at two loads +
two stores + the movement arithmetic, which every evaluated VM's budget
accommodates (the paper shows all six chains executing this DApp, §6.1).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Tuple

from repro.vm.program import Contract

if TYPE_CHECKING:
    from repro.vm.program import ExecutionContext

MAP_SIZE = 250
PLAYER_COUNT = 10

# One bounce-and-move update per player per axis: compare, add, compare,
# maybe negate. ~6 basic ops per coordinate.
_MOVE_OPS_PER_PLAYER = 12


def _advance(position: int, direction: int, step: int) -> Tuple[int, int]:
    """Move one coordinate, bouncing at the map borders."""
    nxt = position + direction * step
    if nxt < 0:
        return -nxt, -direction
    if nxt > MAP_SIZE:
        return 2 * MAP_SIZE - nxt, -direction
    return nxt, direction


def make_dota_contract() -> Contract:
    """Build the DecentralizedDota contract."""
    contract = Contract("DecentralizedDota")

    @contract.constructor
    def init(ctx: ExecutionContext) -> None:
        # players start spread along the diagonal, all moving "forward"
        xs = [(i * MAP_SIZE) // PLAYER_COUNT for i in range(PLAYER_COUNT)]
        ys = list(xs)
        ctx.store("xs", ",".join(map(str, xs)))
        ctx.store("ys", ",".join(map(str, ys)))
        ctx.store("dirs", ",".join(["1"] * (2 * PLAYER_COUNT)))

    @contract.function("update")
    def update(ctx: ExecutionContext) -> Tuple[int, ...]:
        step_x = int(ctx.arg(0, 1))
        step_y = int(ctx.arg(1, 1))
        xs = [int(v) for v in str(ctx.load("xs", "")).split(",")]
        ys = [int(v) for v in str(ctx.load("ys", "")).split(",")]
        dirs = [int(v) for v in str(ctx.load("dirs", "")).split(",")]
        ctx.compute(PLAYER_COUNT * _MOVE_OPS_PER_PLAYER)
        new_xs: List[int] = []
        new_ys: List[int] = []
        new_dirs: List[int] = []
        for i in range(PLAYER_COUNT):
            x, dx = _advance(xs[i], dirs[2 * i], step_x)
            y, dy = _advance(ys[i], dirs[2 * i + 1], step_y)
            new_xs.append(x)
            new_ys.append(y)
            new_dirs.extend((dx, dy))
        ctx.store("xs", ",".join(map(str, new_xs)))
        ctx.store("ys", ",".join(map(str, new_ys)))
        ctx.store("dirs", ",".join(map(str, new_dirs)))
        return tuple(new_xs + new_ys)

    @contract.function("positions")
    def positions(ctx: ExecutionContext) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
        xs = tuple(int(v) for v in str(ctx.load("xs", "")).split(","))
        ys = tuple(int(v) for v in str(ctx.load("ys", "")).split(","))
        return xs, ys

    return contract
