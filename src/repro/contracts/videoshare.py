"""Video sharing DApp — ``DecentralizedYoutube`` (§3, YouTube workload).

"a smart contract called DecentralizedYoutube with an upload function that
gets some video data as a parameter and assigns the requester's address to
the data before emitting a corresponding event."

The uploaded metadata record is a few hundred bytes. On the AVM this DApp is
unimplementable: storing the record needs "data structures that were too
large to be stored in the state whose space is limited by a key-value store
with 128 bytes per key-value pair" (§5.2) — the store() below raises
:class:`StateLimitError` on any VM with a 128-byte entry limit.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.vm.program import Contract

if TYPE_CHECKING:
    from repro.vm.program import ExecutionContext

# Size of the video metadata record each upload persists. Anything over the
# AVM's 128-byte entry limit reproduces the paper's TEAL failure.
VIDEO_RECORD_SIZE = 512


def make_youtube_contract(record_size: int = VIDEO_RECORD_SIZE) -> Contract:
    """Build the DecentralizedYoutube contract."""
    contract = Contract("DecentralizedYoutube")

    @contract.constructor
    def init(ctx: ExecutionContext) -> None:
        ctx.store("uploads", 0)
        # Allocating the record template at deployment reproduces the paper's
        # outcome: the TEAL port fails outright (DeploymentError at setup)
        # rather than committing transactions that each revert.
        ctx.store("video:template", ".".ljust(record_size, "."))

    @contract.function("upload")
    def upload(ctx: ExecutionContext) -> int:
        video_data = str(ctx.arg(0, "video"))
        ctx.charge_data(record_size)
        index = ctx.load("uploads") + 1
        ctx.compute(1)
        ctx.store("uploads", index)
        # assign the requester's address to the data — the record is the
        # oversized key-value pair that breaks the AVM implementation
        record = f"{ctx.caller}:{video_data}".ljust(record_size, ".")
        ctx.store(f"video:{index}", record)
        ctx.emit("Uploaded", ctx.caller, index)
        return index

    @contract.function("count")
    def count(ctx: ExecutionContext) -> int:
        return ctx.load("uploads")

    return contract
