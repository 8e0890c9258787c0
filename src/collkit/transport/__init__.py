"""Point-to-point transports: in-process threads, TCP sockets, and a
deterministic virtual-time backend. All expose the same endpoint contract
(exactly-once, order-preserving delivery per (src, dst, tag) channel)."""

from .base import ChannelStore, Communicator, MessageLog
from .inprocess import InProcessEndpoint, InProcessTransport, run_ranks
from .simulated import VirtualEndpoint, VirtualTransport, run_ranks_virtual
from .sockets import (
    HostEntry,
    SocketEndpoint,
    connect_local_mesh,
    parse_host_file,
    write_host_file,
)

__all__ = [
    "ChannelStore",
    "Communicator",
    "MessageLog",
    "InProcessEndpoint",
    "InProcessTransport",
    "run_ranks",
    "VirtualEndpoint",
    "VirtualTransport",
    "run_ranks_virtual",
    "HostEntry",
    "SocketEndpoint",
    "connect_local_mesh",
    "parse_host_file",
    "write_host_file",
]
