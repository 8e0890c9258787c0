"""Point-to-point transports: in-process threads and TCP sockets. Both
expose the same endpoint contract (exactly-once, order-preserving delivery
per (src, dst, tag) channel). For simulated time, see
:func:`collkit.simnet.simulate`: it prices the step schedules that the
collectives send over these transports."""

from .base import ChannelStore, Communicator
from .inprocess import InProcessEndpoint, InProcessTransport, run_ranks
from .sockets import HostEntry, SocketEndpoint, connect_local_mesh, parse_host_file

__all__ = [
    "ChannelStore",
    "Communicator",
    "InProcessEndpoint",
    "InProcessTransport",
    "run_ranks",
    "HostEntry",
    "SocketEndpoint",
    "connect_local_mesh",
    "parse_host_file",
]
