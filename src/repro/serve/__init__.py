"""A line-protocol serving front-end over the engine pool.

§9 ends with one machine absorbing "a set of transactions"; this
package puts a network edge on that machine.  ``repro serve`` (or
:class:`ReproServer` in-process) listens on a TCP port and speaks a
newline-delimited JSON protocol (:mod:`repro.serve.protocol`); each
connection binds to a tenant and issues relational-algebra queries
that the shared :class:`~repro.machine.pool.EnginePool` admits,
compiles, and executes.  :class:`ServiceClient` is the matching
blocking client.  Everything is standard library — a thread per
connection on the server, a plain socket on the client.
"""

from repro.serve.client import ServiceClient
from repro.serve.protocol import (
    decode_line,
    encode_line,
    relation_from_wire,
    relation_to_wire,
)
from repro.serve.server import ReproServer

__all__ = [
    "ReproServer",
    "ServiceClient",
    "decode_line",
    "encode_line",
    "relation_from_wire",
    "relation_to_wire",
]
