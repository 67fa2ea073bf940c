"""Multiparty session types: global protocols, projection, and verification.

The pipeline: parse a global type (`.gt` syntax), decide well-formedness
of its trace language, project it onto a session environment (one
behavioral type per participant, `.mps` syntax), execute that environment
over asynchronous buffered channels, and check — up to explicit bounds —
that the implementation is sound and complete for the protocol.
"""

__version__ = "0.1.0"
