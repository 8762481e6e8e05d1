"""repro — assembly-based construction of complex distributed topologies.

A complete reimplementation of the framework described in Simon Bouget,
*Position paper: Toward an holistic approach of Systems of Systems*
(Middleware 2016 Doctoral Symposium, DOI 10.1145/3009925.3009935): a
component library of elementary topology shapes, a DSL to assemble them
through ports and links, and a self-stabilizing runtime of layered
self-organizing gossip overlays — plus the round-based simulator the
evaluation runs on, the monolithic baselines, and the experiment drivers
reproducing every figure of the paper.

Quickstart
----------
>>> from repro import TopologyBuilder, Runtime
>>> builder = TopologyBuilder("Demo")
>>> _ = builder.component("core", "ring", size=32)
>>> assembly = builder.build()
>>> deployment = Runtime(assembly, seed=1).deploy(32)
>>> report = deployment.run_until_converged(max_rounds=60)
>>> report.converged
True

See ``examples/`` for complete scenarios and ``benchmarks/`` for the
reproduction of the paper's evaluation.
"""

from repro.errors import (
    AssemblyError,
    ConfigurationError,
    ConvergenceTimeout,
    DslError,
    DslSemanticError,
    DslSyntaxError,
    ReproError,
    SimulationError,
    TopologyError,
)
from repro.core import (
    Assembly,
    ComponentSpec,
    ConvergenceReport,
    Deployment,
    HashAssignment,
    LinkSpec,
    NodeProfile,
    PortRef,
    PortSpec,
    ProportionalAssignment,
    Runtime,
    RuntimeConfig,
    make_selector,
)
from repro.dsl import TopologyBuilder, compile_source, parse_source, to_source
from repro.shapes import Shape, available_shapes, make_shape
from repro.sim import GossipParams, TransportCosts

__version__ = "1.0.0"

__all__ = [
    # errors
    "AssemblyError",
    "ConfigurationError",
    "ConvergenceTimeout",
    "DslError",
    "DslSemanticError",
    "DslSyntaxError",
    "ReproError",
    "SimulationError",
    "TopologyError",
    # core IR & runtime
    "Assembly",
    "ComponentSpec",
    "ConvergenceReport",
    "Deployment",
    "HashAssignment",
    "LinkSpec",
    "NodeProfile",
    "PortRef",
    "PortSpec",
    "ProportionalAssignment",
    "Runtime",
    "RuntimeConfig",
    "make_selector",
    # DSL
    "TopologyBuilder",
    "compile_source",
    "parse_source",
    "to_source",
    # shapes
    "Shape",
    "available_shapes",
    "make_shape",
    # simulator config
    "GossipParams",
    "TransportCosts",
    "__version__",
]
