"""The reified processing graph and its manipulation API.

Paper §2: "the PerPos middleware is designed around the central idea of
representing individual steps of the actual positioning process explicitly
as a directed acyclic graph based on the flow of information from sensors
to application code."  §2.1: "Applications can manipulate the composition
of components in the tree through the API of the PSL, e.g., insert,
delete and connect."

This graph *is* the positioning process -- there is no second, shadow
structure to keep causally connected: components hand produced data to the
graph, and the graph routes it along the current edge set.  Manipulating
the graph therefore changes the live process, which is exactly the causal
connection the paper's reflection design calls for.

Dispatch fast path
------------------
Reflection makes the *structure* mutable; it must not make every datum
pay for that mutability.  The graph therefore keeps the authoritative
edge list (`_connections`, the slow/reflective representation) and a set
of derived, lazily rebuilt indexes used on the per-datum hot path:

* a **routing table** keyed by producer name whose entries carry the
  consumer component object, the port name, and the port's accept-set;
* a per-``(producer, kind)`` **route memo** of the entries that accept
  that kind, so steady-state routing is one dict lookup;
* **adjacency indexes** (``upstream``/``downstream`` name maps) backing
  traversal, channel derivation and source/sink/merge queries;
* cached **reachability** (``descendants``/``ancestors``) for the
  acyclicity check in :meth:`connect`.

On top of the per-datum path, :meth:`ProcessingGraph.route_batch` routes
whole batches: route resolution happens once per ``(producer, kind)``
group and consumers receive through the ``receive_batch`` seam, which is
what the scale-out runtime's ingestion queues drain into.

All of them are invalidated by a single monotonically increasing
**topology version** bumped by every structural mutation
(``add``/``remove``/``connect``/``disconnect`` and the operations built
on them).  Reflective manipulation stays exactly as expressive -- it
just pays the (lazy) rebuild once per mutation instead of a linear scan
per datum.  Input-port accept-sets are treated as immutable after
component construction, which is what makes the memo sound.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    FrozenSet,
    List,
    Mapping,
    Optional,
    Set,
    Tuple,
)

from repro.core.component import ComponentObserver, ProcessingComponent
from repro.core.data import Datum

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from repro.observability.instrumentation import ObservabilityHub
    from repro.robustness.supervision import Supervisor


class GraphError(Exception):
    """Raised on illegal graph manipulation."""


@dataclass(frozen=True)
class Connection:
    """A directed edge: producer's output into one consumer input port."""

    producer: str
    consumer: str
    port: str


#: One precompiled routing-table entry: the live consumer component, the
#: input port name, and the port's accept-set frozen for O(1) matching.
RouteEntry = Tuple[ProcessingComponent, str, FrozenSet[str]]


class GraphObserver:
    """Callbacks for observing the live graph; all optional.

    Channels (PCL) subscribe to reconstruct logical time; the overhead
    ablation benchmark subscribes to count traffic.
    """

    def data_consumed(
        self, component: ProcessingComponent, port_name: str, datum: Datum
    ) -> None:  # pragma: no cover - default no-op
        pass

    def data_produced(
        self, component: ProcessingComponent, datum: Datum
    ) -> None:  # pragma: no cover - default no-op
        pass

    def data_dropped(
        self,
        component: ProcessingComponent,
        port_name: str,
        datum: Datum,
        feature_name: str,
    ) -> None:  # pragma: no cover - default no-op
        pass

    def topology_changed(self, graph: "ProcessingGraph") -> None:  # pragma: no cover
        pass


class ProcessingGraph(ComponentObserver):
    """A mutable DAG of processing components with synchronous delivery."""

    def __init__(self) -> None:
        self._components: Dict[str, ProcessingComponent] = {}
        self._connections: List[Connection] = []
        self._observers: List[GraphObserver] = []
        # Immutable fan-out snapshot, rebuilt on (un)subscription only;
        # the hot path iterates it without a per-event list copy.
        self._observer_tuple: Tuple[GraphObserver, ...] = ()
        # Optional runtime instrumentation; None keeps the hot path bare.
        self._instrumentation: Optional["ObservabilityHub"] = None
        # Optional failure supervision; None keeps the hot path bare.
        self._supervisor: Optional["Supervisor"] = None
        # Installed subsystems by key ("runtime", "gateway", "durability",
        # "scenario", "control", ...; see PerPos._install).  Never
        # consulted on the per-datum hot path: the mapping only exists so
        # the PSL and the infrastructure report can reach them.  The hub
        # and the supervisor appear here too, mirrored by their setters.
        self.subsystems: Dict[str, Any] = {}
        # -- derived indexes (dispatch fast path) -------------------------
        # Bumped by every structural mutation; compared by in-flight
        # routing loops to detect reentrant manipulation.
        self._version: int = 0
        self._routing: Optional[Dict[str, List[RouteEntry]]] = None
        self._route_memo: Dict[
            Tuple[str, str], Tuple[Tuple[ProcessingComponent, str], ...]
        ] = {}
        self._upstream_index: Optional[Dict[str, List[str]]] = None
        self._downstream_index: Optional[Dict[str, List[str]]] = None
        self._descendants_cache: Dict[str, FrozenSet[str]] = {}
        self._ancestors_cache: Dict[str, FrozenSet[str]] = {}

    # -- instrumentation ------------------------------------------------------

    @property
    def instrumentation(self) -> Optional["ObservabilityHub"]:
        """The installed observability hub, or None while disabled."""
        return self._instrumentation

    def set_instrumentation(
        self, hub: Optional["ObservabilityHub"]
    ) -> Optional["ObservabilityHub"]:
        """Install (or, with None, remove) the observability hub.

        Returns the previously installed hub.  The hub immediately
        receives the current topology so its gauges start correct.
        """
        previous = self._instrumentation
        self._instrumentation = hub
        self._mirror("observability", hub)
        if hub is not None:
            hub.topology_changed(
                len(self._components), len(self._connections), self._version
            )
        return previous

    # -- supervision ----------------------------------------------------------

    @property
    def supervisor(self) -> Optional["Supervisor"]:
        """The installed supervisor, or None while supervision is off."""
        return self._supervisor

    def set_supervisor(
        self, supervisor: Optional["Supervisor"]
    ) -> Optional["Supervisor"]:
        """Install (or, with None, remove) the failure supervisor.

        Returns the previously installed supervisor.  While one is
        installed every delivery crosses
        :meth:`~repro.robustness.supervision.Supervisor.deliver`; while
        none is, routing is the bare fast path plus one ``is None``
        check per routed datum.
        """
        previous = self._supervisor
        if previous is not None:
            previous._graph = None
        self._supervisor = supervisor
        self._mirror("supervision", supervisor)
        if supervisor is not None:
            supervisor._graph = self
        return previous

    def _mirror(self, key: str, subsystem: Optional[Any]) -> None:
        if subsystem is None:
            self.subsystems.pop(key, None)
        else:
            self.subsystems[key] = subsystem

    # -- derived indexes -------------------------------------------------------

    @property
    def topology_version(self) -> int:
        """Monotonic counter, bumped by every structural mutation."""
        return self._version

    def _invalidate(self) -> None:
        """Structural mutation: bump the version, drop derived indexes.

        The only place the route memo is cleared: its entries depend on
        nothing but the connections and the input ports' accept-sets,
        and only structural mutations change those.
        """
        self._version += 1
        self._routing = None
        if self._route_memo:
            self._route_memo = {}
        self._upstream_index = None
        self._downstream_index = None
        if self._descendants_cache:
            self._descendants_cache = {}
        if self._ancestors_cache:
            self._ancestors_cache = {}

    def _routing_table(self) -> Dict[str, List[RouteEntry]]:
        table = self._routing
        if table is None:
            table = {}
            components = self._components
            for connection in self._connections:
                consumer = components[connection.consumer]
                port = consumer.input_port(connection.port)
                table.setdefault(connection.producer, []).append(
                    (consumer, connection.port, frozenset(port.accepts))
                )
            self._routing = table
        return table

    def _route_entries(
        self, producer: str, kind: str
    ) -> Tuple[Tuple[ProcessingComponent, str], ...]:
        entries = tuple(
            (consumer, port_name)
            for consumer, port_name, accepts in self._routing_table().get(
                producer, ()
            )
            if kind in accepts
        )
        self._route_memo[(producer, kind)] = entries
        return entries

    def _adjacency(
        self,
    ) -> Tuple[Dict[str, List[str]], Dict[str, List[str]]]:
        up = self._upstream_index
        if up is None:
            up = {}
            down: Dict[str, List[str]] = {}
            for c in self._connections:
                up.setdefault(c.consumer, []).append(c.producer)
                down.setdefault(c.producer, []).append(c.consumer)
            self._upstream_index = up
            self._downstream_index = down
        return up, self._downstream_index  # type: ignore[return-value]

    def upstream_map(self) -> Mapping[str, List[str]]:
        """Consumer name -> producer names, in edge order.

        A live snapshot of the adjacency index: valid until the next
        structural mutation, must not be mutated by callers.  Components
        without inbound edges are absent.  The PCL derives its channel
        decomposition from this map instead of per-node scans.
        """
        return self._adjacency()[0]

    def downstream_map(self) -> Mapping[str, List[str]]:
        """Producer name -> consumer names, in edge order (see
        :meth:`upstream_map` for the snapshot contract)."""
        return self._adjacency()[1]

    # -- membership ----------------------------------------------------------

    def add(self, component: ProcessingComponent) -> ProcessingComponent:
        """Add a component to the graph (unconnected)."""
        if component.name in self._components:
            raise GraphError(
                f"graph already contains a component named"
                f" {component.name!r}"
            )
        self._components[component.name] = component
        component._observer = self
        # partial() dispatches without an extra interpreter frame per
        # produced datum (vs. a capturing lambda).
        component._deliver = partial(self._dispatch, component)
        component._deliver_batch = partial(self._dispatch_batch, component)
        self._invalidate()
        self._notify_topology()
        return component

    def remove(self, name: str, reconnect: bool = False) -> ProcessingComponent:
        """Remove a component, optionally splicing its neighbours together.

        With ``reconnect=True`` every upstream producer is connected to
        every downstream consumer port that is compatible, which is how
        the PSL "delete" keeps a pipeline flowing when a filter is taken
        out.
        """
        component = self.component(name)
        upstream, _down = self._adjacency()
        producers = list(upstream.get(name, ()))
        downstream_ports = [
            (consumer.name, port_name)
            for consumer, port_name, _accepts in self._routing_table().get(
                name, ()
            )
        ]
        if producers or downstream_ports:
            self._connections = [
                c
                for c in self._connections
                if c.producer != name and c.consumer != name
            ]
        del self._components[name]
        self._invalidate()
        component._observer = None
        component._deliver = None
        component._deliver_batch = None
        if reconnect:
            for up in producers:
                for consumer, port in downstream_ports:
                    if up == consumer:
                        # Splicing out a node must never wire a component
                        # to itself; skip instead of relying on the cycle
                        # check to reject the self-loop.
                        continue
                    try:
                        self.connect(up, consumer, port)
                    except GraphError:
                        continue
        self._notify_topology()
        return component

    def component(self, name: str) -> ProcessingComponent:
        """Look a component up by name."""
        try:
            return self._components[name]
        except KeyError:
            raise GraphError(f"no component named {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._components

    def components(self) -> List[ProcessingComponent]:
        """All components currently in the graph."""
        return list(self._components.values())

    def connections(self) -> List[Connection]:
        """All current edges."""
        return list(self._connections)

    # -- wiring ---------------------------------------------------------------

    def connect(
        self,
        producer: str,
        consumer: str,
        port: Optional[str] = None,
    ) -> Connection:
        """Connect ``producer``'s output to an input port of ``consumer``.

        When ``port`` is omitted the first compatible input port is used.
        The connection is validated: kind overlap, required Component
        Features present on the producer, and acyclicity.
        """
        src = self.component(producer)
        dst = self.component(consumer)
        if port is None:
            port = self._pick_port(src, dst)
        in_port = dst.input_port(port)
        if not set(in_port.accepts) & set(src.output_port.capabilities):
            raise GraphError(
                f"no kind overlap: {producer} produces"
                f" {list(src.output_port.capabilities)},"
                f" {consumer}.{port} accepts {list(in_port.accepts)}"
            )
        missing = [
            f
            for f in in_port.required_features
            if not src.has_feature(f)
        ]
        if missing:
            raise GraphError(
                f"{consumer}.{port} requires features {missing} that"
                f" {producer} does not provide"
            )
        connection = Connection(producer, consumer, port)
        if connection in self._connections:
            raise GraphError(f"duplicate connection {connection}")
        if producer == consumer or producer in self.descendants(consumer):
            raise GraphError(
                f"connecting {producer} -> {consumer} would create a cycle"
            )
        self._connections.append(connection)
        self._invalidate()
        self._notify_topology()
        return connection

    def _pick_port(
        self, src: ProcessingComponent, dst: ProcessingComponent
    ) -> str:
        for in_port in dst.input_ports:
            if set(in_port.accepts) & set(src.output_port.capabilities):
                return in_port.name
        raise GraphError(
            f"no input port of {dst.name} accepts anything {src.name}"
            " produces"
        )

    def disconnect(
        self, producer: str, consumer: str, port: Optional[str] = None
    ) -> None:
        """Remove matching edges; raises if none existed."""
        before = len(self._connections)
        self._connections = [
            c
            for c in self._connections
            if not (
                c.producer == producer
                and c.consumer == consumer
                and (port is None or c.port == port)
            )
        ]
        if len(self._connections) == before:
            raise GraphError(
                f"no connection {producer} -> {consumer}"
                + (f".{port}" if port else "")
            )
        self._invalidate()
        self._notify_topology()

    def insert_between(
        self,
        producer: str,
        consumer: str,
        component: ProcessingComponent,
        port: Optional[str] = None,
    ) -> None:
        """Splice ``component`` into an existing edge.

        This is the paper's §3.1 operation: "We insert the filter
        component after the Parser component."
        """
        existing = [
            c
            for c in self._connections
            if c.producer == producer
            and c.consumer == consumer
            and (port is None or c.port == port)
        ]
        if not existing:
            raise GraphError(
                f"no existing connection {producer} -> {consumer} to"
                " splice into"
            )
        if component.name not in self._components:
            self.add(component)
        for edge in existing:
            self.disconnect(edge.producer, edge.consumer, edge.port)
        already_fed = component.name in self.downstream_map().get(
            producer, ()
        )
        if not already_fed:
            # Splicing the same component into several edges of one
            # producer (insert_after) shares a single feeding connection.
            self.connect(producer, component.name)
        for edge in existing:
            self.connect(component.name, edge.consumer, edge.port)

    # -- traversal --------------------------------------------------------------

    def upstream(self, name: str) -> List[str]:
        """Direct producers feeding ``name``."""
        self.component(name)
        return list(self._adjacency()[0].get(name, ()))

    def downstream(self, name: str) -> List[str]:
        """Direct consumers of ``name``'s output."""
        self.component(name)
        return list(self._adjacency()[1].get(name, ()))

    def ancestors(self, name: str) -> Set[str]:
        """All transitive producers feeding ``name``."""
        self.component(name)
        cached = self._ancestors_cache.get(name)
        if cached is None:
            cached = self._reachable(name, self._adjacency()[0])
            self._ancestors_cache[name] = cached
        return set(cached)

    def descendants(self, name: str) -> Set[str]:
        """All transitive consumers of ``name``'s output."""
        self.component(name)
        cached = self._descendants_cache.get(name)
        if cached is None:
            cached = self._reachable(name, self._adjacency()[1])
            self._descendants_cache[name] = cached
        return set(cached)

    @staticmethod
    def _reachable(
        name: str, index: Dict[str, List[str]]
    ) -> FrozenSet[str]:
        seen: Set[str] = set()
        frontier = list(index.get(name, ()))
        while frontier:
            node = frontier.pop()
            if node in seen:
                continue
            seen.add(node)
            frontier.extend(index.get(node, ()))
        return frozenset(seen)

    def sources(self) -> List[ProcessingComponent]:
        """Leaf nodes: components with no inbound connections."""
        upstream, _down = self._adjacency()
        return [
            comp
            for name, comp in self._components.items()
            if not upstream.get(name)
        ]

    def sinks(self) -> List[ProcessingComponent]:
        """Root nodes: components with no outbound connections."""
        _up, downstream = self._adjacency()
        return [
            comp
            for name, comp in self._components.items()
            if not downstream.get(name)
        ]

    def merge_points(self) -> List[ProcessingComponent]:
        """Components combining data from two or more producers."""
        upstream, _down = self._adjacency()
        return [
            comp
            for name, comp in self._components.items()
            if len(upstream.get(name, ())) >= 2
        ]

    # -- delivery -----------------------------------------------------------------

    def _dispatch(self, component: ProcessingComponent, datum: Datum) -> None:
        """Take one produced datum from a component into the graph.

        Instrumentation runs first so observers and consumers all see
        the (possibly trace-annotated) datum the application will
        eventually receive.
        """
        hub = self._instrumentation
        if hub is not None:
            datum = hub.datum_dispatched(component.name, datum)
        for observer in self._observer_tuple:
            observer.data_produced(component, datum)
        self._route(component.name, datum)

    def _route(self, producer: str, datum: Datum) -> None:
        entries = self._route_memo.get((producer, datum.kind))
        if entries is None:
            entries = self._route_entries(producer, datum.kind)
        if not entries:
            return
        # The entry tuple is a snapshot: consumers connected *during*
        # this delivery wait for the next datum (same as the pre-index
        # edge-list snapshot).  If a reentrant mutation bumps the
        # version mid-loop, stale entries whose consumer has left the
        # graph are skipped -- removal semantics are checked against the
        # live component table, exactly as the linear scan did.
        version = self._version
        components = self._components
        hub = self._instrumentation
        supervisor = self._supervisor
        if supervisor is not None:
            # Supervised delivery: the supervisor wraps each consumer's
            # receive (and the hub, when installed, stays inside the
            # wrap so error counters keep recording) in the policy.
            for consumer, port_name in entries:
                if (
                    version != self._version
                    and components.get(consumer.name) is not consumer
                ):
                    continue
                supervisor.deliver(consumer, port_name, datum, hub)
        elif hub is None:
            for consumer, port_name in entries:
                if (
                    version != self._version
                    and components.get(consumer.name) is not consumer
                ):
                    continue
                consumer.receive(port_name, datum)
        else:
            for consumer, port_name in entries:
                if (
                    version != self._version
                    and components.get(consumer.name) is not consumer
                ):
                    continue
                hub.deliver(consumer, port_name, datum)

    # -- batched delivery (scale-out runtime) ------------------------------------

    def _dispatch_batch(
        self, component: ProcessingComponent, datums: List[Datum]
    ) -> None:
        """Take a batch of produced datums from a component into the graph.

        The batch twin of :meth:`_dispatch`: instrumentation and observer
        events stay per datum (traces, PCL logical time), the routing
        itself is resolved once per batch.
        """
        hub = self._instrumentation
        if hub is not None:
            dispatched = hub.datum_dispatched
            name = component.name
            datums = [dispatched(name, datum) for datum in datums]
        observers = self._observer_tuple
        if observers:
            for datum in datums:
                for observer in observers:
                    observer.data_produced(component, datum)
        self.route_batch(component.name, datums)

    def route_batch(self, producer: str, datums: List[Datum]) -> None:
        """Route a batch of datums from ``producer`` in one pass.

        The routing table and the per-``(producer, kind)`` route memo
        are resolved once per kind-group instead of once per datum, and
        each consumer receives its whole group through the
        :meth:`~repro.core.component.ProcessingComponent.receive_batch`
        seam.  Supervision and observability semantics are preserved by
        construction: with a supervisor installed every datum still
        crosses :meth:`~repro.robustness.supervision.Supervisor
        .deliver_batch` (per-datum isolation), and with flow tracing on
        the hub delivers per datum so every trace keeps its own context.

        Ordering: datums of one batch reach each consumer in submission
        order (per-route FIFO), but the batch moves through the graph
        stage-by-stage -- across fan-out branches the interleaving
        differs from per-datum routing.  Sink outputs and trace hops are
        the same multiset either way (pinned by
        ``tests/test_property_runtime.py``).
        """
        if not datums:
            return
        # Group by kind, preserving order within each group.  Ingestion
        # batches are usually homogeneous, so the single-kind fast path
        # avoids the grouping dict entirely.
        first_kind = datums[0].kind
        groups: List[Tuple[str, List[Datum]]]
        if all(datum.kind == first_kind for datum in datums):
            groups = [(first_kind, datums)]
        else:
            by_kind: Dict[str, List[Datum]] = {}
            for datum in datums:
                by_kind.setdefault(datum.kind, []).append(datum)
            groups = list(by_kind.items())
        memo = self._route_memo
        version = self._version
        components = self._components
        hub = self._instrumentation
        supervisor = self._supervisor
        for kind, group in groups:
            entries = memo.get((producer, kind))
            if entries is None:
                entries = self._route_entries(producer, kind)
            if not entries:
                continue
            for consumer, port_name in entries:
                if (
                    version != self._version
                    and components.get(consumer.name) is not consumer
                ):
                    continue
                if supervisor is not None:
                    supervisor.deliver_batch(
                        consumer, port_name, group, hub
                    )
                elif hub is None:
                    consumer.receive_batch(port_name, group)
                else:
                    hub.deliver_batch(consumer, port_name, group)

    # -- observation ----------------------------------------------------------------

    def add_observer(self, observer: GraphObserver) -> Callable[[], None]:
        """Subscribe to graph events; returns an unsubscribe callable."""
        self._observers.append(observer)
        self._observer_tuple = tuple(self._observers)

        def _remove() -> None:
            if observer in self._observers:
                self._observers.remove(observer)
                self._observer_tuple = tuple(self._observers)

        return _remove

    def data_consumed(
        self, component: ProcessingComponent, port_name: str, datum: Datum
    ) -> None:
        """Component callback: fan the consume event out to observers."""
        for observer in self._observer_tuple:
            observer.data_consumed(component, port_name, datum)

    def data_produced(
        self, component: ProcessingComponent, datum: Datum
    ) -> None:
        """Fan the produce event out to observers (from :meth:`_dispatch`)."""
        for observer in self._observer_tuple:
            observer.data_produced(component, datum)

    def data_dropped(
        self,
        component: ProcessingComponent,
        port_name: str,
        datum: Datum,
        feature_name: str,
    ) -> None:
        """Component callback: a feature vetoed an inbound datum."""
        hub = self._instrumentation
        if hub is not None:
            hub.datum_dropped(component, port_name, datum, feature_name)
        for observer in self._observer_tuple:
            observer.data_dropped(component, port_name, datum, feature_name)

    def _notify_topology(self) -> None:
        hub = self._instrumentation
        if hub is not None:
            hub.topology_changed(
                len(self._components), len(self._connections), self._version
            )
        for observer in self._observer_tuple:
            observer.topology_changed(self)

    # -- display -----------------------------------------------------------------------

    def render_tree(self, root: Optional[str] = None, indent: str = "") -> str:
        """ASCII rendering of the processing tree, root at the top.

        Matches the paper's presentation of the graph "as a tree where
        data is traveling from leaf nodes toward the root".
        """
        roots = [root] if root else [c.name for c in self.sinks()]
        lines: List[str] = []

        def _walk(name: str, depth: int) -> None:
            comp = self._components[name]
            feature_note = (
                " [" + ", ".join(f.name for f in comp.features) + "]"
                if comp.features
                else ""
            )
            lines.append("  " * depth + f"{name}{feature_note}")
            for producer in sorted(self.upstream(name)):
                _walk(producer, depth + 1)

        for r in sorted(roots):
            _walk(r, 0)
        return "\n".join(lines)
