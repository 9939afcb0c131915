"""One Alewife processing node (Figure 1).

A node bundles: a SPARCLE-like processor, a direct-mapped cache with its
protocol engine, a slice of globally shared memory with its directory and
memory controller, and the IPI network interface.  For software-extended
protocols the node also carries the LimitLESS trap-handler instance, whose
traps execute on this node's processor.
"""

from __future__ import annotations

from ..backend import get_backend
from ..cache.controller import CacheController
from ..coherence.limitless import LimitLessSoftware
from ..coherence.registry import SOFTWARE_PROTOCOLS, controller_class
from ..mem.address import AddressSpace
from ..mem.memory import MainMemory
from ..network.fabric import Network
from ..network.interface import NetworkInterface
from ..proc.processor import Processor
from ..sim.kernel import Simulator
from ..sim.rng import DeterministicRng
from ..stats.counters import Counters
from .config import AlewifeConfig


class Node:
    """A fully wired processing node."""

    def __init__(
        self,
        sim: Simulator,
        node_id: int,
        config: AlewifeConfig,
        space: AddressSpace,
        network: Network,
        rng: DeterministicRng,
        *,
        on_proc_done=None,
    ) -> None:
        self.node_id = node_id
        self.config = config
        self._backend = get_backend(config.backend)
        self.counters = Counters()

        fault_tolerant = config.faults_enabled
        self.memory = MainMemory(space, node_id)
        # One machine-wide free list, installed on the network by the
        # machine before nodes are built.
        self.pool = network.pool
        self.nic = NetworkInterface(
            sim,
            node_id,
            network,
            ipi_capacity=config.ipi_capacity,
            counters=self.counters,
            pool=self.pool,
        )
        # Payload CRCs are stamped/verified only under fault injection, so
        # fault-free runs never pay for (or are perturbed by) checksums.
        self.nic.crc_enabled = fault_tolerant
        self.directory_controller = self._build_directory_controller(sim, space)
        self.cache_array = self._backend.make_cache_array(
            space, config.cache_lines
        )
        self.cache_controller = CacheController(
            sim,
            node_id,
            space,
            self.cache_array,
            self.nic,
            hit_latency=config.cache_hit_latency,
            retry_base=config.retry_base,
            retry_cap=config.retry_cap,
            rng=rng,
            counters=self.counters,
            fault_tolerant=fault_tolerant,
            request_timeout=(
                (config.request_timeout or 2000) if fault_tolerant else 0
            ),
            pool=self.pool,
        )
        self.processor = Processor(
            sim,
            node_id,
            space,
            self.cache_controller,
            switch_cycles=config.switch_cycles,
            max_contexts=config.max_contexts,
            memory_model=config.memory_model,
            store_buffer=config.store_buffer,
            counters=self.counters,
            on_done=on_proc_done,
        )
        self.software: LimitLessSoftware | None = None
        if config.protocol in SOFTWARE_PROTOCOLS:
            self.software = LimitLessSoftware(
                self.directory_controller,
                self.nic,
                self.processor,
                ts=config.ts,
                ts_per_invalidation=config.ts_per_invalidation,
            )
        elif config.protocol == "limitless_approx":
            # The approximation stalls the local processor directly.
            self.directory_controller.trap_engine = self.processor

    def _build_directory_controller(self, sim: Simulator, space: AddressSpace):
        cls = controller_class(self.config.protocol)
        kwargs: dict = dict(
            dir_occupancy=self.config.dir_occupancy,
            counters=self.counters,
            pool=self.pool,
        )
        directory = self._backend.make_directory(self.node_id)
        if directory is not None:
            kwargs["directory"] = directory
        if self.config.faults_enabled:
            kwargs["fault_tolerant"] = True
            kwargs["inv_timeout"] = self.config.inv_timeout or 3000
            kwargs["inv_retx_broadcast"] = self.config.inv_retx_broadcast
        if self.config.protocol in (
            "limited",
            "limited_broadcast",
            "limitless",
            "trap_always",
        ):
            kwargs["pointer_capacity"] = self.config.pointers
        if self.config.protocol == "limitless_approx":
            kwargs["hw_pointers"] = self.config.pointers
            kwargs["ts"] = self.config.ts
        return cls(sim, self.node_id, space, self.memory, self.nic, **kwargs)

    def start(self) -> None:
        self.processor.start()
