//! Simulated machine configuration.

use commchar_mesh::{EngineKind, MeshConfig};
use commchar_trace::MAX_NODES;

pub use crate::protocol::Protocol;

/// Configuration of the simulated CC-NUMA machine.
///
/// Times are in processor cycles. Defaults follow the paper-era machine
/// assumptions: 32-byte cache blocks, a single-level direct-mapped private
/// cache, a full-map directory at each block's home node, and a 2-D mesh
/// sized to the processor count.
#[derive(Clone, Copy, Debug)]
pub struct MachineConfig {
    /// Number of processors (1–[`MAX_NODES`]; one per mesh node).
    pub nprocs: usize,
    /// Private cache capacity in lines.
    pub cache_lines: usize,
    /// Cache associativity (1 = direct-mapped, the paper's machine).
    pub associativity: usize,
    /// Coherence protocol (MSI, or MESI with the Exclusive optimization).
    pub protocol: Protocol,
    /// Cache block size in bytes (must be a multiple of 8).
    pub block_bytes: u32,
    /// Cycles for a cache hit.
    pub hit_latency: u64,
    /// Cycles to fill a line after the reply arrives.
    pub fill_latency: u64,
    /// Cycles for the directory/memory to produce a data block.
    pub mem_latency: u64,
    /// Cycles for a directory decision that needs no memory access.
    pub dir_latency: u64,
    /// Cycles charged at synchronization endpoints.
    pub sync_latency: u64,
    /// Payload bytes of a protocol control message.
    pub ctrl_bytes: u32,
    /// The interconnection network.
    pub mesh: MeshConfig,
    /// Which network engine closes the co-simulation loop (recurrence
    /// model by default; the cycle-accurate flit router as the
    /// high-fidelity alternative).
    pub engine: EngineKind,
    /// Worker shards for the conservative-window parallel engine (1 =
    /// serial; 0 = one per hardware thread); with the flit engine it also
    /// shards the router's final drain. Any value yields bit-identical
    /// results — see [`crate::run_with`].
    pub sim_jobs: usize,
}

impl MachineConfig {
    /// Creates a machine with `nprocs` processors and default parameters.
    ///
    /// # Panics
    ///
    /// Panics if `nprocs` is 0 or exceeds [`MAX_NODES`] (one mesh node
    /// per processor; the full-map directory scales with the count).
    pub fn new(nprocs: usize) -> Self {
        assert!((1..=MAX_NODES).contains(&nprocs), "nprocs must be in 1..={MAX_NODES}");
        MachineConfig {
            nprocs,
            cache_lines: 256,
            associativity: 1,
            protocol: Protocol::Msi,
            block_bytes: 32,
            hit_latency: 1,
            fill_latency: 2,
            mem_latency: 30,
            dir_latency: 4,
            sync_latency: 2,
            ctrl_bytes: 8,
            mesh: MeshConfig::for_nodes(nprocs),
            engine: EngineKind::Recurrence,
            sim_jobs: 1,
        }
    }

    /// Sets the cache capacity in lines.
    ///
    /// # Panics
    ///
    /// Panics if `lines == 0`.
    #[must_use]
    pub fn with_cache_lines(mut self, lines: usize) -> Self {
        assert!(lines > 0, "cache needs at least one line");
        self.cache_lines = lines;
        self
    }

    /// Sets the cache associativity.
    ///
    /// # Panics
    ///
    /// Panics unless `ways ≥ 1` divides the line count.
    #[must_use]
    pub fn with_associativity(mut self, ways: usize) -> Self {
        assert!(
            ways >= 1 && self.cache_lines.is_multiple_of(ways),
            "associativity must divide lines"
        );
        self.associativity = ways;
        self
    }

    /// Selects the coherence protocol.
    #[must_use]
    pub fn with_protocol(mut self, protocol: Protocol) -> Self {
        self.protocol = protocol;
        self
    }

    /// Sets the cache block size in bytes.
    ///
    /// # Panics
    ///
    /// Panics unless `bytes` is a positive multiple of 8.
    #[must_use]
    pub fn with_block_bytes(mut self, bytes: u32) -> Self {
        assert!(
            bytes > 0 && bytes.is_multiple_of(8),
            "block size must be a positive multiple of 8"
        );
        self.block_bytes = bytes;
        self
    }

    /// Sets the memory/directory data latency.
    #[must_use]
    pub fn with_mem_latency(mut self, cycles: u64) -> Self {
        self.mem_latency = cycles;
        self
    }

    /// Replaces the mesh configuration (e.g. to change channel width).
    ///
    /// # Panics
    ///
    /// Panics if the mesh has fewer nodes than processors.
    #[must_use]
    pub fn with_mesh(mut self, mesh: MeshConfig) -> Self {
        assert!(mesh.shape.nodes() >= self.nprocs, "mesh too small for processor count");
        self.mesh = mesh;
        self
    }

    /// Selects the network engine that closes the co-simulation loop.
    #[must_use]
    pub fn with_engine(mut self, engine: EngineKind) -> Self {
        self.engine = engine;
        self
    }

    /// Sets the shard count for the conservative-window parallel engine
    /// (1 = serial; 0 = one shard per hardware thread). The shard count
    /// never changes simulation results, only wall-clock time.
    #[must_use]
    pub fn with_sim_jobs(mut self, sim_jobs: usize) -> Self {
        self.sim_jobs = sim_jobs;
        self
    }

    /// Words (u64) per cache block.
    pub fn block_words(&self) -> usize {
        (self.block_bytes / 8) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_consistent() {
        let c = MachineConfig::new(8);
        assert_eq!(c.block_words(), 4);
        assert_eq!(c.mesh.shape.nodes(), 8);
    }

    #[test]
    fn builders() {
        let c =
            MachineConfig::new(4).with_cache_lines(64).with_block_bytes(64).with_mem_latency(10);
        assert_eq!(c.cache_lines, 64);
        assert_eq!(c.block_words(), 8);
        assert_eq!(c.mem_latency, 10);
    }

    #[test]
    #[should_panic(expected = "nprocs")]
    fn too_many_procs() {
        let _ = MachineConfig::new(4097);
    }

    #[test]
    fn kilo_processor_machines_are_allowed() {
        let c = MachineConfig::new(1024).with_sim_jobs(8);
        assert_eq!(c.mesh.shape.nodes(), 1024);
        assert_eq!(c.sim_jobs, 8);
    }

    #[test]
    #[should_panic(expected = "multiple of 8")]
    fn bad_block_size() {
        let _ = MachineConfig::new(4).with_block_bytes(12);
    }
}
