//! Network configuration.

use crate::{MeshShape, Routing, Topology};

/// Parameters of the 2-D mesh wormhole network.
///
/// Defaults follow the paper-era machine assumptions: 2-byte-wide channels
/// (one flit = 2 bytes), an 8-byte header, one cycle per flit per channel,
/// and a 2-cycle routing decision per router.
///
/// # Example
///
/// ```
/// use commchar_mesh::MeshConfig;
/// let cfg = MeshConfig::new(4, 4).with_flit_bytes(4);
/// assert_eq!(cfg.flits_for(32), 8 + 2); // payload + header flits
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MeshConfig {
    /// Mesh shape.
    pub shape: MeshShape,
    /// Bytes carried per flit (channel width).
    pub flit_bytes: u32,
    /// Header length in bytes (routing + control information).
    pub header_bytes: u32,
    /// Cycles for a router to process a header and switch it (per hop).
    pub router_delay: u64,
    /// Cycles for a flit to cross a channel.
    pub link_delay: u64,
    /// Input buffer depth in flits per virtual channel (used by the
    /// flit-accurate model only).
    pub buffer_flits: usize,
    /// Virtual channels per physical channel (flit-accurate model only;
    /// the recurrence model treats the physical channel as one resource).
    pub virtual_channels: usize,
    /// Route-computation policy (dimension-order or minimal-adaptive).
    pub routing: Routing,
}

impl MeshConfig {
    /// Creates a configuration for a `width × height` mesh with paper-era
    /// defaults.
    pub fn new(width: u16, height: u16) -> Self {
        MeshConfig {
            shape: MeshShape::new(width, height),
            flit_bytes: 2,
            header_bytes: 8,
            router_delay: 2,
            link_delay: 1,
            buffer_flits: 2,
            virtual_channels: 1,
            routing: Routing::Dimension,
        }
    }

    /// Convenience: near-square grid for `n` nodes with the chosen
    /// topology and routing policy, with `virtual_channels` raised (never
    /// lowered) to the [`Routing::vc_classes`] budget the combination
    /// needs for deadlock freedom — so the resulting configuration is
    /// always accepted by the flit-accurate router.
    pub fn for_nodes_net(n: usize, topology: Topology, routing: Routing) -> Self {
        let mesh = MeshShape::for_nodes(n);
        let shape = match topology {
            Topology::Mesh => mesh,
            Topology::Torus => MeshShape::new_torus(mesh.width(), mesh.height()),
        };
        let cfg = MeshConfig { shape, ..MeshConfig::new(shape.width(), shape.height()) }
            .with_routing(routing);
        let vcs = cfg.virtual_channels.max(cfg.vc_classes());
        cfg.with_virtual_channels(vcs)
    }

    /// Convenience: near-square mesh for `n` nodes.
    pub fn for_nodes(n: usize) -> Self {
        let shape = MeshShape::for_nodes(n);
        MeshConfig { shape, ..MeshConfig::new(shape.width(), shape.height()) }
    }

    /// Creates a torus configuration with paper-era defaults otherwise.
    pub fn new_torus(width: u16, height: u16) -> Self {
        MeshConfig { shape: MeshShape::new_torus(width, height), ..MeshConfig::new(width, height) }
    }

    /// Convenience: near-square torus for `n` nodes.
    pub fn torus_for_nodes(n: usize) -> Self {
        let mesh = MeshShape::for_nodes(n);
        MeshConfig {
            shape: MeshShape::new_torus(mesh.width(), mesh.height()),
            ..MeshConfig::new(mesh.width(), mesh.height())
        }
    }

    /// Sets the channel width in bytes per flit.
    ///
    /// # Panics
    ///
    /// Panics if `flit_bytes` is zero.
    #[must_use]
    pub fn with_flit_bytes(mut self, flit_bytes: u32) -> Self {
        assert!(flit_bytes > 0, "flit width must be positive");
        self.flit_bytes = flit_bytes;
        self
    }

    /// Sets the header size in bytes.
    #[must_use]
    pub fn with_header_bytes(mut self, header_bytes: u32) -> Self {
        self.header_bytes = header_bytes;
        self
    }

    /// Sets the per-hop router delay in cycles.
    #[must_use]
    pub fn with_router_delay(mut self, cycles: u64) -> Self {
        self.router_delay = cycles;
        self
    }

    /// Sets the per-channel link delay in cycles.
    ///
    /// # Panics
    ///
    /// Panics if `cycles` is zero (flits must take time to move).
    #[must_use]
    pub fn with_link_delay(mut self, cycles: u64) -> Self {
        assert!(cycles > 0, "link delay must be positive");
        self.link_delay = cycles;
        self
    }

    /// Sets the input buffer depth for the flit-accurate model.
    ///
    /// # Panics
    ///
    /// Panics if `flits` is zero.
    #[must_use]
    pub fn with_buffer_flits(mut self, flits: usize) -> Self {
        assert!(flits > 0, "buffers must hold at least one flit");
        self.buffer_flits = flits;
        self
    }

    /// Sets the number of virtual channels per physical channel.
    ///
    /// # Panics
    ///
    /// Panics if `vcs` is zero.
    #[must_use]
    pub fn with_virtual_channels(mut self, vcs: usize) -> Self {
        assert!(vcs > 0, "need at least one virtual channel");
        self.virtual_channels = vcs;
        self
    }

    /// Sets the route-computation policy.
    #[must_use]
    pub fn with_routing(mut self, routing: Routing) -> Self {
        self.routing = routing;
        self
    }

    /// Virtual-channel classes this configuration's (topology × routing)
    /// pair needs for deadlock freedom — see [`Routing::vc_classes`]. The
    /// flit-accurate router requires `virtual_channels >= vc_classes()`.
    pub fn vc_classes(&self) -> usize {
        self.routing.vc_classes(self.shape.topology())
    }

    /// Total flits for a message with `payload` bytes: header flits plus
    /// payload flits, each rounded up to whole flits.
    pub fn flits_for(&self, payload: u32) -> u64 {
        let hdr = self.header_bytes.div_ceil(self.flit_bytes) as u64;
        let body = payload.div_ceil(self.flit_bytes) as u64;
        hdr + body
    }

    /// Per-hop header latency (routing decision + channel traversal).
    pub fn hop_latency(&self) -> u64 {
        self.router_delay + self.link_delay
    }

    /// Contention-free latency for a `payload`-byte message crossing
    /// `hops` inter-router channels: the header pays a per-hop pipeline
    /// charge for injection, each hop and ejection; the body streams behind
    /// at one flit per `link_delay`.
    pub fn zero_load_latency(&self, payload: u32, hops: u32) -> u64 {
        self.zero_load_flits(self.flits_for(payload), hops)
    }

    /// [`zero_load_latency`](MeshConfig::zero_load_latency) of a message
    /// already sized at `flits` ([`flits_for`](MeshConfig::flits_for)).
    pub(crate) fn zero_load_flits(&self, flits: u64, hops: u32) -> u64 {
        let header_path = (hops as u64 + 2) * self.hop_latency();
        let drain = (flits - 1) * self.link_delay;
        header_path + drain
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flit_rounding() {
        let cfg = MeshConfig::new(2, 2); // flit 2B, header 8B -> 4 hdr flits
        assert_eq!(cfg.flits_for(0), 4);
        assert_eq!(cfg.flits_for(1), 5);
        assert_eq!(cfg.flits_for(2), 5);
        assert_eq!(cfg.flits_for(3), 6);
        assert_eq!(cfg.flits_for(32), 20);
    }

    #[test]
    fn zero_load_components() {
        let cfg = MeshConfig::new(4, 4); // hop = 3 cycles
                                         // 1 hop message, 0 payload: header pipeline (1+2)*3 + (4-1)*1 drain
        assert_eq!(cfg.zero_load_latency(0, 1), 9 + 3);
        // distance grows linearly
        assert_eq!(cfg.zero_load_latency(0, 4) - cfg.zero_load_latency(0, 3), cfg.hop_latency());
    }

    #[test]
    fn builder_chain() {
        let cfg = MeshConfig::new(4, 2)
            .with_flit_bytes(4)
            .with_header_bytes(4)
            .with_router_delay(1)
            .with_link_delay(2)
            .with_buffer_flits(8);
        assert_eq!(cfg.flits_for(16), 1 + 4);
        assert_eq!(cfg.hop_latency(), 3);
        assert_eq!(cfg.buffer_flits, 8);
    }

    #[test]
    #[should_panic(expected = "flit width")]
    fn zero_flit_width_rejected() {
        let _ = MeshConfig::new(2, 2).with_flit_bytes(0);
    }

    #[test]
    fn for_nodes_net_covers_the_vc_class_budget() {
        for topology in [Topology::Mesh, Topology::Torus] {
            for routing in [Routing::Dimension, Routing::Adaptive] {
                let cfg = MeshConfig::for_nodes_net(16, topology, routing);
                assert_eq!(cfg.shape.topology(), topology);
                assert_eq!(cfg.routing, routing);
                assert!(cfg.virtual_channels >= cfg.vc_classes());
            }
        }
        // Mesh + dimension reproduces the historical default exactly.
        assert_eq!(
            MeshConfig::for_nodes_net(16, Topology::Mesh, Routing::Dimension),
            MeshConfig::for_nodes(16)
        );
    }
}
