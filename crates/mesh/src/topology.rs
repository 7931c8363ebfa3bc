//! Mesh topology: node naming, coordinates, channel enumeration, and the
//! routing abstraction (deterministic dimension-order and minimal-adaptive
//! policies, topology-aware for both the open mesh and the wraparound
//! torus).

use std::fmt;

/// A node (processor + router + network interface) in the mesh.
///
/// Nodes are numbered row-major: `id = y * width + x`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u16);

impl NodeId {
    /// The numeric index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl From<usize> for NodeId {
    fn from(i: usize) -> Self {
        NodeId(u16::try_from(i).expect("node index exceeds u16"))
    }
}

/// An (x, y) mesh coordinate.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Coord {
    /// Column, `0..width`.
    pub x: u16,
    /// Row, `0..height`.
    pub y: u16,
}

/// A directed channel in the mesh.
///
/// Inter-router channels are identified by their source node and direction;
/// each node also has one *injection* channel (NI → router) and one
/// *ejection* channel (router → NI), so traffic sourced at or sinked into a
/// node serializes at its network interface, as in the paper's simulator.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ChannelId(pub u32);

impl fmt::Debug for ChannelId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ch{}", self.0)
    }
}

/// Direction of an inter-router hop.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Dir {
    /// +x
    East,
    /// −x
    West,
    /// +y
    South,
    /// −y
    North,
}

impl Dir {
    fn code(self) -> u32 {
        match self {
            Dir::East => 0,
            Dir::West => 1,
            Dir::South => 2,
            Dir::North => 3,
        }
    }

    fn is_x(self) -> bool {
        matches!(self, Dir::East | Dir::West)
    }
}

/// Whether the 2-D grid wraps around (torus) or not (mesh).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum Topology {
    /// Open grid: edge nodes have no wraparound links (the paper's network).
    #[default]
    Mesh,
    /// Wraparound grid: every row and column is a ring, halving the
    /// average distance. Supported by every model; the flit-accurate
    /// router keeps it deadlock-free with a dateline (escape) virtual-
    /// channel discipline, which needs at least
    /// [`Routing::vc_classes`] virtual channels per physical channel.
    Torus,
}

impl Topology {
    /// The flag spelling of this topology (`"mesh"` / `"torus"`).
    pub fn name(self) -> &'static str {
        match self {
            Topology::Mesh => "mesh",
            Topology::Torus => "torus",
        }
    }

    /// Parses a `--topology` flag value.
    pub fn parse(s: &str) -> Option<Topology> {
        match s {
            "mesh" => Some(Topology::Mesh),
            "torus" => Some(Topology::Torus),
            _ => None,
        }
    }
}

impl fmt::Display for Topology {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// How routes are computed — the policy half of the (topology × routing)
/// matrix, selectable everywhere a [`MeshShape`] is.
///
/// Both policies are *deterministic*: the route for a (src, dst) pair is a
/// pure function of the pair, so every model (the recurrence wormhole, the
/// analytic queueing model, the flit-accurate router and its sharded
/// variant) computes the identical path and simulation output never
/// depends on worker count or message identity.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default, Hash)]
pub enum Routing {
    /// Dimension-ordered (XY) routing: resolve the x offset first, then
    /// the y offset. Deadlock-free on the mesh with a single virtual
    /// channel; the historical behavior and the default.
    #[default]
    Dimension,
    /// Minimal-adaptive routing in the O1TURN style: each (src, dst) pair
    /// deterministically takes either the XY or the YX dimension order,
    /// chosen by a pure hash of the pair so traffic spreads over both
    /// minimal quadrant paths. The two orders live in disjoint
    /// virtual-channel classes, which keeps the scheme deadlock-free
    /// (each class on its own is dimension-ordered).
    Adaptive,
}

impl Routing {
    /// The flag spelling of this policy (`"dimension"` / `"adaptive"`).
    pub fn name(self) -> &'static str {
        match self {
            Routing::Dimension => "dimension",
            Routing::Adaptive => "adaptive",
        }
    }

    /// Parses a `--routing` flag value.
    pub fn parse(s: &str) -> Option<Routing> {
        match s {
            "dimension" => Some(Routing::Dimension),
            "adaptive" => Some(Routing::Adaptive),
            _ => None,
        }
    }

    /// Virtual-channel classes this (topology × routing) pair needs for
    /// deadlock freedom: the torus doubles for the dateline (escape)
    /// discipline, adaptive routing doubles to separate the XY and YX
    /// dimension orders. Mesh + dimension needs exactly one class — the
    /// historical single-VC behavior.
    pub fn vc_classes(self, topology: Topology) -> usize {
        let dateline = match topology {
            Topology::Mesh => 1,
            Topology::Torus => 2,
        };
        let orders = match self {
            Routing::Dimension => 1,
            Routing::Adaptive => 2,
        };
        dateline * orders
    }

    /// Whether this (src, dst) pair routes y-first (YX order). Always
    /// false under [`Routing::Dimension`]; under [`Routing::Adaptive`] a
    /// pure hash of the pair picks the order.
    fn y_first(self, src: NodeId, dst: NodeId) -> bool {
        match self {
            Routing::Dimension => false,
            Routing::Adaptive => {
                let h = (src.0 as u32)
                    .wrapping_mul(0x9E37_79B1)
                    .wrapping_add((dst.0 as u32).wrapping_mul(0x85EB_CA77));
                (h >> 15) & 1 == 1
            }
        }
    }
}

impl fmt::Display for Routing {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Number of bits the output-port code occupies in a packed route hop;
/// the virtual-channel class is stored in the bits above.
pub const HOP_PORT_BITS: u8 = 3;

/// Bitmask extracting the output-port code from a packed route hop.
pub const HOP_PORT_MASK: u8 = (1 << HOP_PORT_BITS) - 1;

/// Output-port code of the local (ejection) port in a packed route hop —
/// one past the four `Dir` direction codes.
pub const HOP_PORT_LOCAL: u8 = 4;

/// The shape of a 2-D mesh and its routing/enumeration rules.
///
/// # Example
///
/// ```
/// use commchar_mesh::{MeshShape, NodeId};
/// let shape = MeshShape::new(4, 4);
/// assert_eq!(shape.nodes(), 16);
/// assert_eq!(shape.hop_distance(NodeId(0), NodeId(15)), 6);
/// let path = shape.xy_route(NodeId(0), NodeId(5));
/// // injection + 2 inter-router hops + ejection
/// assert_eq!(path.len(), 4);
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MeshShape {
    width: u16,
    height: u16,
    topology: Topology,
}

impl MeshShape {
    /// Creates a `width × height` mesh.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(width: u16, height: u16) -> Self {
        assert!(width > 0 && height > 0, "mesh dimensions must be positive");
        MeshShape { width, height, topology: Topology::Mesh }
    }

    /// Creates a `width × height` torus (wraparound grid).
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new_torus(width: u16, height: u16) -> Self {
        assert!(width > 0 && height > 0, "torus dimensions must be positive");
        MeshShape { width, height, topology: Topology::Torus }
    }

    /// The grid's topology.
    pub fn topology(self) -> Topology {
        self.topology
    }

    /// Chooses a near-square shape for `n` nodes (e.g. 8 → 4×2, 16 → 4×4).
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero or not expressible as a near-square grid
    /// (all powers of two and perfect squares are accepted).
    pub fn for_nodes(n: usize) -> Self {
        assert!(n > 0, "node count must be positive");
        let mut w = (n as f64).sqrt().ceil() as usize;
        while w <= n {
            if n.is_multiple_of(w) {
                return MeshShape::new(w as u16, (n / w) as u16);
            }
            w += 1;
        }
        unreachable!("w = n always divides n");
    }

    /// Mesh width (columns).
    pub fn width(self) -> u16 {
        self.width
    }

    /// Mesh height (rows).
    pub fn height(self) -> u16 {
        self.height
    }

    /// Number of nodes.
    pub fn nodes(self) -> usize {
        self.width as usize * self.height as usize
    }

    /// Total channel-id space (inter-router, injection and ejection slots).
    pub fn channel_slots(self) -> usize {
        self.nodes() * 6
    }

    /// Coordinate of a node.
    ///
    /// # Panics
    ///
    /// Panics if the node is out of range.
    pub fn coord(self, node: NodeId) -> Coord {
        assert!(node.index() < self.nodes(), "node {node:?} out of range");
        Coord { x: node.0 % self.width, y: node.0 / self.width }
    }

    /// Node at a coordinate.
    pub fn node_at(self, c: Coord) -> NodeId {
        assert!(c.x < self.width && c.y < self.height, "coordinate out of range");
        NodeId(c.y * self.width + c.x)
    }

    /// The inter-router channel leaving `node` in direction `dir`.
    pub fn channel(self, node: NodeId, dir: Dir) -> ChannelId {
        ChannelId(node.0 as u32 * 6 + dir.code())
    }

    /// The injection channel (NI → router) of `node`.
    pub fn injection(self, node: NodeId) -> ChannelId {
        ChannelId(node.0 as u32 * 6 + 4)
    }

    /// The ejection channel (router → NI) of `node`.
    pub fn ejection(self, node: NodeId) -> ChannelId {
        ChannelId(node.0 as u32 * 6 + 5)
    }

    /// Manhattan (hop) distance between two nodes, excluding NI channels
    /// (wrap-aware on a torus).
    pub fn hop_distance(self, a: NodeId, b: NodeId) -> u32 {
        let ca = self.coord(a);
        let cb = self.coord(b);
        let dx = ca.x.abs_diff(cb.x);
        let dy = ca.y.abs_diff(cb.y);
        match self.topology {
            Topology::Mesh => (dx + dy) as u32,
            Topology::Torus => (dx.min(self.width - dx) + dy.min(self.height - dy)) as u32,
        }
    }

    /// Deterministic dimension-ordered (XY) route from `src` to `dst`:
    /// injection channel, inter-router channels (x first, then y), ejection
    /// channel. Shorthand for [`MeshShape::route`] with
    /// [`Routing::Dimension`].
    ///
    /// # Panics
    ///
    /// Panics if `src == dst` — the network never sees self-messages.
    pub fn xy_route(self, src: NodeId, dst: NodeId) -> Vec<ChannelId> {
        self.route(src, dst, Routing::Dimension)
    }

    /// Deterministic minimal route from `src` to `dst` under `routing`:
    /// injection channel, inter-router channels, ejection channel. Both
    /// policies produce minimal routes, so
    /// `route.len() == hop_distance + 2` on every topology.
    ///
    /// # Panics
    ///
    /// Panics if `src == dst` — the network never sees self-messages.
    pub fn route(self, src: NodeId, dst: NodeId, routing: Routing) -> Vec<ChannelId> {
        let mut path = Vec::with_capacity(2 + self.hop_distance(src, dst) as usize);
        self.route_into(src, dst, routing, &mut path);
        path
    }

    /// [`route`](MeshShape::route), appending into `out` (a buffer the
    /// caller reuses from message to message) instead of allocating.
    ///
    /// # Panics
    ///
    /// Panics if `src == dst` — the network never sees self-messages.
    pub fn route_into(self, src: NodeId, dst: NodeId, routing: Routing, out: &mut Vec<ChannelId>) {
        out.push(self.injection(src));
        self.walk(src, dst, routing, |node, dir, _wrap| out.push(self.channel(node, dir)));
        out.push(self.ejection(dst));
    }

    /// The route as packed per-hop bytes for the flit-accurate router:
    /// one byte per inter-router hop (`class << HOP_PORT_BITS | dir
    /// code`), then one ejection byte (`class 0`, port
    /// [`HOP_PORT_LOCAL`]). The class is the virtual-channel class the
    /// hop's head flit allocates from: the dateline bit flips to 1 on the
    /// hop crossing a torus wrap link and stays set for the rest of that
    /// dimension, and adaptive YX-ordered routes add
    /// `Routing::Dimension.vc_classes(topology)` so the two dimension
    /// orders use disjoint classes. Mesh + dimension packs every hop as
    /// class 0 — the plain port byte of the single-class router.
    ///
    /// # Panics
    ///
    /// Panics if `src == dst` — the network never sees self-messages.
    pub fn route_hops(self, src: NodeId, dst: NodeId, routing: Routing) -> Vec<u8> {
        let mut hops = Vec::with_capacity(1 + self.hop_distance(src, dst) as usize);
        self.route_hops_into(src, dst, routing, &mut hops);
        hops
    }

    /// [`route_hops`](MeshShape::route_hops), appending into `out` (the
    /// flit router's shared route arena) instead of allocating.
    ///
    /// # Panics
    ///
    /// Panics if `src == dst` — the network never sees self-messages.
    pub fn route_hops_into(self, src: NodeId, dst: NodeId, routing: Routing, out: &mut Vec<u8>) {
        let order_base = if routing.y_first(src, dst) {
            Routing::Dimension.vc_classes(self.topology) as u8
        } else {
            0
        };
        let mut dateline = 0u8;
        let mut last_x = None;
        self.walk(src, dst, routing, |_node, dir, wrap| {
            if last_x != Some(dir.is_x()) {
                dateline = 0; // class resets at the dimension switch
                last_x = Some(dir.is_x());
            }
            if wrap {
                dateline = 1;
            }
            let class = order_base + dateline;
            out.push((class << HOP_PORT_BITS) | dir.code() as u8);
        });
        out.push(HOP_PORT_LOCAL);
    }

    /// Walks the minimal route from `src` to `dst` under `routing`,
    /// calling `step(node, dir, wraps)` for each inter-router hop —
    /// `wraps` marks a hop crossing a torus wrap link (the dateline).
    ///
    /// Dimension order resolves x then y; adaptive order is decided per
    /// (src, dst) by [`Routing::y_first`]. On a torus each dimension takes
    /// the shorter way around; equidistant ties split by endpoint parity
    /// so tied pairs do not all pile onto the same ring direction.
    fn walk(
        self,
        src: NodeId,
        dst: NodeId,
        routing: Routing,
        mut step: impl FnMut(NodeId, Dir, bool),
    ) {
        assert_ne!(src, dst, "self-messages do not enter the network");
        let mut cur = self.coord(src);
        let goal = self.coord(dst);
        let tie_forward = (src.0 ^ dst.0) & 1 == 0;
        let step_x = |cur: u16| -> (Dir, u16) {
            let fwd = (goal.x + self.width - cur) % self.width;
            let bwd = self.width - fwd;
            let use_east = match self.topology {
                Topology::Mesh => goal.x > cur,
                Topology::Torus => fwd < bwd || (fwd == bwd && tie_forward),
            };
            if use_east {
                (Dir::East, (cur + 1) % self.width)
            } else {
                (Dir::West, (cur + self.width - 1) % self.width)
            }
        };
        let step_y = |cur: u16| -> (Dir, u16) {
            let fwd = (goal.y + self.height - cur) % self.height;
            let bwd = self.height - fwd;
            let use_south = match self.topology {
                Topology::Mesh => goal.y > cur,
                Topology::Torus => fwd < bwd || (fwd == bwd && tie_forward),
            };
            if use_south {
                (Dir::South, (cur + 1) % self.height)
            } else {
                (Dir::North, (cur + self.height - 1) % self.height)
            }
        };
        let run_x = |cur: &mut Coord, step: &mut dyn FnMut(NodeId, Dir, bool)| {
            while cur.x != goal.x {
                let (dir, nx) = step_x(cur.x);
                let wraps = (dir == Dir::East && nx == 0) || (dir == Dir::West && cur.x == 0);
                step(self.node_at(*cur), dir, wraps);
                cur.x = nx;
            }
        };
        let run_y = |cur: &mut Coord, step: &mut dyn FnMut(NodeId, Dir, bool)| {
            while cur.y != goal.y {
                let (dir, ny) = step_y(cur.y);
                let wraps = (dir == Dir::South && ny == 0) || (dir == Dir::North && cur.y == 0);
                step(self.node_at(*cur), dir, wraps);
                cur.y = ny;
            }
        };
        if routing.y_first(src, dst) {
            run_y(&mut cur, &mut step);
            run_x(&mut cur, &mut step);
        } else {
            run_x(&mut cur, &mut step);
            run_y(&mut cur, &mut step);
        }
    }

    /// The neighbour of `node` in direction `dir`, if it exists (wraps on
    /// a torus, so a torus always has a neighbour in every direction).
    pub fn neighbour(self, node: NodeId, dir: Dir) -> Option<NodeId> {
        let c = self.coord(node);
        let n = match (self.topology, dir) {
            (_, Dir::East) if c.x + 1 < self.width => Coord { x: c.x + 1, y: c.y },
            (_, Dir::West) if c.x > 0 => Coord { x: c.x - 1, y: c.y },
            (_, Dir::South) if c.y + 1 < self.height => Coord { x: c.x, y: c.y + 1 },
            (_, Dir::North) if c.y > 0 => Coord { x: c.x, y: c.y - 1 },
            (Topology::Torus, Dir::East) => Coord { x: 0, y: c.y },
            (Topology::Torus, Dir::West) => Coord { x: self.width - 1, y: c.y },
            (Topology::Torus, Dir::South) => Coord { x: c.x, y: 0 },
            (Topology::Torus, Dir::North) => Coord { x: c.x, y: self.height - 1 },
            _ => return None,
        };
        Some(self.node_at(n))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn row_major_coords() {
        let s = MeshShape::new(4, 2);
        assert_eq!(s.coord(NodeId(0)), Coord { x: 0, y: 0 });
        assert_eq!(s.coord(NodeId(5)), Coord { x: 1, y: 1 });
        assert_eq!(s.node_at(Coord { x: 3, y: 1 }), NodeId(7));
    }

    #[test]
    fn for_nodes_shapes() {
        assert_eq!(MeshShape::for_nodes(8), MeshShape::new(4, 2));
        assert_eq!(MeshShape::for_nodes(16), MeshShape::new(4, 4));
        assert_eq!(MeshShape::for_nodes(32), MeshShape::new(8, 4));
        assert_eq!(MeshShape::for_nodes(9), MeshShape::new(3, 3));
        assert_eq!(MeshShape::for_nodes(1), MeshShape::new(1, 1));
    }

    #[test]
    fn xy_route_goes_x_then_y() {
        let s = MeshShape::new(4, 4);
        // 0 (0,0) -> 10 (2,2): inj, E, E, S, S, ej
        let path = s.xy_route(NodeId(0), NodeId(10));
        assert_eq!(path.len(), 6);
        assert_eq!(path[0], s.injection(NodeId(0)));
        assert_eq!(path[1], s.channel(NodeId(0), Dir::East));
        assert_eq!(path[2], s.channel(NodeId(1), Dir::East));
        assert_eq!(path[3], s.channel(NodeId(2), Dir::South));
        assert_eq!(path[4], s.channel(NodeId(6), Dir::South));
        assert_eq!(path[5], s.ejection(NodeId(10)));
    }

    #[test]
    fn route_length_matches_distance() {
        let s = MeshShape::new(5, 3);
        for a in 0..s.nodes() {
            for b in 0..s.nodes() {
                if a == b {
                    continue;
                }
                let (a, b) = (NodeId::from(a), NodeId::from(b));
                assert_eq!(s.xy_route(a, b).len() as u32, s.hop_distance(a, b) + 2);
            }
        }
    }

    #[test]
    #[should_panic(expected = "self-messages")]
    fn self_route_panics() {
        MeshShape::new(2, 2).xy_route(NodeId(1), NodeId(1));
    }

    #[test]
    fn channels_are_unique() {
        let s = MeshShape::new(3, 3);
        let mut seen = std::collections::HashSet::new();
        for n in 0..s.nodes() {
            let n = NodeId::from(n);
            for dir in [Dir::East, Dir::West, Dir::South, Dir::North] {
                assert!(seen.insert(s.channel(n, dir)));
            }
            assert!(seen.insert(s.injection(n)));
            assert!(seen.insert(s.ejection(n)));
        }
        assert!(seen.iter().all(|c| (c.0 as usize) < s.channel_slots()));
    }

    #[test]
    fn torus_distance_wraps() {
        let t = MeshShape::new_torus(4, 4);
        // Opposite corners: 2 hops on a torus, 6 on a mesh.
        assert_eq!(t.hop_distance(NodeId(0), NodeId(15)), 2);
        assert_eq!(MeshShape::new(4, 4).hop_distance(NodeId(0), NodeId(15)), 6);
        // Route length matches the wrapped distance for every pair.
        for a in 0..t.nodes() {
            for b in 0..t.nodes() {
                if a == b {
                    continue;
                }
                let (a, b) = (NodeId::from(a), NodeId::from(b));
                assert_eq!(t.xy_route(a, b).len() as u32, t.hop_distance(a, b) + 2);
            }
        }
    }

    #[test]
    fn torus_neighbours_wrap() {
        let t = MeshShape::new_torus(3, 2);
        assert_eq!(t.neighbour(NodeId(0), Dir::West), Some(NodeId(2)));
        assert_eq!(t.neighbour(NodeId(0), Dir::North), Some(NodeId(3)));
        assert_eq!(t.neighbour(NodeId(2), Dir::East), Some(NodeId(0)));
    }

    #[test]
    fn routing_names_round_trip() {
        for r in [Routing::Dimension, Routing::Adaptive] {
            assert_eq!(Routing::parse(r.name()), Some(r));
        }
        assert_eq!(Routing::parse("west-first"), None);
        assert_eq!(Routing::default(), Routing::Dimension);
        for t in [Topology::Mesh, Topology::Torus] {
            assert_eq!(Topology::parse(t.name()), Some(t));
        }
        assert_eq!(Topology::parse("hypercube"), None);
    }

    #[test]
    fn vc_class_budget_per_combination() {
        assert_eq!(Routing::Dimension.vc_classes(Topology::Mesh), 1);
        assert_eq!(Routing::Adaptive.vc_classes(Topology::Mesh), 2);
        assert_eq!(Routing::Dimension.vc_classes(Topology::Torus), 2);
        assert_eq!(Routing::Adaptive.vc_classes(Topology::Torus), 4);
    }

    #[test]
    fn adaptive_routes_are_minimal_and_split_orders() {
        for s in [MeshShape::new(5, 4), MeshShape::new_torus(5, 4)] {
            let mut y_first_seen = false;
            let mut x_first_seen = false;
            for a in 0..s.nodes() {
                for b in 0..s.nodes() {
                    if a == b {
                        continue;
                    }
                    let (a, b) = (NodeId::from(a), NodeId::from(b));
                    let path = s.route(a, b, Routing::Adaptive);
                    assert_eq!(path.len() as u32, s.hop_distance(a, b) + 2);
                    assert_eq!(path[0], s.injection(a));
                    assert_eq!(*path.last().unwrap(), s.ejection(b));
                    // The hash must actually use both dimension orders.
                    let ca = s.coord(a);
                    let cb = s.coord(b);
                    if ca.x != cb.x && ca.y != cb.y {
                        let first = path[1].0 % 6;
                        if first <= 1 {
                            x_first_seen = true;
                        } else {
                            y_first_seen = true;
                        }
                    }
                }
            }
            assert!(x_first_seen && y_first_seen, "adaptive never split orders on {s:?}");
        }
    }

    #[test]
    fn packed_hops_on_mesh_dimension_are_plain_port_bytes() {
        let s = MeshShape::new(4, 4);
        // 0 (0,0) -> 10 (2,2): E, E, S, S, eject — all class 0.
        let hops = s.route_hops(NodeId(0), NodeId(10), Routing::Dimension);
        assert_eq!(hops, vec![0, 0, 2, 2, HOP_PORT_LOCAL]);
    }

    #[test]
    fn dateline_class_flips_on_the_wrap_hop() {
        let t = MeshShape::new_torus(5, 1);
        // 3 -> 0 forward: E (wraps 4->0 on the second hop).
        let hops = t.route_hops(NodeId(3), NodeId(0), Routing::Dimension);
        assert_eq!(hops.len(), 3);
        assert_eq!(hops[0] & HOP_PORT_MASK, 0, "east");
        assert_eq!(hops[0] >> HOP_PORT_BITS, 0, "before the dateline");
        assert_eq!(hops[1] >> HOP_PORT_BITS, 1, "wrap hop crosses the dateline");
        assert_eq!(*hops.last().unwrap(), HOP_PORT_LOCAL);
        // Within one dimension the class never decreases (escape
        // discipline), for every pair and policy.
        let t = MeshShape::new_torus(6, 5);
        for routing in [Routing::Dimension, Routing::Adaptive] {
            for a in 0..t.nodes() {
                for b in 0..t.nodes() {
                    if a == b {
                        continue;
                    }
                    let hops = t.route_hops(NodeId::from(a), NodeId::from(b), routing);
                    let mut last: Option<(bool, u8)> = None;
                    for &h in &hops[..hops.len() - 1] {
                        let is_x = (h & HOP_PORT_MASK) <= 1;
                        let class = h >> HOP_PORT_BITS;
                        if let Some((lx, lc)) = last {
                            if lx == is_x {
                                assert!(class >= lc, "class dropped inside a dimension");
                            }
                        }
                        last = Some((is_x, class));
                        assert!((class as usize) < routing.vc_classes(Topology::Torus));
                    }
                }
            }
        }
    }

    #[test]
    fn neighbours_respect_edges() {
        let s = MeshShape::new(3, 2);
        assert_eq!(s.neighbour(NodeId(0), Dir::West), None);
        assert_eq!(s.neighbour(NodeId(0), Dir::North), None);
        assert_eq!(s.neighbour(NodeId(0), Dir::East), Some(NodeId(1)));
        assert_eq!(s.neighbour(NodeId(0), Dir::South), Some(NodeId(3)));
        assert_eq!(s.neighbour(NodeId(5), Dir::East), None);
        assert_eq!(s.neighbour(NodeId(5), Dir::South), None);
    }
}
