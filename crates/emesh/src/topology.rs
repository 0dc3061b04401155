//! 2D-mesh geometry and dimension-order routing.

use router::flit::NodeId;
use router::routing::{PortId, RouteFunction};

/// Port numbering inside one mesh router.
pub mod port {
    use router::routing::PortId;
    /// Local NI injection/ejection port.
    pub const LOCAL: PortId = PortId(0);
    /// Toward `y - 1`.
    pub(crate) const NORTH: PortId = PortId(1);
    /// Toward `x + 1`.
    pub(crate) const EAST: PortId = PortId(2);
    /// Toward `y + 1`.
    pub(crate) const SOUTH: PortId = PortId(3);
    /// Toward `x - 1`.
    pub(crate) const WEST: PortId = PortId(4);
    /// Ports per mesh router.
    pub const COUNT: u16 = 5;
}

/// A `cols × rows` mesh; node ids are row-major (`id = y·cols + x`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Mesh2D {
    /// Columns (x extent).
    pub cols: u16,
    /// Rows (y extent).
    pub rows: u16,
}

impl Mesh2D {
    /// Creates a mesh.
    pub fn new(cols: u16, rows: u16) -> Self {
        assert!(cols >= 1 && rows >= 1 && (cols as u32 * rows as u32) >= 2);
        Self { cols, rows }
    }

    /// A square mesh covering `nodes` (must be a perfect square).
    pub fn square(nodes: u32) -> Self {
        let side = (nodes as f64).sqrt().round() as u16;
        assert_eq!(side as u32 * side as u32, nodes, "{nodes} is not square");
        Self::new(side, side)
    }

    /// Node count.
    pub fn nodes(&self) -> u32 {
        self.cols as u32 * self.rows as u32
    }

    /// `(x, y)` of a node id.
    fn coords(&self, id: u32) -> (u16, u16) {
        debug_assert!(id < self.nodes());
        (
            (id % self.cols as u32) as u16,
            (id / self.cols as u32) as u16,
        )
    }

    /// Node id of `(x, y)`.
    pub fn id(&self, x: u16, y: u16) -> u32 {
        debug_assert!(x < self.cols && y < self.rows);
        y as u32 * self.cols as u32 + x as u32
    }

    /// The neighbour of `id` through `port`, if it exists.
    pub fn neighbour(&self, id: u32, p: PortId) -> Option<u32> {
        let (x, y) = self.coords(id);
        match p {
            _ if p == port::NORTH => (y > 0).then(|| self.id(x, y - 1)),
            _ if p == port::EAST => (x + 1 < self.cols).then(|| self.id(x + 1, y)),
            _ if p == port::SOUTH => (y + 1 < self.rows).then(|| self.id(x, y + 1)),
            _ if p == port::WEST => (x > 0).then(|| self.id(x - 1, y)),
            _ => None,
        }
    }

    /// The port on the neighbour that faces back toward us.
    pub fn reverse(p: PortId) -> PortId {
        match p {
            _ if p == port::NORTH => port::SOUTH,
            _ if p == port::SOUTH => port::NORTH,
            _ if p == port::EAST => port::WEST,
            _ if p == port::WEST => port::EAST,
            _ => panic!("no reverse for {p}"),
        }
    }

    /// Manhattan hop distance between two nodes.
    pub fn hops(&self, a: u32, b: u32) -> u32 {
        let (ax, ay) = self.coords(a);
        let (bx, by) = self.coords(b);
        (ax.abs_diff(bx) + ay.abs_diff(by)) as u32
    }

    /// XY dimension-order route step at router `here` for a packet to
    /// `dst`: correct x first, then y, then eject.
    fn xy_step(&self, here: u32, dst: u32) -> PortId {
        let (hx, hy) = self.coords(here);
        let (dx, dy) = self.coords(dst);
        if dx > hx {
            port::EAST
        } else if dx < hx {
            port::WEST
        } else if dy > hy {
            port::SOUTH
        } else if dy < hy {
            port::NORTH
        } else {
            port::LOCAL
        }
    }
}

/// The per-router XY route function.
#[derive(Debug, Clone)]
pub struct XyRoute {
    mesh: Mesh2D,
    here: u32,
}

impl XyRoute {
    /// Creates the route function for router `here`.
    pub fn new(mesh: Mesh2D, here: u32) -> Self {
        assert!(here < mesh.nodes());
        Self { mesh, here }
    }
}

impl RouteFunction for XyRoute {
    fn route(&self, dst: NodeId) -> PortId {
        self.mesh.xy_step(self.here, dst.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coords_roundtrip() {
        let m = Mesh2D::new(4, 3);
        assert_eq!(m.nodes(), 12);
        for id in 0..12 {
            let (x, y) = m.coords(id);
            assert_eq!(m.id(x, y), id);
        }
        assert_eq!(m.coords(0), (0, 0));
        assert_eq!(m.coords(5), (1, 1));
    }

    #[test]
    fn square_constructor() {
        let m = Mesh2D::square(64);
        assert_eq!((m.cols, m.rows), (8, 8));
    }

    #[test]
    #[should_panic(expected = "not square")]
    fn non_square_rejected() {
        Mesh2D::square(48);
    }

    #[test]
    fn neighbours_and_edges() {
        let m = Mesh2D::new(3, 3);
        // Center node 4 has all four neighbours.
        assert_eq!(m.neighbour(4, port::NORTH), Some(1));
        assert_eq!(m.neighbour(4, port::EAST), Some(5));
        assert_eq!(m.neighbour(4, port::SOUTH), Some(7));
        assert_eq!(m.neighbour(4, port::WEST), Some(3));
        // Corner node 0 has only two.
        assert_eq!(m.neighbour(0, port::NORTH), None);
        assert_eq!(m.neighbour(0, port::WEST), None);
        assert_eq!(m.neighbour(0, port::EAST), Some(1));
        assert_eq!(m.neighbour(0, port::SOUTH), Some(3));
    }

    #[test]
    fn reverse_ports() {
        assert_eq!(Mesh2D::reverse(port::NORTH), port::SOUTH);
        assert_eq!(Mesh2D::reverse(port::EAST), port::WEST);
        assert_eq!(Mesh2D::reverse(port::WEST), port::EAST);
        assert_eq!(Mesh2D::reverse(port::SOUTH), port::NORTH);
    }

    #[test]
    fn xy_routes_x_first() {
        let m = Mesh2D::new(4, 4);
        // 0 (0,0) → 15 (3,3): east until x matches, then south.
        assert_eq!(m.xy_step(0, 15), port::EAST);
        assert_eq!(m.xy_step(3, 15), port::SOUTH);
        assert_eq!(m.xy_step(15, 15), port::LOCAL);
        assert_eq!(m.xy_step(15, 0), port::WEST);
        assert_eq!(m.xy_step(12, 0), port::NORTH);
    }

    #[test]
    fn xy_route_always_reduces_distance() {
        let m = Mesh2D::new(5, 4);
        for src in 0..m.nodes() {
            for dst in 0..m.nodes() {
                if src == dst {
                    continue;
                }
                let p = m.xy_step(src, dst);
                let next = m.neighbour(src, p).expect("route step must exist");
                assert_eq!(m.hops(next, dst) + 1, m.hops(src, dst));
            }
        }
    }

    #[test]
    fn hops_is_manhattan() {
        let m = Mesh2D::new(8, 8);
        assert_eq!(m.hops(0, 63), 14);
        assert_eq!(m.hops(0, 0), 0);
        assert_eq!(m.hops(0, 7), 7);
    }
}
