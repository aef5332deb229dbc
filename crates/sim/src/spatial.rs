//! Spatial indexing of the radio medium.
//!
//! The engine asks two geometric questions: *which nodes can hear a frame
//! sent from here* (asked when a node's cached audible neighbourhood is
//! built or rebuilt) and *which other transmissions might interfere with a
//! frame* (asked once per transmission end). Answered naively both cost a
//! scan over all nodes or all in-flight transmissions; this module answers
//! them with uniform grids over the field, SWANS-style, so each query
//! touches only the cells a disk of the query radius can overlap.
//!
//! Both indexes are **conservative**: a query returns a superset of the
//! entities inside the query disk (everything in the overlapping cells), and
//! the caller re-applies the exact geometric predicate. Because the engine
//! filters candidates with the exact [`crate::radio::RadioModel::audible`]
//! check — and [`NodeGrid::candidates_within`] returns ids in ascending
//! order — runs are bit-for-bit identical whatever the cell size. One cell
//! covering the field turns every query into a full scan, which is the
//! engine's reference setting (`SimConfig::spatial_index = false`).

use crate::geometry::{Field, Position};
use crate::time::SimTime;

/// Shared cell geometry: a `cols × rows` uniform grid over the field.
///
/// Positions outside the field (legal for explicitly placed nodes) are
/// clamped onto the boundary cells. Clamping is monotone, so the
/// conservative-superset property survives: if an unclamped cell coordinate
/// falls inside an unclamped query range, the clamped coordinate falls inside
/// the clamped range.
#[derive(Clone, Debug)]
struct CellGeometry {
    cell: f64,
    cols: usize,
    rows: usize,
}

impl CellGeometry {
    fn new(field: &Field, cell: f64) -> Self {
        assert!(cell > 0.0 && cell.is_finite(), "cell size must be positive");
        CellGeometry {
            cell,
            cols: (field.width / cell).ceil().max(1.0) as usize,
            rows: (field.height / cell).ceil().max(1.0) as usize,
        }
    }

    fn clamp_col(&self, c: f64) -> usize {
        (c.max(0.0) as usize).min(self.cols - 1)
    }

    fn clamp_row(&self, r: f64) -> usize {
        (r.max(0.0) as usize).min(self.rows - 1)
    }

    fn cell_index(&self, p: &Position) -> usize {
        let col = self.clamp_col((p.x / self.cell).floor());
        let row = self.clamp_row((p.y / self.cell).floor());
        row * self.cols + col
    }

    /// The inclusive cell-index rectangle overlapped by a disk of `radius`
    /// around `center`.
    fn block(&self, center: &Position, radius: f64) -> (usize, usize, usize, usize) {
        let lo_col = self.clamp_col(((center.x - radius) / self.cell).floor());
        let hi_col = self.clamp_col(((center.x + radius) / self.cell).floor());
        let lo_row = self.clamp_row(((center.y - radius) / self.cell).floor());
        let hi_row = self.clamp_row(((center.y + radius) / self.cell).floor());
        (lo_col, hi_col, lo_row, hi_row)
    }
}

/// A uniform grid over node positions, maintained incrementally as nodes
/// move on mobility ticks.
#[derive(Clone, Debug)]
pub struct NodeGrid {
    geometry: CellGeometry,
    /// Node ids per cell. Each list is kept sorted ascending.
    cells: Vec<Vec<u32>>,
    /// Current cell of each node, indexed by node id.
    cell_of: Vec<usize>,
    /// Scratch bitmap over node ids, one bit per node. Queries mark
    /// candidate bits and then walk the words in order, which yields
    /// ascending ids without sorting the concatenated cell lists.
    mask: Vec<u64>,
}

impl NodeGrid {
    /// Builds a grid with the given cell size over `positions`.
    ///
    /// # Panics
    ///
    /// Panics if `cell` is non-positive or non-finite.
    pub fn new(field: &Field, cell: f64, positions: &[Position]) -> Self {
        let geometry = CellGeometry::new(field, cell);
        let mut cells = vec![Vec::new(); geometry.cols * geometry.rows];
        let mut cell_of = Vec::with_capacity(positions.len());
        for (i, p) in positions.iter().enumerate() {
            let c = geometry.cell_index(p);
            cells[c].push(i as u32); // ascending: i is monotone
            cell_of.push(c);
        }
        NodeGrid {
            geometry,
            cells,
            mask: vec![0u64; positions.len().div_ceil(64)],
            cell_of,
        }
    }

    /// Re-buckets every node whose position changed. Called once per
    /// mobility tick; O(n) with cheap per-node work.
    pub fn refresh(&mut self, positions: &[Position]) {
        debug_assert_eq!(positions.len(), self.cell_of.len());
        for (i, p) in positions.iter().enumerate() {
            let new_cell = self.geometry.cell_index(p);
            let old_cell = self.cell_of[i];
            if new_cell == old_cell {
                continue;
            }
            let id = i as u32;
            let old = &mut self.cells[old_cell];
            let at = old.binary_search(&id).expect("node missing from its cell");
            old.remove(at);
            let new = &mut self.cells[new_cell];
            let at = new.binary_search(&id).unwrap_err();
            new.insert(at, id);
            self.cell_of[i] = new_cell;
        }
    }

    /// Appends to `out` every node id whose cell overlaps the disk of
    /// `radius` around `center` — a superset of the nodes inside the disk —
    /// in **ascending id order**, whatever the cell size.
    pub fn candidates_within(&mut self, center: &Position, radius: f64, out: &mut Vec<u32>) {
        out.clear();
        self.mask.fill(0);
        let (lo_col, hi_col, lo_row, hi_row) = self.geometry.block(center, radius);
        for row in lo_row..=hi_row {
            for col in lo_col..=hi_col {
                for &id in &self.cells[row * self.geometry.cols + col] {
                    self.mask[id as usize / 64] |= 1u64 << (id % 64);
                }
            }
        }
        for (w, &word) in self.mask.iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                out.push(w as u32 * 64 + bits.trailing_zeros());
                bits &= bits - 1;
            }
        }
    }

    /// The cell index a position maps to (test hook).
    pub fn cell_index(&self, p: &Position) -> usize {
        self.geometry.cell_index(p)
    }

    /// The ids currently bucketed in the cell of `p` (test hook).
    pub fn cell_members(&self, p: &Position) -> &[u32] {
        &self.cells[self.geometry.cell_index(p)]
    }
}

/// One in-flight transmission as the spatial index sees it: everything the
/// engine's carrier-sense and collision probes need, so a grid query answers
/// them without chasing the transmission id back through another table.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TxEntry {
    /// The engine's monotone transmission id.
    pub id: u64,
    /// Airtime start.
    pub start: SimTime,
    /// Airtime end.
    pub end: SimTime,
    /// Transmitting node id.
    pub src: u32,
    /// The transmitter's position at transmission start (the position
    /// collision and carrier-sense checks use).
    pub src_pos: Position,
}

/// A uniform grid over in-flight transmissions, keyed by `src_pos`.
///
/// Per-cell lists stay sorted by id because ids are assigned monotonically
/// and removal preserves order.
#[derive(Clone, Debug)]
pub struct TxGrid {
    geometry: CellGeometry,
    cells: Vec<Vec<TxEntry>>,
}

impl TxGrid {
    /// Builds an empty transmission index with the given cell size.
    ///
    /// # Panics
    ///
    /// Panics if `cell` is non-positive or non-finite.
    pub fn new(field: &Field, cell: f64) -> Self {
        let geometry = CellGeometry::new(field, cell);
        TxGrid {
            cells: vec![Vec::new(); geometry.cols * geometry.rows],
            geometry,
        }
    }

    /// Registers a transmission.
    pub fn insert(&mut self, entry: TxEntry) {
        self.cells[self.geometry.cell_index(&entry.src_pos)].push(entry);
    }

    /// Unregisters transmission `id` originating at `pos`.
    pub fn remove(&mut self, id: u64, pos: &Position) {
        let cell = &mut self.cells[self.geometry.cell_index(pos)];
        let at = cell
            .binary_search_by_key(&id, |e| e.id)
            .expect("tx missing from its cell");
        cell.remove(at);
    }

    /// Calls `f` with every registered transmission whose origin cell
    /// overlaps the disk of `radius` around `center` — a superset of the
    /// transmissions audible there.
    pub fn for_each_within(&self, center: &Position, radius: f64, mut f: impl FnMut(&TxEntry)) {
        let (lo_col, hi_col, lo_row, hi_row) = self.geometry.block(center, radius);
        for row in lo_row..=hi_row {
            for col in lo_col..=hi_col {
                for entry in &self.cells[row * self.geometry.cols + col] {
                    f(entry);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SimRng;
    use std::collections::BTreeSet;

    fn naive_within(positions: &[Position], center: &Position, radius: f64) -> BTreeSet<u32> {
        positions
            .iter()
            .enumerate()
            .filter(|(_, p)| p.distance_squared(center) <= radius * radius)
            .map(|(i, _)| i as u32)
            .collect()
    }

    /// Cell sizes to check: smaller than, about, and larger than the query
    /// radii, plus one cell covering the whole field (the field's max
    /// dimension), which must return every entity.
    const CELLS: [f64; 4] = [37.0, 120.0, 400.0, 1000.0];

    #[test]
    fn candidates_are_a_sorted_superset_of_the_disk() {
        let field = Field::new(1000.0, 800.0);
        let mut rng = SimRng::new(42);
        let positions: Vec<Position> = (0..300).map(|_| field.random_position(&mut rng)).collect();
        let mut out = Vec::new();
        for cell in CELLS {
            let mut grid = NodeGrid::new(&field, cell, &positions);
            for center in &positions {
                for radius in [50.0, 120.0, 333.0] {
                    grid.candidates_within(center, radius, &mut out);
                    assert!(out.windows(2).all(|w| w[0] < w[1]), "not sorted ascending");
                    let candidates: BTreeSet<u32> = out.iter().copied().collect();
                    for inside in naive_within(&positions, center, radius) {
                        assert!(
                            candidates.contains(&inside),
                            "cell {cell}: grid missed node {inside}"
                        );
                    }
                    if cell == 1000.0 {
                        assert_eq!(out.len(), positions.len(), "one cell returns all");
                    }
                }
            }
        }
    }

    #[test]
    fn tx_queries_are_a_superset_of_the_disk() {
        let field = Field::new(1000.0, 800.0);
        let mut rng = SimRng::new(7);
        let entries: Vec<TxEntry> = (0..200u64)
            .map(|id| TxEntry {
                id,
                start: SimTime::ZERO,
                end: SimTime::ZERO,
                src: id as u32,
                src_pos: field.random_position(&mut rng),
            })
            .collect();
        let positions: Vec<Position> = entries.iter().map(|e| e.src_pos).collect();
        let centers: Vec<Position> = (0..100).map(|_| field.random_position(&mut rng)).collect();
        for cell in CELLS {
            let mut grid = TxGrid::new(&field, cell);
            for &e in &entries {
                grid.insert(e);
            }
            for center in &centers {
                for radius in [50.0, 120.0, 333.0] {
                    let mut seen = Vec::new();
                    grid.for_each_within(center, radius, |e| {
                        assert_eq!(*e, entries[e.id as usize], "entry fields travel intact");
                        seen.push(e.id as u32);
                    });
                    let found: BTreeSet<u32> = seen.iter().copied().collect();
                    assert_eq!(found.len(), seen.len(), "cell {cell}: entry visited twice");
                    for inside in naive_within(&positions, center, radius) {
                        assert!(
                            found.contains(&inside),
                            "cell {cell}: grid missed tx {inside}"
                        );
                    }
                    if cell == 1000.0 {
                        assert_eq!(seen.len(), entries.len(), "one cell returns all");
                    }
                }
            }
        }
    }

    #[test]
    fn refresh_moves_nodes_between_cells() {
        let field = Field::new(400.0, 400.0);
        let mut positions = vec![
            Position::new(10.0, 10.0),
            Position::new(390.0, 390.0),
            Position::new(200.0, 200.0),
        ];
        let mut grid = NodeGrid::new(&field, 100.0, &positions);
        assert_eq!(grid.cell_members(&positions[0]), &[0]);

        // Walk node 0 across the whole field in mobility-tick-sized steps.
        for step in 0..40 {
            positions[0] = Position::new(10.0 + step as f64 * 9.7, 10.0 + step as f64 * 9.7);
            grid.refresh(&positions);
        }
        assert_eq!(grid.cell_index(&positions[0]), grid.cell_of[0]);
        assert!(grid.cell_members(&positions[0]).contains(&0));
        // The starting cell no longer lists it.
        assert!(!grid.cell_members(&Position::new(10.0, 10.0)).contains(&0));
        // Total membership is conserved.
        let total: usize = grid.cells.iter().map(Vec::len).sum();
        assert_eq!(total, positions.len());
    }

    #[test]
    fn out_of_field_positions_clamp_onto_boundary_cells() {
        let field = Field::new(300.0, 300.0);
        let positions = vec![Position::new(-50.0, 150.0), Position::new(900.0, 900.0)];
        let mut grid = NodeGrid::new(&field, 100.0, &positions);
        let mut out = Vec::new();
        // A query whose disk covers the out-of-field node must still find it.
        grid.candidates_within(&Position::new(10.0, 150.0), 80.0, &mut out);
        assert!(out.contains(&0));
        grid.candidates_within(&Position::new(290.0, 290.0), 1000.0, &mut out);
        assert!(out.contains(&1));
    }

    #[test]
    fn tx_grid_insert_query_remove_round_trip() {
        let field = Field::new(500.0, 500.0);
        let mut grid = TxGrid::new(&field, 125.0);
        let a = Position::new(10.0, 10.0);
        let b = Position::new(480.0, 480.0);
        let entry = |id: u64, pos: &Position, src: u32| TxEntry {
            id,
            start: SimTime::ZERO,
            end: SimTime::ZERO,
            src,
            src_pos: *pos,
        };
        grid.insert(entry(3, &a, 1));
        grid.insert(entry(7, &b, 3));
        grid.insert(entry(9, &a, 4));

        let mut seen = Vec::new();
        grid.for_each_within(&Position::new(60.0, 60.0), 100.0, |e| seen.push(e.id));
        assert_eq!(seen, vec![3, 9]);

        seen.clear();
        grid.for_each_within(&Position::new(250.0, 250.0), 1000.0, |e| {
            seen.push(e.id);
            assert_eq!(e.src as u64 * 2 + 1, e.id); // fields travel with the entry
        });
        seen.sort_unstable();
        assert_eq!(seen, vec![3, 7, 9]);

        grid.remove(3, &a);
        seen.clear();
        grid.for_each_within(&Position::new(60.0, 60.0), 100.0, |e| seen.push(e.id));
        assert_eq!(seen, vec![9]);
    }

    #[test]
    #[should_panic(expected = "cell size must be positive")]
    fn zero_cell_size_panics() {
        let _ = NodeGrid::new(&Field::new(10.0, 10.0), 0.0, &[]);
    }
}
