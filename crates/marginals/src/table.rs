//! Joint distributions over attribute subsets as dense mixed-radix tables.
//!
//! Every dense table in the suite is row-major (last axis fastest), and
//! every projection of one — [`ContingencyTable::project`], the count
//! engine's [`CountTable::project`](crate::CountTable::project), the
//! consistency step's shared margins, MWEM's workload answers and the
//! variable-elimination factors of `privbayes::inference` — goes through
//! one walk, [`projected_cells`]: for each input cell in index order, the
//! output cell it lands in, found by one odometer step per cell.
//! [`project_values`] sums along that walk, adding each input cell into its
//! output cell in input index order. That order is the bit-identity
//! condition: a float projection equals any other projection that adds
//! the same cells in the same order, so moving a caller onto the walk
//! changes no released value. The oracles the tests compare against keep
//! their own div/mod decoding, so that they share no code with the paths
//! they check.

use std::ops::AddAssign;

use privbayes_data::{Dataset, Schema};

/// One axis of a contingency table: an attribute at a generalisation level.
///
/// Level 0 is the raw attribute; higher levels require a taxonomy tree on the
/// attribute (§5.1). The paper's vanilla encoding only ever uses level 0.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Axis {
    /// Attribute index in the dataset's schema.
    pub attr: usize,
    /// Generalisation level (0 = leaves).
    pub level: usize,
}

impl Axis {
    /// A level-0 axis.
    #[must_use]
    pub fn raw(attr: usize) -> Self {
        Self { attr, level: 0 }
    }

    /// Domain size of this axis under `schema`.
    ///
    /// # Panics
    /// Panics if `level > 0` and the attribute has no taxonomy, or the level
    /// is out of range.
    #[must_use]
    pub fn size(&self, schema: &Schema) -> usize {
        let attribute = schema.attribute(self.attr);
        if self.level == 0 {
            attribute.domain_size()
        } else {
            attribute
                .taxonomy()
                .unwrap_or_else(|| {
                    panic!(
                        "attribute `{}` has no taxonomy for level {}",
                        attribute.name(),
                        self.level
                    )
                })
                .level_size(self.level)
        }
    }
}

/// A dense joint distribution (probability scale) over a list of axes.
///
/// Cells are stored row-major: the **last** axis varies fastest. Values are
/// probabilities (multiples of 1/n when materialised from data), matching the
/// paper's sensitivity analysis (S = 2/n).
#[derive(Debug, Clone, PartialEq)]
pub struct ContingencyTable {
    axes: Vec<Axis>,
    dims: Vec<usize>,
    values: Vec<f64>,
}

impl ContingencyTable {
    /// Materialises the joint distribution of `axes` from `dataset`.
    ///
    /// # Panics
    /// Panics if an axis is invalid for the schema (see [`Axis::size`]) or
    /// `axes` is empty.
    #[must_use]
    pub fn from_dataset(dataset: &Dataset, axes: &[Axis]) -> Self {
        assert!(!axes.is_empty(), "need at least one axis");
        let schema = dataset.schema();
        let dims: Vec<usize> = axes.iter().map(|a| a.size(schema)).collect();
        let cells: usize = dims.iter().product();
        let mut counts = vec![0u64; cells];

        // Per-axis lookup tables: raw code -> (generalised code × stride).
        let mut strides = vec![1usize; axes.len()];
        for i in (0..axes.len().saturating_sub(1)).rev() {
            strides[i] = strides[i + 1] * dims[i + 1];
        }
        let lookups: Vec<Vec<usize>> = axes
            .iter()
            .zip(&strides)
            .map(|(axis, &stride)| {
                let attribute = schema.attribute(axis.attr);
                let raw_size = attribute.domain_size();
                (0..raw_size as u32)
                    .map(|code| {
                        let g = if axis.level == 0 {
                            code
                        } else {
                            attribute
                                .taxonomy()
                                .expect("validated by Axis::size")
                                .generalize(code, axis.level)
                        };
                        g as usize * stride
                    })
                    .collect()
            })
            .collect();

        let n = dataset.n();
        let columns: Vec<&[u32]> = axes.iter().map(|a| dataset.column(a.attr)).collect();
        for row in 0..n {
            let mut idx = 0usize;
            for (col, lookup) in columns.iter().zip(&lookups) {
                idx += lookup[col[row] as usize];
            }
            counts[idx] += 1;
        }

        let scale = if n == 0 { 0.0 } else { 1.0 / n as f64 };
        let values = counts.into_iter().map(|c| c as f64 * scale).collect();
        Self { axes: axes.to_vec(), dims, values }
    }

    /// Builds a table from raw parts (used by noisy releases and tests).
    ///
    /// # Panics
    /// Panics if `values.len()` does not equal the product of `dims`, or the
    /// lengths of `axes` and `dims` differ.
    #[must_use]
    pub fn from_parts(axes: Vec<Axis>, dims: Vec<usize>, values: Vec<f64>) -> Self {
        assert_eq!(axes.len(), dims.len(), "axes/dims length mismatch");
        let cells: usize = dims.iter().product();
        assert_eq!(values.len(), cells, "values length must match dims product");
        Self { axes, dims, values }
    }

    /// The uniform distribution over the axes' domain.
    #[must_use]
    pub fn uniform(axes: Vec<Axis>, dims: Vec<usize>) -> Self {
        let cells: usize = dims.iter().product();
        let v = 1.0 / cells as f64;
        Self::from_parts(axes, dims, vec![v; cells])
    }

    /// Axes of the table.
    #[must_use]
    pub fn axes(&self) -> &[Axis] {
        &self.axes
    }

    /// Per-axis domain sizes.
    #[must_use]
    pub fn dims(&self) -> &[usize] {
        &self.dims
    }

    /// Number of cells.
    #[must_use]
    pub fn cell_count(&self) -> usize {
        self.values.len()
    }

    /// Flat cell values (row-major, last axis fastest).
    #[must_use]
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Mutable flat cell values (e.g. for noise injection).
    pub fn values_mut(&mut self) -> &mut [f64] {
        &mut self.values
    }

    /// Total mass.
    #[must_use]
    pub fn total(&self) -> f64 {
        self.values.iter().sum()
    }

    /// Flat index of a coordinate tuple.
    ///
    /// # Panics
    /// Panics if the coordinate arity or any coordinate is out of range.
    #[must_use]
    pub fn index_of(&self, coords: &[usize]) -> usize {
        assert_eq!(coords.len(), self.dims.len(), "coordinate arity mismatch");
        let mut idx = 0usize;
        for (&c, &d) in coords.iter().zip(&self.dims) {
            assert!(c < d, "coordinate {c} out of dim {d}");
            idx = idx * d + c;
        }
        idx
    }

    /// Coordinate tuple of a flat index (inverse of [`index_of`](Self::index_of)).
    #[must_use]
    pub fn coords_of(&self, mut idx: usize) -> Vec<usize> {
        let mut coords = vec![0usize; self.dims.len()];
        for (c, &d) in coords.iter_mut().zip(&self.dims).rev() {
            *c = idx % d;
            idx /= d;
        }
        coords
    }

    /// Value at a coordinate tuple.
    ///
    /// # Panics
    /// Panics as [`index_of`](Self::index_of).
    #[must_use]
    pub fn get(&self, coords: &[usize]) -> f64 {
        self.values[self.index_of(coords)]
    }

    /// Projects (sums out) onto the axes at positions `keep` (in the given
    /// order) with [`project_values`]. Summation preserves total mass.
    ///
    /// # Panics
    /// Panics if `keep` is empty, repeats a position, or indexes out of range.
    #[must_use]
    pub fn project(&self, keep: &[usize]) -> Self {
        assert!(!keep.is_empty(), "projection must keep at least one axis");
        let values = project_values(&self.dims, &self.values, keep);
        let axes = keep.iter().map(|&k| self.axes[k]).collect();
        let dims = keep.iter().map(|&k| self.dims[k]).collect();
        Self { axes, dims, values }
    }

    /// Projects onto the axes identified by attribute index (level ignored),
    /// in the order given. Convenience for workload evaluation.
    ///
    /// # Panics
    /// Panics if an attribute is not an axis of this table.
    #[must_use]
    pub fn project_attrs(&self, attrs: &[usize]) -> Self {
        let keep: Vec<usize> = attrs
            .iter()
            .map(|&a| {
                self.axes
                    .iter()
                    .position(|ax| ax.attr == a)
                    .unwrap_or_else(|| panic!("attribute {a} is not an axis"))
            })
            .collect();
        self.project(&keep)
    }
}

/// For each cell of a row-major table of `dims`, in index order, the index
/// of the cell it lands in when the table is projected onto the axes at
/// positions `keep`. The output table is row-major over `keep` in the order
/// given; an empty `keep` sends every cell to the one cell of the total.
/// Each cell costs one odometer step, not a division per axis.
///
/// # Panics
/// Panics if `keep` repeats a position or indexes out of range.
pub fn projected_cells(dims: &[usize], keep: &[usize]) -> impl Iterator<Item = usize> {
    for (i, &k) in keep.iter().enumerate() {
        assert!(k < dims.len(), "axis position {k} out of range");
        assert!(!keep[..i].contains(&k), "axis position {k} repeated");
    }
    // How far the output index moves per unit of each input axis (0 for an
    // axis summed out).
    let mut step = vec![0usize; dims.len()];
    let mut stride = 1usize;
    for &k in keep.iter().rev() {
        step[k] = stride;
        stride *= dims[k];
    }
    let dims = dims.to_vec();
    let mut coords = vec![0usize; dims.len()];
    let mut cell = 0usize;
    (0..dims.iter().product::<usize>()).map(move |_| {
        let current = cell;
        for j in (0..dims.len()).rev() {
            coords[j] += 1;
            cell += step[j];
            if coords[j] < dims[j] {
                break;
            }
            coords[j] = 0;
            cell -= step[j] * dims[j];
        }
        current
    })
}

/// Sums `values`, a row-major table of `dims`, onto the axes at positions
/// `keep` (see [`projected_cells`]). Each input cell is added into its output
/// cell in input index order, so two projections of equal inputs are
/// bit-identical, for floats too.
///
/// # Panics
/// Panics if `values.len()` is not the product of `dims`, or as
/// [`projected_cells`].
#[must_use]
pub fn project_values<T: Copy + Default + AddAssign>(
    dims: &[usize],
    values: &[T],
    keep: &[usize],
) -> Vec<T> {
    assert_eq!(values.len(), dims.iter().product::<usize>(), "values length must match dims");
    let cells = projected_cells(dims, keep);
    let mut out = vec![T::default(); keep.iter().map(|&k| dims[k]).product()];
    for (&v, cell) in values.iter().zip(cells) {
        out[cell] += v;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use privbayes_data::{Attribute, TaxonomyTree};
    use proptest::prelude::*;

    fn dataset() -> Dataset {
        let schema = Schema::new(vec![
            Attribute::binary("x"),
            Attribute::categorical("y", 3).unwrap(),
            Attribute::binary("z"),
        ])
        .unwrap();
        Dataset::from_rows(
            schema,
            &[vec![0, 0, 0], vec![0, 0, 1], vec![1, 2, 1], vec![1, 1, 0], vec![1, 2, 1]],
        )
        .unwrap()
    }

    #[test]
    fn joint_matches_hand_count() {
        let ds = dataset();
        let t = ContingencyTable::from_dataset(&ds, &[Axis::raw(0), Axis::raw(1)]);
        assert_eq!(t.dims(), &[2, 3]);
        assert!((t.get(&[0, 0]) - 0.4).abs() < 1e-12);
        assert!((t.get(&[1, 2]) - 0.4).abs() < 1e-12);
        assert!((t.get(&[1, 1]) - 0.2).abs() < 1e-12);
        assert!((t.get(&[0, 1]) - 0.0).abs() < 1e-12);
        assert!((t.total() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn single_axis_is_marginal() {
        let ds = dataset();
        let t = ContingencyTable::from_dataset(&ds, &[Axis::raw(1)]);
        assert_eq!(t.values().len(), 3);
        assert!((t.get(&[0]) - 0.4).abs() < 1e-12);
        assert!((t.get(&[1]) - 0.2).abs() < 1e-12);
        assert!((t.get(&[2]) - 0.4).abs() < 1e-12);
    }

    #[test]
    fn projection_equals_direct_materialisation() {
        let ds = dataset();
        let joint =
            ContingencyTable::from_dataset(&ds, &[Axis::raw(0), Axis::raw(1), Axis::raw(2)]);
        let direct = ContingencyTable::from_dataset(&ds, &[Axis::raw(0), Axis::raw(2)]);
        let projected = joint.project(&[0, 2]);
        assert_eq!(projected.dims(), direct.dims());
        for (a, b) in projected.values().iter().zip(direct.values()) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn projection_reorders_axes() {
        let ds = dataset();
        let joint = ContingencyTable::from_dataset(&ds, &[Axis::raw(0), Axis::raw(1)]);
        let swapped = joint.project(&[1, 0]);
        assert_eq!(swapped.dims(), &[3, 2]);
        assert!((swapped.get(&[2, 1]) - joint.get(&[1, 2])).abs() < 1e-12);
    }

    #[test]
    fn project_attrs_by_attribute_index() {
        let ds = dataset();
        let joint =
            ContingencyTable::from_dataset(&ds, &[Axis::raw(0), Axis::raw(1), Axis::raw(2)]);
        let p = joint.project_attrs(&[2, 1]);
        assert_eq!(p.axes()[0].attr, 2);
        assert_eq!(p.dims(), &[2, 3]);
    }

    #[test]
    fn generalized_axis_uses_taxonomy() {
        let schema = Schema::new(vec![
            Attribute::categorical("w", 4)
                .unwrap()
                .with_taxonomy(TaxonomyTree::balanced_binary(4).unwrap())
                .unwrap(),
            Attribute::binary("f"),
        ])
        .unwrap();
        let ds =
            Dataset::from_rows(schema, &[vec![0, 0], vec![1, 0], vec![2, 1], vec![3, 1]]).unwrap();
        let t = ContingencyTable::from_dataset(&ds, &[Axis { attr: 0, level: 1 }, Axis::raw(1)]);
        assert_eq!(t.dims(), &[2, 2]);
        assert!((t.get(&[0, 0]) - 0.5).abs() < 1e-12, "leaves 0,1 -> node 0, both f=0");
        assert!((t.get(&[1, 1]) - 0.5).abs() < 1e-12, "leaves 2,3 -> node 1, both f=1");
    }

    #[test]
    fn index_coords_round_trip() {
        let t = ContingencyTable::uniform(
            vec![Axis::raw(0), Axis::raw(1), Axis::raw(2)],
            vec![2, 3, 4],
        );
        for idx in 0..t.cell_count() {
            assert_eq!(t.index_of(&t.coords_of(idx)), idx);
        }
        // Last axis fastest.
        assert_eq!(t.index_of(&[0, 0, 1]), 1);
        assert_eq!(t.index_of(&[0, 1, 0]), 4);
        assert_eq!(t.index_of(&[1, 0, 0]), 12);
    }

    #[test]
    fn uniform_total_is_one() {
        let t = ContingencyTable::uniform(vec![Axis::raw(0)], vec![7]);
        assert!((t.total() - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "repeated")]
    fn project_rejects_duplicates() {
        let t = ContingencyTable::uniform(vec![Axis::raw(0), Axis::raw(1)], vec![2, 2]);
        let _ = t.project(&[0, 0]);
    }

    proptest! {
        /// The projection walk equals a div/mod oracle on any table shape and
        /// any kept subset of its axes, in any order, the empty one included.
        #[test]
        fn prop_projected_cells_match_div_mod(
            dims in proptest::collection::vec(1usize..=5, 1..=4),
            order in proptest::collection::vec(any::<u64>(), 4),
            kept in 0usize..=4,
        ) {
            let mut keep: Vec<usize> = (0..dims.len()).collect();
            keep.sort_by_key(|&p| order[p]);
            keep.truncate(kept);
            let cells: usize = dims.iter().product();
            let oracle: Vec<usize> = (0..cells)
                .map(|idx| {
                    let coord = |k: usize| idx / dims[k + 1..].iter().product::<usize>() % dims[k];
                    keep.iter().fold(0, |cell, &k| cell * dims[k] + coord(k))
                })
                .collect();
            prop_assert_eq!(projected_cells(&dims, &keep).collect::<Vec<_>>(), oracle);
        }

        /// Projection preserves total mass and never produces negatives from
        /// non-negative inputs.
        #[test]
        fn prop_projection_mass(
            vals in proptest::collection::vec(0.0f64..1.0, 24..=24),
            keep_first in any::<bool>(),
        ) {
            let t = ContingencyTable::from_parts(
                vec![Axis::raw(0), Axis::raw(1), Axis::raw(2)],
                vec![2, 3, 4],
                vals,
            );
            let keep: Vec<usize> = if keep_first { vec![0, 2] } else { vec![1] };
            let p = t.project(&keep);
            prop_assert!((p.total() - t.total()).abs() < 1e-9);
            prop_assert!(p.values().iter().all(|&v| v >= 0.0));
        }

        /// Materialised joints always sum to 1 and sit on the 1/n grid.
        #[test]
        fn prop_joint_on_grid(rows in proptest::collection::vec((0u32..2, 0u32..3), 1..30)) {
            let schema = Schema::new(vec![
                Attribute::binary("a"),
                Attribute::categorical("b", 3).unwrap(),
            ]).unwrap();
            let rows: Vec<Vec<u32>> = rows.into_iter().map(|(a, b)| vec![a, b]).collect();
            let n = rows.len() as f64;
            let ds = Dataset::from_rows(schema, &rows).unwrap();
            let t = ContingencyTable::from_dataset(&ds, &[Axis::raw(0), Axis::raw(1)]);
            prop_assert!((t.total() - 1.0).abs() < 1e-9);
            for &v in t.values() {
                let scaled = v * n;
                prop_assert!((scaled - scaled.round()).abs() < 1e-9);
            }
        }
    }
}
