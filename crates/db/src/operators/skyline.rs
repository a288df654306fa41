//! `SELECT * … SKYLINE OF <cols>` — §4.4 Example #6.
//!
//! The switch stores a bounded set of projection champions and forwards
//! entries not dominated by them; the master runs the exact pairwise
//! dominance check on the survivors' true coordinates.
//!
//! That check is one [`SkylineWindow`]: the points not yet dominated,
//! each an `[i64; D]` in one flat `Vec`, with `D` — the dimension count,
//! 1 to 4 — fixed once per call. Each selected row is read straight out
//! of its partition's column slices (scanned whole under the identity
//! selection, gathered through the row ids after a pruning pass) and
//! offered: dropped if a held point dominates or equals it, else held,
//! evicting the points it dominates. No row allocates; only the few
//! points of the answer become `Vec`s. The master merges shard skylines
//! through the same window (`merge_shard_outputs`). Presorting the points
//! by coordinate sum, so that the window never evicts, read about 9×
//! slower over the benchmark's 300 k-row rankings table (two dimensions,
//! one thread, a 2-core box): the sort costs more than the evictions it
//! saves, so the window takes the points as they come.

use super::{encode_i64_32, mismatch, Partial, PruningOperator, Selected, Survivors};
use crate::engine::CheetahTuning;
use crate::executor::Tables;
use crate::ops::{self, SkylineWindow};
use crate::query::QueryOutput;
use crate::table::Partition;
use cheetah_core::{QuerySpec, SkylineConfig, SkylinePolicy};

/// The SKYLINE operator.
pub struct SkylineOp<'q> {
    cols: &'q [usize],
    points: usize,
    policy: SkylinePolicy,
}

impl<'q> SkylineOp<'q> {
    /// Skyline over int columns `cols` with the cluster's tuning.
    pub fn new(cols: &'q [usize], tuning: &CheetahTuning) -> Self {
        Self { cols, points: tuning.skyline_points, policy: tuning.skyline_policy }
    }

    /// Dimension `i` of `part` as a raw slice, resolved once per
    /// partition.
    fn dim<'t>(&self, part: &'t Partition, i: usize) -> &'t [i64] {
        part.column(self.cols[i]).as_int().expect("int skyline col")
    }

    /// Fold every selected row into one [`SkylineWindow`] of `D`
    /// dimensions: an identity selection scans the raw column slices, a
    /// row selection gathers through its ids.
    fn window<const D: usize>(&self, src: &Tables<'_>, survivors: &Survivors) -> Vec<Vec<i64>> {
        let mut window = SkylineWindow::<D>::default();
        for (part, sel) in survivors.parts(src, 0) {
            let dims: [&[i64]; D] = std::array::from_fn(|i| self.dim(part, i));
            let point = |r: usize| dims.map(|dim| dim[r]);
            match sel {
                Selected::All(rows) => (0..rows).for_each(|r| window.offer(point(r))),
                Selected::Rows(ids) => ids.iter().for_each(|&r| window.offer(point(r as usize))),
            }
        }
        window.into_points()
    }
}

impl PruningOperator for SkylineOp<'_> {
    fn kind(&self) -> &'static str {
        "skyline"
    }

    fn spec(&self) -> cheetah_core::Result<QuerySpec> {
        Ok(QuerySpec::Skyline(SkylineConfig {
            dims: self.cols.len(),
            points: self.points,
            policy: self.policy,
            packed: true,
        }))
    }

    fn encode_part(&self, _stream: usize, part: &Partition, sink: &mut dyn FnMut(&[u64])) {
        let dims: Vec<&[i64]> = (0..self.cols.len()).map(|i| self.dim(part, i)).collect();
        let mut slots = vec![0u64; dims.len()];
        for r in 0..part.rows() {
            for (out, dim) in slots.iter_mut().zip(&dims) {
                *out = encode_i64_32(dim[r]);
            }
            sink(&slots);
        }
    }

    fn fold(&self, src: &Tables<'_>, survivors: &Survivors) -> Partial {
        Partial::Points(ops::with_dims!(self.cols.len(), D => self.window::<D>(src, survivors)))
    }

    fn finish(&self, partials: Vec<Partial>) -> QueryOutput {
        let mut windows: Vec<Vec<Vec<i64>>> = partials
            .into_iter()
            .map(|p| match p {
                Partial::Points(points) => points,
                p => mismatch(self.kind(), &p),
            })
            .collect();
        if windows.len() == 1 {
            return QueryOutput::Points(windows.pop().expect("one window"));
        }
        // The skyline of several windows' points: each window's survivors
        // offered to one more window, as the master merges shard skylines.
        let points = windows.into_iter().flatten();
        ops::with_dims!(self.cols.len(), D => {
            let mut window = SkylineWindow::<D>::default();
            points.for_each(|p| window.offer(p[..].try_into().expect("a point of D dimensions")));
            QueryOutput::Points(window.into_points())
        })
    }
}
